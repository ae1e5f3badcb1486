import math

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf

from wnsf import (
    BjModel,
    LoopConfig,
    ModelOrders,
    Polynomial,
    RationalFilter,
    WnsfOptions,
    generate,
)
from wnsf.arx import DELTA_REG_DEFAULT, build_regressors
from wnsf.estimator import ThetaEstimate, _solve_ls, build_Q, reflect_unstable
from wnsf.lti import ONE, filter_signal, is_stable

# one line per acceptance criterion, echoed in the terminal summary where
# output capture cannot swallow it
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def bench_system() -> BjModel:
    """Second-order benchmark system used throughout the test suite:
    G = (q^-1 + 0.1 q^-2)/(1 - 0.5 q^-1 + 0.75 q^-2),
    H = (1 + 0.7 q^-1)/(1 - 0.9 q^-1)."""
    return BjModel(
        L=Polynomial([0.0, 1.0, 0.1]),
        F=Polynomial([1.0, -0.5, 0.75]),
        C=Polynomial([1.0, 0.7]),
        D=Polynomial([1.0, -0.9]),
    )


@pytest.fixture
def unit_controller() -> RationalFilter:
    return RationalFilter(Polynomial([1.0]))


@pytest.fixture
def bench_closed_cfg(bench_system, unit_controller) -> LoopConfig:
    return LoopConfig(system=bench_system, controller=unit_controller,
                      noise_std=1.0, N=10000, seed=0, loop_kind="closed")


@pytest.fixture
def bench_open_cfg(bench_system, unit_controller) -> LoopConfig:
    return LoopConfig(system=bench_system, controller=unit_controller,
                      noise_std=1.0, N=10000, seed=0, loop_kind="open")


@pytest.fixture
def fast_oe_system() -> BjModel:
    """Third-order output-error system with fast poles and a non-minimum-phase
    zero: G = (q^-1 - 1.2 q^-2)/(1 - 2.5 q^-1 + 2.4 q^-2 - 0.88 q^-3)."""
    return BjModel(
        L=Polynomial([0.0, 1.0, -1.2]),
        F=Polynomial([1.0, -2.5, 2.4, -0.88]),
    )


def random_stable_theta(rng: np.random.Generator, m_f, m_l, m_c, m_d,
                        radius: float = 0.9) -> np.ndarray:
    """Parameter vector whose F and C (and D) polynomials have all roots
    inside the given radius."""

    def stable_poly(m):
        coeffs = np.array([1.0])
        roots = []
        while len(roots) < m:
            if m - len(roots) >= 2 and rng.uniform() < 0.5:
                r = rng.uniform(0, radius)
                ph = rng.uniform(0, np.pi)
                roots += [r * np.exp(1j * ph), r * np.exp(-1j * ph)]
            else:
                roots.append(rng.uniform(-radius, radius))
        return np.real(np.poly(roots)) if m else coeffs

    f = stable_poly(m_f)
    c = stable_poly(m_c)
    d = stable_poly(m_d)
    l = rng.standard_normal(m_l)
    return np.concatenate([f[1:], l, c[1:], d[1:]])


def unstable_predictor_record():
    """A record, orders and options under which the one step-3 iterate at
    n = 20 has an F root at 1.03, so no candidate is feasible."""
    orders = ModelOrders(2, 1, 1, 1)
    theta0 = random_stable_theta(np.random.default_rng(249), 2, 1, 1, 1, 0.9)
    data = generate(LoopConfig(system=orders.model(theta0), N=400,
                               noise_std=0.5, seed=249))
    return data, orders, WnsfOptions(n_grid=(20,), max_iter=1)


def interleaved_order(n: int) -> np.ndarray:
    """The interleaved lag order y_1 u_1 y_2 u_2 ... as indices into the
    standard order [a_1..a_n, b_1..b_n]."""
    return np.arange(2 * n).reshape(2, n).T.reshape(-1)


def solve_matrices(data, est, delta_reg: float = DELTA_REG_DEFAULT,
                   known_zero_ic: bool = False):
    """R_reg and r of the ARX estimate ``est`` of ``data``, rebuilt by
    ``build_regressors``: R_reg is R, plus (delta_reg/2) I if the ridge
    fired."""
    R, r_vec = build_regressors(data, est.n, known_zero_ic)
    if est.regularized:
        R = R + (delta_reg / 2.0) * np.eye(2 * est.n)
    return R, r_vec


def interleaved_factor(R_reg: np.ndarray) -> np.ndarray:
    """The reference for ``ArxEstimate.factor``: the upper Cholesky factor U
    of R_reg in the interleaved lag order, P R_reg P^T = U^T U, by LAPACK's
    dpotrf (F-ordered)."""
    order = interleaved_order(len(R_reg) // 2)
    U, info = dpotrf(R_reg[np.ix_(order, order)], lower=0, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of R_reg is not positive definite")
    return U


# The model-built step 3 and PEM cost: the array path of ``wnsf.estimator``
# must match them bit for bit.

def reference_apply_T_inverse(model: BjModel, X: np.ndarray) -> np.ndarray:
    """T^-1 X by filtering with the filters of ``model``."""
    n = len(X) // 2
    z_a = filter_signal(RationalFilter(ONE, model.C), X[:n].T)
    z_b = filter_signal(RationalFilter(ONE, model.F),
                        X[n:].T + filter_signal(RationalFilter(model.L), z_a))
    return np.concatenate([z_a, z_b], axis=-1).T


def reference_step3_wls(arx, theta_prev, orders) -> ThetaEstimate:
    theta_prev, reflected = reflect_unstable(theta_prev, orders)
    model = orders.model(theta_prev)
    X = np.column_stack([build_Q(arx.eta, orders), arx.eta])
    GZ = arx.apply_factor(reference_apply_T_inverse(model, X))
    theta = _solve_ls(GZ[:, :-1], GZ[:, -1])
    return ThetaEstimate(theta, orders, n_used=arx.n, iterations=1,
                         reflected=reflected)


def reference_step3_wls_oe(arx, theta_prev, orders) -> ThetaEstimate:
    theta_prev, reflected = reflect_unstable(theta_prev, orders)
    model = orders.model(theta_prev)
    n = arx.n
    Q2 = build_Q(arx.eta, orders)[n:, :]
    f_filter, l_filter = RationalFilter(model.F), RationalFilter(model.L)

    def tbar(X):
        return (filter_signal(f_filter, X[:, n:])
                - filter_signal(l_filter, X[:, :n]))

    S_w = tbar(tbar(arx.R_inv).T)
    S_w = 0.5 * (S_w + S_w.T)
    Ls = cholesky(S_w, lower=True)
    A = solve_triangular(Ls, Q2, lower=True)
    b = solve_triangular(Ls, arx.b, lower=True)
    theta = _solve_ls(A, b)
    return ThetaEstimate(theta, orders, n_used=arx.n, iterations=1,
                         reflected=reflected)


def reference_pem_cost(theta, data, orders) -> float:
    model = orders.model(theta)
    if not (is_stable(model.C)[0] and is_stable(model.F)[0]):
        return math.inf
    resid = data.y - filter_signal(model.G, data.u)
    eps = filter_signal(RationalFilter(model.D, model.C), resid)
    return float(np.mean(eps**2))
