"""Weighted null-space fitting: reduction of a high-order ARX estimate to a
structured Box-Jenkins (or output-error) model.

Step 2 solves the over-determined Toeplitz system eta = Q(eta) theta by least
squares.  Step 3 re-solves it with the statistically optimal weighting
W = T^-T R T^-1 built from the previous parameter estimate, and may be
iterated.  T is block lower-triangular Toeplitz in C, L and F, so T^-1 is
applied by filtering with 1/C and 1/F (``apply_T_inverse``); step 3 first
reflects the unstable roots of the estimate it weights with
(``reflect_unstable``).  The dense T of ``build_T`` is only a reference for
the tests.  Without a noise model (output error) the weighting is
(Tbar R^-1 Tbar^T)^-1, Tbar = [-Tl  Tf]: R^-1 is formed once per n
(``ArxEstimate.R_inv``) and Tbar R^-1 Tbar^T is two FIR filterings of its
columns, by L and by F, so Tbar is never formed either.  The ARX order n and
the iteration are selected by the quadratic prediction-error cost.

The per-iterate path works on coefficient arrays: step 3 and ``pem_cost``
read F, L, C and D from theta's blocks (``ModelOrders.polynomials``) and
filter with ``lti.filter_coeffs``, and their stability verdicts come from
the Schur-Cohn screen of ``lti.is_stable_coeffs``, which finds roots only
for a polynomial it cannot pass.  No model object is built per iterate;
``ThetaEstimate.model`` builds the one a caller asks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .arx import DELTA_REG_DEFAULT, ArxEstimate, ArxGrid
from .lti import (
    ONE,
    TOL_STAB,
    BjModel,
    Polynomial,
    _schur_cohn_screen,
    filter_coeffs,
    is_stable,
    is_stable_coeffs,
    split_theta,
    toeplitz_matrix,
)
from .simulate import DataSet, _finite, _integer


REFLECT_CLAMP = 0.999  # largest |root| that reflect_unstable leaves


class RankDeficientError(np.linalg.LinAlgError):
    """Q lost column rank: non-coprime or over-parametrized model orders."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


def _failures_json(failures: Dict[int, str]) -> dict:
    return {str(n): reason for n, reason in sorted(failures.items())}


class IdentificationError(RuntimeError):
    """Every (n, iteration) candidate was infeasible."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}

    def to_json(self):
        return {"failures": _failures_json(self.diagnostics)}


@dataclass(frozen=True)
class ModelOrders:
    m_f: int
    m_l: int
    m_c: int = 0
    m_d: int = 0

    def __post_init__(self):
        # a plant needs m_f >= 1 and m_l >= 1
        for name, low in (("m_f", 1), ("m_l", 1), ("m_c", 0), ("m_d", 0)):
            object.__setattr__(self, name,
                               _integer(getattr(self, name), name, low))

    @property
    def dim(self) -> int:
        return self.m_f + self.m_l + self.m_c + self.m_d

    @property
    def dyn_dim(self) -> int:
        return self.m_f + self.m_l

    @property
    def is_oe(self) -> bool:
        return self.m_c == 0 and self.m_d == 0

    def model(self, theta) -> BjModel:
        return BjModel.from_theta(theta, self.m_f, self.m_l, self.m_c, self.m_d)

    def polynomials(self, theta):
        """The coefficient arrays (F, L, C, D) of ``model(theta)``."""
        return split_theta(theta, self.m_f, self.m_l, self.m_c, self.m_d)


@dataclass
class ThetaEstimate:
    theta: np.ndarray
    orders: ModelOrders
    n_used: int
    iterations: int
    pem_cost: float = math.nan  # until wnsf_identify evaluates it
    step2_theta: Optional[np.ndarray] = None
    reflected: bool = False
    regularized: bool = False  # step 1 solved with the ridge
    trace: List[dict] = field(default_factory=list)
    failures: Dict[int, str] = field(default_factory=dict)  # n -> reason

    @property
    def model(self) -> BjModel:
        return self.orders.model(self.theta)

    @property
    def stable_noise_model(self) -> bool:
        """Whether C and D are both stable (H and 1/H stable)."""
        _, _, C, D = self.orders.polynomials(self.theta)
        return is_stable_coeffs(C) and is_stable_coeffs(D)

    def to_json(self):
        return {
            "theta": self.theta.tolist(),
            "orders": [self.orders.m_f, self.orders.m_l,
                       self.orders.m_c, self.orders.m_d],
            "n_used": self.n_used,
            "iterations": self.iterations,
            "pem_cost": self.pem_cost,
            "step2_theta": None if self.step2_theta is None
            else self.step2_theta.tolist(),
            "stable_noise_model": self.stable_noise_model,
            "reflected": self.reflected,
            "regularized": self.regularized,
            # JSON has no infinity: an unstable predictor's cost is null
            "trace": [dict(entry, pem_cost=None)
                      if not math.isfinite(entry["pem_cost"]) else entry
                      for entry in self.trace],
            "failures": _failures_json(self.failures),
        }


@dataclass(frozen=True)
class WnsfOptions:
    """Settings of ``wnsf_identify``; a ValueError for a bad field starts
    with its name."""

    n_grid: Sequence[int] = (50, 100, 150, 200, 250, 300)
    max_iter: int = 100
    tol: float = 1e-4
    delta_reg: float = DELTA_REG_DEFAULT
    known_zero_ic: bool = False

    def __post_init__(self):
        try:
            grid = tuple(_integer(n, f"n_grid[{k}]", 1)
                         for k, n in enumerate(self.n_grid))
        except TypeError:
            raise ValueError("n_grid must be a sequence of integers")
        if not grid:
            raise ValueError("n_grid must not be empty")
        for n in grid:
            if grid.count(n) > 1:
                raise ValueError(f"n_grid repeats n={n}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "max_iter",
                           _integer(self.max_iter, "max_iter", 1))
        for name in ("tol", "delta_reg"):
            if _finite(getattr(self, name), name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not isinstance(self.known_zero_ic, bool):
            raise ValueError("known_zero_ic must be true or false, not "
                             f"{self.known_zero_ic!r}")


def build_Q(eta: np.ndarray, orders: ModelOrders) -> np.ndarray:
    """Block-Toeplitz matrix mapping theta to the first n high-order
    coefficient relations; layout [0 0 -Qc Qd; -Qf Ql 0 0]."""
    eta = np.asarray(eta, dtype=float)
    n = len(eta) // 2
    if n < max(orders.m_f, orders.m_l, orders.m_c, orders.m_d):
        raise ValueError("ARX order n is below the requested model orders")
    a_poly = np.concatenate([[1.0], eta[:n]])
    b_poly = np.concatenate([[0.0], eta[n:]])

    Q = np.zeros((2 * n, orders.dim))
    j = 0
    # a-block rows: a = -T(A) c + d
    if orders.m_c:
        Q[:n, orders.dyn_dim: orders.dyn_dim + orders.m_c] = -toeplitz_matrix(
            a_poly, n, orders.m_c
        )
    if orders.m_d:
        j = orders.dyn_dim + orders.m_c
        Q[: orders.m_d, j: j + orders.m_d] = np.eye(orders.m_d)
    # b-block rows: b = -T(B) f + T(A) l
    Q[n:, : orders.m_f] = -toeplitz_matrix(b_poly, n, orders.m_f)
    Q[n:, orders.m_f: orders.dyn_dim] = toeplitz_matrix(a_poly, n, orders.m_l)
    return Q


def build_T(theta: np.ndarray, n: int, orders: ModelOrders) -> np.ndarray:
    """Residual-dynamics matrix [Tc 0; -Tl Tf]; lower triangular with unit
    diagonal.  The dense reference for ``apply_T_inverse``: no production
    code calls it."""
    model = orders.model(theta)
    T = np.zeros((2 * n, 2 * n))
    T[:n, :n] = toeplitz_matrix(model.C, n, n)
    T[n:, :n] = -toeplitz_matrix(model.L, n, n)
    T[n:, n:] = toeplitz_matrix(model.F, n, n)
    return T


def apply_T_inverse(F: np.ndarray, L: np.ndarray, C: np.ndarray,
                    X: np.ndarray) -> np.ndarray:
    """T^-1 X for X with 2n rows, T built from the coefficient arrays F, L
    and C (``ModelOrders.polynomials``), whose F and C the caller has found
    stable.  By forward substitution: each column is filtered with zero
    initial conditions, Z_a = X_a / C and Z_b = (X_b + L Z_a) / F."""
    n = len(X) // 2
    one = ONE.coeffs
    # filter_coeffs runs along the last axis; the columns of X are signals
    z_a = filter_coeffs(one, C, X[:n].T)
    z_b = filter_coeffs(one, F, X[n:].T + filter_coeffs(L, one, z_a))
    return np.concatenate([z_a, z_b], axis=-1).T


def build_T_inverse(theta: np.ndarray, n: int, orders: ModelOrders) -> np.ndarray:
    """Dense T^-1, ``apply_T_inverse`` on the identity, for the tests."""
    F, L, C, _ = orders.polynomials(theta)
    return apply_T_inverse(F, L, C, np.eye(2 * n))


def _solve_ls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares via orthogonal factorization; rejects rank deficiency."""
    sol, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if rank < A.shape[1]:
        with np.errstate(over="ignore"):  # a subnormal sv[-1] gives inf
            cond = math.inf if sv[-1] == 0 else sv[0] / sv[-1]
        raise RankDeficientError(
            f"rank-deficient reduction matrix (rank {rank} < {A.shape[1]}); "
            "check for non-coprime or over-parametrized orders",
            cond=cond,
        )
    return sol


def step2_ls(arx: ArxEstimate, orders: ModelOrders) -> ThetaEstimate:
    """Unweighted least-squares reduction of the high-order estimate."""
    Q = build_Q(arx.eta, orders)
    if orders.is_oe:
        theta = _solve_ls(Q[arx.n:, :], arx.b)
    else:
        theta = _solve_ls(Q, arx.eta)
    return ThetaEstimate(theta, orders, n_used=arx.n, iterations=0)


def step3_wls(arx: ArxEstimate, theta_prev: np.ndarray,
              orders: ModelOrders) -> ThetaEstimate:
    """Weighted re-estimation with W = T^-T R T^-1 built at theta_prev,
    whose unstable roots are reflected first (``reflected`` on the result).

    W is never formed: with R = G^T G (G from the factor kept on ``arx``)
    the problem is the plain least squares of (G T^-1 Q, G T^-1 eta), and
    T^-1 is applied to [Q | eta] in one filtering pass.
    """
    theta_prev, reflected = reflect_unstable(theta_prev, orders)
    F, L, C, _ = orders.polynomials(theta_prev)
    X = np.column_stack([build_Q(arx.eta, orders), arx.eta])
    GZ = arx.apply_factor(apply_T_inverse(F, L, C, X))
    theta = _solve_ls(GZ[:, :-1], GZ[:, -1])
    return ThetaEstimate(theta, orders, n_used=arx.n, iterations=1,
                         reflected=reflected)


def step3_wls_oe(arx: ArxEstimate, theta_prev: np.ndarray,
                 orders: ModelOrders) -> ThetaEstimate:
    """No-noise-model variant: only the plant relations are kept and the
    weighting is S_w^-1, S_w = Tbar R^-1 Tbar^T with Tbar = [-Tl  Tf],
    built at theta_prev after ``reflect_unstable`` as in ``step3_wls``.

    Tbar is never formed.  Tf X is the columns of X filtered by F and cut at
    n rows (Tl X likewise by L), so with R^-1 from ``arx.R_inv`` (formed once
    per n) S_w is two FIR passes, O(n^2 m); the n x n Cholesky of S_w is the
    only cubic work per iteration.
    """
    if not orders.is_oe:
        raise ValueError("OE step requires m_c = m_d = 0")
    theta_prev, reflected = reflect_unstable(theta_prev, orders)
    F, L, _, _ = orders.polynomials(theta_prev)
    n = arx.n
    Q2 = build_Q(arx.eta, orders)[n:, :]
    one = ONE.coeffs

    def tbar(X):
        # (Tbar X^T)^T for X with 2n columns: filter_coeffs runs along the
        # last axis, so the rows of X are the signals
        return filter_coeffs(F, one, X[:, n:]) - filter_coeffs(L, one, X[:, :n])

    # R^-1 Tbar^T (2n x n), then Tbar R^-1 Tbar^T
    S_w = tbar(tbar(arx.R_inv).T)
    S_w = 0.5 * (S_w + S_w.T)
    Ls = cholesky(S_w, lower=True)
    A = solve_triangular(Ls, Q2, lower=True)
    b = solve_triangular(Ls, arx.b, lower=True)
    theta = _solve_ls(A, b)
    return ThetaEstimate(theta, orders, n_used=arx.n, iterations=1,
                         reflected=reflected)


def reflect_unstable(theta: np.ndarray, orders: ModelOrders):
    """Reflect the roots of F and C that ``is_stable`` rejects
    (|z| >= 1 - TOL_STAB) to 1/conj(root), clamped to magnitude
    ``REFLECT_CLAMP``.  Returns (theta, changed): a copy of theta with the
    reflected F and C blocks, or theta itself when nothing was reflected.
    Step 3 calls it on the estimate it weights with.  Roots are found only
    for a block the Schur-Cohn screen of ``is_stable_coeffs`` does not pass."""
    if len(theta) != orders.dim:
        raise ValueError("theta length does not match the given orders")
    out = theta
    for start, m in ((0, orders.m_f), (orders.dyn_dim, orders.m_c)):
        block = slice(start, start + m)
        coeffs = np.concatenate([[1.0], theta[block]])
        if _schur_cohn_screen(coeffs):
            continue
        stable, roots = is_stable(Polynomial(coeffs))
        if stable:
            continue
        bad = np.abs(roots) >= 1.0 - TOL_STAB
        roots[bad] = 1.0 / np.conj(roots[bad])
        mags = np.abs(roots)
        shrink = mags > REFLECT_CLAMP
        roots[shrink] *= REFLECT_CLAMP / mags[shrink]
        if out is theta:
            out = np.array(theta, dtype=float)
        out[block] = np.real(np.poly(roots))[1:]
    return out, out is not theta


def pem_cost(theta: np.ndarray, data: DataSet, orders: ModelOrders) -> float:
    """Quadratic prediction-error cost (1/N) sum eps_t^2 with zero initial
    conditions; +inf when the predictor (C or F) is unstable."""
    F, L, C, D = orders.polynomials(theta)
    if not (is_stable_coeffs(C) and is_stable_coeffs(F)):
        return math.inf
    resid = data.y - filter_coeffs(L, F, data.u)   # y - G u
    eps = filter_coeffs(D, C, resid)               # H^-1 (y - G u)
    return float(np.mean(eps**2))


def _identify_order(step1: ArxGrid, n: int, data: DataSet,
                    orders: ModelOrders, options: WnsfOptions,
                    failures: Dict[int, str]) -> List[ThetaEstimate]:
    """Steps 1-3 at ARX order n: the step-3 iterates, each with its PEM
    cost.  A failure is recorded in ``failures``.  The order's ARX estimate
    lives only as long as this call."""
    step3 = step3_wls_oe if orders.is_oe else step3_wls
    try:
        arx = step1.estimate(n)
        current = step2_ls(arx, orders)
    except (np.linalg.LinAlgError, ValueError) as exc:
        failures[n] = f"step 1/2 failed: {exc}"
        return []
    iterates = []
    step2_theta = current.theta
    theta_prev = current.theta
    any_reflection = False
    for it in range(1, options.max_iter + 1):
        try:
            est = step3(arx, theta_prev, orders)
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.setdefault(n, f"step 3 failed at iter {it}: {exc}")
            break
        any_reflection = any_reflection or est.reflected
        est.iterations = it
        est.step2_theta = step2_theta
        est.reflected = any_reflection
        est.regularized = arx.regularized
        est.pem_cost = pem_cost(est.theta, data, orders)
        iterates.append(est)
        rel_change = np.linalg.norm(est.theta - theta_prev) / (
            np.linalg.norm(theta_prev) + 1e-12
        )
        theta_prev = est.theta
        if rel_change < options.tol:
            break
    return iterates


def wnsf_identify(data: DataSet, orders: ModelOrders,
                  options: WnsfOptions = WnsfOptions()) -> ThetaEstimate:
    """Full pipeline: for each n in the grid run steps 1-3, iterate step 3
    re-using the latest estimate in the weighting, and return the candidate
    with minimal prediction-error cost (smaller n, then fewer iterations, on
    ties).  Candidates whose weighting needed root reflection are kept out of
    the selection unless nothing else is available.  Step 1 is ``ArxGrid``,
    shared by the grid under ``known_zero_ic``; the reason each failed n
    failed is kept on the result as ``failures``."""
    step1 = ArxGrid(data, options.n_grid, options.delta_reg,
                    options.known_zero_ic)
    candidates = []
    failures = {}
    for n in options.n_grid:
        candidates += _identify_order(step1, n, data, orders, options,
                                      failures)

    feasible = [c for c in candidates if math.isfinite(c.pem_cost)]
    selectable = [c for c in feasible if not c.reflected] or feasible
    if not selectable:
        for c in candidates:  # none has a finite pem_cost: F or C unstable
            failures.setdefault(c.n_used, "no iterate with a stable predictor")
        raise IdentificationError(
            "no feasible WNSF candidate on the given n grid",
            diagnostics=failures,
        )
    best = min(selectable, key=lambda c: (c.pem_cost, c.n_used, c.iterations))
    best.failures = failures
    best.trace = [
        {
            "n": c.n_used,
            "iter": c.iterations,
            "theta": c.theta.tolist(),
            "pem_cost": c.pem_cost,
            "reflected": c.reflected,
            "regularized": c.regularized,
        }
        for c in candidates
    ]
    return best
