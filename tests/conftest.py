import numpy as np
import pytest

from wnsf import (
    BjModel,
    LoopConfig,
    ModelOrders,
    Polynomial,
    RationalFilter,
    WnsfOptions,
    generate,
)

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
