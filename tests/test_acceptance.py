"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (straight to the real stdout, so the
summary is visible even under pytest capture) and then asserts.
Run with ``pytest tests/test_acceptance.py -v``; criterion 8 is marked slow.
"""

import os
import sys

import numpy as np
import pytest

import conftest
from wnsf.arx import estimate_arx, true_eta
from wnsf.crb import SpectrumModel, compute_mcr, mbar_limit
from wnsf.estimator import (
    ArxEstimate,
    ModelOrders,
    WnsfOptions,
    build_Q,
    build_T,
    build_T_inverse,
    step2_ls,
    step3_wls,
    step3_wls_oe,
    wnsf_identify,
)
from wnsf.lti import BjModel, Polynomial, RationalFilter, toeplitz_matrix
from wnsf.metrics import McExperiment, fit_of_models, run_monte_carlo
from wnsf.simulate import DataSet, LoopConfig, generate

from conftest import random_stable_theta

BJ_ORDERS = ModelOrders(2, 2, 1, 1)
CLOSED_TRACE = 1.0259
OPEN_TRACE = 1.9572
JOBS = min(8, os.cpu_count() or 1)


def _report(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _bench_system() -> BjModel:
    return BjModel(
        L=Polynomial([0.0, 1.0, 0.1]),
        F=Polynomial([1.0, -0.5, 0.75]),
        C=Polynomial([1.0, 0.7]),
        D=Polynomial([1.0, -0.9]),
    )


def _fig_experiment(loop_kind: str, base_seed: int) -> McExperiment:
    cfg = LoopConfig(
        system=_bench_system(),
        controller=RationalFilter(Polynomial([1.0])),
        noise_std=1.0,
        N=10000,
        seed=0,
        loop_kind=loop_kind,
    )
    return McExperiment(
        loop=cfg,
        orders=BJ_ORDERS,
        options=WnsfOptions(n_grid=(50,), known_zero_ic=True),
        base_seed=base_seed,
    )


def _mean_dyn_mse(loop_kind: str, runs: int, base_seed: int) -> float:
    result = run_monte_carlo(_fig_experiment(loop_kind, base_seed), runs,
                             parallelism=JOBS)
    assert result.failures == 0
    return result.aggregate()["mse"]["mean"]


def test_criterion_1_closed_loop_mse_attains_bound():
    mean_mse = _mean_dyn_mse("closed", runs=200, base_seed=0)
    target = CLOSED_TRACE * 1e-4
    ok = 0.8 * target <= mean_mse <= 1.3 * target
    _report(1, ok, f"closed-loop mean dyn MSE {mean_mse:.4e} vs "
                   f"[{0.8 * target:.4e}, {1.3 * target:.4e}]")


def test_criterion_2_open_loop_mse_attains_bound():
    mean_mse = _mean_dyn_mse("open", runs=200, base_seed=0)
    target = OPEN_TRACE * 1e-4
    ok = 0.8 * target <= mean_mse <= 1.3 * target
    _report(2, ok, f"open-loop mean dyn MSE {mean_mse:.4e} vs "
                   f"[{0.8 * target:.4e}, {1.3 * target:.4e}]")


def test_criterion_3_bound_calculator_traces():
    system = _bench_system()
    K = RationalFilter(Polynomial([1.0]))
    traces = {}
    for kind, target in (("closed", CLOSED_TRACE), ("open", OPEN_TRACE)):
        sm = SpectrumModel.from_loop_config(
            LoopConfig(system=system, controller=K, N=1000, seed=0,
                       loop_kind=kind))
        traces[kind] = compute_mcr(sm, grid_size=8192).dyn_block_trace
    ok = (abs(traces["closed"] - CLOSED_TRACE) < 1e-3
          and abs(traces["open"] - OPEN_TRACE) < 1e-3)
    _report(3, ok, f"traces closed {traces['closed']:.5f} (target "
                   f"{CLOSED_TRACE}), open {traces['open']:.5f} "
                   f"(target {OPEN_TRACE})")


def test_criterion_4_oe_fit_and_iteration_improvement():
    # static gains stabilize this plant only for K in (-0.08, 0.10)
    system = BjModel(L=Polynomial([0.0, 1.0, -1.2]),
                     F=Polynomial([1.0, -2.5, 2.4, -0.88]))
    orders = ModelOrders(3, 2)
    K = RationalFilter(Polynomial([0.03]))
    fits_final, fits_it1, fits_it2 = [], [], []
    for seed in range(25):
        cfg = LoopConfig(system=system, controller=K, noise_std=2.0,
                         N=2000, seed=seed)
        data = generate(cfg)
        est = wnsf_identify(
            data, orders, WnsfOptions(n_grid=(250,), max_iter=100, tol=1e-4))
        fits_final.append(fit_of_models(system.G, est.model.G))
        arx = estimate_arx(data, 250)
        t = step2_ls(arx, orders).theta
        it1 = step3_wls_oe(arx, t, orders)
        fits_it1.append(fit_of_models(system.G, it1.model.G))
        it2 = step3_wls_oe(arx, it1.theta, orders)
        fits_it2.append(fit_of_models(system.G, it2.model.G))
    mean_final = float(np.mean(fits_final))
    mean_it1, mean_it2 = float(np.mean(fits_it1)), float(np.mean(fits_it2))
    ok = mean_final >= 95.0 and mean_it2 >= mean_it1
    _report(4, ok, f"mean FIT {mean_final:.2f} (>= 95), iteration means "
                   f"{mean_it1:.2f} -> {mean_it2:.2f}")


def test_criterion_5_exact_algebra_suite():
    rng = np.random.default_rng(0)
    worst = {"toeplitz": 0.0, "residual": 0.0, "inverse": 0.0, "scale": 0.0}

    # coefficient-relation identity: T(a) b = T(b) a on padded truncations
    for _ in range(50):
        a = Polynomial(rng.standard_normal(rng.integers(1, 7)))
        b = Polynomial(rng.standard_normal(rng.integers(1, 7)))
        n = a.degree + b.degree + 1
        lhs = toeplitz_matrix(a, n, len(b.coeffs)) @ b.coeffs
        rhs = toeplitz_matrix(b, n, len(a.coeffs)) @ a.coeffs
        worst["toeplitz"] = max(worst["toeplitz"],
                                float(np.max(np.abs(lhs - rhs))))

    # residual identity on an equation-error truth (finite true eta)
    A = Polynomial([1.0, -0.4, 0.2])
    B = Polynomial([0.0, 1.0, 0.3])
    arx_sys = BjModel(L=B, F=A, C=Polynomial([1.0]), D=A)
    arx_orders = ModelOrders(2, 2, 0, 2)
    n = 12
    eta_o = true_eta(arx_sys, n)
    for _ in range(20):
        eta = rng.standard_normal(2 * n)
        lhs = eta - build_Q(eta, arx_orders) @ arx_sys.theta
        rhs = build_T(arx_sys.theta, n, arx_orders) @ (eta - eta_o)
        worst["residual"] = max(worst["residual"],
                                float(np.max(np.abs(lhs - rhs))))

    # closed-form block inverse of the residual-dynamics matrix
    inv_orders = ModelOrders(2, 2, 2, 2)
    for _ in range(5):
        theta = random_stable_theta(rng, 2, 2, 2, 2)
        T = build_T(theta, 100, inv_orders)
        worst["inverse"] = max(
            worst["inverse"],
            float(np.max(np.abs(T @ build_T_inverse(theta, 100, inv_orders)
                                - np.eye(200)))),
        )

    # weighting scale invariance
    system = _bench_system()
    cfg = LoopConfig(system=system,
                     controller=RationalFilter(Polynomial([1.0])),
                     N=10000, seed=0)
    arx = estimate_arx(generate(cfg), 50)
    ref = step3_wls(arx, system.theta, BJ_ORDERS).theta
    for c in (1e-6, 1e6):
        scaled = ArxEstimate(n=arx.n, eta=arx.eta, R=c * arx.R,
                             r_vec=c * arx.r_vec, N=arx.N,
                             regularized=arx.regularized, R_reg=c * arx.R_reg)
        theta = step3_wls(scaled, system.theta, BJ_ORDERS).theta
        worst["scale"] = max(worst["scale"],
                             float(np.max(np.abs(theta - ref))))

    ok = (worst["toeplitz"] <= 1e-12 and worst["residual"] <= 1e-12
          and worst["inverse"] <= 1e-10 and worst["scale"] <= 1e-12)
    _report(5, ok, "max residuals "
                   + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_6_reduction_recovers_truth_from_exact_coefficients():
    system = _bench_system()
    n = 150
    eta = true_eta(system, n)
    arx = ArxEstimate(n=n, eta=eta, R=np.eye(2 * n), r_vec=eta.copy(),
                      N=10000, regularized=False, R_reg=np.eye(2 * n))
    theta = step2_ls(arx, BJ_ORDERS).theta
    err = float(np.max(np.abs(theta - [-0.5, 0.75, 1.0, 0.1, 0.7, -0.9])))
    _report(6, err < 1e-5, f"max parameter error {err:.2e} (< 1e-5)")


def test_criterion_7_finite_order_information_converges():
    sm = SpectrumModel.from_loop_config(
        LoopConfig(system=_bench_system(),
                   controller=RationalFilter(Polynomial([1.0])),
                   N=1000, seed=0))
    M_cr = compute_mcr(sm).M
    rel = (np.linalg.norm(mbar_limit(sm, n=200) - M_cr)
           / np.linalg.norm(M_cr))
    _report(7, rel < 1e-2, f"relative information-matrix error {rel:.2e} "
                           "(< 1e-2) at n=200")


@pytest.mark.slow
def test_criterion_8_asymptotic_covariance_matches_bound():
    runs, N = 500, 10000
    result = run_monte_carlo(_fig_experiment("closed", base_seed=3000), runs,
                             parallelism=JOBS)
    assert result.failures == 0
    system = _bench_system()
    thetas = result.thetas()
    scaled = np.sqrt(N) * (thetas - system.theta)
    emp_diag = np.var(scaled, axis=0, ddof=1) + np.mean(scaled, axis=0) ** 2
    sm = SpectrumModel.from_loop_config(
        LoopConfig(system=system,
                   controller=RationalFilter(Polynomial([1.0])),
                   N=N, seed=0))
    target_diag = sm.sigma2 * np.diag(compute_mcr(sm).M_inv)
    rel = np.abs(emp_diag - target_diag) / target_diag
    ok = bool(np.all(rel <= 0.25))
    _report(8, ok, "per-parameter covariance mismatch "
                   + np.array2string(rel, precision=3) + " (all <= 0.25)")
