import numpy as np
import pytest

from wnsf.arx import (
    ArxEstimate,
    build_regressors,
    estimate_arx,
    true_eta,
    truncation_tail,
)
from wnsf.lti import BjModel, Polynomial, RationalFilter, impulse_response
from wnsf.simulate import DataSet, LoopConfig, generate


def _dataset(u, y):
    u = np.asarray(u, dtype=float)
    return DataSet(r=np.zeros_like(u), u=u, y=np.asarray(y, dtype=float))


def _arx_truth(a1=-0.5, b1=1.0):
    """First-order equation-error truth A y = B u + e as a BJ model:
    F = A, L = B, C = 1, D = A."""
    return BjModel(
        L=Polynomial([0.0, b1]),
        F=Polynomial([1.0, a1]),
        C=Polynomial([1.0]),
        D=Polynomial([1.0, a1]),
    )


class TestBuildRegressors:
    def test_hand_evaluated_two_term_sum(self):
        data = _dataset([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        R, r_vec = build_regressors(data, n=1)
        assert np.allclose(R, np.array([[1, -1], [-1, 1]]) / 3)
        assert np.allclose(r_vec, [0.0, 0.0])

    def test_all_zero_data(self):
        data = _dataset(np.zeros(20), np.zeros(20))
        R, r_vec = build_regressors(data, n=3)
        assert np.all(R == 0) and np.all(r_vec == 0)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            data = _dataset(rng.standard_normal(60), rng.standard_normal(60))
            R, _ = build_regressors(data, n=5)
            assert np.max(np.abs(R - R.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(R)) > -1e-12

    def test_known_zero_ic_uses_all_rows(self):
        rng = np.random.default_rng(1)
        u, y = rng.standard_normal(30), rng.standard_normal(30)
        data = _dataset(u, y)
        R_full, _ = build_regressors(data, 4, known_zero_ic=True)
        R_trunc, _ = build_regressors(data, 4, known_zero_ic=False)
        assert not np.allclose(R_full, R_trunc)
        # first known-zero-IC regressor row is all zeros (all lags pre-sample)
        phi1 = np.concatenate([-y[:0], u[:0]])
        assert phi1.size == 0  # documentation of the convention
        # adding the t <= n rows can only add energy
        assert np.trace(R_full) >= np.trace(R_trunc) - 1e-12

    def test_order_too_large(self):
        data = _dataset(np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            build_regressors(data, n=5)


class TestEstimateArx:
    def test_noise_free_first_order_recovery(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(500)
        y = np.zeros(500)
        for t in range(1, 500):
            y[t] = 0.5 * y[t - 1] + u[t - 1]
        est = estimate_arx(_dataset(u, y), n=1)
        assert np.max(np.abs(est.eta - [-0.5, 1.0])) < 1e-8

    def test_error_decreases_with_sample_size(self, bench_system,
                                              unit_controller):
        errs = []
        for N in (1000, 10000):
            cfg = LoopConfig(system=bench_system, controller=unit_controller,
                             N=N, seed=3)
            est = estimate_arx(generate(cfg), n=50)
            errs.append(np.linalg.norm(est.eta - true_eta(bench_system, 50)))
        assert errs[1] < errs[0]

    def test_regularized_branch_fires_on_constant_input(self):
        data = _dataset(np.ones(100), np.zeros(100))
        est = estimate_arx(data, n=3)
        assert est.regularized
        assert np.all(np.isfinite(est.eta))

    def test_regularized_solution_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        data = _dataset(rng.standard_normal(200), rng.standard_normal(200))
        est = estimate_arx(data, n=5)
        assert np.max(np.abs(est.R_reg @ est.eta - est.r_vec)) < 1e-10

    def test_plain_and_regularized_coincide_when_well_conditioned(self):
        rng = np.random.default_rng(5)
        data = _dataset(rng.standard_normal(2000), rng.standard_normal(2000))
        est = estimate_arx(data, n=4, delta_reg=1e-6)
        assert not est.regularized
        assert np.array_equal(est.R_reg, est.R)

    def test_zero_delta_on_singular_data_raises(self):
        data = _dataset(np.zeros(50), np.zeros(50))
        with pytest.raises(np.linalg.LinAlgError):
            estimate_arx(data, n=2, delta_reg=0.0)

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(6)
        u, y = rng.standard_normal(300), rng.standard_normal(300)
        est1 = estimate_arx(_dataset(u, y), n=4)
        est2 = estimate_arx(_dataset(3.0 * u, 3.0 * y), n=4)
        assert np.max(np.abs(est1.eta - est2.eta)) < 1e-10

    def test_output_scaling_maps_blocks_linearly(self):
        rng = np.random.default_rng(7)
        u, y = rng.standard_normal(300), rng.standard_normal(300)
        est1 = estimate_arx(_dataset(u, y), n=4)
        est2 = estimate_arx(_dataset(u, 2.0 * y), n=4)
        assert np.max(np.abs(est1.a - est2.a)) < 1e-9
        assert np.max(np.abs(2.0 * est1.b - est2.b)) < 1e-9

    def test_consistency_for_arx_truth(self):
        sys = _arx_truth()
        eta_true = true_eta(sys, 1)
        assert np.allclose(eta_true, [-0.5, 1.0])
        errs = []
        for N in (2500, 40000):
            med = [
                np.linalg.norm(
                    estimate_arx(
                        generate(
                            LoopConfig(system=sys, N=N, seed=seed)),
                        n=1,
                    ).eta
                    - eta_true
                )
                for seed in range(20)
            ]
            errs.append(np.median(med))
        assert errs[1] < errs[0]


class TestTrueEta:
    def test_unit_noise_model(self):
        sys = BjModel(L=Polynomial([0.0, 1.0, 0.1]),
                      F=Polynomial([1.0, -0.5, 0.75]))
        eta = true_eta(sys, 10)
        assert np.all(eta[:10] == 0.0)
        assert np.allclose(eta[10:], impulse_response(sys.G, 11)[1:])

    def test_first_coefficient(self, bench_system):
        eta = true_eta(bench_system, 5)
        assert eta[0] == pytest.approx(-1.6)

    def test_tail_negligible_at_n150(self, bench_system):
        assert truncation_tail(bench_system, 150) < 1e-6

    def test_inversely_unstable_noise_model_rejected(self):
        sys = BjModel(L=Polynomial([0.0, 1.0]), F=Polynomial([1.0, -0.5]),
                      C=Polynomial([1.0, -1.5]), D=Polynomial([1.0]))
        with pytest.raises(ValueError):
            true_eta(sys, 10)

    def test_normal_equations_residual_definition(self):
        rng = np.random.default_rng(8)
        data = _dataset(rng.standard_normal(400), rng.standard_normal(400))
        est = estimate_arx(data, n=6)
        assert isinstance(est, ArxEstimate)
        assert est.a.shape == (6,) and est.b.shape == (6,)
        doc = est.to_json()
        assert doc["n"] == 6 and len(doc["eta"]) == 12
