from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky

from wnsf.arx import (
    ArxEstimate,
    ArxGrid,
    build_regressors,
    estimate_arx,
    solve_leading_blocks,
    true_eta,
)
from wnsf.lti import BjModel, Polynomial, RationalFilter, impulse_response
from wnsf.simulate import DataSet, LoopConfig, generate

from conftest import interleaved_factor, interleaved_order, solve_matrices


def truncation_tail(system: BjModel, n: int, horizon: int = 20000) -> float:
    """d(n) = sum_{k>n} |a_k| + |b_k|, evaluated on a long finite horizon."""
    full = true_eta(system, horizon)
    a, b = full[:horizon], full[horizon:]
    return float(np.sum(np.abs(a[n:])) + np.sum(np.abs(b[n:])))


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


def _lag_matrix(x: np.ndarray, n: int, rows: int, offset: int) -> np.ndarray:
    """rows x n matrix whose row i holds x lagged 1..n at time offset+i
    (1-indexed time), with zero padding for t <= 0."""
    padded = np.concatenate([np.zeros(n), x])
    out = np.empty((rows, n))
    for lag in range(1, n + 1):
        # value x_{t-lag} for t = offset .. offset+rows-1
        start = n + offset - 1 - lag
        out[:, lag - 1] = padded[start: start + rows]
    return out


def dense_regressors(data: DataSet, n: int, known_zero_ic: bool = False):
    """Reference (R, r): form the N x 2n regressor phi and take phi^T phi."""
    N = data.N
    t0 = 1 if known_zero_ic else n + 1
    rows = N - t0 + 1
    phi = np.hstack(
        [-_lag_matrix(data.y, n, rows, t0), _lag_matrix(data.u, n, rows, t0)]
    )
    R = (phi.T @ phi) / N
    return 0.5 * (R + R.T), (phi.T @ data.y[t0 - 1:]) / N


@st.composite
def _regressions(draw):
    N = draw(st.integers(3, 160))
    n_max = (N - 1) // 2
    n = draw(st.sampled_from([1, n_max]) | st.integers(1, n_max))
    return (N, n, draw(st.booleans()), draw(st.floats(-3.0, 3.0)),
            draw(st.floats(-3.0, 3.0)), draw(st.integers(0, 2**32 - 1)))


class TestStructuredRegressors:
    """The structured (R, r) against the dense oracle above."""

    @settings(max_examples=150, deadline=None)
    @given(_regressions())
    @example((3, 1, False, 0.0, 0.0, 0))
    @example((3, 1, True, 0.0, 0.0, 0))
    @example((9, 4, True, 2.0, -2.0, 1))
    @example((301, 150, False, -1.0, 1.0, 2))
    def test_matches_dense(self, case):
        N, n, known_zero_ic, log_su, log_sy, seed = case
        rng = np.random.default_rng(seed)
        u = 10.0**log_su * rng.standard_normal(N)
        y = 10.0**log_sy * (np.cumsum(rng.standard_normal(N)) / 4 + u)
        data = _dataset(u, y)
        R, r_vec = build_regressors(data, n, known_zero_ic)
        R_ref, r_ref = dense_regressors(data, n, known_zero_ic)
        # relative to the Cauchy-Schwarz bound of each entry
        d = np.sqrt(np.diag(R_ref))
        y_rms = np.sqrt(np.sum(y[(0 if known_zero_ic else n):] ** 2) / N)
        assert np.all(np.abs(R - R_ref) <= 1e-12 * np.outer(d, d))
        assert np.all(np.abs(r_vec - r_ref) <= 1e-12 * d * y_rms)
        assert np.array_equal(R, R.T)

    def test_arx_estimate_matches_dense_solve(self, bench_closed_cfg):
        data = generate(replace(bench_closed_cfg, N=2000))
        for known_zero_ic in (False, True):
            est = estimate_arx(data, 50, known_zero_ic=known_zero_ic)
            R_ref, r_ref = dense_regressors(data, 50, known_zero_ic)
            eta_ref = np.linalg.solve(R_ref, r_ref)
            assert not est.regularized
            assert (np.linalg.norm(est.eta - eta_ref)
                    < 1e-10 * np.linalg.norm(eta_ref))


class TestRidgePredicate:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 40), log_delta=st.floats(-8.0, -2.0),
           above=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_cholesky_agrees_with_eigenvalue(self, dim, log_delta, above,
                                             seed):
        delta = 10.0**log_delta
        lam_min = delta / 2 + (1e-3 * delta if above else -1e-3 * delta)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lams = np.concatenate([[lam_min], delta + 10 * rng.random(dim - 1)])
        R = (Q * lams) @ Q.T
        R = 0.5 * (R + R.T)
        assert (np.linalg.eigvalsh(R)[0] > delta / 2) == above
        b = np.ones(dim)
        assert solve_leading_blocks(R, b, [dim], delta)[dim][1] == (not above)


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
        R_reg, r_vec = solve_matrices(data, est)
        assert np.max(np.abs(R_reg @ est.eta - r_vec)) < 1e-10

    def test_plain_and_regularized_coincide_when_well_conditioned(self):
        rng = np.random.default_rng(5)
        data = _dataset(rng.standard_normal(2000), rng.standard_normal(2000))
        est = estimate_arx(data, n=4, delta_reg=1e-6)
        assert not est.regularized
        R, _ = build_regressors(data, 4)
        assert np.array_equal(est.factor, interleaved_factor(R))

    def test_factor_kept_for_the_solve_matrix(self):
        # the kept factor is that of R_reg in the interleaved lag order,
        # ridged or not
        rng = np.random.default_rng(9)
        for u in (rng.standard_normal(200), np.ones(200)):
            data = _dataset(u, rng.standard_normal(200))
            est = estimate_arx(data, n=3)
            R_reg, _ = solve_matrices(data, est)
            U = est.factor
            order = interleaved_order(3)
            assert np.array_equal(U, np.triu(U))
            assert np.allclose(U.T @ U, R_reg[np.ix_(order, order)],
                               rtol=0, atol=1e-12)

    def test_lone_order_is_one_cholesky_solve(self):
        # a lone order is a Cholesky solve with R_reg, ridged or not, in
        # the interleaved lag order: eta agrees with the standard-order
        # solve to rounding, 1e-12 of its largest entry times
        # max(1, cond(R_reg)/100)
        rng = np.random.default_rng(10)
        for u in (rng.standard_normal(300), np.ones(300)):
            data = _dataset(u, rng.standard_normal(300))
            est = estimate_arx(data, n=6)
            R_reg, r_vec = solve_matrices(data, est)
            order = interleaved_order(6)
            U = est.factor
            assert np.array_equal(U, np.triu(U))
            scale = np.max(np.abs(R_reg))
            assert (np.max(np.abs(U.T @ U - R_reg[np.ix_(order, order)]))
                    <= 1e-14 * scale)
            want = cho_solve((cholesky(R_reg), False), r_vec)
            tol = 1e-12 * max(1.0, np.linalg.cond(R_reg) / 100)
            assert (np.max(np.abs(est.eta - want))
                    <= tol * np.max(np.abs(want)))

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
        assert np.max(np.abs(est1.eta[:4] - est2.eta[:4])) < 1e-9
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
        assert [f.name for f in fields(ArxEstimate)] == [
            "n", "eta", "factor", "regularized"]
        assert est.n == 6 and est.eta.shape == (12,)
        assert np.array_equal(est.b, est.eta[6:])


class TestSolveLeadingBlocks:
    @pytest.mark.parametrize("diag, ridged", [
        # lambda_min of the leading blocks is the least of their entries;
        # delta/2 = 0.75, so a block takes the ridge once it holds 0.5
        ([4.0, 3.0, 2.0, 0.5, 1.0, 0.25], {4, 6}),   # first failure at 4
        ([4.0, 3.0, 0.5, 2.0, 1.0, 0.25], {4, 6}),   # at 3, inside block 4
        ([4.0, 3.0, 2.0, 1.0, 1.0, 0.5], {6}),
        ([0.5, 3.0, 2.0, 1.0, 1.0, 2.0], {2, 4, 6}),
        ([4.0, 3.0, 2.0, 1.0, 1.0, 2.0], set()),
    ])
    def test_ridge_from_the_first_failing_minor(self, diag, ridged):
        A, b = np.diag(diag), np.arange(1.0, 7.0)
        solved = solve_leading_blocks(A, b, [2, 4, 6], delta_reg=1.5)
        for k, (x, regularized, U) in solved.items():
            shift = 0.75 if k in ridged else 0.0
            assert regularized == (k in ridged)
            assert np.allclose(x, b[:k] / (np.array(diag[:k]) + shift),
                               rtol=1e-15, atol=0)
            assert np.allclose(U.T @ U, A[:k, :k] + shift * np.eye(k),
                               rtol=1e-15, atol=0)


class TestArxGrid:
    def test_kept_factor_in_interleaved_order(self):
        rng = np.random.default_rng(11)
        data = _dataset(rng.standard_normal(400), rng.standard_normal(400))
        grid = ArxGrid(data, (12, 5, 30), known_zero_ic=True)
        for n in (5, 12, 30):
            est = grid.estimate(n)
            R_reg, _ = solve_matrices(data, est, known_zero_ic=True)
            U, order = est.factor, interleaved_order(n)
            assert list(order[:4]) == [0, n, 1, n + 1]
            assert np.array_equal(U, np.triu(U))
            scale = np.max(np.abs(R_reg))
            assert (np.max(np.abs(U.T @ U - R_reg[np.ix_(order, order)]))
                    <= 1e-14 * scale)
            G = est.apply_factor(np.eye(2 * n))
            assert np.max(np.abs(G.T @ G - R_reg)) <= 1e-14 * scale
            assert np.max(np.abs(est.R_inv @ R_reg
                                 - np.eye(2 * n))) <= 1e-12
            assert np.array_equal(est.R_inv, est.R_inv.T)

    def test_factor_applied_as_u_p_z(self):
        # the kept factor is F-contiguous, also for a grid order below the
        # largest, and apply_factor(Z) is U P Z for every way an estimate
        # gets its factor: plain or ridged, grid member or alone, or given
        # by hand in C order
        rng = np.random.default_rng(14)
        y = rng.standard_normal(300)
        for u, ridged in ((rng.standard_normal(300), False),
                          (np.zeros(300), True)):
            data = _dataset(u, y)
            member = ArxGrid(data, (4, 9), known_zero_ic=True).estimate(4)
            alone = estimate_arx(data, 6)
            c_ordered = replace(alone,
                                factor=np.ascontiguousarray(alone.factor))
            assert not c_ordered.factor.flags.f_contiguous
            for est in (member, alone, c_ordered):
                assert est.regularized == ridged
                if est is not c_ordered:
                    assert est.factor.flags.f_contiguous
                Z = rng.standard_normal((2 * est.n, 7))
                want = est.factor @ Z[interleaved_order(est.n)]
                assert (np.max(np.abs(est.apply_factor(Z) - want))
                        <= 1e-13 * np.max(np.abs(want)))

    def test_each_order_alone_without_known_zero_ic(self):
        # each order is a group of its own: the same estimate as alone,
        # whatever else the grid holds and in whatever order it is asked
        rng = np.random.default_rng(12)
        data = _dataset(rng.standard_normal(200), rng.standard_normal(200))
        grid = ArxGrid(data, (8, 4))
        for n in (8, 4, 8):
            est, alone = grid.estimate(n), estimate_arx(data, n)
            assert np.array_equal(est.eta, alone.eta)
            assert np.array_equal(est.factor, alone.factor)

    def test_one_feasible_order_is_estimated_alone(self):
        # n = 100 needs N >= 201, so n = 5 is a grid of one, and n = 100
        # fails alone with the message of build_regressors
        rng = np.random.default_rng(13)
        data = _dataset(rng.standard_normal(150), rng.standard_normal(150))
        grid = ArxGrid(data, (5, 100), known_zero_ic=True)
        est = grid.estimate(5)
        alone = estimate_arx(data, 5, known_zero_ic=True)
        assert np.array_equal(est.eta, alone.eta)
        assert np.array_equal(est.factor, alone.factor)
        with pytest.raises(ValueError, match=r"n=100 needs N >= 2n \+ 1"):
            grid.estimate(100)
