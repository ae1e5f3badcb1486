import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular

import wnsf.arx as arx_module
import wnsf.estimator as estimator_module
import wnsf.lti as lti_module
from wnsf.arx import (
    DELTA_REG_DEFAULT,
    ArxEstimate,
    ArxGrid,
    build_regressors,
    estimate_arx,
    true_eta,
)
from wnsf.crb import SpectrumModel, compute_mcr, mbar_limit
from wnsf.estimator import (
    IdentificationError,
    ModelOrders,
    RankDeficientError,
    ThetaEstimate,
    WnsfOptions,
    _solve_ls,
    apply_T_inverse,
    build_Q,
    build_T,
    build_T_inverse,
    pem_cost,
    reflect_unstable,
    step2_ls,
    step3_wls,
    step3_wls_oe,
    wnsf_identify,
)
from wnsf.lti import (
    BjModel,
    Polynomial,
    RationalFilter,
    is_stable,
    toeplitz_matrix,
)
from wnsf.simulate import DataSet, LoopConfig, generate

from conftest import (
    interleaved_factor,
    random_stable_theta,
    reference_pem_cost,
    reference_step3_wls,
    reference_step3_wls_oe,
    solve_matrices,
    unstable_predictor_record,
)

BJ_ORDERS = ModelOrders(2, 2, 1, 1)


def _exact_arx(system, n) -> ArxEstimate:
    """ArxEstimate carrying the exact high-order coefficients with an
    identity covariance (enough for the algebraic fixed-point checks)."""
    return ArxEstimate(n=n, eta=true_eta(system, n), factor=np.eye(2 * n),
                       regularized=False)


def _scaled(data: DataSet, arx: ArxEstimate, c: float) -> ArxEstimate:
    """``arx``, the estimate of ``data``, with R_reg scaled by c."""
    R_reg, _ = solve_matrices(data, arx)
    return ArxEstimate(n=arx.n, eta=arx.eta,
                       factor=interleaved_factor(c * R_reg),
                       regularized=arx.regularized)


def _oe_noise_free_data(system, N=4000, seed=0) -> DataSet:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(N)
    from wnsf.lti import filter_signal

    y = filter_signal(system.G, u)
    return DataSet(r=u, u=u, y=y)


class TestBuildQ:
    def test_zero_eta(self):
        orders = ModelOrders(1, 1, 1, 1)
        Q = build_Q(np.zeros(6), orders)
        # A = 1, B = 0: the c-column is -[1,0,0], d-column [1,0,0] in the
        # a-block; f-column vanishes; l-column is [1,0,0] in the b-block
        assert np.allclose(Q[:3, 2], [-1, 0, 0])
        assert np.allclose(Q[:3, 3], [1, 0, 0])
        assert np.allclose(Q[3:, 0], 0)
        assert np.allclose(Q[3:, 1], [1, 0, 0])

    def test_relation_identity_on_benchmark(self, bench_system):
        n = 150
        eta = true_eta(bench_system, n)
        resid = eta - build_Q(eta, BJ_ORDERS) @ bench_system.theta
        assert np.linalg.norm(resid) < 1e-6

    def test_hand_expanded_first_order_oe(self):
        # n = 2, m_f = m_l = 1: the plant rows encode b1 = l1 and
        # b2 + f1 b1 = a1 l1
        a1, a2, b1, b2 = 0.3, -0.1, 0.8, 0.5
        Q = build_Q(np.array([a1, a2, b1, b2]), ModelOrders(1, 1))
        rows = Q[2:, :]
        assert np.allclose(rows, [[0.0, 1.0], [-b1, a1]])

    def test_order_requirement(self):
        with pytest.raises(ValueError):
            build_Q(np.zeros(2), ModelOrders(2, 2))


class TestBuildT:
    def test_identity_for_trivial_model(self):
        theta = np.zeros(2)  # F = C = 1, L = 0 with m_f = m_l = 1
        T = build_T(np.array([0.0, 0.0]), 4, ModelOrders(1, 1))
        assert np.array_equal(T, np.eye(8))

    def test_residual_identity_on_arx_truth(self):
        # equation-error truth: F = D = A, L = B, C = 1, so the high-order
        # coefficient vector is finite and the identity is exact
        A = Polynomial([1.0, -0.4, 0.2])
        B = Polynomial([0.0, 1.0, 0.3])
        sys = BjModel(L=B, F=A, C=Polynomial([1.0]), D=A)
        orders = ModelOrders(2, 2, 0, 2)
        n = 12
        eta_o = true_eta(sys, n)
        rng = np.random.default_rng(0)
        for _ in range(10):
            eta = rng.standard_normal(2 * n)
            lhs = eta - build_Q(eta, orders) @ sys.theta
            rhs = build_T(sys.theta, n, orders) @ (eta - eta_o)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_block_inverse_formula(self):
        rng = np.random.default_rng(1)
        orders = ModelOrders(2, 2, 2, 2)
        n = 100
        for _ in range(5):
            theta = random_stable_theta(rng, 2, 2, 2, 2)
            T = build_T(theta, n, orders)
            Tinv = build_T_inverse(theta, n, orders)
            assert np.max(np.abs(T @ Tinv - np.eye(2 * n))) < 1e-10

    def test_unit_diagonal(self, bench_system):
        T = build_T(bench_system.theta, 10, BJ_ORDERS)
        assert np.allclose(np.diag(T), 1.0)
        assert np.max(np.abs(np.triu(T, 1))) == 0.0


@st.composite
def _t_inverse_cases(draw):
    m_f, m_l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m_c, m_d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 60))
    cols = draw(st.sampled_from([None, 1, 7]))
    return (ModelOrders(m_f, m_l, m_c, m_d), n, cols,
            draw(st.integers(0, 2**32 - 1)))


class TestApplyTInverse:
    """The filter form of T^-1 against dense substitution in ``build_T``."""

    @settings(max_examples=150, deadline=None)
    @given(_t_inverse_cases())
    # OE orders, a noise model with m_c = 0 < m_d, and n below the degrees
    # of the polynomials, so that T keeps only their leading coefficients
    @example((ModelOrders(2, 2), 40, 1, 0))
    @example((ModelOrders(2, 2, 0, 2), 30, 7, 1))
    @example((ModelOrders(3, 3, 3, 3), 1, None, 2))
    @example((ModelOrders(3, 2, 3, 0), 2, 7, 3))
    def test_matches_dense_substitution(self, case):
        orders, n, cols, seed = case
        rng = np.random.default_rng(seed)
        theta = random_stable_theta(rng, orders.m_f, orders.m_l,
                                    orders.m_c, orders.m_d)
        X = rng.standard_normal(2 * n if cols is None else (2 * n, cols))
        want = solve_triangular(build_T(theta, n, orders), X, lower=True,
                                unit_diagonal=True)
        F, L, C, _ = orders.polynomials(theta)
        got = apply_T_inverse(F, L, C, X)
        assert got.shape == X.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def _array_path_cases(draw):
    m_f, m_l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    oe = draw(st.booleans())
    m_c = 0 if oe else draw(st.integers(0, 2))
    m_d = 0 if oe else draw(st.integers(0, 2))
    n = draw(st.integers(8, 30))
    # a radius above 1 puts roots of the weighting's F and C outside the
    # unit circle, so that step 3 reflects them
    radius = draw(st.sampled_from([0.5, 0.95, 1.5, 3.0]))
    return (ModelOrders(m_f, m_l, m_c, m_d), n, radius,
            draw(st.integers(0, 2**32 - 1)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (np.linalg.LinAlgError, ValueError) as exc:
        return type(exc), str(exc)


class TestArrayPath:
    """Step 3 and the PEM cost on theta's coefficient arrays against the
    model-built reference versions in ``conftest``: the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(_array_path_cases())
    @example((ModelOrders(2, 2, 1, 1), 20, 2.0, 76))
    @example((ModelOrders(3, 2), 25, 1.2, 3))
    def test_matches_model_reference(self, case):
        orders, n, radius, seed = case
        rng = np.random.default_rng(seed)
        truth = random_stable_theta(rng, orders.m_f, orders.m_l, orders.m_c,
                                    orders.m_d, 0.8)
        data = generate(LoopConfig(system=orders.model(truth), N=200,
                                   noise_std=0.5, seed=seed))
        arx = estimate_arx(data, n)
        theta_prev = random_stable_theta(rng, orders.m_f, orders.m_l,
                                         orders.m_c, orders.m_d, radius)
        pairs = [(step3_wls, reference_step3_wls)]
        if orders.is_oe:
            pairs.append((step3_wls_oe, reference_step3_wls_oe))
        for step, reference in pairs:
            got = _outcome(step, arx, theta_prev, orders)
            want = _outcome(reference, arx, theta_prev, orders)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert got.theta.tobytes() == want.theta.tobytes()
            assert got.reflected == want.reflected
            for theta in (theta_prev, got.theta):
                assert (pem_cost(theta, data, orders)
                        == reference_pem_cost(theta, data, orders))


class TestStep2:
    def test_exact_eta_recovers_truth(self, bench_system):
        est = step2_ls(_exact_arx(bench_system, 150), BJ_ORDERS)
        assert np.max(np.abs(est.theta
                             - [-0.5, 0.75, 1.0, 0.1, 0.7, -0.9])) < 1e-5

    def test_noise_free_oe_recovery(self):
        sys = BjModel(L=Polynomial([0.0, 1.0, 0.2]),
                      F=Polynomial([1.0, -0.5]))
        data = _oe_noise_free_data(sys)
        # noise-free data make the y-lags nearly collinear with the u-lags,
        # so shrink the ridge safeguard below the target accuracy
        arx = estimate_arx(data, n=60, delta_reg=1e-10)
        est = step2_ls(arx, ModelOrders(1, 2))
        assert np.max(np.abs(est.theta - [-0.5, 1.0, 0.2])) < 1e-8

    def test_overparametrization_detected(self):
        # plant q^-1 with an extra numerator order: the f and second l
        # columns of Q coincide up to sign, so Q loses rank
        n = 10
        eta = np.concatenate([np.zeros(n), np.eye(n)[0]])
        arx = ArxEstimate(n=n, eta=eta, factor=np.eye(2 * n),
                          regularized=False)
        with pytest.raises(RankDeficientError) as err:
            step2_ls(arx, ModelOrders(1, 2))
        assert err.value.cond is None or err.value.cond > 1e10

    def test_subnormal_singular_value_gives_infinite_cond(self):
        # sv[0] / sv[-1] overflowed with a RuntimeWarning when the last
        # singular value was subnormal; the condition number is inf
        A = np.array([[1.0, 0.0], [0.0, 1e-310], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficientError) as err:
                _solve_ls(A, np.ones(3))
        assert err.value.cond == math.inf


class TestStep3:
    def test_weighting_scale_invariance(self, bench_system, bench_closed_cfg):
        data = generate(bench_closed_cfg)
        arx = estimate_arx(data, n=50)
        thetas = [
            step3_wls(_scaled(data, arx, c), bench_system.theta,
                      BJ_ORDERS).theta
            for c in (1e-6, 1.0, 1e6)
        ]
        assert np.max(np.abs(thetas[0] - thetas[1])) < 1e-12
        assert np.max(np.abs(thetas[2] - thetas[1])) < 1e-12

    def test_fixed_point_at_truth(self, bench_system):
        arx = _exact_arx(bench_system, 150)
        est = step3_wls(arx, bench_system.theta, BJ_ORDERS)
        assert np.max(np.abs(est.theta - bench_system.theta)) < 1e-5

    @pytest.mark.parametrize("oe", [False, True])
    def test_unstable_weighting_reflected(self, bench_system, oe):
        # step 3 weights with the reflection of an unstable theta_prev
        orders = ModelOrders(2, 2) if oe else BJ_ORDERS
        step3 = step3_wls_oe if oe else step3_wls
        arx = _exact_arx(bench_system, 20)
        good = bench_system.theta[:orders.dim]
        bad = good.copy()
        bad[0] = -2.5  # F root outside the unit circle
        got = step3(arx, bad, orders)
        want = step3(arx, reflect_unstable(bad, orders)[0], orders)
        assert got.reflected and not want.reflected
        assert np.array_equal(got.theta, want.theta)
        assert not step3(arx, good, orders).reflected

    def test_oe_noise_free_recovery(self):
        sys = BjModel(L=Polynomial([0.0, 1.0, 0.2]),
                      F=Polynomial([1.0, -0.5]))
        orders = ModelOrders(1, 2)
        data = _oe_noise_free_data(sys)
        arx = estimate_arx(data, n=60, delta_reg=1e-10)
        start = step2_ls(arx, orders)
        est = step3_wls_oe(arx, start.theta, orders)
        assert np.max(np.abs(est.theta - [-0.5, 1.0, 0.2])) < 1e-8

    def test_oe_weighting_scale_invariance(self):
        sys = BjModel(L=Polynomial([0.0, 1.0, 0.2]),
                      F=Polynomial([1.0, -0.5]))
        orders = ModelOrders(1, 2)
        rng = np.random.default_rng(3)
        from wnsf.lti import filter_signal

        u = rng.standard_normal(2000)
        y = filter_signal(sys.G, u) + 0.1 * rng.standard_normal(2000)
        data = DataSet(r=u, u=u, y=y)
        arx = estimate_arx(data, n=40)
        t0 = step2_ls(arx, orders).theta
        thetas = [step3_wls_oe(_scaled(data, arx, c), t0, orders).theta
                  for c in (1e-6, 1.0, 1e6)]
        assert np.max(np.abs(thetas[0] - thetas[1])) < 1e-12
        assert np.max(np.abs(thetas[2] - thetas[1])) < 1e-12

    def test_oe_requires_oe_orders(self, bench_system):
        arx = _exact_arx(bench_system, 20)
        with pytest.raises(ValueError):
            step3_wls_oe(arx, bench_system.theta, BJ_ORDERS)


def _step3_wls_oe_dense(arx: ArxEstimate, R_reg, theta_prev,
                        orders: ModelOrders):
    """The OE step 3 with the dense Tbar = [-Tl  Tf]: S_w = V^T V for
    V = G^-T Tbar^T, R_reg = G^T G.  The reference for ``step3_wls_oe``;
    returns theta and the condition number of the weighted reduction."""
    model = orders.model(theta_prev)
    n = arx.n
    t_bar = np.hstack([-toeplitz_matrix(model.L, n, n),
                       toeplitz_matrix(model.F, n, n)])
    V = solve_triangular(cholesky(R_reg), t_bar.T, trans="T")
    S_w = V.T @ V
    Ls = cholesky(0.5 * (S_w + S_w.T), lower=True)
    A = solve_triangular(Ls, build_Q(arx.eta, orders)[n:, :], lower=True)
    b = solve_triangular(Ls, arx.b, lower=True)
    return np.linalg.lstsq(A, b, rcond=None)[0], np.linalg.cond(A)


@st.composite
def _oe_step3_cases(draw):
    m_f, m_l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # Q's n plant rows must not be fewer than its m_f + m_l columns
    n = draw(st.integers(m_f + m_l, 40))
    # delta_reg = ridge * lambda_min(R): the ridge fires exactly when
    # lambda_min(R) <= delta_reg / 2, that is for ridge > 2
    ridge = draw(st.sampled_from([1.0, 4.0, 1e4]))
    noise_std = draw(st.sampled_from([0.1, 1.0]))
    return (ModelOrders(m_f, m_l), n, ridge, noise_std,
            draw(st.integers(0, 2**32 - 1)))


class TestStep3OeFiltered:
    """``step3_wls_oe`` builds S_w by filtering R^-1; the dense Tbar path it
    replaced is the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(_oe_step3_cases())
    # the fewest rows Q can have, unridged and ridged
    @example((ModelOrders(3, 3), 6, 1.0, 1.0, 0))
    @example((ModelOrders(1, 1), 2, 4.0, 0.1, 1))
    @example((ModelOrders(3, 2), 40, 1e4, 0.1, 2))
    # cond(A) = 23 but cond(R) = 1e7: against a 50-digit reference the
    # oracle misses by 2.5e-12 and the filtered path by 5e-13
    @example((ModelOrders(3, 1), 11, 1.0, 0.1, 126))
    def test_matches_dense_path(self, case):
        """Either path rounds S_w, and theta inherits that error amplified by
        K = cond(A) sqrt(cond(R)), A the weighted reduction: over 2,000
        draws the two differed by at most 2.2 eps K.  So the tolerance is
        1e-12 of the largest entry of theta, times K/100 where K > 100."""
        orders, n, ridge, noise_std, seed = case
        rng = np.random.default_rng(seed)
        truth = random_stable_theta(rng, orders.m_f, orders.m_l, 0, 0)
        data = generate(LoopConfig(system=orders.model(truth), N=6 * n + 60,
                                   noise_std=noise_std, seed=seed))
        R, _ = build_regressors(data, n)
        delta = ridge * np.linalg.eigvalsh(R)[0]
        arx = estimate_arx(data, n, delta_reg=delta)
        assert arx.regularized == (ridge > 2)
        R_reg, _ = solve_matrices(data, arx, delta)
        weight = random_stable_theta(rng, orders.m_f, orders.m_l, 0, 0)
        want, cond_a = _step3_wls_oe_dense(arx, R_reg, weight, orders)
        got = step3_wls_oe(arx, weight, orders).theta
        K = cond_a * np.sqrt(np.linalg.cond(R_reg))
        tol = 1e-12 * max(1.0, K / 100)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("delta_reg", [1e-6, 10.0])
    def test_matches_dense_path_at_bench_size(self, fast_oe_system, delta_reg):
        # the OE configuration of acceptance criterion 4 at n = 250; the
        # larger delta_reg makes the ridge fire
        orders, n = ModelOrders(3, 2), 250
        data = generate(LoopConfig(system=fast_oe_system,
                                   controller=RationalFilter(Polynomial([0.03])),
                                   noise_std=2.0, N=2000, seed=0))
        arx = estimate_arx(data, n, delta_reg=delta_reg)
        assert arx.regularized == (delta_reg > 1)
        start = step2_ls(arx, orders).theta
        R_reg, _ = solve_matrices(data, arx, delta_reg)
        want, _ = _step3_wls_oe_dense(arx, R_reg, start, orders)
        got = step3_wls_oe(arx, start, orders).theta
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_no_factor_solve_and_no_dense_tbar(self, monkeypatch):
        # R^-1 is all the step reads of R: a missing factor goes unnoticed,
        # and no n x n Toeplitz block of Tbar is built
        import wnsf.estimator as estimator

        rng = np.random.default_rng(5)
        orders, n = ModelOrders(2, 2), 30
        truth = random_stable_theta(rng, 2, 2, 0, 0)
        arx = estimate_arx(generate(LoopConfig(system=orders.model(truth),
                                               N=400, seed=5)), n)
        want = step3_wls_oe(arx, truth, orders).theta
        bare = ArxEstimate(n=n, eta=arx.eta, factor=None, regularized=False)
        bare.__dict__["R_inv"] = arx.R_inv
        shapes = []

        def recording(p, rows, cols):
            shapes.append((rows, cols))
            return toeplitz_matrix(p, rows, cols)

        monkeypatch.setattr(estimator, "toeplitz_matrix", recording)
        assert np.array_equal(step3_wls_oe(bare, truth, orders).theta, want)
        assert shapes and (n, n) not in shapes

    def test_r_inv_is_the_inverse(self):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((12, 8))
        R = G.T @ G / 12
        arx = ArxEstimate(n=4, eta=np.zeros(8), factor=interleaved_factor(R),
                          regularized=False)
        assert np.array_equal(arx.R_inv, arx.R_inv.T)
        assert np.max(np.abs(arx.R_inv @ R - np.eye(8))) < 1e-12

    def test_singular_factor_raises_linalg_error(self):
        arx = ArxEstimate(n=1, eta=np.zeros(2),
                          factor=np.array([[1.0, 0.5], [0.0, 0.0]]),
                          regularized=False)
        with pytest.raises(np.linalg.LinAlgError):
            arx.R_inv


class TestReflection:
    def test_unstable_root_reflected(self):
        orders = ModelOrders(1, 1)
        theta = np.array([-2.0, 1.0])  # F = 1 - 2 q^-1, root at 2
        new, changed = reflect_unstable(theta, orders)
        assert changed
        assert new[0] == pytest.approx(-0.5)
        assert new[1] == 1.0
        assert theta[0] == -2.0  # a copy is reflected, not the input

    def test_stable_theta_untouched(self, bench_system):
        theta = bench_system.theta
        new, changed = reflect_unstable(theta, BJ_ORDERS)
        assert not changed
        assert new is theta

    @pytest.mark.parametrize("length", [5, 7])
    def test_wrong_length_rejected(self, bench_system, length):
        theta = np.resize(bench_system.theta, length)
        with pytest.raises(ValueError, match="theta length"):
            reflect_unstable(theta, BJ_ORDERS)

    def test_root_inside_stability_margin_reflected(self, bench_system):
        # |z| = 1 - 1e-10 fails is_stable (|z| < 1 - TOL_STAB), so reflection
        # must fire and leave a weighting that step 3 can filter with
        theta = bench_system.theta.copy()
        theta[4] = -(1.0 - 1e-10)  # C = 1 - (1 - 1e-10) q^-1
        new, changed = reflect_unstable(theta, BJ_ORDERS)
        assert changed
        assert abs(new[4]) <= 0.999 + 1e-12
        est = step3_wls(_exact_arx(bench_system, 20), new, BJ_ORDERS)
        assert np.all(np.isfinite(est.theta))

    def test_clamp_applied_on_circle(self):
        orders = ModelOrders(1, 1)
        theta = np.array([-1.0, 1.0])  # root exactly at 1
        new, changed = reflect_unstable(theta, orders)
        assert changed
        assert abs(new[0]) <= 0.999 + 1e-12

    def test_trailing_zero_keeps_structural_order(self):
        # F = 1 - 2.5 q^-1 + 0 q^-2 has roots 2.5 and 0; only 2.5 moves
        orders = ModelOrders(2, 1)
        new, changed = reflect_unstable(np.array([-2.5, 0.0, 1.0]), orders)
        assert changed
        assert new.shape == (3,)
        assert new[:2] == pytest.approx([-0.4, 0.0], abs=1e-15)
        assert new[2] == 1.0


class TestPemCost:
    def test_zero_on_noise_free_truth(self, bench_system):
        cfg = LoopConfig(system=bench_system, noise_std=0.0, N=500, seed=0)
        data = generate(cfg)
        assert pem_cost(bench_system.theta, data, BJ_ORDERS) < 1e-20

    def test_approaches_noise_variance(self, bench_closed_cfg):
        data = generate(bench_closed_cfg)
        J = pem_cost(bench_closed_cfg.system.theta, data, BJ_ORDERS)
        assert abs(J - 1.0) < 3 * np.sqrt(2.0 / data.N)

    def test_unstable_predictor_infinite(self, bench_system):
        cfg = LoopConfig(system=bench_system, N=100, seed=0)
        data = generate(cfg)
        bad = bench_system.theta.copy()
        bad[4] = 1.5  # C root outside the unit circle
        assert pem_cost(bad, data, BJ_ORDERS) == math.inf


class TestIdentify:
    @pytest.mark.parametrize("case", ["bench", "reflecting"])
    def test_roots_only_where_the_screen_refuses(self, bench_closed_cfg,
                                                 case):
        # four verdicts per iterate: step 3 screens the F and C it weights
        # with, pem_cost those of the new iterate.  np.roots runs once for
        # each of them the Schur-Cohn screen does not pass, and never else
        if case == "bench":
            data = generate(replace(bench_closed_cfg, N=2000))
            orders = BJ_ORDERS
            options = WnsfOptions(n_grid=(30, 50), max_iter=5)
        else:  # unstable iterates, and a weighting with reflected roots
            orders = ModelOrders(2, 2, 1, 1)
            theta0 = random_stable_theta(np.random.default_rng(76),
                                         2, 2, 1, 1, 0.95)
            data = generate(LoopConfig(system=orders.model(theta0), N=150,
                                       noise_std=2.0, seed=76))
            options = WnsfOptions(n_grid=(20,), max_iter=4)
        real_screen, real_verdict = (lti_module._schur_cohn_screen,
                                     lti_module.is_stable_coeffs)
        np_roots = np.roots
        screened, asked, refused, root_inputs = [], [], [], []

        def screen(coeffs):  # reflect_unstable's
            screened.append(coeffs)
            if not real_screen(coeffs):
                refused.append(np.array(coeffs))
                return False
            return True

        def verdict(coeffs):  # pem_cost's
            asked.append(coeffs)
            if not real_screen(coeffs):
                refused.append(np.array(coeffs))
            return real_verdict(coeffs)

        def roots(p):
            root_inputs.append(np.array(p))
            return np_roots(p)

        with mock.patch.object(estimator_module, "_schur_cohn_screen",
                               screen), \
                mock.patch.object(estimator_module, "is_stable_coeffs",
                                  verdict), \
                mock.patch.object(np, "roots", roots):
            est = wnsf_identify(data, orders, options)
        assert len(est.trace) > 2
        assert len(screened) == len(asked) == 2 * len(est.trace)
        assert len(root_inputs) == len(refused)
        for p in root_inputs:
            assert any(np.array_equal(p, q) for q in refused)
        if case == "reflecting":
            assert est.reflected and root_inputs

    def test_no_model_per_iterate(self, bench_closed_cfg):
        # step 3 and pem_cost read F, L, C and D from theta's blocks: no
        # iterate builds a BjModel, a RationalFilter or, unless the screen
        # refuses it, a Polynomial
        data = generate(replace(bench_closed_cfg, N=2000))
        options = WnsfOptions(n_grid=(30, 50), max_iter=5)
        with mock.patch.object(BjModel, "from_theta",
                               wraps=BjModel.from_theta) as models, \
                mock.patch.object(RationalFilter, "__post_init__",
                                  autospec=True) as filters, \
                mock.patch.object(Polynomial, "__post_init__",
                                  autospec=True) as polynomials:
            est = wnsf_identify(data, BJ_ORDERS, options)
        assert len(est.trace) > 2
        assert models.call_count == 0
        assert filters.call_count == 0
        assert polynomials.call_count == 0

    def test_degenerate_grid_is_one_weighted_pass(self, bench_closed_cfg):
        data = generate(bench_closed_cfg)
        options = WnsfOptions(n_grid=(50,), max_iter=1, known_zero_ic=True)
        est = wnsf_identify(data, BJ_ORDERS, options)
        arx = estimate_arx(data, 50, known_zero_ic=True)
        start = step2_ls(arx, BJ_ORDERS)
        manual = step3_wls(arx, start.theta, BJ_ORDERS)
        assert est.iterations == 1 and est.n_used == 50
        assert np.array_equal(est.theta, manual.theta)
        assert np.array_equal(est.step2_theta, start.theta)

    def test_selection_attains_minimal_cost(self, bench_closed_cfg):
        data = generate(bench_closed_cfg)
        options = WnsfOptions(n_grid=(30, 50, 80), max_iter=5,
                              known_zero_ic=True)
        est = wnsf_identify(data, BJ_ORDERS, options)
        costs = [c["pem_cost"] for c in est.trace
                 if not c["reflected"] and math.isfinite(c["pem_cost"])]
        assert est.pem_cost == min(costs)

    def test_determinism(self, bench_closed_cfg):
        data = generate(bench_closed_cfg)
        options = WnsfOptions(n_grid=(50,), max_iter=10, known_zero_ic=True)
        a = wnsf_identify(data, BJ_ORDERS, options)
        b = wnsf_identify(data, BJ_ORDERS, options)
        assert np.array_equal(a.theta, b.theta)
        assert a.pem_cost == b.pem_cost

    def test_grid_capped_by_sample_size(self, bench_system):
        cfg = LoopConfig(system=bench_system, N=60, seed=0)
        data = generate(cfg)
        with pytest.raises(IdentificationError):
            wnsf_identify(data, BJ_ORDERS, WnsfOptions(n_grid=(500,)))

    def test_orders_above_sample_cap_named(self, bench_system):
        # n = 40 and n = 500 both need more than N = 60 samples; the grid
        # left nothing to run, and the diagnostics used to be empty
        data = generate(LoopConfig(system=bench_system, N=60, seed=0))
        with pytest.raises(IdentificationError) as err:
            wnsf_identify(data, BJ_ORDERS, WnsfOptions(n_grid=(40, 500)))
        diagnostics = err.value.diagnostics
        assert sorted(diagnostics) == [40, 500]
        assert all("2n + 1" in reason for reason in diagnostics.values())

    def test_all_infeasible_reports_diagnostics(self):
        data = DataSet(r=np.zeros(400), u=np.zeros(400), y=np.zeros(400))
        with pytest.raises(IdentificationError) as err:
            wnsf_identify(data, BJ_ORDERS, WnsfOptions(n_grid=(20,)))
        assert err.value.diagnostics

    def test_estimate_serialization(self, bench_closed_cfg):
        data = generate(bench_closed_cfg)
        est = wnsf_identify(data, BJ_ORDERS,
                            WnsfOptions(n_grid=(50,), known_zero_ic=True))
        doc = est.to_json()
        assert doc["orders"] == [2, 2, 1, 1]
        assert len(doc["theta"]) == 6
        assert doc["trace"] and {"n", "iter", "theta", "pem_cost",
                                 "reflected"} <= doc["trace"][0].keys()
        model = est.model
        assert isinstance(model, BjModel)


class TestStableNoiseModel:
    @pytest.mark.parametrize("index, value, stable", [
        (4, 0.7, True),    # the benchmark's C and D
        (4, 1.5, False),   # C root at -1.5
        (5, -1.5, False),  # D root at 1.5
    ])
    def test_read_from_theta(self, bench_system, index, value, stable):
        theta = bench_system.theta.copy()
        theta[index] = value
        est = ThetaEstimate(theta=theta, orders=BJ_ORDERS, n_used=50,
                            iterations=1, pem_cost=1.0)
        assert est.stable_noise_model is stable
        assert est.to_json()["stable_noise_model"] is stable


@st.composite
def _identify_cases(draw):
    m_f, m_l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    noise = draw(st.booleans())
    m_c = draw(st.integers(1, 2)) if noise else 0
    m_d = draw(st.integers(1, 2)) if noise else 0
    n_grid = draw(st.sampled_from([(20,), (20, 30)]))
    max_iter = draw(st.integers(1, 4))
    # poles near the circle, short records and loud noise make unstable
    # iterates, reflection and infeasible candidates less rare
    radius = draw(st.floats(0.5, 0.99))
    N, noise_std = draw(st.sampled_from([150, 400])), draw(
        st.sampled_from([0.5, 2.0]))
    return (ModelOrders(m_f, m_l, m_c, m_d), n_grid, max_iter, radius, N,
            noise_std, draw(st.integers(0, 2**32 - 1)))


class TestIdentifyInvariants:
    """Whatever the system and the noise, the selected estimate and every
    feasible candidate have a stable predictor."""

    @settings(max_examples=50, deadline=None)
    @given(_identify_cases())
    # the one step-3 iterate has an F root at 1.03: no candidate is feasible
    @example((ModelOrders(2, 1, 1, 1), (20,), 1, 0.9, 400, 0.5, 249))
    # three infeasible iterates, then a feasible one weighted with reflected
    # roots, which is selected
    @example((ModelOrders(2, 2, 1, 1), (20,), 4, 0.95, 150, 2.0, 76))
    def test_selected_and_feasible_candidates_stable(self, case):
        orders, n_grid, max_iter, radius, N, noise_std, seed = case
        rng = np.random.default_rng(seed)
        theta0 = random_stable_theta(rng, orders.m_f, orders.m_l,
                                     orders.m_c, orders.m_d, radius)
        data = generate(LoopConfig(system=orders.model(theta0), N=N,
                                   noise_std=noise_std, seed=seed))
        try:
            est = wnsf_identify(data, orders, WnsfOptions(n_grid=n_grid,
                                                          max_iter=max_iter))
        except IdentificationError:
            return  # every candidate had an unstable predictor
        model = est.model
        assert math.isfinite(est.pem_cost)
        assert is_stable(model.F)[0] and is_stable(model.C)[0]
        assert est.stable_noise_model == (is_stable(model.C)[0]
                                          and is_stable(model.D)[0])
        for entry in est.trace:
            if math.isfinite(entry["pem_cost"]):
                cand = orders.model(entry["theta"])
                assert is_stable(cand.F)[0] and is_stable(cand.C)[0]


@st.composite
def _scaling_cases(draw):
    m_f, m_l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    noise = draw(st.booleans())
    m_c = draw(st.integers(1, 2)) if noise else 0
    m_d = draw(st.integers(1, 2)) if noise else 0
    n_grid = draw(st.sampled_from([(20,), (20, 30)]))
    scales = st.sampled_from([0.01, 0.3, 1.0, 4.0, 100.0])
    return (ModelOrders(m_f, m_l, m_c, m_d), n_grid, draw(scales),
            draw(scales), draw(st.integers(0, 2**32 - 1)))


def _trace_entries(data, orders, options):
    """(n, iter) -> trace entry of ``wnsf_identify``; empty if it failed."""
    try:
        est = wnsf_identify(data, orders, options)
    except IdentificationError:
        return {}
    return {(e["n"], e["iter"]): e for e in est.trace}


class TestScalingEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(_scaling_cases())
    @example((ModelOrders(2, 2, 1, 1), (20, 30), 0.01, 100.0, 0))
    @example((ModelOrders(2, 1), (20,), 100.0, 0.3, 1))
    def test_scaled_record_scales_every_iterate(self, case):
        """Scaling u by alpha and y by beta maps every step-3 iterate theta
        to the same F, C and D with L times beta/alpha, and its pem_cost to
        beta^2 times the cost, within 1e-9 relative (over 800 draws and
        3,400 entries the largest miss was 4.3e-11).  Each (n, iter) entry
        found in both traces is compared: the stopping rule on
        ||d theta||/||theta|| is not scale free, so the traces may differ in
        length.  delta_reg is absolute, so the ridge can fire at one scale
        and not at the other; an n where it fires on either side is left
        out."""
        orders, n_grid, alpha, beta, seed = case
        rng = np.random.default_rng(seed)
        theta0 = random_stable_theta(rng, orders.m_f, orders.m_l,
                                     orders.m_c, orders.m_d)
        data = generate(LoopConfig(system=orders.model(theta0), N=400,
                                   noise_std=0.5, seed=seed))
        scaled = DataSet(r=data.r, u=alpha * data.u, y=beta * data.y)
        options = WnsfOptions(n_grid=n_grid, max_iter=3)
        plain = [n for n in n_grid
                 if not (estimate_arx(data, n).regularized
                         or estimate_arx(scaled, n).regularized)]
        want = _trace_entries(data, orders, options)
        got = _trace_entries(scaled, orders, options)
        l_block = slice(orders.m_f, orders.dyn_dim)
        for key in sorted(set(want) & set(got)):
            if key[0] not in plain:
                continue
            theta = np.array(want[key]["theta"])
            back = np.array(got[key]["theta"])
            back[l_block] *= alpha / beta
            assert np.max(np.abs(back - theta)) <= 1e-9 * np.max(np.abs(theta))
            assert math.isclose(got[key]["pem_cost"],
                                beta**2 * want[key]["pem_cost"], rel_tol=1e-9)


class TestIdentificationDiagnostics:
    def test_unstable_predictor_is_a_reason(self):
        # every candidate was computed but had pem_cost = inf (the first
        # @example of TestIdentifyInvariants); the error used to carry no
        # reason at all
        data, orders, options = unstable_predictor_record()
        with pytest.raises(IdentificationError) as info:
            wnsf_identify(data, orders, options)
        assert list(info.value.diagnostics) == [20]
        assert "stable predictor" in info.value.diagnostics[20]

    def test_every_n_has_its_reason(self):
        # n = 200 needs N >= 401 and fails in step 1; n = 20 used to be
        # left out of the diagnostics
        data, orders, options = unstable_predictor_record()
        with pytest.raises(IdentificationError) as info:
            wnsf_identify(data, orders, WnsfOptions(n_grid=(20, 200),
                                                    max_iter=1))
        reasons = info.value.diagnostics
        assert sorted(reasons) == [20, 200]
        assert "stable predictor" in reasons[20]
        assert "step 1/2 failed" in reasons[200]


class TestOptions:
    @pytest.mark.parametrize("n_grid", [(0,), (50, -1)])
    def test_grid_entries_below_one_rejected(self, n_grid):
        # an n of 0 used to reach step 1 and raise IndexError there
        with pytest.raises(ValueError, match="n_grid"):
            WnsfOptions(n_grid=n_grid)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tol never stopped the iteration; an infinite one always did
        with pytest.raises(ValueError, match="tol"):
            WnsfOptions(tol=tol)

    @pytest.mark.parametrize("delta_reg", [-1.0, 0.0, math.nan, math.inf])
    def test_delta_reg_outside_open_interval_rejected(self, delta_reg):
        # -1 and 0 used to return an estimate; NaN and inf failed every n
        with pytest.raises(ValueError, match="delta_reg"):
            WnsfOptions(delta_reg=delta_reg)

    @pytest.mark.parametrize("n_grid", [(50, 50, 400, 20), [20, 50, 20]])
    def test_repeated_order_rejected(self, n_grid):
        # a repeated n was identified twice, its trace entries twice over
        with pytest.raises(ValueError, match=r"n_grid repeats n=(50|20)\b"):
            WnsfOptions(n_grid=n_grid, known_zero_ic=True)

    @pytest.mark.parametrize("n_grid", [
        np.array([50, 100]),                 # raised AttributeError
        (50.0, 100.0),                       # a TypeError in step 1
        [np.int64(50), np.int64(100)],       # an unserializable n_used
    ])
    def test_integral_grid_becomes_ints(self, bench_system, n_grid):
        options = WnsfOptions(n_grid=n_grid, max_iter=np.int64(2))
        assert options.n_grid == (50, 100) and options.max_iter == 2
        assert {type(n) for n in options.n_grid} == {int}
        assert type(options.max_iter) is int
        data = generate(LoopConfig(system=bench_system, N=1000, seed=0))
        doc = json.loads(json.dumps(
            wnsf_identify(data, BJ_ORDERS, options).to_json()))
        assert doc["n_used"] in (50, 100)

    @pytest.mark.parametrize("kwargs", [
        {"n_grid": (50.5,)}, {"n_grid": ("50",)}, {"n_grid": (math.inf,)},
        {"n_grid": 50}, {"max_iter": 2.5},
        # a bool is an int to Python: max_iter=True used to run one iteration
        {"max_iter": True}, {"n_grid": (True, 50)}])
    def test_non_integral_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            WnsfOptions(**kwargs)

    @pytest.mark.parametrize("flag", ["yes", 1, None])
    def test_known_zero_ic_must_be_bool(self, flag):
        # "yes" and 1 used to be kept as given
        with pytest.raises(ValueError, match="known_zero_ic"):
            WnsfOptions(known_zero_ic=flag)


def _spectrum(system):
    return SpectrumModel.from_loop_config(LoopConfig(system=system))


# parameter -> (an integral value, a call that takes it) for every count a
# library call takes; the float forms used to fail inside numpy (TypeError)
COUNT_INPUTS = {
    "N": (300, lambda sys, v: generate(LoopConfig(system=sys, N=v)).y),
    "seed": (1, lambda sys, v: generate(LoopConfig(system=sys, seed=v)).y),
    "m_f": (2, lambda sys, v: wnsf_identify(
        generate(LoopConfig(system=sys, N=400)), ModelOrders(v, 2, 1, 1),
        WnsfOptions(n_grid=(20,), max_iter=2)).theta),
    "grid_size": (512, lambda sys, v: compute_mcr(_spectrum(sys),
                                                  grid_size=v).M),
    "n": (20, lambda sys, v: mbar_limit(_spectrum(sys), n=v, grid_size=256)),
}


class TestCountInputs:
    @pytest.mark.parametrize("name", COUNT_INPUTS)
    @pytest.mark.parametrize("convert", [float, np.int64])
    def test_integral_value_is_the_int(self, bench_system, name, convert):
        value, call = COUNT_INPUTS[name]
        np.testing.assert_array_equal(call(bench_system, convert(value)),
                                      call(bench_system, value))

    @pytest.mark.parametrize("name", COUNT_INPUTS)
    def test_non_integral_rejected(self, bench_system, name):
        value, call = COUNT_INPUTS[name]
        with pytest.raises(ValueError, match=name):
            call(bench_system, value + 0.5)

    @pytest.mark.parametrize("grid_size", [1, 0])
    def test_grid_below_two_rejected(self, bench_system, grid_size):
        # grid_size 1 used to raise IndexError in the quadrature weights
        with pytest.raises(ValueError, match="grid_size"):
            compute_mcr(_spectrum(bench_system), grid_size=grid_size)

    def test_report_holds_ints(self, bench_system):
        result = compute_mcr(_spectrum(bench_system), grid_size=512.0)
        assert type(result.grid_size) is int
        orders = ModelOrders(2.0, 2.0, np.int64(1), 1)
        assert {type(m) for m in (orders.m_f, orders.m_l, orders.m_c,
                                  orders.m_d)} == {int}
        cfg = LoopConfig(system=bench_system, N=1e4, seed=np.int64(3))
        assert (cfg.N, cfg.seed) == (10000, 3)
        assert type(cfg.N) is int and type(cfg.seed) is int


# -- step 1 shared by an n-grid under known_zero_ic --------------------------

class _PerOrder(ArxGrid):
    """The oracle of the shared step 1: every order estimated alone."""

    def estimate(self, n):
        return estimate_arx(self.data, n, self.delta_reg, self.known_zero_ic)


def _identify_doc(data, orders, options):
    """The identify JSON document: the estimate, or the failures alone."""
    try:
        return wnsf_identify(data, orders, options).to_json()
    except IdentificationError as exc:
        return dict(exc.to_json(), trace=[])


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@st.composite
def _shared_grid_cases(draw):
    m_f, m_l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    noise = draw(st.booleans())
    m_c = draw(st.integers(1, 2)) if noise else 0
    m_d = draw(st.integers(1, 2)) if noise else 0
    N = draw(st.sampled_from([200, 400]))
    feasible = draw(st.lists(st.integers(3, 40), min_size=2, max_size=4,
                             unique=True))
    too_long = N // 2 + draw(st.integers(0, 2))  # 2n >= N
    grid = draw(st.permutations(feasible + [too_long]))
    n_star = draw(st.sampled_from(sorted(feasible)))
    # delta_reg = ridge * lambda_min(R_{n*}): for ridge = 1 the orders up to
    # n* keep R, for ridge >= 4 the orders from n* up take the ridge
    ridge = draw(st.sampled_from([1.0, 4.0, 1e4]))
    return (ModelOrders(m_f, m_l, m_c, m_d), N, tuple(grid), n_star, ridge,
            draw(st.integers(0, 2**32 - 1)))


class TestSharedStepOne:
    """Under known_zero_ic the orders of a grid share one R and at most
    three Cholesky factorizations; each order estimated alone is the
    oracle."""

    @settings(max_examples=40, deadline=None)
    @given(_shared_grid_cases())
    # BJ and OE, each with the ridge on n* and above only
    @example((ModelOrders(2, 2, 1, 1), 400, (40, 201, 12, 25), 25, 4.0, 3))
    @example((ModelOrders(2, 1), 200, (30, 100, 5), 5, 4.0, 4))
    # a heavy ridge: eta shrinks and the reduction has cond(Q) ~ 1e4
    @example((ModelOrders(1, 2, 2, 2), 400, (8, 37, 200), 8, 1e4, 347))
    def test_matches_per_order_path(self, case):
        """eta and R_inv within 1e-12 of their largest entry times
        max(1, cond(R_reg)/100): both paths round R_reg's factor, in another
        lag order (over 400 draws the gap was at most 1.2e-15 cond(R_reg)).
        The trace within 1e-12 times max(1, K/100), K the largest
        cond(R_reg) cond(Q) of the grid, Q the reduction: step 2 and 3
        amplify the gap in eta by cond(Q), which a heavy ridge makes large
        (1.95e-11 at K = 1.4e4 over those draws)."""
        orders, N, grid, n_star, ridge, seed = case
        rng = np.random.default_rng(seed)
        truth = random_stable_theta(rng, orders.m_f, orders.m_l, orders.m_c,
                                    orders.m_d)
        data = generate(LoopConfig(system=orders.model(truth), N=N,
                                   noise_std=0.5, seed=seed))
        R_star, _ = build_regressors(data, n_star, known_zero_ic=True)
        delta = ridge * np.linalg.eigvalsh(R_star)[0]
        assume(delta > 0)
        step1 = ArxGrid(data, grid, delta, known_zero_ic=True)
        feasible = sorted(n for n in grid if 2 * n < N)
        ridged, K = [], 1.0
        for n in feasible:
            got = step1.estimate(n)
            want = estimate_arx(data, n, delta, known_zero_ic=True)
            assert got.regularized == want.regularized
            if got.regularized:
                ridged.append(n)
            R_reg, _ = solve_matrices(data, want, delta, known_zero_ic=True)
            cond_r = np.linalg.cond(R_reg)
            tol = 1e-12 * max(1.0, cond_r / 100)
            # the grid solved with this order's R_reg: G^T G = R_reg
            G = got.apply_factor(np.eye(2 * n))
            assert _rel(G.T @ G, R_reg) <= 1e-12
            assert _rel(got.eta, want.eta) <= tol
            assert _rel(got.R_inv, want.R_inv) <= tol
            if n >= max(orders.m_f, orders.m_l, orders.m_c, orders.m_d):
                K = max(K, cond_r * np.linalg.cond(build_Q(want.eta, orders)))
        # by Cauchy interlacing the ridged orders are the largest ones
        assert ridged == feasible[len(feasible) - len(ridged):]
        assert (n_star in ridged) == (ridge > 2)
        # the order too long for the record fails alone, as it did
        for n in set(grid) - set(feasible):
            with pytest.raises(ValueError) as got_error:
                step1.estimate(n)
            with pytest.raises(ValueError) as want_error:
                estimate_arx(data, n, delta, known_zero_ic=True)
            assert str(got_error.value) == str(want_error.value)

        options = WnsfOptions(n_grid=grid, max_iter=3, delta_reg=delta,
                              known_zero_ic=True)
        got = _identify_doc(data, orders, options)
        with mock.patch.object(estimator_module, "ArxGrid", _PerOrder):
            want = _identify_doc(data, orders, options)
        assert got["failures"] == want["failures"]
        assert ([(e["n"], e["iter"]) for e in got["trace"]]
                == [(e["n"], e["iter"]) for e in want["trace"]])
        tol = 1e-12 * max(1.0, K / 100)
        for g, w in zip(got["trace"], want["trace"]):
            assert g["reflected"] == w["reflected"]
            assert g["regularized"] == w["regularized"]
            assert _rel(np.array(g["theta"]), np.array(w["theta"])) <= tol
            assert (g["pem_cost"] == w["pem_cost"]
                    or math.isclose(g["pem_cost"], w["pem_cost"],
                                    rel_tol=tol))


GRID = (30, 60, 90, 120, 150, 180)


def _suffix_delta(data):
    """A delta_reg whose ridge fires exactly for the orders of GRID from 120
    up: delta/2 lies between lambda_min(R_120) and lambda_min(R_90)."""
    lam = [np.linalg.eigvalsh(build_regressors(data, n, True)[0])[0]
           for n in (90, 120)]
    assert lam[1] < lam[0]
    return lam[0] + lam[1]


class TestSharedStepOneWork:
    """What step 1 does for a six-order grid, counted by spies on
    ``build_regressors`` and on LAPACK's ``dpotrf`` as the arx module calls
    them."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = Counter()
        calls.sizes = []  # the order of each matrix dpotrf factored

        def spy(name, fn):
            def counting(*args, **kwargs):
                calls[name] += 1
                if name == "dpotrf":
                    calls.sizes.append(len(args[0]))
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(arx_module, "build_regressors",
                            spy("build_regressors", build_regressors))
        monkeypatch.setattr(arx_module, "dpotrf",
                            spy("dpotrf", arx_module.dpotrf))
        return calls

    @pytest.mark.parametrize("orders", [BJ_ORDERS, ModelOrders(3, 2)])
    @pytest.mark.parametrize("ridge", [False, True])
    def test_one_regressor_build_and_three_factorizations(
            self, counted, bench_closed_cfg, orders, ridge):
        # the OE orders read R_inv from the shared interleaved factor
        data = generate(replace(bench_closed_cfg, N=2000))
        delta = _suffix_delta(data) if ridge else DELTA_REG_DEFAULT
        counted.clear()
        counted.sizes.clear()
        est = wnsf_identify(data, orders, WnsfOptions(
            n_grid=GRID, max_iter=2, delta_reg=delta, known_zero_ic=True))
        # the ridge test, the factor of R up to the largest unridged order,
        # and the factor of R + (delta/2) I when some order is ridged
        assert counted == {"build_regressors": 1, "dpotrf": 3 if ridge else 2}
        assert counted.sizes == ([360, 180, 360] if ridge else [360, 360])
        assert {e["n"] for e in est.trace} == set(GRID)
        assert all(e["regularized"] == (ridge and e["n"] >= 120)
                   for e in est.trace)

    def test_per_order_without_known_zero_ic(self, counted,
                                             bench_closed_cfg):
        data = generate(replace(bench_closed_cfg, N=2000))
        wnsf_identify(data, BJ_ORDERS, WnsfOptions(n_grid=GRID, max_iter=2))
        assert counted == {"build_regressors": 6, "dpotrf": 12}

    def test_order_too_long_fails_alone(self, counted, bench_closed_cfg):
        # n = 1000 needs N >= 2001; the other orders still share one R
        data = generate(replace(bench_closed_cfg, N=2000))
        est = wnsf_identify(data, BJ_ORDERS, WnsfOptions(
            n_grid=(1000,) + GRID, max_iter=2, known_zero_ic=True))
        assert est.failures == {1000: "step 1/2 failed: ARX order n=1000 "
                                      "needs N >= 2n + 1, not N=2000"}
        assert counted["build_regressors"] == 2  # n = 1000 alone, then 180
        assert counted["dpotrf"] == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_sums_fail_in_step_one(self):
        # |u| = 1e160: every lagged product overflows
        u = 1e160 * np.random.default_rng(0).standard_normal(400)
        data = DataSet(r=u, u=u, y=u.copy())
        with pytest.raises(IdentificationError) as err:
            wnsf_identify(data, BJ_ORDERS, WnsfOptions(
                n_grid=(20, 40), known_zero_ic=True))
        assert sorted(err.value.diagnostics) == [20, 40]
        assert all("not finite" in reason
                   for reason in err.value.diagnostics.values())

