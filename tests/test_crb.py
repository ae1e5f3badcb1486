import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from wnsf import crb, estimator
from wnsf.arx import estimate_arx, true_eta
from wnsf.crb import (
    CrbResult,
    NonInformativeError,
    SpectrumModel,
    build_omega_matrix,
    compute_mcl,
    compute_mcr,
    mbar_limit,
    phi_z,
)
from wnsf.estimator import (
    ModelOrders,
    WnsfOptions,
    build_Q,
    build_T,
    wnsf_identify,
)
from wnsf.lti import BjModel, Polynomial, RationalFilter, freq_response
from wnsf.simulate import (LOOP_KINDS, LoopConfig, generate, reference_path,
                           sensitivity)

BJ_ORDERS = ModelOrders(2, 2, 1, 1)


# Reference integrals: each information matrix computed its own way, by
# explicit einsums and a 2 x 2 loop over the channels of [u e]^T, on the
# same trapezoidal grid as ``crb``.

def _grid(grid_size):
    omega = np.linspace(0.0, np.pi, grid_size)
    w = np.full(grid_size, omega[1] - omega[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return omega, w


def oracle_mcr(sm, grid_size):
    omega, w = _grid(grid_size)
    Om = build_omega_matrix(sm.system, BJ_ORDERS, omega)
    OmP = np.einsum("iaw,wab->ibw", Om, phi_z(sm, omega))
    M = np.einsum("ibw,jbw,w->ij", OmP, np.conj(Om), w).real / np.pi
    return 0.5 * (M + M.T)


def oracle_mcl(sm, grid_size):
    omega, w = _grid(grid_size)
    Om = build_omega_matrix(sm.system, BJ_ORDERS, omega)[:4, 0, :]
    # with sigma2 = 0 only the reference feeds the input
    phi_u_r = phi_z(replace(sm, sigma2=0.0), omega)[:, 0, 0].real
    M = np.einsum("iw,jw,w->ij", Om * phi_u_r, np.conj(Om), w).real / np.pi
    return 0.5 * (M + M.T)


def oracle_rbar(sm, n, grid_size):
    omega, w = _grid(grid_size)
    gam = np.exp(-1j * np.outer(np.arange(1, n + 1), omega))
    G = freq_response(sm.system.G, omega)
    H = freq_response(sm.system.H, omega)
    # the columns of Lambda_n = [-Gamma G, -Gamma H; Gamma, 0]
    cols = (np.vstack([-gam * G, gam]),
            np.vstack([-gam * H, np.zeros_like(gam)]))
    Pz = phi_z(sm, omega)
    R = np.zeros((2 * n, 2 * n))
    for j in range(2):
        for k in range(2):
            weighted = cols[j] * (w * Pz[:, j, k])
            R += (weighted @ np.conj(cols[k]).T).real
    R /= np.pi
    return 0.5 * (R + R.T)


def rbar_matrix(sm, n, grid_size=crb.GRID_SIZE_DEFAULT):
    """Limit regressor covariance Rbar^n by ``crb``'s own quadrature, with
    A = Lambda_n; no production path forms it."""
    omega, w = crb._quad_weights(grid_size)
    Lam = crb._lambda_projected(np.eye(2 * n), sm, grid_size)
    return crb._integrate(Lam, phi_z(sm, omega), w)


def direct_gamma_product(X, grid_size, bins):
    """X^T Gamma_m term by term at the grid points ``bins``.  The phase
    k omega_j = pi k j / (W - 1) is reduced modulo 2 pi in integers, so the
    sum keeps its digits at lags far past the FFT length."""
    k = np.arange(1, X.shape[0] + 1)
    size = 2 * (grid_size - 1)
    phase = np.pi * (np.outer(k, bins) % size) / (grid_size - 1)
    return X.T @ np.exp(-1j * phase)


def oracle_mbar(sm, n, grid_size):
    Q = build_Q(true_eta(sm.system, n), BJ_ORDERS)
    T = build_T(sm.system.theta, n, BJ_ORDERS)
    Z = solve_triangular(T, Q, lower=True, unit_diagonal=True)
    M = Z.T @ oracle_rbar(sm, n, grid_size) @ Z
    return 0.5 * (M + M.T)


def reference_omega_matrix(system, orders, omega):
    """``build_omega_matrix`` with every response from ``freq_response``
    and a table of exponentials of its own for each block."""
    G, H = freq_response(system.G, omega), freq_response(system.H, omega)
    F, C, D = (freq_response(RationalFilter(p), omega)
               for p in (system.F, system.C, system.D))
    blocks = [(0, -G / (H * F), orders.m_f), (0, 1.0 / (H * F), orders.m_l),
              (1, 1.0 / C, orders.m_c), (1, -1.0 / D, orders.m_d)]
    out = np.zeros((orders.dim, 2, len(omega)), dtype=complex)
    row = 0
    for channel, transfer, m in blocks:
        gamma = np.exp(-1j * np.outer(np.arange(1, m + 1), omega))
        out[row: row + m, channel] = transfer * gamma
        row += m
    return out


def reference_phi_z(sm, omega):
    """``phi_z`` with every response from ``freq_response``."""
    r_to_u, _ = reference_path(sm.system, sm.controller, sm.loop_kind)
    Fr = sm.reference_gain * freq_response(sm.reference_filter, omega)
    out = np.zeros(omega.shape + (2, 2), dtype=complex)
    R_u = freq_response(r_to_u, omega)
    out[..., 0, 0] = np.abs(R_u) ** 2 * np.abs(Fr) ** 2
    out[..., 1, 1] = sm.sigma2
    if sm.loop_kind != "open":
        S = freq_response(sensitivity(sm.system, sm.controller), omega)
        K = freq_response(sm.controller, omega)
        H = freq_response(sm.system.H, omega)
        W = -K * S * H
        out[..., 0, 0] += np.abs(W) ** 2 * sm.sigma2
        out[..., 0, 1] = W * sm.sigma2
        out[..., 1, 0] = np.conj(W) * sm.sigma2
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _dynamic_controller_sm(bench_system, loop_kind):
    """K = (0.5 - 0.2 q^-1)/(1 - 0.3 q^-1) keeps the loop stable, and its
    numerator differs from its denominator, so every loop kind differs."""
    K = RationalFilter(Polynomial([0.5, -0.2]), Polynomial([1.0, -0.3]))
    return SpectrumModel.from_loop_config(
        LoopConfig(system=bench_system, controller=K, noise_std=0.8,
                   loop_kind=loop_kind))


ORACLE_CASES = ([(kind, 2, 2) for kind in LOOP_KINDS]
                + [(kind, 50, 512) for kind in LOOP_KINDS]
                + [("closed", 200, 8192)])


@pytest.fixture
def closed_sm(bench_closed_cfg) -> SpectrumModel:
    return SpectrumModel.from_loop_config(bench_closed_cfg)


@pytest.fixture
def open_sm(bench_open_cfg) -> SpectrumModel:
    return SpectrumModel.from_loop_config(bench_open_cfg)


class TestPhiZ:
    def test_open_loop_white_input(self, bench_system):
        sm = SpectrumModel(system=bench_system,
                           controller=RationalFilter(Polynomial([0.0])),
                           reference_filter=RationalFilter(Polynomial([1.0])),
                           reference_gain=1.0, sigma2=0.25, loop_kind="open")
        P = phi_z(sm, np.array([0.3, 1.1]))
        assert np.allclose(P[:, 0, 0], 1.0)
        assert np.allclose(P[:, 1, 1], 0.25)
        assert np.allclose(P[:, 0, 1], 0.0)

    def test_zero_controller_closes_to_open(self, bench_system):
        kwargs = dict(system=bench_system,
                      controller=RationalFilter(Polynomial([0.0])),
                      reference_filter=RationalFilter(Polynomial([1.0])),
                      reference_gain=1.0, sigma2=1.0)
        omega = np.linspace(0.1, 3.0, 7)
        closed = phi_z(SpectrumModel(**kwargs, loop_kind="closed"), omega)
        opened = phi_z(SpectrumModel(**kwargs, loop_kind="open"), omega)
        assert np.max(np.abs(closed - opened)) < 1e-14

    def test_matches_averaged_periodogram(self, closed_sm, bench_system,
                                          unit_controller):
        N, seg = 2**17, 2048
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         noise_std=1.0, N=N, seed=17)
        data = generate(cfg)
        blocks_u = data.u.reshape(-1, seg)
        blocks_e = data.e.reshape(-1, seg)
        U = np.fft.rfft(blocks_u, axis=1)
        E = np.fft.rfft(blocks_e, axis=1)
        phi_u_hat = np.mean(np.abs(U) ** 2, axis=0) / seg
        phi_ue_hat = np.mean(U * np.conj(E), axis=0) / seg
        omega = 2 * np.pi * np.arange(U.shape[1]) / seg
        keep = slice(1, U.shape[1] - 1)
        P = phi_z(closed_sm, omega[keep])
        # compare band-averaged levels (periodograms are noisy pointwise)
        assert np.mean(phi_u_hat[keep]) == pytest.approx(
            np.mean(P[:, 0, 0].real), rel=0.05)
        assert np.mean(phi_ue_hat[keep].real) == pytest.approx(
            np.mean(P[:, 0, 1].real), rel=0.05, abs=0.05)


class TestOmegaMatrix:
    def test_oe_orders_use_only_first_column(self, fast_oe_system):
        Om = build_omega_matrix(fast_oe_system, ModelOrders(3, 2),
                                np.array([0.5]))
        assert Om.shape == (5, 2, 1)
        assert np.all(Om[:, 1, :] == 0)

    def test_unit_filters_at_dc(self):
        sys = BjModel(L=Polynomial([0.0, 1.0]), F=Polynomial([1.0, 0.0]))
        Om = build_omega_matrix(sys, ModelOrders(1, 1), np.array([0.0]))
        # G = H = 1 at DC for this system: rows are [-G/(HF), 1/(HF)] x gamma
        assert Om[0, 0, 0] == pytest.approx(-1.0)
        assert Om[1, 0, 0] == pytest.approx(1.0)

    def test_gamma_alternates_at_pi(self, bench_system):
        Om = build_omega_matrix(bench_system, BJ_ORDERS, np.array([np.pi]))
        gamma_ratio = Om[1, 0, 0] / Om[0, 0, 0]
        assert gamma_ratio == pytest.approx(-1.0)


class TestSharedZ:
    """``build_omega_matrix`` and ``phi_z`` evaluate every response at one
    z = e^{-i omega} and slice one table of exponentials; each result is
    bit for bit the one built response by response and block by block."""

    @pytest.mark.parametrize("loop_kind", LOOP_KINDS)
    @pytest.mark.parametrize("plant", ["bj", "oe"])
    def test_bitwise_equal_to_per_response_reference(
            self, bench_system, fast_oe_system, plant, loop_kind):
        system, orders = ((bench_system, BJ_ORDERS) if plant == "bj" else
                          (fast_oe_system, ModelOrders(3, 2)))
        assert (system.m_c, system.m_d) == (orders.m_c, orders.m_d)
        sm = replace(_dynamic_controller_sm(bench_system, loop_kind),
                     system=system)
        rng = np.random.default_rng(3)
        for omega in (crb._quad_weights(513)[0],
                      np.sort(rng.uniform(0.0, np.pi, 40))):
            assert _same_bits(build_omega_matrix(system, orders, omega),
                              reference_omega_matrix(system, orders, omega))
            assert _same_bits(phi_z(sm, omega), reference_phi_z(sm, omega))


class TestComputeMcr:
    def test_closed_loop_trace(self, closed_sm):
        res = compute_mcr(closed_sm)
        assert isinstance(res, CrbResult)
        assert res.dyn_block_trace == pytest.approx(1.0259, abs=1e-3)

    def test_open_loop_trace(self, open_sm):
        res = compute_mcr(open_sm)
        assert res.dyn_block_trace == pytest.approx(1.9572, abs=1e-3)

    def test_symmetry_and_inverse(self, closed_sm):
        res = compute_mcr(closed_sm)
        assert np.max(np.abs(res.M - res.M.T)) < 1e-10
        assert np.max(np.abs(res.M @ res.M_inv - np.eye(6))) < 1e-8
        assert np.min(np.linalg.eigvalsh(res.M)) > 0

    def test_grid_refinement_converged(self, closed_sm):
        a = compute_mcr(closed_sm, grid_size=4096).M
        b = compute_mcr(closed_sm, grid_size=8192).M
        assert np.max(np.abs(a - b)) < 1e-8

    def test_non_informative_experiment_detected(self, bench_system):
        sm = SpectrumModel(system=bench_system,
                           controller=RationalFilter(Polynomial([0.0])),
                           reference_filter=RationalFilter(Polynomial([1.0])),
                           reference_gain=0.0, sigma2=1.0, loop_kind="open")
        with pytest.raises(NonInformativeError):
            compute_mcr(sm)

    def test_serialization(self, closed_sm):
        doc = compute_mcr(closed_sm, grid_size=512).to_json()
        assert len(doc["M"]) == 6 and len(doc["M"][0]) == 6
        assert doc["grid_size"] == 512


class TestComputeMcl:
    def test_open_equivalence_without_noise_feedback(self, bench_system,
                                                     unit_controller):
        # with no controller the reference-only bound equals the dynamic
        # block of the full information matrix with the noise term removed
        sm = SpectrumModel(system=bench_system,
                           controller=RationalFilter(Polynomial([0.0])),
                           reference_filter=RationalFilter(Polynomial([1.0])),
                           reference_gain=1.0, sigma2=1.0, loop_kind="closed")
        M_cl = compute_mcl(sm, grid_size=2048)
        sm0 = SpectrumModel(system=bench_system,
                            controller=sm.controller,
                            reference_filter=sm.reference_filter,
                            reference_gain=1.0, sigma2=0.0, loop_kind="closed")
        omega = np.linspace(0, np.pi, 2048)
        Om = build_omega_matrix(bench_system, BJ_ORDERS, omega)
        P0 = phi_z(sm0, omega)
        w = np.full(2048, omega[1] - omega[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        OmP = np.einsum("iaw,wab->ibw", Om, P0)
        M0 = np.einsum("ibw,jbw,w->ij", OmP, np.conj(Om), w).real / np.pi
        assert np.max(np.abs(M_cl - M0[:4, :4])) < 1e-10

    def test_bound_dominates_cr_dynamic_block(self, closed_sm):
        M_cl = compute_mcl(closed_sm)
        full = compute_mcr(closed_sm)
        cov_cl = closed_sm.sigma2 * np.linalg.inv(M_cl)
        cov_cr = closed_sm.sigma2 * full.M_inv[:4, :4]
        assert np.min(np.linalg.eigvalsh(cov_cl - cov_cr)) > -1e-9

    def test_grid_refinement(self, closed_sm):
        a = compute_mcl(closed_sm, grid_size=4096)
        b = compute_mcl(closed_sm, grid_size=8192)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_non_informative_reference(self, bench_system, unit_controller):
        sm = SpectrumModel(system=bench_system, controller=unit_controller,
                           reference_filter=RationalFilter(Polynomial([1.0])),
                           reference_gain=0.0, sigma2=1.0, loop_kind="closed")
        with pytest.raises(NonInformativeError):
            compute_mcl(sm)


class TestGammaProduct:
    """X^T Gamma_m by one chirp-z transform equals the direct sum over the
    lags, including m past the DFT length L = 2(W - 1), where the lags fold.
    L = 16,382 at grid 8192 has the prime factor 8191; at 3001 it is
    5-smooth, and at 4097 and 8193 a power of two."""

    @pytest.mark.parametrize("grid_size",
                             [2, 3, 5, 17, 512, 3001, 4097, 8192, 8193])
    def test_matches_direct_sum(self, grid_size):
        size = 2 * (grid_size - 1)
        omega, _ = crb._quad_weights(grid_size)
        # at most 65 grid points keep the direct sum small at grid 8192
        bins = np.unique(np.r_[np.arange(0, grid_size,
                                         max(1, grid_size // 64)),
                               grid_size - 1])
        # the FFT bins are the grid of the quadrature
        assert np.allclose(omega[bins], np.pi * bins / (grid_size - 1),
                           rtol=0, atol=1e-15)
        rng = np.random.default_rng(grid_size)
        orders = sorted({1, 2, size - 1, size, size + 1, 2 * size + 3})
        for i, m in enumerate(orders):
            X = rng.standard_normal((m, 1 + i % 3))
            got = crb._gamma_product(X, grid_size)
            assert got.shape == (X.shape[1], grid_size)
            want = direct_gamma_product(X, grid_size, bins)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[:, bins] - want)) <= 1e-13 * scale, m


class TestMbarLimit:
    def test_symmetric_positive_definite(self, closed_sm):
        M = mbar_limit(closed_sm, n=50, grid_size=2048)
        assert np.max(np.abs(M - M.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(M)) > 0

    def test_converges_to_cr_information(self, closed_sm):
        M_cr = compute_mcr(closed_sm).M
        err = [
            np.linalg.norm(mbar_limit(closed_sm, n=n) - M_cr)
            / np.linalg.norm(M_cr)
            for n in (50, 200)
        ]
        assert err[1] < err[0]
        assert err[1] < 1e-2

    def test_eta_covariance_matches_limit(self, bench_system,
                                          unit_controller, closed_sm):
        n, N, runs = 20, 40000, 500
        etas = np.empty((runs, 2 * n))
        for k in range(runs):
            cfg = LoopConfig(system=bench_system, controller=unit_controller,
                             noise_std=1.0, N=N, seed=1000 + k)
            etas[k] = estimate_arx(generate(cfg), n).eta
        emp = np.cov((etas - etas.mean(axis=0)).T) * N
        target = closed_sm.sigma2 * np.linalg.inv(rbar_matrix(closed_sm, n))
        rel = np.abs(np.diag(emp) - np.diag(target)) / np.diag(target)
        assert np.max(rel) < 0.25

    def test_non_informative_experiment_detected(self, bench_system):
        # no reference and no feedback: u = 0, so M-bar is singular
        sm = SpectrumModel(system=bench_system,
                           controller=RationalFilter(Polynomial([0.0])),
                           reference_filter=RationalFilter(Polynomial([1.0])),
                           reference_gain=0.0, sigma2=1.0, loop_kind="open")
        with pytest.raises(NonInformativeError, match="finite-order"):
            mbar_limit(sm, n=20, grid_size=256)

    def test_gamma_table_never_formed(self, closed_sm):
        # the n x W table of exponentials alone takes 25 MiB at n = 200
        mbar_limit(closed_sm, n=20, grid_size=256)      # warm the caches
        tracemalloc.start()
        try:
            mbar_limit(closed_sm, n=200, grid_size=8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestOneQuadrature:
    """Each information matrix equals its reference integral to 1e-12 of
    its largest entry.  The positive-definiteness check is bypassed: on a
    two-point grid the information matrices are singular by construction,
    and the check is not what is compared here."""

    @pytest.mark.parametrize("loop_kind, n, grid_size", ORACLE_CASES)
    def test_matches_reference_integrals(self, monkeypatch, bench_system,
                                         loop_kind, n, grid_size):
        monkeypatch.setattr(crb, "_positive_definite", lambda M, what: M)
        sm = _dynamic_controller_sm(bench_system, loop_kind)
        pairs = {
            "M_CR": (compute_mcr(sm, grid_size).M, oracle_mcr(sm, grid_size)),
            "M_CL": (compute_mcl(sm, grid_size), oracle_mcl(sm, grid_size)),
            "Rbar": (rbar_matrix(sm, n, grid_size),
                     oracle_rbar(sm, n, grid_size)),
            "Mbar": (mbar_limit(sm, n, grid_size),
                     oracle_mbar(sm, n, grid_size)),
        }
        for name, (got, want) in pairs.items():
            assert got.shape == want.shape, name
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, name

    def test_production_paths_never_form_T(self, monkeypatch, closed_sm,
                                           bench_closed_cfg):
        def forbidden(*args, **kwargs):
            raise AssertionError("a production path formed the dense T")
        monkeypatch.setattr(estimator, "build_T", forbidden)
        # a name imported from estimator would escape the patch above
        monkeypatch.setattr(crb, "build_T", forbidden, raising=False)
        data = generate(replace(bench_closed_cfg, N=2000))
        est = wnsf_identify(data, BJ_ORDERS,
                            WnsfOptions(n_grid=(30,), max_iter=3))
        assert est.iterations >= 1
        assert mbar_limit(closed_sm, n=20, grid_size=256).shape == (6, 6)

    def test_snr_target_rejected(self, bench_closed_cfg):
        # the noise level snr_target picks depends on a simulated record
        with pytest.raises(ValueError, match="snr_target"):
            SpectrumModel.from_loop_config(
                replace(bench_closed_cfg, snr_target=2.0))
