import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from wnsf.lti import (
    Polynomial,
    RationalFilter,
    filter_signal,
    freq_response,
    impulse_response,
    poly_add,
    poly_mul,
)
from wnsf.simulate import (
    LOOP_KINDS,
    DataSet,
    LoopConfig,
    RandomSystemSpec,
    UnstableLoopError,
    generate,
    random_system,
    scale_noise_to_snr,
    sensitivity,
)


def _impulse(n):
    r = np.zeros(n)
    r[0] = 1.0
    return r


class TestClosedLoop:
    def test_noise_free_impulse_is_complementary_sensitivity(
        self, bench_system, unit_controller
    ):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         noise_std=0.0, N=100, seed=0)
        data = generate(cfg, r=_impulse(100))
        # y = G/(1+G) r = L/(F+L) r for a unit controller
        gcl = RationalFilter(bench_system.L,
                             poly_add(bench_system.F, bench_system.L))
        assert np.max(np.abs(data.y - impulse_response(gcl, 100))) < 1e-12

    def test_zero_controller_equals_open_loop(self, bench_system):
        cfg = LoopConfig(system=bench_system, noise_std=1.0, N=500, seed=42)
        closed = generate(cfg)
        opened = generate(replace(cfg, loop_kind="open"))
        assert np.array_equal(closed.u, opened.u)
        assert np.allclose(closed.y, opened.y, atol=1e-12)

    def test_output_variance_matches_spectrum(self, bench_closed_cfg):
        cfg = LoopConfig(system=bench_closed_cfg.system,
                         controller=bench_closed_cfg.controller,
                         noise_std=1.0, N=200000, seed=5)
        data = generate(cfg)
        omega = np.linspace(0, np.pi, 4096)
        s = sensitivity(cfg.system, cfg.controller)
        S = freq_response(s, omega)
        G = freq_response(cfg.system.G, omega)
        H = freq_response(cfg.system.H, omega)
        phi_y = np.abs(G * S) ** 2 + np.abs(S * H) ** 2
        var = np.trapezoid(phi_y, omega) / np.pi
        assert abs(np.var(data.y) - var) < 0.1 * var

    def test_consistency_residual(self, bench_closed_cfg):
        data = generate(bench_closed_cfg)
        system = bench_closed_cfg.system
        resid = (data.y - filter_signal(system.G, data.u)
                 - filter_signal(system.H, data.e))
        assert np.max(np.abs(resid)) < 1e-9

    def test_superposition(self, bench_system, unit_controller):
        mk = lambda std: LoopConfig(system=bench_system,
                                    controller=unit_controller,
                                    noise_std=std, N=2000, seed=9)
        full = generate(mk(1.0))
        noise_free = generate(mk(0.0))
        ref_free = generate(mk(1.0), r=np.zeros(2000))
        assert np.max(np.abs(full.y - noise_free.y - ref_free.y)) < 1e-10
        assert np.max(np.abs(full.u - noise_free.u - ref_free.u)) < 1e-10

    def test_determinism(self, bench_closed_cfg):
        d1 = generate(bench_closed_cfg)
        d2 = generate(bench_closed_cfg)
        for name in ("r", "u", "y", "e"):
            assert np.array_equal(getattr(d1, name), getattr(d2, name))

    def test_unstable_loop_rejected(self, fast_oe_system):
        cfg = LoopConfig(system=fast_oe_system,
                         controller=RationalFilter(Polynomial([0.3])),
                         N=100, seed=0)
        with pytest.raises(UnstableLoopError):
            generate(cfg)


class TestOpenLoop:
    def test_noise_free_output(self, bench_system, unit_controller):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         noise_std=0.0, N=300, seed=1, loop_kind="open")
        data = generate(cfg)
        assert np.max(np.abs(data.y - filter_signal(bench_system.G, data.u))) == 0.0

    def test_white_input_without_controller(self, bench_system):
        cfg = LoopConfig(system=bench_system, reference_gain=2.0,
                         noise_std=1.0, N=50000, seed=2, loop_kind="open")
        data = generate(cfg)
        assert np.array_equal(data.u, data.r)
        assert abs(np.var(data.u) - 4.0) < 0.2

    def test_input_noise_uncorrelated(self, bench_open_cfg):
        data = generate(bench_open_cfg)
        rho = np.corrcoef(data.u, data.e)[0, 1]
        assert abs(rho) < 4 / np.sqrt(data.N)


class TestRefThroughController:
    def test_unit_controller_matches_plain_closed_loop(
        self, bench_system, unit_controller
    ):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         noise_std=1.0, N=1000, seed=3,
                         loop_kind="closed_ref_through_K")
        a = generate(cfg)
        b = generate(replace(cfg, loop_kind="closed"))
        assert np.allclose(a.u, b.u, atol=1e-12)
        assert np.allclose(a.y, b.y, atol=1e-12)

    def test_noise_free_impulse(self, bench_system):
        K = RationalFilter(Polynomial([0.5]))
        cfg = LoopConfig(system=bench_system, controller=K, noise_std=0.0,
                         N=80, seed=0, loop_kind="closed_ref_through_K")
        data = generate(cfg, r=_impulse(80))
        # y = K G/(1 + K G) r
        num = poly_mul(K.num, bench_system.L)
        den = poly_add(poly_mul(K.den, bench_system.F), num)
        assert np.max(np.abs(data.y - impulse_response(
            RationalFilter(num, den), 80))) < 1e-12


class TestSnrScaling:
    @pytest.mark.parametrize("loop_kind", LOOP_KINDS)
    def test_snr_target_hit_exactly(self, bench_system, loop_kind):
        K = RationalFilter(Polynomial([0.5, -0.2]), Polynomial([1.0, 0.3]))
        cfg = LoopConfig(system=bench_system, controller=K, noise_std=1.0,
                         N=3000, seed=11, snr_target=2.0, loop_kind=loop_kind)
        data = generate(cfg)
        # the signal part of y is the noise-free output for the same r
        sig = generate(replace(cfg, noise_std=0.0, snr_target=None),
                       r=data.r).y
        noise = filter_signal(bench_system.H, data.e)
        snr = np.sum(sig**2) / np.sum(noise**2)
        assert abs(snr - 2.0) < 1e-9
        assert not np.array_equal(data.e, generate(
            replace(cfg, snr_target=None)).e)

    def test_gain_homogeneity(self, bench_system, unit_controller):
        base = dict(system=bench_system, controller=unit_controller,
                    noise_std=1.0, N=2000, seed=7, snr_target=2.0,
                    loop_kind="closed_ref_through_K")
        cfg1 = LoopConfig(**base)
        cfg2 = LoopConfig(**{**base, "reference_gain": 2.0})
        d1 = generate(cfg1)
        s1 = np.std(d1.e)
        d2 = generate(cfg2)
        s2 = np.std(d2.e)
        assert s2**2 == pytest.approx(4 * s1**2, rel=1e-9)

    def test_definitional_fixed_point(self, bench_system, unit_controller):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=500, seed=13, snr_target=2.0,
                         loop_kind="closed_ref_through_K")
        rng_r, rng_e = (np.random.default_rng(ss)
                        for ss in np.random.SeedSequence(13).spawn(2))
        r = rng_r.standard_normal(500)
        e_unit = rng_e.standard_normal(500)
        sigma = scale_noise_to_snr(cfg, r, e_unit)
        s = sensitivity(bench_system, unit_controller)
        kgs = RationalFilter(poly_mul(unit_controller.num, bench_system.L),
                             s.den)
        snr = (np.sum(filter_signal(kgs, r) ** 2)
               / np.sum(filter_signal(bench_system.H, sigma * e_unit) ** 2))
        assert abs(snr - 2.0) < 1e-12

    def test_delay_loop_hand_value(self):
        # K G/(1 + K G) = q^-1 exactly when G = q^-1/(1 - q^-1) and K = 1;
        # with H = 1 and unit white sequences the required sigma is about
        # sqrt(sum (q^-1 r)^2 / (2 sum e^2)) ~ 1/sqrt(2)
        system = type(self)._delay_dominant_system()
        cfg = LoopConfig(system=system,
                         controller=RationalFilter(Polynomial([1.0])),
                         N=100000, seed=21, snr_target=2.0,
                         loop_kind="closed_ref_through_K")
        rng_r, rng_e = (np.random.default_rng(ss)
                        for ss in np.random.SeedSequence(21).spawn(2))
        r = rng_r.standard_normal(cfg.N)
        e = rng_e.standard_normal(cfg.N)
        sigma = scale_noise_to_snr(cfg, r, e)
        expected = np.sqrt(np.sum(r[:-1] ** 2) / (2 * np.sum(e**2)))
        assert sigma == pytest.approx(expected, rel=1e-12)
        assert sigma == pytest.approx(1 / np.sqrt(2), rel=0.05)

    @staticmethod
    def _delay_dominant_system():
        from wnsf.lti import BjModel

        return BjModel(L=Polynomial([0.0, 1.0]), F=Polynomial([1.0, -1.0]))

    def test_zero_noise_path_energy(self, bench_system, unit_controller):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=100, seed=0, snr_target=2.0,
                         loop_kind="closed_ref_through_K")
        with pytest.raises(ZeroDivisionError):
            scale_noise_to_snr(cfg, np.ones(100), np.zeros(100))


class TestRandomSystems:
    def test_plant_poles_in_annulus(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sys = random_system(rng)
            radii = np.abs(np.roots(sys.F.coeffs))
            assert np.all(radii <= 0.98 + 1e-9)
            assert np.all(radii >= 0.88 - 1e-9)

    def test_real_coefficients(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sys = random_system(rng)
            for p in (sys.L, sys.F, sys.C, sys.D):
                assert np.isrealobj(p.coeffs)

    def test_structure(self):
        rng = np.random.default_rng(2)
        sys = random_system(rng)
        assert sys.m_f == 6 and sys.m_l == 4
        assert sys.m_c == 2 and sys.m_d == 2
        assert sys.F.is_monic and sys.C.is_monic and sys.D.is_monic
        assert sys.L.coeffs[0] == 0.0

    def test_radius_distribution_uniform(self):
        rng = np.random.default_rng(3)
        spec = RandomSystemSpec()
        radii = []
        for _ in range(10000):
            sys = random_system(rng, spec)
            roots = np.roots(sys.F.coeffs)
            radii.extend(np.abs(roots[np.imag(roots) > 0]))
        radii = np.asarray(radii)
        stat = stats.kstest(radii, stats.uniform(0.88, 0.10).cdf)
        assert stat.pvalue > 0.01


class TestDataSet:
    def test_csv_roundtrip(self, bench_closed_cfg, tmp_path):
        data = generate(bench_closed_cfg)
        path = tmp_path / "d.csv"
        data.to_csv(path)
        loaded = DataSet.from_csv(path)
        for name in ("r", "u", "y", "e"):
            assert np.array_equal(getattr(data, name), getattr(loaded, name))

    def test_header_format(self, bench_closed_cfg, tmp_path):
        data = generate(bench_closed_cfg)
        path = tmp_path / "d.csv"
        DataSet(r=data.r, u=data.u, y=data.y).to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,r,u,y"
        assert len(lines) == data.N + 1
        assert lines[1].startswith("1,")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DataSet(r=np.zeros(3), u=np.zeros(3), y=np.zeros(4))

    def test_non_finite_rejected(self):
        bad = np.array([0.0, np.inf, 0.0])
        with pytest.raises(ValueError):
            DataSet(r=bad, u=np.zeros(3), y=np.zeros(3))

    def test_invalid_config_rejected(self, bench_system):
        with pytest.raises(ValueError):
            LoopConfig(system=bench_system, loop_kind="sideways")
        with pytest.raises(ValueError):
            LoopConfig(system=bench_system, noise_std=-1.0)
        with pytest.raises(ValueError):
            LoopConfig(system=bench_system, N=0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("noise_std", math.nan), ("noise_std", math.inf),
        ("reference_gain", math.inf), ("snr_target", math.nan),
        ("snr_target", math.inf), ("N", True)])
    def test_bad_field_named(self, bench_system, field, value):
        # each was accepted, and generate then failed with a message naming
        # no field ("expected non-negative integer", "non-finite values in
        # u"), or, for snr_target = inf, ran with a noise level of 0
        with pytest.raises(ValueError, match=f"^{field} "):
            LoopConfig(system=bench_system, **{field: value})
