import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from wnsf import lti
from wnsf.lti import (
    BjModel,
    Polynomial,
    RationalFilter,
    filter_signal,
    freq_response,
    impulse_response,
    is_stable,
    is_stable_coeffs,
    poly_mul,
    toeplitz_matrix,
)

ROOT = Path(__file__).resolve().parents[1]

finite_coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
poly_strategy = st.lists(finite_coeff, min_size=1, max_size=6).map(Polynomial)


def _stable_den(poles, pairs):
    """The monic product of (1 - p q^-1) over the real poles and of
    (1 - 2 r cos(t) q^-1 + r^2 q^-2) over the pairs (r, t)."""
    a = np.array([1.0])
    for p in poles:
        a = np.convolve(a, [1.0, -p])
    for r, t in pairs:
        a = np.convolve(a, [1.0, -2.0 * r * np.cos(t), r * r])
    return a


# at least one pole: a denominator of degree 0 takes the FIR branch
stable_den = st.builds(
    _stable_den, st.lists(st.floats(-0.95, 0.95), max_size=3),
    st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, np.pi)),
             max_size=2)).filter(lambda a: len(a) > 1)
# a leading coefficient: 1 (monic) or a scale of either sign
den_lead = st.just(1.0) | st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)


class TestPolyMul:
    def test_identity_element(self):
        out = poly_mul(Polynomial([1.0]), Polynomial([1.0, 0.7]))
        assert np.allclose(out.coeffs, [1.0, 0.7])

    def test_difference_of_squares(self):
        out = poly_mul(Polynomial([1.0, 0.5]), Polynomial([1.0, -0.5]))
        assert np.allclose(out.coeffs, [1.0, 0.0, -0.25])

    def test_matches_toeplitz_matvec(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = Polynomial(rng.standard_normal(6))
            b = Polynomial(rng.standard_normal(6))
            prod = poly_mul(a, b).coeffs
            via_matrix = toeplitz_matrix(a, 11, 6) @ b.coeffs
            assert np.max(np.abs(prod - via_matrix)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(poly_strategy, poly_strategy)
    def test_commutative(self, a, b):
        ab, ba = poly_mul(a, b).coeffs, poly_mul(b, a).coeffs
        scale = max(1.0, np.max(np.abs(ab)))
        assert np.max(np.abs(ab - ba)) <= 1e-15 * scale

    @settings(max_examples=50, deadline=None)
    @given(poly_strategy, poly_strategy)
    def test_toeplitz_identity(self, a, b):
        # T(a) b = T(b) a once both are padded to the product length
        n = a.degree + b.degree + 1
        lhs = toeplitz_matrix(a, n, len(b.coeffs)) @ b.coeffs
        rhs = toeplitz_matrix(b, n, len(a.coeffs)) @ a.coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_degree_adds(self):
        a, b = Polynomial([1.0, 2.0, 3.0]), Polynomial([4.0, 5.0])
        assert poly_mul(a, b).degree == a.degree + b.degree


class TestFilter:
    def test_identity_filter(self):
        x = np.random.default_rng(0).standard_normal(50)
        out = filter_signal(RationalFilter(Polynomial([1.0])), x)
        assert np.array_equal(out, x)

    def test_pure_delay(self):
        x = np.zeros(5)
        x[0] = 1.0
        out = filter_signal(RationalFilter(Polynomial([0.0, 1.0])), x)
        assert np.array_equal(out, [0.0, 1.0, 0.0, 0.0, 0.0])

    def test_benchmark_plant_impulse(self, bench_system):
        # long-division values for (q^-1 + 0.1 q^-2)/(1 - 0.5 q^-1 + 0.75 q^-2)
        imp = np.zeros(4)
        imp[0] = 1.0
        out = filter_signal(bench_system.G, imp)
        assert np.allclose(out[1:4], [1.0, 0.6, -0.45])

    def test_composition(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000)
        f = RationalFilter(Polynomial([1.0, 0.3]), Polynomial([1.0, -0.5]))
        g = RationalFilter(Polynomial([0.0, 1.0]), Polynomial([1.0, 0.2, 0.1]))
        seq = filter_signal(f, filter_signal(g, x))
        product = RationalFilter(poly_mul(f.num, g.num),
                                 poly_mul(f.den, g.den))
        comp = filter_signal(product, x)
        assert np.max(np.abs(seq - comp)) < 1e-10 * np.max(np.abs(seq))

    def test_output_length(self):
        x = np.ones(17)
        f = RationalFilter(Polynomial([1.0, 1.0]), Polynomial([1.0, -0.5]))
        assert len(filter_signal(f, x)) == 17

    @settings(max_examples=100, deadline=None)
    @given(poly_strategy, st.integers(0, 3), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_fir_rows_match_convolution(self, b, rows, length, seed):
        # a FIR filter runs on all rows at once; each row must equal its
        # own truncated convolution, up to the rounding of an m + 1 term sum
        shape = (length,) if rows == 0 else (rows, length)
        x = np.random.default_rng(seed).standard_normal(shape)
        want = np.apply_along_axis(
            lambda row: np.convolve(b.coeffs, row)[:length], -1, x)
        got = filter_signal(RationalFilter(b), x)
        assert got.shape == x.shape
        bound = 4 * len(b.coeffs) * np.finfo(float).eps * np.sum(
            np.abs(b.coeffs)) * np.max(np.abs(x))
        assert np.max(np.abs(got - want)) <= bound


class TestIirKernel:
    """The compiled kernel gives the bits of ``scipy.signal.lfilter``, and
    ``lfilter`` takes over when the kernel cannot be loaded or trusted."""

    @settings(max_examples=300, deadline=None)
    @given(stable_den, den_lead, st.integers(-3, 3), st.integers(0, 3),
           st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_bitwise_lfilter(self, den, lead, b_extra, rows, length, seed):
        # len(b) above, at and below len(a); rows as short as one sample,
        # shorter than the filter
        rng = np.random.default_rng(seed)
        a = lead * den
        b = rng.uniform(-10, 10, max(1, len(a) + b_extra))
        x = rng.standard_normal((length,) if rows == 0 else (rows, length))
        want = signal.lfilter(b, a, x)
        got = lti._lfilter(b, a, x, -1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if lead == 1.0:
            got = filter_signal(RationalFilter(Polynomial(b), Polynomial(a)),
                                x)
            assert got.tobytes() == want.tobytes()

    def _assert_falls_back(self, monkeypatch, load):
        f = RationalFilter(Polynomial([0.5, 1.0, 0.1]),
                           Polynomial([1.0, -0.5, 0.75]))
        x = np.random.default_rng(4).standard_normal((3, 500))
        want = filter_signal(f, x)
        # as if scipy.signal had not loaded the kernel module
        monkeypatch.delitem(sys.modules, lti._KERNEL)
        monkeypatch.setattr(lti, "_load_kernel", load)
        chosen = lti._iir_filter()
        assert chosen is signal.lfilter
        # a module loaded for a kernel that is not used does not stay
        assert lti._KERNEL not in sys.modules
        monkeypatch.setattr(lti, "_lfilter", chosen)
        assert filter_signal(f, x).tobytes() == want.tobytes()

    def test_load_error_falls_back(self, monkeypatch):
        load = lti._load_kernel

        def loads_then_fails():
            load()
            raise ImportError("kernel unusable")

        self._assert_falls_back(monkeypatch, loads_then_fails)

    def test_check_mismatch_falls_back(self, monkeypatch):
        load = lti._load_kernel

        def one_ulp_off():
            kernel = load()
            return lambda *args: np.nextafter(kernel(*args), np.inf)

        self._assert_falls_back(monkeypatch, one_ulp_off)

    def test_cli_import_leaves_scipy_signal_out(self):
        # a fresh interpreter: this one has imported scipy.signal
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "import wnsf.cli",
            "from wnsf.lti import Polynomial, RationalFilter, filter_signal",
            "loaded = {'scipy.signal', 'scipy.stats'} & set(sys.modules)",
            "assert not loaded, loaded",
            "f = RationalFilter(Polynomial([0.0, 1.0, 0.1]),",
            "                   Polynomial([1.0, -0.5, 0.75]))",
            "x = np.random.default_rng(0).standard_normal((3, 200))",
            "y = filter_signal(f, x)",
            # scipy.signal still imports, beside the kernel loaded for it
            "from scipy.signal import lfilter",
            "z = lfilter(f.num.coeffs, f.den.coeffs, x)",
            "assert z.tobytes() == y.tobytes()",
            "assert filter_signal(f, x).tobytes() == y.tobytes()",
        ])
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()


class TestImpulseResponse:
    def test_geometric_series(self):
        f = RationalFilter(Polynomial([1.0]), Polynomial([1.0, -0.9]))
        assert np.allclose(impulse_response(f, 3), [1.0, 0.9, 0.81])

    def test_delay(self):
        f = RationalFilter(Polynomial([0.0, 1.0]))
        assert np.array_equal(impulse_response(f, 4), [0.0, 1.0, 0.0, 0.0])

    def test_benchmark_noise_model(self, bench_system):
        # (1 + 0.7 q^-1)/(1 - 0.9 q^-1) starts 1, 1.6, 1.44
        assert np.allclose(impulse_response(bench_system.H, 3),
                           [1.0, 1.6, 1.44])

    def test_geometric_tail_decay(self, bench_system):
        g = impulse_response(bench_system.G, 512)
        rho = max(np.abs(is_stable(bench_system.F)[1]))
        blocks = g.reshape(8, 64)
        sums = np.sum(np.abs(blocks), axis=1)
        for k in range(1, 8):
            if sums[k - 1] > 1e-14:
                assert sums[k] / sums[k - 1] < (rho + 0.05) ** 64 + 0.05


class TestStability:
    def test_first_order_stable(self):
        stable, roots = is_stable(Polynomial([1.0, -0.9]))
        assert stable and np.allclose(np.abs(roots), 0.9)

    def test_first_order_unstable(self):
        stable, roots = is_stable(Polynomial([1.0, -2.0]))
        assert not stable and np.allclose(roots, 2.0)

    def test_benchmark_denominator(self, bench_system):
        stable, roots = is_stable(bench_system.F)
        assert stable
        assert np.allclose(np.abs(roots), np.sqrt(0.75))

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            is_stable(Polynomial([2.0, 1.0]))

    def test_trailing_zero_is_a_root_at_origin(self):
        # z^2 - 0.5 z: the zero coefficient adds a root at 0, inside the circle
        stable, roots = is_stable(Polynomial([1.0, -0.5, 0.0]))
        assert stable
        assert np.allclose(np.sort(np.abs(roots)), [0.0, 0.5])

    def test_agrees_with_explicit_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            roots = rng.uniform(-1.5, 1.5, size=rng.integers(1, 4))
            p = Polynomial(np.poly(roots))
            stable, found = is_stable(p)
            assert stable == bool(np.all(np.abs(roots) < 1.0 - 1e-9))
            assert np.allclose(np.sort(found), np.sort(roots))


RHO = 1.0 - lti.TOL_STAB  # the float np.roots moduli are compared with


def exact_schur_cohn(coeffs) -> bool:
    """The oracle: the Schur-Cohn step-down recursion in exact rational
    arithmetic on X(q^-1 / rho), for the float coefficients as given.  True
    exactly when every root lies inside |z| < rho."""
    rho = Fraction(RHO)
    a = [Fraction(c) / rho**k for k, c in enumerate(coeffs)]
    for d in range(len(a) - 1, 0, -1):
        k = a[d]
        if abs(k) >= 1:
            return False
        a = [(a[i] - k * a[d - i]) / (1 - k * k) for i in range(d)]
    return True


def roots_verdict(coeffs) -> bool:
    """The rule before the screen: the moduli from np.roots."""
    return bool(np.all(np.abs(np.roots(coeffs)) < RHO))


@st.composite
def _monic(draw):
    """Monic coefficients of degree 0-8: drawn directly (mostly unstable),
    or from roots whose moduli reach past rho (near the margin)."""
    m = draw(st.integers(0, 8))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.floats(-3, 3), min_size=m, max_size=m))
        return np.array([1.0] + coeffs)
    radius = st.floats(0.0, 1.02) | st.sampled_from(
        [RHO * (1 - 1e-6), RHO * (1 - 1e-9), RHO, RHO * (1 + 1e-9)])
    roots = []
    while len(roots) < m:
        r = draw(radius)
        if m - len(roots) >= 2 and draw(st.booleans()):
            t = draw(st.floats(0.0, np.pi))
            roots += [r * np.exp(1j * t), r * np.exp(-1j * t)]
        else:
            roots.append(r if draw(st.booleans()) else -r)
    return np.real(np.poly(roots)) if m else np.array([1.0])


class TestStabilityScreen:
    """The Schur-Cohn screen of ``is_stable_coeffs`` against exact
    arithmetic, and the verdict against the np.roots rule it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(_monic())
    def test_accepts_only_stable(self, coeffs):
        screen = lti._schur_cohn_screen(coeffs)
        if screen:
            assert exact_schur_cohn(coeffs)
            # where the screen decides, np.roots agrees: today's answer
            assert roots_verdict(coeffs)
        verdict = is_stable_coeffs(coeffs)
        assert verdict == (screen or roots_verdict(coeffs))
        assert verdict == is_stable(Polynomial(coeffs))[0]

    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11,
                                     1e-12])
    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("multiplicity", [1, 2])
    def test_margin_gets_the_roots_verdict(self, eps, side, multiplicity):
        # within tau of the margin the screen refuses, so the verdict is the
        # np.roots one; for a simple root that is the exact one too
        r = RHO * (1 + side * eps)
        for sign in (1, -1):
            coeffs = np.real(np.poly([sign * r] * multiplicity))
            assert not lti._schur_cohn_screen(coeffs)
            assert is_stable_coeffs(coeffs) == roots_verdict(coeffs)
            if multiplicity == 1:
                assert is_stable_coeffs(coeffs) == exact_schur_cohn(coeffs)
                assert is_stable_coeffs(coeffs) == (side < 0)

    def test_clear_of_the_margin_passes_the_screen(self, bench_system):
        for p in (bench_system.F, bench_system.C, bench_system.D):
            assert lti._schur_cohn_screen(p.coeffs)
        # a double root at 0.99: 1 - |k| is about 5e-5, above tau
        assert lti._schur_cohn_screen(np.poly([0.99, 0.99]))

    @pytest.mark.parametrize("coeffs, stable", [
        ([1.0, -0.5, 0.0, 0.0], True),   # roots 0.5, 0, 0
        ([1.0, -1.5, 0.0], False),       # roots 1.5, 0
        ([1.0, 0.0, 0.0], True),         # a double root at 0
        ([1.0], True),                   # degree 0: no roots
    ])
    def test_trailing_zeros_and_degree_zero(self, coeffs, stable):
        coeffs = np.array(coeffs)
        assert is_stable_coeffs(coeffs) is stable
        assert exact_schur_cohn(coeffs) is stable
        assert lti._schur_cohn_screen(coeffs) is stable

    @pytest.mark.parametrize("coeffs", [
        [1.0, np.nan], [1.0, np.inf, 0.5], [1.0, 0.1, -np.inf],
        [1.0, 0.2, np.nan, 0.1], [2.0, 1.0], []])
    def test_non_finite_or_non_monic_raises(self, coeffs):
        assert not lti._schur_cohn_screen(np.array(coeffs))
        with pytest.raises(ValueError):
            is_stable_coeffs(np.array(coeffs))


class TestFreqResponse:
    def test_unit_filter(self):
        f = RationalFilter(Polynomial([1.0]))
        assert freq_response(f, 1.2345) == pytest.approx(1.0 + 0.0j)

    def test_delay_at_pi(self):
        f = RationalFilter(Polynomial([0.0, 1.0]))
        assert freq_response(f, np.pi) == pytest.approx(-1.0 + 0.0j)

    def test_dc_gain(self):
        f = RationalFilter(Polynomial([1.0]), Polynomial([1.0, -0.9]))
        assert freq_response(f, 0.0) == pytest.approx(10.0 + 0.0j)

    def test_pole_on_circle_reported(self):
        f = RationalFilter(Polynomial([1.0]), Polynomial([1.0, -1.0]))
        with pytest.raises(ZeroDivisionError):
            freq_response(f, 0.0)


class TestBjModel:
    def test_theta_roundtrip(self, bench_system):
        theta = bench_system.theta
        assert np.allclose(theta, [-0.5, 0.75, 1.0, 0.1, 0.7, -0.9])
        rebuilt = BjModel.from_theta(theta, 2, 2, 1, 1)
        assert rebuilt == bench_system

    def test_monic_enforced(self):
        with pytest.raises(ValueError):
            BjModel(L=Polynomial([0.0, 1.0]), F=Polynomial([2.0, 1.0]))

    def test_delay_enforced(self):
        with pytest.raises(ValueError):
            BjModel(L=Polynomial([1.0, 1.0]), F=Polynomial([1.0, -0.5]))

    def test_structural_orders_keep_trailing_zeros(self):
        m = BjModel(L=Polynomial([0.0, 1.0, 0.0]), F=Polynomial([1.0, -0.5, 0.0]))
        assert m.m_l == 2 and m.m_f == 2

    def test_json_roundtrip(self, bench_system):
        doc = bench_system.to_json()
        assert doc["C"] == [1.0, 0.7]
        assert BjModel.from_json(doc) == bench_system

    def test_filter_json_roundtrip(self):
        f = RationalFilter(Polynomial([0.0, 1.0]), Polynomial([1.0, -0.5]))
        assert RationalFilter.from_json(f.to_json()) == f

    def test_filter_json_needs_num(self):
        # a denominator alone used to end in KeyError: 'num'
        with pytest.raises(ValueError, match="num"):
            RationalFilter.from_json({"den": [1.0, -0.5]})
