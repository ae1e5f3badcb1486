"""Polynomials in the backward-shift operator and rational discrete-time filters.

Conventions: a polynomial ``X(q) = x_0 + x_1 q^-1 + ... + x_m q^-m`` is stored
as the coefficient array ``[x_0, ..., x_m]`` (ascending delay).  All filtering
uses zero initial conditions.

A filter with poles runs in scipy's compiled IIR kernel,
``scipy.signal._sigtools._linear_filter``, which ``scipy.signal.lfilter``
calls for zero initial conditions; the output is the same bits.  The kernel
is loaded from its extension file, because importing ``scipy.signal`` (which
imports ``scipy.stats``) would take most of the command-line start-up time.
The kernel is private to scipy, so at import it must filter a fixed impulse
pair to the exact dyadic values a correct kernel gives.  If it cannot be
loaded or fails that check, ``lfilter`` is used, and a module loaded here is
taken out of ``sys.modules`` again.  ``filter_coeffs`` is the same filter on
coefficient arrays, for callers that hold no ``RationalFilter``.

Stability is one rule: all roots inside |z| < 1 - TOL_STAB.
``is_stable_coeffs`` decides it by a Schur-Cohn recursion with a rounding
bound (``_schur_cohn_screen``) and, only for a polynomial the recursion
cannot pass, by the moduli of its roots from ``is_stable``, which returns
them as well and is the only caller of ``np.roots``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import scipy

TOL_STAB = 1e-9


@dataclass(frozen=True)
class Polynomial:
    """Finite polynomial in q^-1, coefficients ordered by ascending delay.

    Trailing zeros are kept as constructed, so the structural order of a
    model polynomial is ``len(coeffs) - 1`` even if high coefficients are zero.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[0] == 1.0

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and np.array_equal(
            self.coeffs, other.coeffs
        )

    def to_json(self):
        return self.coeffs.tolist()

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        return cls(np.asarray(data, dtype=float))


ONE = Polynomial(np.array([1.0]))


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product of two polynomials in q^-1 (coefficient convolution)."""
    return Polynomial(np.convolve(a.coeffs, b.coeffs))


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    n = max(len(a.coeffs), len(b.coeffs))
    out = np.zeros(n)
    out[: len(a.coeffs)] += a.coeffs
    out[: len(b.coeffs)] += b.coeffs
    return Polynomial(out)


_U = 2.0 ** -53          # unit roundoff of a double
_INV_RHO = 1.0 / (1.0 - TOL_STAB)
STAB_SCREEN_MARGIN = 1e-6  # tau: how far each reflection coefficient clears 1
_SCREEN_LIMIT = 1.0 - STAB_SCREEN_MARGIN


def _schur_cohn_screen(coeffs) -> bool:
    """True only if the monic polynomial ``coeffs`` is certainly stable:
    every root inside |z| < rho = 1 - TOL_STAB.  False means "not decided".

    The Schur-Cohn (Jury) step-down recursion runs on X(q^-1 / rho), whose
    roots are those of X divided by rho: with k = a_d, the last coefficient
    of the degree-d polynomial a, the next one is

        a'_i = (a_i - k a_{d-i}) / (1 - k^2),   i = 0 .. d-1,

    and all roots lie inside the unit circle exactly when every k so met has
    |k| < 1.  In floats 1 - k^2 cancels as |k| nears 1, so beside each
    coefficient the recursion carries e, a bound on the distance of every
    computed coefficient from the one exact arithmetic gives on the same
    input.  It starts at (2m + 2) u max |a_k| for the scaling by rho^-k
    (u = 2^-53) and grows by first-order error propagation through one
    step, with every e^2 term and the rounding of each operation kept, and
    a factor 1 + 1e-12 for the rounding of the bound's own evaluation.  The
    screen accepts only if every |k| + e <= 1 - tau, so that every exact
    reflection coefficient has |k| < 1: an accepted polynomial is stable.

    tau = ``STAB_SCREEN_MARGIN`` keeps the screen off the polynomials whose
    roots ``np.roots`` may place on the wrong side of rho, so that where it
    accepts, ``np.roots`` agrees.  For a p-fold root at rho (1 - eps),
    1 - |k| shrinks like eps^p (a double root gives eps^2 / 2), so the
    screen accepts only eps of order tau^(1/p) or more, while the
    eigenvalues misplace such a root by about u^(1/p): tau = 1e-6 keeps
    the two (tau / u)^(1/p) apart, 1e5 for a double root.  Plain Python
    floats: 1-4 us at the degrees of step 3, against 40-50 us for
    ``np.roots``.  A non-finite or non-monic input is refused, and the
    caller's fallback raises.
    """
    a = np.asarray(coeffs, dtype=float).tolist()
    if not a or a[0] != 1.0:
        return False
    m = len(a) - 1
    scale = 1.0
    for i in range(1, m + 1):
        scale *= _INV_RHO
        a[i] *= scale
    err = (2 * m + 2) * _U * max(map(abs, a))
    for d in range(m, 1, -1):
        k = a[d]
        ak = abs(k)
        if not ak + err <= _SCREEN_LIMIT:  # also refuses nan
            return False
        den = 1.0 - k * k
        d_den = err * (2.0 * ak + err) + 2.0 * _U  # bounds |1 - k^2 - den|
        if not d_den <= 0.5 * den:
            return False
        inner = a[1:d]
        nums = [x - k * y for x, y in zip(inner, reversed(inner))]
        big, num_big = max(map(abs, inner)), max(map(abs, nums))
        d_num = err * (1.0 + ak + big + err) + 2.0 * _U * (ak * big + num_big)
        a = [1.0] + [x / den for x in nums]
        q = num_big / den  # the largest |a'_i|, as rounded
        err = ((d_num + 2.0 * q * d_den) / (den - d_den)
               + 2.0 * _U * q) * (1.0 + 1e-12)
    return m == 0 or abs(a[1]) + err <= _SCREEN_LIMIT


def is_stable(p: Polynomial):
    """Whether all roots of a monic polynomial lie inside |z| < 1 - TOL_STAB.

    Returns ``(stable, roots)``, the m = ``p.degree`` roots of z^m X(z^-1)
    (np.roots); each trailing zero coefficient is a root at 0, which no
    verdict depends on.  The verdict is ``is_stable_coeffs``'s: the Schur-Cohn
    screen where it decides, else the moduli of these roots.  The package's
    only root finder; a caller that needs only the verdict calls
    ``is_stable_coeffs``, which finds roots only where the screen refuses.
    """
    if not p.is_monic:
        raise ValueError("stability test requires a monic polynomial")
    roots = np.roots(p.coeffs)
    stable = (_schur_cohn_screen(p.coeffs)
              or bool(np.all(np.abs(roots) < 1.0 - TOL_STAB)))
    return stable, roots


def is_stable_coeffs(coeffs) -> bool:
    """``is_stable(Polynomial(coeffs))[0]`` for a monic coefficient array,
    without the roots when the Schur-Cohn screen accepts it."""
    return _schur_cohn_screen(coeffs) or is_stable(Polynomial(coeffs))[0]


def toeplitz_matrix(p, n: int, m: int) -> np.ndarray:
    """The n-by-m lower-triangular Toeplitz matrix with first column
    ``[x_0, ..., x_{n-1}]`` and first row ``[x_0, 0, ..., 0]``, for a
    ``Polynomial`` or its coefficient array."""
    coeffs = p.coeffs if isinstance(p, Polynomial) else p
    col = np.zeros(n)
    k = min(n, len(coeffs))
    col[:k] = coeffs[:k]
    T = np.zeros((n, m))
    for j in range(min(n, m)):
        T[j:, j] = col[:n - j]
    return T


@dataclass(frozen=True)
class RationalFilter:
    """Rational filter num/den in q^-1 with a monic denominator."""

    num: Polynomial
    den: Polynomial = field(default=ONE)

    def __post_init__(self):
        if not self.den.is_monic:
            raise ValueError("denominator must be monic")

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "RationalFilter":
        if "num" not in data:
            raise ValueError("num is required; a den alone has no numerator")
        return cls(Polynomial.from_json(data["num"]),
                   Polynomial.from_json(data.get("den", [1.0])))


CONST_ONE = RationalFilter(ONE, ONE)
CONST_ZERO = RationalFilter(Polynomial(np.array([0.0])), ONE)


_KERNEL = "scipy.signal._sigtools"


def _load_kernel():
    """``_linear_filter`` of scipy's ``_sigtools``, the module scipy.signal
    loaded if it did, else the extension file beside scipy's."""
    if _KERNEL not in sys.modules:
        folder = os.path.join(os.path.dirname(scipy.__file__), "signal")
        path = next(filter(os.path.exists, [
            os.path.join(folder, "_sigtools" + suffix)
            for suffix in EXTENSION_SUFFIXES]))
        spec = importlib.util.spec_from_file_location(_KERNEL, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_KERNEL] = module
    return sys.modules[_KERNEL]._linear_filter


def _iir_filter():
    """``lfilter(b, a, x, axis)`` for zero initial state: the compiled kernel
    if it loads and passes the check, else ``scipy.signal.lfilter``."""
    # b = 1 + 0.5 q^-1 over a = 1 - 0.5 q^-1 on impulses of height 1 and 2:
    # every output value is dyadic, so a correct kernel gives these bits
    impulses = np.zeros((2, 6))
    impulses[:, 0] = [1.0, 2.0]
    want = [[1, 1, .5, .25, .125, .0625], [2, 2, 1, .5, .25, .125]]
    loaded_here = _KERNEL not in sys.modules
    try:
        kernel = _load_kernel()
        if np.array_equal(kernel(np.array([1.0, 0.5]), np.array([1.0, -0.5]),
                                 impulses, -1), want):
            return kernel
    except Exception:
        # private API: whatever fails to load or run is replaced by lfilter
        pass
    if loaded_here:
        sys.modules.pop(_KERNEL, None)
    from scipy.signal import lfilter
    return lfilter


_lfilter = _iir_filter()


def filter_coeffs(num: np.ndarray, den: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """``filter_signal`` on coefficient arrays: num/den (den monic) along
    the last axis of x, with zero initial state.

    A FIR filter (den = [1]) is a sum of shifted copies of x, taken over all
    rows at once: lfilter would convolve the rows one by one in Python."""
    x = np.asarray(x, dtype=float)
    if len(den) > 1:
        return _lfilter(num, den, x, -1)
    y = num[0] * x
    for k in range(1, min(len(num), x.shape[-1])):
        y[..., k:] += num[k] * x[..., :-k]
    return y


def filter_signal(f: RationalFilter, x: np.ndarray) -> np.ndarray:
    """Apply num/den along the last axis of x as a direct-form difference
    equation with zero initial state.  Output length equals input length."""
    return filter_coeffs(f.num.coeffs, f.den.coeffs, x)


def impulse_response(f: RationalFilter, length: int) -> np.ndarray:
    """First ``length`` coefficients of the power-series expansion of f."""
    if length < 1:
        raise ValueError("length must be >= 1")
    imp = np.zeros(length)
    imp[0] = 1.0
    return filter_signal(f, imp)


def freq_response(f: RationalFilter, omega) -> complex | np.ndarray:
    """Evaluate num/den at q^-1 = e^{-i omega}."""
    return response_at(f, np.exp(-1j * np.asarray(omega, dtype=float)))


def response_at(f: RationalFilter, z) -> complex | np.ndarray:
    """Evaluate num/den at q^-1 = z; callers that need several filters on
    one grid compute z = e^{-i omega} once and pass it to each."""
    num = np.polyval(f.num.coeffs[::-1], z)
    den = np.polyval(f.den.coeffs[::-1], z)
    if np.any(np.abs(den) == 0.0):
        raise ZeroDivisionError("pole on the unit circle at the requested frequency")
    return num / den


@dataclass(frozen=True)
class BjModel:
    """Box-Jenkins model: plant L/F and noise model C/D.

    F, C, D are monic; L has zero constant term.  Orders are structural
    (taken from the stored coefficient lengths, trailing zeros included).
    """

    L: Polynomial
    F: Polynomial
    C: Polynomial = field(default=ONE)
    D: Polynomial = field(default=ONE)

    def __post_init__(self):
        for name in ("F", "C", "D"):
            if not getattr(self, name).is_monic:
                raise ValueError(f"{name} must be monic")
        if self.L.coeffs[0] != 0.0:
            raise ValueError("L must have zero constant term")

    @property
    def m_f(self) -> int:
        return self.F.degree

    @property
    def m_l(self) -> int:
        return self.L.degree

    @property
    def m_c(self) -> int:
        return self.C.degree

    @property
    def m_d(self) -> int:
        return self.D.degree

    @property
    def G(self) -> RationalFilter:
        return RationalFilter(self.L, self.F)

    @property
    def H(self) -> RationalFilter:
        return RationalFilter(self.C, self.D)

    @property
    def theta(self) -> np.ndarray:
        """Flattened parameter vector [f; l; c; d]."""
        return np.concatenate(
            [self.F.coeffs[1:], self.L.coeffs[1:], self.C.coeffs[1:], self.D.coeffs[1:]]
        )

    @classmethod
    def from_theta(cls, theta, m_f: int, m_l: int, m_c: int = 0, m_d: int = 0) -> "BjModel":
        F, L, C, D = split_theta(theta, m_f, m_l, m_c, m_d)
        return cls(L=Polynomial(L), F=Polynomial(F), C=Polynomial(C),
                   D=Polynomial(D))

    def to_json(self):
        return {
            "L": self.L.to_json(),
            "F": self.F.to_json(),
            "C": self.C.to_json(),
            "D": self.D.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "BjModel":
        return cls(
            L=Polynomial.from_json(data["L"]),
            F=Polynomial.from_json(data["F"]),
            C=Polynomial.from_json(data.get("C", [1.0])),
            D=Polynomial.from_json(data.get("D", [1.0])),
        )


def split_theta(theta, m_f: int, m_l: int, m_c: int = 0, m_d: int = 0):
    """The coefficient arrays (F, L, C, D) of theta = [f; l; c; d]: F, C
    and D monic, L with a zero constant term.  The arrays of
    ``BjModel.from_theta``, without the model."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) != m_f + m_l + m_c + m_d:
        raise ValueError("theta length does not match the given orders")
    if not np.isfinite(theta).all():
        raise ValueError("coefficients must be finite")
    i, j, k = m_f, m_f + m_l, m_f + m_l + m_c
    return (np.concatenate(([1.0], theta[:i])),
            np.concatenate(([0.0], theta[i:j])),
            np.concatenate(([1.0], theta[j:k])),
            np.concatenate(([1.0], theta[k:])))
