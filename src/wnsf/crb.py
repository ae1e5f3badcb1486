"""Asymptotic covariance / Cramer-Rao bound calculators.

Every information matrix is one quadrature, ``_integrate``, of
(1/2pi) int A Phi_z A* dw with Phi_z the spectrum of [u e]^T: M_CR takes
A = Omega; M_CL the dynamic rows of Omega against the reference-only input
spectrum; and Mbar^n = Z^T Rbar^n Z, Z = T^-1 Q, takes A = Z^T Lambda_n
(Lambda_n maps [u e]^T to the ARX regressor), so the limit regressor
covariance Rbar^n is never formed.  T^-1 is applied to Q by filtering with
1/C and 1/F (``estimator.apply_T_inverse``), not by forming T.  The rule
is trapezoidal on a uniform grid over [0, pi]; conjugate symmetry gives the
full-circle value as twice the real part.

On that grid of W points, omega_j = pi j / (W - 1), so Z^T Gamma_n is bins
0..W-1 of a DFT of length L = 2(W - 1) with row k of Z at index k, folded
to k mod L (``_gamma_product``); the n x W table Gamma_n is never formed.
The bins are one chirp-z transform (Bluestein): jk = (j^2 + k^2 -
(j - k)^2)/2 makes them a convolution with the chirp e^{i pi k^2 / L} by
FFTs of a fast length; no FFT has length L, which at the default W = 8192
has the prime factor 8191.  Each grid function evaluates its responses at one
z = e^{-i omega} (``lti.response_at``).  Each of the three matrices that is
not positive definite raises ``NonInformativeError``.

The r -> u filter comes from ``simulate.reference_path``, the one place that
defines the loop paths, so the bounds describe the same experiment that
``simulate.generate`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .arx import true_eta
from .estimator import ModelOrders, apply_T_inverse, build_Q
from .lti import BjModel, RationalFilter, response_at
from .simulate import LoopConfig, _integer, reference_path, sensitivity

GRID_SIZE_DEFAULT = 8192


class NonInformativeError(RuntimeError):
    """The information matrix is not positive definite."""


@dataclass(frozen=True)
class SpectrumModel:
    system: BjModel
    controller: RationalFilter
    reference_filter: RationalFilter
    reference_gain: float
    sigma2: float
    loop_kind: str = "closed"

    @classmethod
    def from_loop_config(cls, cfg: LoopConfig) -> "SpectrumModel":
        if cfg.snr_target is not None:
            raise ValueError("the bound needs the noise level as std; the "
                             "one snr_target picks depends on the data")
        return cls(
            system=cfg.system,
            controller=cfg.controller,
            reference_filter=cfg.reference_filter,
            reference_gain=cfg.reference_gain,
            sigma2=cfg.noise_std**2,
            loop_kind=cfg.loop_kind,
        )

    @property
    def orders(self) -> ModelOrders:
        s = self.system
        return ModelOrders(s.m_f, s.m_l, s.m_c, s.m_d)


@dataclass(frozen=True)
class CrbResult:
    M: np.ndarray
    M_inv: np.ndarray
    dyn_block_trace: float
    grid_size: int

    def to_json(self):
        return {
            "M": self.M.tolist(),
            "M_inv": self.M_inv.tolist(),
            "dyn_block_trace": self.dyn_block_trace,
            "grid_size": self.grid_size,
        }


def phi_z(sm: SpectrumModel, omega) -> np.ndarray:
    """Spectrum of [u_t e_t]^T; shape (..., 2, 2).

    Phi_u = |R_u|^2 Phi_r + |K S H|^2 s2 and Phi_ue = -K S H s2, with R_u the
    r -> u filter of ``reference_path``.  Open loop: no noise feeds the
    input.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    z = np.exp(-1j * omega)
    out = np.zeros(omega.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = _reference_input_spectrum(sm, z)
    out[..., 1, 1] = sm.sigma2
    if sm.loop_kind != "open":
        S = response_at(sensitivity(sm.system, sm.controller), z)
        K = response_at(sm.controller, z)
        H = response_at(sm.system.H, z)
        W = -K * S * H  # transfer from e to u
        out[..., 0, 0] += np.abs(W) ** 2 * sm.sigma2
        out[..., 0, 1] = W * sm.sigma2
        out[..., 1, 0] = np.conj(W) * sm.sigma2
    return out


def _reference_input_spectrum(sm: SpectrumModel, z) -> np.ndarray:
    """|R_u|^2 Phi_r at z = e^{-i omega}: the part of the input spectrum due
    to the reference."""
    r_to_u, _ = reference_path(sm.system, sm.controller, sm.loop_kind)
    Fr = sm.reference_gain * response_at(sm.reference_filter, z)
    return np.abs(response_at(r_to_u, z)) ** 2 * np.abs(Fr) ** 2


def build_omega_matrix(system: BjModel, orders: ModelOrders,
                       omega) -> np.ndarray:
    """Gradient matrix of the prediction errors in the frequency domain;
    shape (dim, 2, len(omega))."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    z = np.exp(-1j * omega)
    G, H = response_at(system.G, z), response_at(system.H, z)
    F, C, D = (response_at(RationalFilter(p), z)
               for p in (system.F, system.C, system.D))
    # (channel of [u e], transfer, order) of the F, L, C and D rows
    blocks = [(0, -G / (H * F), orders.m_f), (0, 1.0 / (H * F), orders.m_l),
              (1, 1.0 / C, orders.m_c), (1, -1.0 / D, orders.m_d)]
    # Gamma = [e^{-iw}, ..., e^{-imw}]^T once, for the largest block
    k = np.arange(1, max(m for *_, m in blocks) + 1)
    gamma = np.exp(-1j * np.outer(k, omega))
    out = np.zeros((orders.dim, 2, len(omega)), dtype=complex)
    row = 0
    for channel, transfer, m in blocks:
        out[row: row + m, channel] = transfer * gamma[:m]
        row += m
    return out


def _gamma_product(X: np.ndarray, grid_size: int) -> np.ndarray:
    """X^T Gamma_m on the W-point grid of ``_quad_weights`` for real X with
    m rows; shape (cols, W): row k at index k, folded in blocks of
    L = 2(W - 1), and bins 0..W-1 of the length-L DFT of the K folded
    indices by one chirp-z transform (see the module docstring)."""
    m, cols = X.shape
    size = 2 * (grid_size - 1)
    blocks = -(-(m + 1) // size)
    x = np.zeros((cols, blocks * min(m + 1, size)))
    x[:, 1:m + 1] = X.T
    x = x.reshape(cols, blocks, -1).sum(axis=1)
    K = x.shape[1]
    # e^{i pi k^2 / L}; k^2 is reduced modulo 2L in integers, exactly
    k = np.arange(max(grid_size, K))
    chirp = np.exp(1j * np.pi * ((k * k) % (2 * size)) / size)
    nfft = next_fast_len(grid_size + K - 1)
    kernel = np.concatenate([chirp[:grid_size],            # lags 0..W-1
                             np.zeros(nfft - grid_size - K + 1),
                             chirp[K - 1:0:-1]])            # -(K-1)..-1
    # the zero-padded buffer of the first FFT is reused in place
    buf = fft(x * np.conj(chirp[:K]), nfft)
    buf *= fft(kernel)
    out = ifft(buf, overwrite_x=True)[:, :grid_size]
    out *= np.conj(chirp[:grid_size])
    return out


def _lambda_projected(Z: np.ndarray, sm: SpectrumModel,
                      grid_size: int) -> np.ndarray:
    """Z^T Lambda_n on the grid of ``_quad_weights`` for Z with 2n rows;
    shape (cols, 2, W).  Lambda_n = [-Gamma_n G, -Gamma_n H; Gamma_n, 0]
    maps [u e]^T to the ARX regressor [-y; u] of order n; only Z^T Gamma_n
    is formed, both halves in one transform."""
    n, cols = Z.shape[0] // 2, Z.shape[1]
    omega, _ = _quad_weights(grid_size)
    prod = _gamma_product(np.hstack([Z[:n], Z[n:]]), len(omega))
    Za, Zb = prod[:cols], prod[cols:]
    z = np.exp(-1j * omega)
    G, H = (response_at(f, z) for f in (sm.system.G, sm.system.H))
    out = np.empty((cols, 2, len(omega)), dtype=complex)
    np.subtract(Zb, np.multiply(Za, G, out=out[:, 0]), out=out[:, 0])
    np.multiply(Za, -H, out=out[:, 1])
    return out


def _integrate(A: np.ndarray, Pz: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(1/2pi) int A Phi_z A* dw = (1/pi) Re sum_k w_k A_k Phi_z,k A_k*,
    symmetrised, for A of shape (m, c, W), Pz of shape (W, c, c) and the
    quadrature weights w of ``_quad_weights``."""
    m = A.shape[0]
    # (c, c, W), C-contiguous so that the channel products read it in order
    weighted = np.ascontiguousarray(np.moveaxis(Pz * w[:, None, None], 0, 2))
    # A Phi_z summed channel by channel: one (m, c, c, W) product would
    # raise the peak memory of every caller
    AP = A[:, :1] * weighted[0]
    for a in range(1, A.shape[1]):
        AP += A[:, a:a + 1] * weighted[a]
    M = (AP.reshape(m, -1) @ np.conj(A).reshape(m, -1).T).real / np.pi
    return 0.5 * (M + M.T)


def _quad_weights(grid_size: int):
    grid_size = _integer(grid_size, "grid_size", 2)
    omega = np.linspace(0.0, np.pi, grid_size)
    w = np.full(grid_size, omega[1] - omega[0])
    w[[0, -1]] *= 0.5
    return omega, w


def _positive_definite(M: np.ndarray, what: str) -> np.ndarray:
    lam = np.linalg.eigvalsh(M)[0]
    if lam <= 0:
        raise NonInformativeError(f"{what} not positive definite ({lam:g})")
    return M


def compute_mcr(sm: SpectrumModel,
                grid_size: int = GRID_SIZE_DEFAULT) -> CrbResult:
    """M_CR = (1/2pi) int Omega Phi_z Omega* dw and the dynamic-block trace
    of sigma2 M_CR^-1."""
    omega, w = _quad_weights(grid_size)
    Om = build_omega_matrix(sm.system, sm.orders, omega)   # (dim, 2, W)
    M = _positive_definite(_integrate(Om, phi_z(sm, omega), w),
                           "information matrix")
    M_inv = np.linalg.inv(M)
    dyn = sm.orders.dyn_dim
    trace = float(sm.sigma2 * np.trace(M_inv[:dyn, :dyn]))
    return CrbResult(M=M, M_inv=M_inv, dyn_block_trace=trace,
                     grid_size=len(omega))


def compute_mcl(sm: SpectrumModel,
                grid_size: int = GRID_SIZE_DEFAULT) -> np.ndarray:
    """Closed-loop bound using only the reference-induced input spectrum and
    the dynamic-parameter rows."""
    omega, w = _quad_weights(grid_size)
    Om = build_omega_matrix(sm.system, sm.orders, omega)
    Om = Om[: sm.orders.dyn_dim, :1]                         # (dyn, 1, W)
    phi_u_r = _reference_input_spectrum(sm, np.exp(-1j * omega))
    return _positive_definite(_integrate(Om, phi_u_r[:, None, None], w),
                              "reference-only information matrix")


def mbar_limit(sm: SpectrumModel, n: int,
               grid_size: int = GRID_SIZE_DEFAULT) -> np.ndarray:
    """Finite-n information matrix Q^T T^-T Rbar^n T^-1 Q at the true
    parameters; converges to M_CR as n grows."""
    Q = build_Q(true_eta(sm.system, _integer(n, "n", 1)), sm.orders)
    system = sm.system
    Z = apply_T_inverse(system.F.coeffs, system.L.coeffs, system.C.coeffs, Q)
    omega, w = _quad_weights(grid_size)
    A = _lambda_projected(Z, sm, grid_size)                 # (dim, 2, W)
    return _positive_definite(_integrate(A, phi_z(sm, omega), w),
                              "finite-order information matrix")
