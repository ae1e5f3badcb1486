"""Asymptotic covariance / Cramer-Rao bound calculators.

The reference-induced input spectrum takes its r -> u filter from
``simulate.reference_path``, the one place that defines the loop paths, so
the bounds describe the same experiment that ``simulate.generate`` runs.

All integrals are trapezoidal quadrature on a uniform frequency grid over
[0, pi]; conjugate symmetry of the integrands gives the full-circle value as
twice the real part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .arx import true_eta
from .estimator import ModelOrders, build_Q, build_T
from .lti import BjModel, RationalFilter, freq_response
from .simulate import LoopConfig, reference_path, sensitivity

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
        return cls(
            system=cfg.system,
            controller=cfg.controller,
            reference_filter=cfg.reference_filter,
            reference_gain=cfg.reference_gain,
            sigma2=cfg.noise_std**2,
            loop_kind=cfg.loop_kind,
        )


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


def _gamma(m: int, omega: np.ndarray) -> np.ndarray:
    """Gamma_m(e^{i w}) = [e^{-iw}, ..., e^{-imw}]^T for each grid point;
    shape (m, len(omega))."""
    k = np.arange(1, m + 1)
    return np.exp(-1j * np.outer(k, omega))


def phi_z(sm: SpectrumModel, omega) -> np.ndarray:
    """Spectrum of [u_t e_t]^T; shape (..., 2, 2).

    Phi_u = |R_u|^2 Phi_r + |K S H|^2 s2 and Phi_ue = -K S H s2, with R_u the
    r -> u filter of ``reference_path``.  Open loop: no noise feeds the
    input.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros(omega.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = _reference_input_spectrum(sm, omega)
    out[..., 1, 1] = sm.sigma2
    if sm.loop_kind != "open":
        S = freq_response(sensitivity(sm.system, sm.controller), omega)
        K = freq_response(sm.controller, omega)
        H = freq_response(sm.system.H, omega)
        W = -K * S * H  # transfer from e to u
        out[..., 0, 0] += np.abs(W) ** 2 * sm.sigma2
        out[..., 0, 1] = W * sm.sigma2
        out[..., 1, 0] = np.conj(W) * sm.sigma2
    return out


def _reference_input_spectrum(sm: SpectrumModel, omega) -> np.ndarray:
    """|R_u|^2 Phi_r: the part of the input spectrum due to the reference."""
    r_to_u, _ = reference_path(sm.system, sm.controller, sm.loop_kind)
    Fr = sm.reference_gain * freq_response(sm.reference_filter, omega)
    return np.abs(freq_response(r_to_u, omega)) ** 2 * np.abs(Fr) ** 2


def build_omega_matrix(system: BjModel, orders: ModelOrders,
                       omega) -> np.ndarray:
    """Gradient matrix of the prediction errors in the frequency domain;
    shape (dim, 2, len(omega))."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    G = freq_response(system.G, omega)
    H = freq_response(system.H, omega)
    F = freq_response(RationalFilter(system.F), omega)
    C = freq_response(RationalFilter(system.C), omega)
    D = freq_response(RationalFilter(system.D), omega)

    out = np.zeros((orders.dim, 2, len(omega)), dtype=complex)
    row = 0
    out[row: row + orders.m_f, 0, :] = -(G / (H * F)) * _gamma(orders.m_f, omega)
    row += orders.m_f
    out[row: row + orders.m_l, 0, :] = (1.0 / (H * F)) * _gamma(orders.m_l, omega)
    row += orders.m_l
    if orders.m_c:
        out[row: row + orders.m_c, 1, :] = (1.0 / C) * _gamma(orders.m_c, omega)
        row += orders.m_c
    if orders.m_d:
        out[row: row + orders.m_d, 1, :] = -(1.0 / D) * _gamma(orders.m_d, omega)
    return out


def _quad_weights(grid_size: int):
    omega = np.linspace(0.0, np.pi, grid_size)
    w = np.full(grid_size, omega[1] - omega[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return omega, w


def _orders_of(system: BjModel) -> ModelOrders:
    return ModelOrders(system.m_f, system.m_l, system.m_c, system.m_d)


def compute_mcr(sm: SpectrumModel, grid_size: int = GRID_SIZE_DEFAULT,
                orders: Optional[ModelOrders] = None) -> CrbResult:
    """M_CR = (1/2pi) int Omega Phi_z Omega* dw and the dynamic-block trace
    of sigma2 M_CR^-1."""
    orders = orders or _orders_of(sm.system)
    omega, w = _quad_weights(grid_size)
    Om = build_omega_matrix(sm.system, orders, omega)     # (dim, 2, W)
    Pz = phi_z(sm, omega)                                 # (W, 2, 2)
    # integrand_w = Om_w Pz_w Om_w^*; accumulate over the grid in one einsum
    OmP = np.einsum("iaw,wab->ibw", Om, Pz)
    M = np.einsum("ibw,jbw,w->ij", OmP, np.conj(Om), w).real / np.pi
    M = 0.5 * (M + M.T)

    eigvals = np.linalg.eigvalsh(M)
    if eigvals[0] <= 0:
        raise NonInformativeError(
            f"information matrix not positive definite (min eig {eigvals[0]:g})"
        )
    M_inv = np.linalg.inv(M)
    dyn = orders.dyn_dim
    trace = float(sm.sigma2 * np.trace(M_inv[:dyn, :dyn]))
    return CrbResult(M=M, M_inv=M_inv, dyn_block_trace=trace,
                     grid_size=grid_size)


def compute_mcl(sm: SpectrumModel, grid_size: int = GRID_SIZE_DEFAULT,
                orders: Optional[ModelOrders] = None) -> np.ndarray:
    """Closed-loop bound using only the reference-induced input spectrum and
    the dynamic-parameter rows."""
    orders = orders or _orders_of(sm.system)
    omega, w = _quad_weights(grid_size)
    Om = build_omega_matrix(sm.system, orders, omega)[: orders.dyn_dim, 0, :]
    phi_u_r = _reference_input_spectrum(sm, omega)
    M = np.einsum("iw,jw,w->ij", Om * phi_u_r, np.conj(Om), w).real / np.pi
    M = 0.5 * (M + M.T)
    if np.linalg.eigvalsh(M)[0] <= 0:
        raise NonInformativeError("reference excitation is not informative")
    return M


def rbar_matrix(sm: SpectrumModel, n: int,
                grid_size: int = GRID_SIZE_DEFAULT) -> np.ndarray:
    """Limit regressor covariance Rbar^n = (1/2pi) int Lambda_n Phi_z
    Lambda_n* dw with Lambda_n = [-Gamma_n G, -Gamma_n H; Gamma_n, 0]."""
    omega, w = _quad_weights(grid_size)
    gam = _gamma(n, omega)                                # (n, W)
    G = freq_response(sm.system.G, omega)
    H = freq_response(sm.system.H, omega)
    # Lambda columns (2n, W)
    col_u = np.vstack([-gam * G, gam])
    col_e = np.vstack([-gam * H, np.zeros_like(gam)])
    Pz = phi_z(sm, omega)                                 # (W, 2, 2)
    cols = (col_u, col_e)
    R = np.zeros((2 * n, 2 * n))
    for j in range(2):
        for k in range(2):
            weighted = cols[j] * (w * Pz[:, j, k])
            R += (weighted @ np.conj(cols[k]).T).real
    R /= np.pi
    return 0.5 * (R + R.T)


def mbar_limit(sm: SpectrumModel, n: int,
               grid_size: int = GRID_SIZE_DEFAULT,
               orders: Optional[ModelOrders] = None) -> np.ndarray:
    """Finite-n information matrix Q^T T^-T Rbar^n T^-1 Q at the true
    parameters; converges to M_CR as n grows."""
    orders = orders or _orders_of(sm.system)
    eta_o = true_eta(sm.system, n)
    Q = build_Q(eta_o, orders)
    T = build_T(sm.system.theta, n, orders)
    Z = solve_triangular(T, Q, lower=True, unit_diagonal=True)
    R = rbar_matrix(sm, n, grid_size)
    M = Z.T @ R @ Z
    return 0.5 * (M + M.T)
