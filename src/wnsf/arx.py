"""High-order ARX estimation by least squares (step 1).

The regressor is phi_t = [-y_{t-1} ... -y_{t-n}  u_{t-1} ... u_{t-n}]; the
normal-equation matrices R = (1/N) sum phi phi^T and r = (1/N) sum phi y are
retained because the weighted step needs R.  A small ridge term is added when
R is close to singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh

from .lti import BjModel, RationalFilter, impulse_response, is_stable, poly_mul
from .simulate import DataSet

DELTA_REG_DEFAULT = 1e-6


@dataclass(frozen=True)
class ArxEstimate:
    n: int
    eta: np.ndarray          # [a_1..a_n, b_1..b_n]
    R: np.ndarray            # 2n x 2n sample regressor covariance
    r_vec: np.ndarray
    N: int
    regularized: bool
    R_reg: np.ndarray        # matrix actually used in the solve

    @property
    def a(self) -> np.ndarray:
        return self.eta[: self.n]

    @property
    def b(self) -> np.ndarray:
        return self.eta[self.n:]

    def to_json(self):
        return {
            "n": self.n,
            "eta": self.eta.tolist(),
            "N": self.N,
            "regularized": self.regularized,
        }


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


def build_regressors(data: DataSet, n: int, known_zero_ic: bool = False):
    """Sample covariance R and cross vector r of the ARX regression.

    Sums run from t = n+1 by default; with ``known_zero_ic`` they start at
    t = 1 with zero-padded lags.
    """
    N = data.N
    if 2 * n >= N:
        raise ValueError(f"ARX order n={n} too large for N={N} samples")
    t0 = 1 if known_zero_ic else n + 1
    rows = N - t0 + 1
    phi = np.hstack(
        [-_lag_matrix(data.y, n, rows, t0), _lag_matrix(data.u, n, rows, t0)]
    )
    y = data.y[t0 - 1:]
    R = (phi.T @ phi) / N
    r_vec = (phi.T @ y) / N
    R = 0.5 * (R + R.T)
    return R, r_vec


def estimate_arx(data: DataSet, n: int, delta_reg: float = DELTA_REG_DEFAULT,
                 known_zero_ic: bool = False) -> ArxEstimate:
    """Least-squares ARX estimate with a regularization safeguard: if the
    smallest eigenvalue of R drops below delta_reg/2 (i.e. ||R^-1|| >=
    2/delta_reg), solve with R + (delta_reg/2) I instead."""
    R, r_vec = build_regressors(data, n, known_zero_ic)
    lam_min = float(eigvalsh(R, subset_by_index=(0, 0))[0])
    regularized = not (lam_min > delta_reg / 2.0)
    if regularized:
        if delta_reg == 0.0:
            raise np.linalg.LinAlgError("singular regressor matrix and delta_reg=0")
        R_solve = R + (delta_reg / 2.0) * np.eye(2 * n)
    else:
        R_solve = R
    eta = cho_solve(cho_factor(R_solve, lower=True), r_vec)
    return ArxEstimate(n=n, eta=eta, R=R, r_vec=r_vec, N=data.N,
                       regularized=regularized, R_reg=R_solve)


def true_eta(system: BjModel, n: int) -> np.ndarray:
    """Truncated high-order coefficients of the true system: the first n
    power-series coefficients of 1/H - 1 and of G/H."""
    if not is_stable(system.C)[0]:
        raise ValueError("noise model is not inversely stable")
    a_filter = RationalFilter(system.D, system.C)           # 1/H = D/C
    b_filter = RationalFilter(
        poly_mul(system.L, system.D), poly_mul(system.F, system.C)
    )                                                       # G/H = L D / (F C)
    a = impulse_response(a_filter, n + 1)[1:]
    b = impulse_response(b_filter, n + 1)[1:]
    return np.concatenate([a, b])


def truncation_tail(system: BjModel, n: int, horizon: int = 20000) -> float:
    """d(n) = sum_{k>n} |a_k| + |b_k|, evaluated on a long finite horizon."""
    full = true_eta(system, horizon)
    a, b = full[:horizon], full[horizon:]
    return float(np.sum(np.abs(a[n:])) + np.sum(np.abs(b[n:])))
