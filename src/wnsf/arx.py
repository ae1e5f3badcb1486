"""High-order ARX estimation by least squares (step 1).

The regressor is phi_t = [-y_{t-1} ... -y_{t-n}  u_{t-1} ... u_{t-n}]; the
normal-equation matrices R = (1/N) sum phi phi^T and r = (1/N) sum phi y are
retained because the weighted step needs R.  The sums run over
t = t0 .. N with zero samples before t = 1.

phi is never formed.  With x^0 = -y and x^1 = u, block (a, b) of N R is
S[i, j] = sum_t x^a_{t-1-i} x^b_{t-1-j}, and shifting both lags by one
shifts the window of t by one sample (the covariance-method recursion,
Makhoul 1975):

    S[i+1, j+1] = S[i, j] + x^a_{t0-2-i} x^b_{t0-2-j} - x^a_{N-1-i} x^b_{N-1-j}.

So only the first row and column of each block are sums over the record.
They, and r, are the windowed lagged products
c[a, b, l] = sum_{s=t0..N} x^a_{s-l} x^b_s for l = 0..n, taken by one FFT
correlation in O(N log N); the rest of R costs O(n^2).

A small ridge term is added when R is close to singular: R is used as it is
only if lambda_min(R) > delta_reg/2.  That predicate is decided by a
Cholesky attempt on R - (delta_reg/2) I, which succeeds exactly when that
matrix is positive definite.  The Cholesky factor of the matrix actually
solved with is kept on the estimate, so step 3 never factors R again.
The OE step 3 also needs R_reg^-1, formed once per n from that factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotri

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

    @cached_property
    def R_chol(self) -> np.ndarray:
        """Upper Cholesky factor U of R_reg (R_reg = U^T U), computed once
        and shared by the ARX solve and every step-3 iteration."""
        return cholesky(self.R_reg)

    @cached_property
    def R_inv(self) -> np.ndarray:
        """R_reg^-1 from the kept factor (LAPACK dpotri), formed once per n
        for the OE step 3; R_reg is not factored again.  Forming the inverse
        is safe because ``estimate_arx`` keeps lambda_min(R_reg) >= delta/2
        in both branches (R itself only when lambda_min(R) > delta/2, else
        the positive semidefinite R plus (delta/2) I), so
        ||R_reg^-1||_2 <= 2/delta."""
        inv, info = dpotri(self.R_chol)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"cannot invert the regressor covariance (dpotri info {info})")
        # dpotri fills the upper triangle only
        return np.triu(inv) + np.triu(inv, 1).T

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


def build_regressors(data: DataSet, n: int, known_zero_ic: bool = False):
    """Sample covariance R and cross vector r of the ARX regression.

    Sums run from t = n+1 by default; with ``known_zero_ic`` they start at
    t = 1 with zero-padded lags.  R is assembled from lagged products of the
    two regressor signals -y and u without forming phi (see the module
    docstring).
    """
    N = data.N
    if 2 * n >= N:
        raise ValueError(f"ARX order n={n} needs N >= 2n + 1, not N={N}")
    t0 = 1 if known_zero_ic else n + 1
    x = np.stack([-data.y, data.u])
    # xp[:, n - 1 + k] = x_k in 1-indexed time, zero for 1 - n <= k <= 0
    xp = np.concatenate([np.zeros((2, n)), x], axis=1)

    # c[a, b, l] = sum_{s=t0..N} x^a_{s-l} x^b_s for l = 0..n, by FFT
    # correlation of the lagged segment x_{t0-n..N} with the window x_{t0..N}
    seg = xp[:, t0 - 1:]
    size = next_fast_len(seg.shape[1], real=True)
    prod = rfft(seg, size)[:, None, :] * np.conj(rfft(x[:, t0 - 1:], size))
    c = irfft(prod, size)[..., n::-1]

    # Shifting both lags by one moves the window of t by one: the term at
    # t = t0 - 1 enters and the term at t = N leaves.  R starts as those
    # edge terms, R4[a, i, b, j] = x^a_{t0-1-i} x^b_{t0-1-j} - x^a_{N-i} x^b_{N-j},
    # in the block view R4[a, i, b, j] = R[a n + i, b n + j].
    head = xp[:, t0 - 1: t0 - 1 + n][:, ::-1].reshape(2 * n)
    tail = x[:, N - n:][:, ::-1].reshape(2 * n)
    R = np.outer(head, head) - np.outer(tail, tail)
    R4 = R.reshape(2, n, 2, n)
    # first column and row of each block: the window shifted by one sample
    R4[:, :, :, 0] += c[..., :n].transpose(0, 2, 1)
    R4[:, 0, :, 1:] += c.transpose(1, 0, 2)[..., 1:n]
    # the rest of each block down its diagonals
    for i in range(1, n):
        R4[:, i, :, 1:] += R4[:, i - 1, :, :-1]
    R /= N
    R = 0.5 * (R + R.T)
    r_vec = -c[:, 0, 1:].reshape(2 * n) / N
    return R, r_vec


def ridge_needed(R: np.ndarray, delta_reg: float) -> bool:
    """True unless lambda_min(R) > delta_reg/2, decided by a Cholesky attempt
    on R - (delta_reg/2) I, which succeeds exactly when that matrix is
    positive definite."""
    try:
        cholesky(R - (delta_reg / 2.0) * np.eye(len(R)))
    except np.linalg.LinAlgError:
        return True
    return False


def estimate_arx(data: DataSet, n: int, delta_reg: float = DELTA_REG_DEFAULT,
                 known_zero_ic: bool = False) -> ArxEstimate:
    """Least-squares ARX estimate with a regularization safeguard: if the
    smallest eigenvalue of R is not above delta_reg/2 (i.e. ||R^-1|| >=
    2/delta_reg), solve with R + (delta_reg/2) I instead.  The Cholesky
    factor of the solve matrix is kept on the estimate for step 3."""
    R, r_vec = build_regressors(data, n, known_zero_ic)
    regularized = ridge_needed(R, delta_reg)
    if regularized:
        if delta_reg == 0.0:
            raise np.linalg.LinAlgError("singular regressor matrix and delta_reg=0")
        R_solve = R + (delta_reg / 2.0) * np.eye(2 * n)
    else:
        R_solve = R
    U = cholesky(R_solve)
    est = ArxEstimate(n=n, eta=cho_solve((U, False), r_vec), R=R,
                      r_vec=r_vec, N=data.N, regularized=regularized,
                      R_reg=R_solve)
    est.__dict__["R_chol"] = U  # fill the cache: one factorization per n
    return est


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
