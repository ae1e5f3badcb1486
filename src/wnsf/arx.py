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

An n-grid shares this work under ``known_zero_ic`` (``ArxGrid``).  The sums
then start at t = 1 whatever n is, so in the interleaved lag order
(y_1 u_1 y_2 u_2 ...) R_n is the leading 2n x 2n block of R at the largest
order n_max, and the upper Cholesky factor of a leading block is the leading
block of the factor.  The ridge is decided for every order by one Cholesky
attempt on R_{n_max} - (delta_reg/2) I: LAPACK's dpotrf reports the pivot
index k of the first leading minor that is not positive definite, and by
Cauchy interlacing lambda_min(R_n) does not increase with n, so exactly the
orders with 2n >= k need the ridge.  The orders without it solve with
leading blocks of the factor of R at the largest of them, the others with
leading blocks of the factor of R_{n_max} + (delta_reg/2) I: one R and at
most three factorizations for the grid.  Each factor has one forward solve,
and each order a back-solve on its leading block.  The estimates keep the
standard order [a; b]; the factor kept on them stays in the interleaved
order, with the permutation beside it.  A lone order is solved the same way
in the standard order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotri

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
        """Upper Cholesky factor U of R_reg (R_reg = U^T U).  Step 1 keeps
        the factor it solved with here when that is in the standard order
        (a lone n); otherwise it is computed on demand."""
        U, info = dpotrf(self.R_reg, lower=0, clean=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of R_reg is not positive definite")
        return U

    @cached_property
    def factor(self):
        """(U, order): the upper Cholesky factor U of R_reg in the lag order
        ``order``, R_reg[np.ix_(order, order)] = U^T U, with order None for
        the standard order.  Step 1 fills it with the factor it solved with,
        so step 3 never factors R_reg again; otherwise it is R_chol."""
        return self.R_chol, None

    def apply_factor(self, Z: np.ndarray) -> np.ndarray:
        """G Z for a G with G^T G = R_reg: G = U P, U the kept factor and P
        the permutation to its lag order, so G Z = U Z[order]."""
        U, order = self.factor
        return U @ (Z if order is None else Z[order])

    @cached_property
    def R_inv(self) -> np.ndarray:
        """R_reg^-1 from the kept factor (LAPACK dpotri), formed once per n
        for the OE step 3; R_reg is not factored again.  With P the
        permutation to the factor's lag order, R_reg^-1 = P^T dpotri(U) P.
        Forming the inverse is safe because step 1 keeps
        lambda_min(R_reg) >= delta/2 in both branches (R itself only when
        lambda_min(R) > delta/2, else the positive semidefinite R plus
        (delta/2) I), so ||R_reg^-1||_2 <= 2/delta."""
        U, order = self.factor
        inv, info = dpotri(U)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"cannot invert the regressor covariance (dpotri info {info})")
        # dpotri fills the upper triangle only
        inv = np.triu(inv) + np.triu(inv, 1).T
        if order is None:
            return inv
        back = np.argsort(order)
        return inv[np.ix_(back, back)]

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


def _interleaved(n: int) -> np.ndarray:
    """The interleaved lag order y_1 u_1 y_2 u_2 ... as indices into the
    standard order [a_1..a_n, b_1..b_n]."""
    return np.arange(2 * n).reshape(2, n).T.reshape(-1)


def _ridge_pivot(A: np.ndarray, delta_reg: float) -> int:
    """0 if A - (delta_reg/2) I is positive definite, else the order of its
    first leading minor that is not (the info of LAPACK's dpotrf)."""
    shifted = np.array(A, order="F")
    shifted[np.diag_indices_from(shifted)] -= delta_reg / 2.0
    return int(dpotrf(shifted, lower=0, clean=0, overwrite_a=1)[1])


def ridge_needed(R: np.ndarray, delta_reg: float) -> bool:
    """True unless lambda_min(R) > delta_reg/2, decided by a Cholesky attempt
    on R - (delta_reg/2) I, which succeeds exactly when that matrix is
    positive definite."""
    return _ridge_pivot(R, delta_reg) != 0


def _solve_blocks(A, b, sizes, regularized, own_a) -> dict:
    """Factor A once and solve its leading blocks of the given sizes: one
    forward solve U^T w = b, then U_k x = w_k for each k (for one block, the
    two triangular solves of LAPACK's dpotrs).  ``own_a``: A is a
    Fortran-ordered scratch copy that dpotrf may overwrite."""
    U, info = dpotrf(A, lower=0, clean=1, overwrite_a=int(own_a))
    w = dtrsm(1.0, U, b[:len(U), None], trans_a=1)
    return {k: np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
            if 0 < info <= k else
            (dtrsm(1.0, U[:k, :k], w[:k])[:, 0], regularized, U[:k, :k])
            for k in sizes}


def solve_leading_blocks(A: np.ndarray, b: np.ndarray, sizes,
                         delta_reg: float) -> dict:
    """Ridge-safeguarded Cholesky solves of A_k x = b_k, A_k the leading
    k x k block of the symmetric A and b_k the first k entries of b, for
    each k in ``sizes`` (the largest of which is len(A)).

    A_k is solved with as it is if lambda_min(A_k) > delta_reg/2, else
    A_k + (delta_reg/2) I is.  One Cholesky attempt on A - (delta_reg/2) I
    decides that for every k: exactly the blocks that contain its pivot
    index need the ridge (see the module docstring).  The blocks without it
    take leading blocks of the factor of A_m, m the largest of them; the
    blocks with it, leading blocks of the factor of A + (delta_reg/2) I.
    With one size that is two factorizations and a Cholesky solve, the
    arithmetic of LAPACK's dpotrf and dpotrs on one matrix.

    Returns {k: (x, regularized, U)}, U the upper factor of the matrix that
    block k was solved with, or {k: error} for a block that cannot be
    solved.
    """
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        return {k: ValueError("the regressor sums are not finite")
                for k in sizes}
    pivot = _ridge_pivot(A, delta_reg)
    plain = [k for k in sizes if not 0 < pivot <= k]
    ridged = [k for k in sizes if 0 < pivot <= k]
    out = {}
    if plain:
        m = max(plain)
        out.update(_solve_blocks(A[:m, :m], b, plain, False, False))
    if ridged and delta_reg == 0.0:
        out.update({k: np.linalg.LinAlgError(
            "singular regressor matrix and delta_reg=0") for k in ridged})
    elif ridged:
        shifted = np.array(A, order="F")
        shifted[np.diag_indices_from(shifted)] += delta_reg / 2.0
        out.update(_solve_blocks(shifted, b, ridged, True, True))
    return out


def _arx_estimate(n, N, R, r_vec, solved, delta_reg, order) -> ArxEstimate:
    """The estimate of order n from its entry of ``solve_leading_blocks``,
    solved in the lag order ``order`` (None: the standard order)."""
    if isinstance(solved, Exception):
        raise solved
    x, regularized, U = solved
    if order is None:
        eta = x
    else:
        eta = np.empty_like(x)
        eta[order] = x
    R_reg = R + (delta_reg / 2.0) * np.eye(2 * n) if regularized else R
    est = ArxEstimate(n=n, eta=eta, R=R, r_vec=r_vec, N=N,
                      regularized=regularized, R_reg=R_reg)
    # fill the caches: step 3 never factors R_reg again
    est.__dict__["factor"] = (U, order)
    if order is None:
        est.__dict__["R_chol"] = U
    return est


def estimate_arx(data: DataSet, n: int, delta_reg: float = DELTA_REG_DEFAULT,
                 known_zero_ic: bool = False) -> ArxEstimate:
    """Least-squares ARX estimate with a regularization safeguard: if the
    smallest eigenvalue of R is not above delta_reg/2 (i.e. ||R^-1|| >=
    2/delta_reg), solve with R + (delta_reg/2) I instead.  The Cholesky
    factor of the solve matrix is kept on the estimate for step 3.  This is
    the lone-order case of ``ArxGrid``: R in the standard order, one
    Cholesky attempt for the ridge and one factorization."""
    R, r_vec = build_regressors(data, n, known_zero_ic)
    solved = solve_leading_blocks(R, r_vec, [2 * n], delta_reg)
    return _arx_estimate(n, data.N, R, r_vec, solved[2 * n], delta_reg, None)


class ArxGrid:
    """Step 1 for the orders of an n-grid; ``estimate(n)`` builds the
    estimate of one order when it is asked for.

    Under ``known_zero_ic`` the orders with 2n < N share one R, built at the
    largest of them and solved in the interleaved lag order by
    ``solve_leading_blocks`` with at most three factorizations (see the
    module docstring).  Any other order, and every order without
    ``known_zero_ic``, is estimated alone by ``estimate_arx``.
    """

    def __init__(self, data: DataSet, n_grid: Sequence[int],
                 delta_reg: float = DELTA_REG_DEFAULT,
                 known_zero_ic: bool = False):
        self.data = data
        self.delta_reg = delta_reg
        self.known_zero_ic = known_zero_ic
        feasible = {n for n in n_grid if 2 * n < data.N}
        self.shared = (sorted(feasible)
                       if known_zero_ic and len(feasible) > 1 else [])

    @cached_property
    def _solved(self):
        """R and r at the largest shared order, and the solves of all."""
        n_max = self.shared[-1]
        R, r_vec = build_regressors(self.data, n_max, known_zero_ic=True)
        order = _interleaved(n_max)
        return R, r_vec, solve_leading_blocks(
            R[np.ix_(order, order)], r_vec[order],
            [2 * n for n in self.shared], self.delta_reg)

    def estimate(self, n: int) -> ArxEstimate:
        if n not in self.shared:
            return estimate_arx(self.data, n, self.delta_reg,
                                self.known_zero_ic)
        R, r_vec, solved = self._solved
        n_max = self.shared[-1]
        # R_n and r_n inside R_{n_max}, in the block view of build_regressors
        R_n = R.reshape(2, n_max, 2, n_max)[:, :n, :, :n].reshape(2 * n, 2 * n)
        r_n = r_vec.reshape(2, n_max)[:, :n].reshape(2 * n)
        return _arx_estimate(n, self.data.N, R_n, r_n, solved[2 * n],
                             self.delta_reg, _interleaved(n))


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
