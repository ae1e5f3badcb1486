"""High-order ARX estimation by least squares (step 1).

The regressor is phi_t = [-y_{t-1} ... -y_{t-n}  u_{t-1} ... u_{t-n}], and
eta solves the normal equations R eta = r, R = (1/N) sum phi phi^T and
r = (1/N) sum phi y.  The sums run over t = t0 .. N with zero samples
before t = 1.

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
matrix is positive definite.  The estimate keeps eta, the Cholesky factor
of the matrix R_reg actually solved with and whether the ridge fired, not
R or r: step 3 reads R only through that factor, and the OE step 3 forms
R_reg^-1 from it once per n.

Every order is solved as a member of a group (``ArxGrid``), built once at
its largest order n_max and solved in the interleaved lag order
(y_1 u_1 y_2 u_2 ...).  Under ``known_zero_ic`` all orders with 2n < N form
one group: the sums then start at t = 1 whatever n is, so in that order R_n
is the leading 2n x 2n block of R_{n_max}, and the upper Cholesky factor of
a leading block is the leading block of the factor.  Otherwise each order
is a group of one.  The ridge is decided for every order of a group by one
Cholesky attempt on R_{n_max} - (delta_reg/2) I: LAPACK's dpotrf reports
the pivot index k of the first leading minor that is not positive definite,
and by Cauchy interlacing lambda_min(R_n) does not increase with n, so
exactly the orders with 2n >= k need the ridge.  The orders without it
solve with leading blocks of the factor of R at the largest of them, the
others with leading blocks of the factor of R_{n_max} + (delta_reg/2) I:
one R and at most three factorizations for a group.  Each factor has one
forward solve, and each order a back-solve on its leading block.  The
estimates keep the standard order [a; b]; the factor kept on them is in the
interleaved order.

The factor kept on an estimate is an F-contiguous copy of its leading
block, and step 3 applies it with the BLAS triangular multiply dtrmm of
scipy, the library that factored it, never with numpy's ``@``.  The numpy
and scipy wheels each bundle their own OpenBLAS with its own thread pool
(numpy: scipy-openblas64; scipy: scipy-openblas32).  Handing the step-3
product to numpy between scipy's factorizations makes the two pools contend
for the cores: on 2 vCPUs that product and the next dpotrf each took several
times as long as with one pool.  dtrmm also does half the flops of a
general product, and an F-contiguous factor is passed to it without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dpotrf, dpotri

from .lti import (BjModel, RationalFilter, impulse_response, is_stable_coeffs,
                  poly_mul)
from .simulate import DataSet

DELTA_REG_DEFAULT = 1e-6


@dataclass(frozen=True)
class ArxEstimate:
    """What steps 2 and 3 read of step 1.  ``factor`` is the upper Cholesky
    factor U of R_reg in the interleaved lag order, P R_reg P^T = U^T U, P
    the permutation from the standard order; step 1 keeps it F-contiguous,
    as scipy's BLAS takes it without a copy (see ``apply_factor``)."""

    n: int
    eta: np.ndarray          # [a_1..a_n, b_1..b_n]
    factor: np.ndarray
    regularized: bool

    def apply_factor(self, Z: np.ndarray) -> np.ndarray:
        """G Z for a 2-D Z, G = U P with G^T G = R_reg, U the kept factor.

        The product is scipy's dtrmm (triangular, half the flops of a
        general product), not numpy's ``@``: the factor comes from scipy's
        OpenBLAS (scipy-openblas32), and a numpy product would run in
        numpy's own bundled OpenBLAS (scipy-openblas64), whose thread pool
        then contends with scipy's (see the module docstring)."""
        return dtrmm(1.0, self.factor, _interleave_rows(Z))

    @cached_property
    def R_inv(self) -> np.ndarray:
        """R_reg^-1 = P^T dpotri(U) P from the kept factor (LAPACK dpotri),
        formed once per n for the OE step 3; R_reg is not factored again.
        Forming the inverse is safe because step 1 keeps
        lambda_min(R_reg) >= delta/2 in both branches (R itself only when
        lambda_min(R) > delta/2, else the positive semidefinite R plus
        (delta/2) I), so ||R_reg^-1||_2 <= 2/delta."""
        inv, info = dpotri(self.factor)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"cannot invert the regressor covariance (dpotri info {info})")
        # dpotri fills the upper triangle and keeps the factor's zero strict
        # lower one, so inv + inv^T is the inverse but for a doubled diagonal
        sym = inv + inv.T
        np.fill_diagonal(sym, inv.diagonal())
        return _interleave_matrix(sym, inverse=True)

    @property
    def b(self) -> np.ndarray:
        return self.eta[self.n:]


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


def _interleave_rows(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """P x for x with 2n rows, P the permutation from the standard lag order
    [a_1..a_n, b_1..b_n] to the interleaved order y_1 u_1 y_2 u_2 ...;
    P^T x if ``inverse``.  A strided copy."""
    split = (-1, 2) if inverse else (2, -1)
    return x.reshape(*split, *x.shape[1:]).swapaxes(0, 1).reshape(x.shape)


def _interleave_matrix(M: np.ndarray, inverse: bool = False) -> np.ndarray:
    """P M P^T for a 2n x 2n M (P^T M P if ``inverse``)."""
    n = len(M) // 2
    split = (n, 2) if inverse else (2, n)
    return M.reshape(*split, *split).transpose(1, 0, 3, 2).reshape(M.shape)


def _ridge_pivot(A: np.ndarray, delta_reg: float) -> int:
    """0 if A - (delta_reg/2) I is positive definite, else the order of its
    first leading minor that is not (the info of LAPACK's dpotrf)."""
    shifted = np.array(A, order="F")
    shifted[np.diag_indices_from(shifted)] -= delta_reg / 2.0
    return int(dpotrf(shifted, lower=0, clean=0, overwrite_a=1)[1])


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
    if ridged:
        shifted = np.array(A, order="F")
        shifted[np.diag_indices_from(shifted)] += delta_reg / 2.0
        out.update(_solve_blocks(shifted, b, ridged, True, True))
    return out


def estimate_arx(data: DataSet, n: int, delta_reg: float = DELTA_REG_DEFAULT,
                 known_zero_ic: bool = False) -> ArxEstimate:
    """Least-squares ARX estimate with a regularization safeguard: if the
    smallest eigenvalue of R is not above delta_reg/2 (i.e. ||R^-1|| >=
    2/delta_reg), solve with R + (delta_reg/2) I instead.  The Cholesky
    factor of the solve matrix is kept on the estimate for step 3.  This is
    ``ArxGrid`` on a grid of one order."""
    return ArxGrid(data, (n,), delta_reg, known_zero_ic).estimate(n)


class ArxGrid:
    """Step 1 for the orders of an n-grid; ``estimate(n)`` builds the
    estimate of one order when it is asked for.

    Every order belongs to a group, built once at its largest order and
    solved in the interleaved lag order by ``solve_leading_blocks`` (see the
    module docstring).  Under ``known_zero_ic`` the orders with 2n < N form
    one group; every other order is a group of one, and one with 2n >= N
    fails in ``build_regressors``.  Only the group built last is held.
    """

    def __init__(self, data: DataSet, n_grid: Sequence[int],
                 delta_reg: float = DELTA_REG_DEFAULT,
                 known_zero_ic: bool = False):
        self.data = data
        self.delta_reg = delta_reg
        self.known_zero_ic = known_zero_ic
        feasible = tuple(sorted({n for n in n_grid if 2 * n < data.N}))
        self._groups = {n: feasible if known_zero_ic else (n,)
                        for n in feasible}
        self._held = None  # (group, solves) of the group built last

    def _solve(self, group):
        """The solves of all orders of the group in the interleaved lag
        order, from R and r at its largest order."""
        R, r_vec = build_regressors(self.data, group[-1], self.known_zero_ic)
        return group, solve_leading_blocks(
            _interleave_matrix(R), _interleave_rows(r_vec),
            [2 * n for n in group], self.delta_reg)

    def estimate(self, n: int) -> ArxEstimate:
        group = self._groups.get(n, (n,))
        if self._held is None or self._held[0] != group:
            self._held = self._solve(group)
        solved = self._held[1][2 * n]
        if isinstance(solved, Exception):
            raise solved
        x, regularized, U = solved
        # U is a strided leading block of the group's factor; the
        # F-contiguous copy is what dtrmm takes without copying it again on
        # every call
        return ArxEstimate(n=n, eta=_interleave_rows(x, inverse=True),
                           factor=np.asfortranarray(U),
                           regularized=regularized)


def true_eta(system: BjModel, n: int) -> np.ndarray:
    """Truncated high-order coefficients of the true system: the first n
    power-series coefficients of 1/H - 1 and of G/H."""
    if not is_stable_coeffs(system.C.coeffs):
        raise ValueError("noise model is not inversely stable")
    a_filter = RationalFilter(system.D, system.C)           # 1/H = D/C
    b_filter = RationalFilter(
        poly_mul(system.L, system.D), poly_mul(system.F, system.C)
    )                                                       # G/H = L D / (F C)
    a = impulse_response(a_filter, n + 1)[1:]
    b = impulse_response(b_filter, n + 1)[1:]
    return np.concatenate([a, b])
