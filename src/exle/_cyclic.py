"""Odd-even cyclic reduction for the tridiagonal M-matrices of `radial`.

A (block) tridiagonal system with rows a_i x_{i-1} + b_i x_i + c_i x_{i+1}
= d_i is halved by eliminating the even-indexed unknowns: each odd row
takes in its two even neighbours, scaled by b^{-1} of those rows.  The odd
rows form a system of the same shape, reduced in turn down to one row, and
the eliminated unknowns are recovered on the way back up (Hockney 1965).
Every level is a few numpy operations, so a solve costs O(log n) array
calls and no Python loop over the rows.

No pivoting is needed on M-matrices, the only matrices handed in here:
nonpositive off-diagonal entries and a nonnegative inverse.  The Schur
complement of an M-matrix is again one (Heller 1976, SIAM J. Numer. Anal.
13), so every reduced pivot b, a scalar or a 2x2 block, has a nonnegative
inverse, and the multipliers -a b^{-1} and -c b^{-1} are nonnegative.  The
sweeps then add terms of one sign only: a nonnegative right-hand side gives
a solution whose entries are sums of nonnegative terms, with no
cancellation, so its sign is exact and not just right up to roundoff, as
long as the computed pivots keep their sign pattern.  When the matrix is
not an M-matrix (or is one only within roundoff), a pivot can turn
negative or vanish, and the solution shows negative or non-finite entries.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_EPS = float(np.finfo(float).eps)
# Inverse-iteration steps of smallest_eigenvalue; 5 to 7 are taken on the
# branches of radial up to m = 16384.
_EIGEN_STEPS = 100
# Signs of minus the adjugate of a 2x2 block.
_NEG_ADJ_SIGN = np.array([[-1.0, 1.0], [1.0, -1.0]])[:, :, None]


class Tridiagonal:
    """Cyclic-reduction factors of a tridiagonal M-matrix.

    lower, diag and upper hold a_i, b_i and c_i for rows i = 0..n-1;
    lower[0] and upper[n-1] must be zero.  The factors depend on the
    matrix only, so solve() runs the two right-hand-side sweeps alone.

    rowsum, when the row sums of the matrix are nonnegative, holds them
    (diag is then rowsum - lower - upper).  They reduce like a right-hand
    side, and every reduced pivot is then formed as rowsum - a - c, a sum
    of nonnegative terms, instead of b plus the (cancelling) updates.  The
    factors are then accurate entry by entry, and so is the solution for a
    nonnegative right-hand side, however ill-conditioned the matrix (the
    triplet representation of Alfa, Xue and Ye 2002, Math. Comp. 71).
    """

    def __init__(self, lower, diag, upper, rowsum=None):
        # per level: the multipliers alpha >= 0 and gamma >= 0 of the kept
        # rows, and b^{-1}, -b^{-1} a, -b^{-1} c of the eliminated rows
        self._levels = []
        a, b, c, s = lower, diag, upper, rowsum
        while True:
            n = b.size
            h = (n + 1) // 2  # eliminated rows 0, 2, ...
            k = n - h  # kept rows 1, 3, ...; row 2j+1 sits between 2j and 2j+2
            nbinv = -1.0 / b[0::2]
            ae, ce = a[0::2], c[0::2]
            alpha = a[1::2] * nbinv[:k]
            gamma = c[1::2][: h - 1] * nbinv[1:]
            self._levels.append((alpha, gamma, -nbinv, nbinv[1:] * ae[1:], nbinv[:k] * ce[:k]))
            if k == 0:
                return
            a = alpha * ae[:k]
            c = np.zeros(k)
            c[: h - 1] = gamma * ce[1:]
            if s is None:
                b = b[1::2] + alpha * ce[:k]
                b[: h - 1] += gamma * ae[1:]
            else:
                se = s[0::2]
                s = s[1::2] + alpha * se[:k]
                s[: h - 1] += gamma * se[1:]
                b = s - a - c

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with M x = rhs."""
        d = rhs
        eliminated = []
        for alpha, gamma, _, _, _ in self._levels:
            de = d[0::2]
            eliminated.append(de)
            d = d[1::2] + alpha * de[: alpha.size]
            d[: gamma.size] += gamma * de[1:]
        x = d
        for (_, _, binv, pa, pc), de in zip(self._levels[::-1], eliminated[::-1]):
            out = np.empty(de.size + x.size)
            xe = out[0::2]
            np.multiply(binv, de, out=xe)
            xe[1:] += pa * x[: pa.size]
            xe[: pc.size] += pc * x
            out[1::2] = x
            x = out
        return x


def _mul(x, y):
    """Blockwise x_i @ y_i for (2, 2, k) x and (2, l, k) y."""
    return np.einsum("ijk,jlk->ilk", x, y)


def solve_block_tridiagonal(lower, diag, upper, rhs):
    """x with M x = rhs for a 2x2-block tridiagonal M-matrix M.

    lower, diag and upper are (2, 2, n) stacks of the blocks a_i, b_i and
    c_i (lower[..., 0] and upper[..., n-1] zero).  rhs and x are (2, n),
    or (2, r, n) for r right-hand sides at once; every 2x2 product is a sum
    of two terms, so each column of x is bit for bit the (2, n) solve of
    its column.  The matrix is used once, so the right-hand sides are
    reduced along with it: each row is carried as the (2, 4 + r) array
    [a | c | d], and one einsum per product on (2, ., k) stacks does the
    2x2 algebra of a whole level.
    """
    single = rhs.ndim == 2
    g = np.concatenate((lower, upper, rhs[:, None] if single else rhs), axis=1)
    b = diag
    levels = []  # -b^{-1} and [a | c | d] of the eliminated rows
    while True:
        n = b.shape[-1]
        h = (n + 1) // 2
        k = n - h
        be = b[..., 0::2]
        det = be[0, 0] * be[1, 1] - be[0, 1] * be[1, 0]
        nbinv = be[::-1, ::-1].swapaxes(0, 1) * (_NEG_ADJ_SIGN / det)
        ge = g[..., 0::2]
        levels.append((nbinv, ge))
        if k == 0:
            break
        gk = g[..., 1::2]
        alpha = _mul(gk[:, 0:2], nbinv[..., :k])
        gamma = _mul(gk[:, 2:4, : h - 1], nbinv[..., 1:])
        left = _mul(alpha, ge[..., :k])  # [a' | alpha c | alpha d]
        right = _mul(gamma, ge[..., 1:])  # [gamma a | c' | gamma d]
        b = b[..., 1::2] + left[:, 2:4]
        b[..., : h - 1] += right[:, 0:2]
        g = left
        g[:, 2:4] = 0.0
        g[:, 2:4, : h - 1] = right[:, 2:4]
        g[:, 4:] += gk[:, 4:]
        g[:, 4:, : h - 1] += right[:, 4:]
    x = np.empty((2, g.shape[1] - 4, 0))
    for nbinv, ge in levels[::-1]:
        h, k = ge.shape[-1], x.shape[-1]
        t = -ge[:, 4:]
        t[..., 1:] += _mul(ge[:, 0:2, 1:], x[..., : h - 1])
        t[..., :k] += _mul(ge[:, 2:4, :k], x)
        out = np.empty(x.shape[:2] + (h + k,))
        out[..., 0::2] = _mul(nbinv, t)
        out[..., 1::2] = x
        x = out
    return x[:, 0] if single else x


def smallest_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    """Smallest eigenvalue mu of a symmetric positive definite M-matrix T.

    T has the diagonal diag and the nonpositive off-diagonal off.  Shifted
    inverse iteration y = (T - s)^{-1} x from x = 1 keeps x and y positive,
    since T - s is an M-matrix for every shift s < mu.  Each step brackets
    mu from both sides: below by the Collatz-Wielandt bound s + min(x / y),
    which needs no irreducibility, and above by the Rayleigh quotient
    s + (x . y) / (y . y).  The lower end is the next shift, and the
    Rayleigh quotient is returned once the bracket is a few eps wide.  The
    bracket is that of T - s as rounded, so mu carries the error of forming
    T - s, about eps * max(diag) / mu relative, as any dense solver does.
    """
    lower = np.concatenate(([0.0], off))
    upper = np.concatenate((off, [0.0]))
    shift = 0.0
    x = np.ones_like(diag)
    for _ in range(_EIGEN_STEPS):
        y = Tridiagonal(lower, diag - shift, upper).solve(x)
        if not np.all(y > 0.0):
            # the shift reached mu up to roundoff: T - shift is singular
            return shift
        lo = shift + float(np.min(x / y))
        # not np.dot: above ~1e4 entries BLAS wakes its threads for it
        hi = shift + float(np.sum(x * y) / np.sum(y * y))
        if hi - lo <= 4.0 * _EPS * hi:
            return hi
        shift = lo
        x = y / np.max(y)
    raise NumericalError(f"no eigenvalue bracket after {_EIGEN_STEPS} inverse-iteration steps")
