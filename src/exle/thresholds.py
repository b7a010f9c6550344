"""Exact threshold algebra for the coupled power-law reaction system.

The system under study is

    -Lap(u) = lambda * (v+1)**p,    -Lap(v) = gamma * (u+1)**theta

on a ball with zero Dirichlet data, where p, theta >= 1 and p*theta > 1.
Everything in this module is algebra on the exponent pair.  Two quartic
polynomials carry the structure:

* the energy quartic  L(s) = s^4 - c2*s^2 + c1*s - c0  (coefficients
  below), whose negativity at s marks integrability exponents for which
  stable solutions obey uniform energy bounds, and
* the dimension quartic  H(x), the same object after the substitution
  x = s*(theta+1)/(p*theta-1), so that  H(x) = k^4 * L(s)  with
  k = (theta+1)/(p*theta-1).

The largest root s0 of L in (2, inf) is therefore mapped to the largest
root x0 = k*s0 of H, and space dimensions N < 2 + 2*x0 support no
singular set for the stable solutions targeted here.  The classical
comparison value is 2 + 4*(theta+1)*t0/(p*theta-1) built from the
explicit constant t0; since 2*t0 <= s0 (strictly unless p == theta) the
quartic-root threshold is never worse.

The energy quartic is not symmetric in (p, theta); all L-based
quantities use the canonical order p <= theta.  The dimension quartic is
fully symmetric, so the threshold itself does not depend on the order.

There is one root iteration, _largest_roots, on numpy arrays of pairs:
threshold_roots runs it for a whole table, threshold_columns forms the
other columns from the roots, threshold_rows is the two in turn, and
threshold_report (and with it largest_root_L) runs threshold_rows on one
row.  Every root is bracketed to the one width _ROOT_TOL, 1e-12, or to
adjacent floats where those lie farther apart.  +, -, *, /, sqrt and
comparisons are correctly rounded in numpy as in Python.  Float powers
are not: numpy's power loops may take a SIMD path that differs from the
C library's pow in the last bit of a few percent of cubes.  So every
float power is np.float_power, which calls the C library's pow for each
element, as CPython's float pow does, on arrays and on floats alike.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NumericalError

_BRACKET_CAP = 2.0 ** 60
_ROOT_TOL = 1e-12  # width of every root bracket
_IDENTITY_TOL = 1e-9  # bound on each normalized identity residual
_SAMPLE_COUNT = 200  # default sample points of each identity check, here and in the CLI
_SIGN_GUARD = 1e-6  # the equivalence scan skips s with |L(s)| at most this
# The most entries a float array can have; numpy refuses a longer one
# before it allocates anything.
_MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize
# The largest exponent whose (exponent + 1)^2, a factor of the energy
# coefficients, is a finite float.
_EXPONENT_MAX = math.sqrt(sys.float_info.max)
# The largest smaller exponent: s0 is about 4 min(p, theta), so its root
# bracket stays below _BRACKET_CAP (one ulp above this, it does not).
_SMALLER_EXPONENT_MAX = 2.0 ** 58


@dataclass(frozen=True)
class ExponentPair:
    """Validated reaction exponents (p, theta).

    The pair is stored in the user's order; use canonical() where the
    asymmetric formulas require p <= theta.  p = theta = 1 is rejected
    because p*theta = 1 degenerates every formula in this module.  Any
    real number but a bool is accepted (numpy scalars too) and stored as
    a Python float, so no caller casts the fields again.
    """

    p: float
    theta: float

    def __post_init__(self):
        for name in ("p", "theta"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            try:
                finite = real and math.isfinite(value)
            except OverflowError:  # an int beyond the float range reads as inf
                finite, value = False, math.inf if value > 0 else -math.inf
            if not finite:
                raise DomainError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.p < 1 or self.theta < 1:
            raise DomainError(
                f"exponents must satisfy p >= 1 and theta >= 1, got ({self.p}, {self.theta})"
            )
        if max(self.p, self.theta) > _EXPONENT_MAX:
            raise DomainError(
                f"exponents must not exceed {_EXPONENT_MAX:.6g}, got ({self.p}, {self.theta})"
            )
        if min(self.p, self.theta) > _SMALLER_EXPONENT_MAX:
            raise DomainError(
                f"the smaller exponent must not exceed {_SMALLER_EXPONENT_MAX:.6g}, "
                f"got ({self.p}, {self.theta})"
            )
        if self.p * self.theta <= 1:
            raise DomainError("p*theta must exceed 1")

    def canonical(self) -> tuple[float, float]:
        """Return (p, theta) with p <= theta."""
        p, theta = self.p, self.theta
        return (p, theta) if p <= theta else (theta, p)

    @property
    def is_symmetric(self) -> bool:
        return self.p == self.theta


@dataclass(frozen=True)
class ThresholdReport:
    """Threshold summary for one exponent pair.

    n_cowan is the classical dimension threshold 2 + 4*(theta+1)*t0 /
    (p*theta - 1); n_new = 2 + 2*x0 is the quartic-root threshold.
    improvement = n_new - n_cowan is >= 0 up to root-finder tolerance,
    with equality exactly on the diagonal p == theta.  threshold_rows
    returns one whose fields are arrays, one entry per pair.
    """

    t0: float
    s0: float
    x0: float
    n_cowan: float
    n_new: float
    improvement: float


@dataclass(frozen=True)
class ScalingExponents:
    """Blow-up scaling powers (alpha, beta) for the pair, user order."""

    alpha: float
    beta: float


def _failure_rank(residual: float) -> tuple[bool, float]:
    """Sort key of a residual that ranks nan, which fails every bound, worst."""
    return math.isnan(residual), residual


@dataclass(frozen=True)
class IdentityReport:
    """Residuals (relative to the largest monomial), sign checks and the scans.

    residuals keys:
      rescale          -- H(k*s) - k^4 * L(s) over sampled s
      value_at_2t0     -- L(2*t0) against its closed form
      symmetric_split  -- L(s) against the two-quadratic factorization
                          (only present when p == theta)
      value_at_p_plus_1 -- L(p+1) against its closed form
    signs keys:
      negative_at_2, negative_at_p_plus_1, negative_at_mid,
      mid_below_root   -- L(2) < 0, L(p+1) < 0, L(m) < 0 and m < s0
                          for the interior point m = 2*theta*(p+1)/(theta+1)
    scan is (disagreements, scanned) over sampled s, counting where
    stability_product - 1 and L(s) share a sign; scaling is the residual of
    the exact identities beta*p = alpha + 2 and alpha*theta = beta + 2.
    """

    s0: float
    residuals: dict
    signs: dict
    scan: tuple[int, int]
    scaling: float

    def worst_residual(self) -> tuple[str, float]:
        name = max(self.residuals, key=lambda k: _failure_rank(self.residuals[k]))
        return name, self.residuals[name]

    def failures(self) -> list[tuple[str, float]]:
        """Every failed check as (name, weight), heaviest first: a residual fails
        above _IDENTITY_TOL and weighs its value, a sign inf, the scan its
        disagreements, nan most; ties keep order."""
        checks = [(name, r, r <= _IDENTITY_TOL) for name, r in self.residuals.items()]
        checks += [(name, math.inf, ok) for name, ok in self.signs.items()]
        checks.append(("equivalence_scan", float(self.scan[0]), self.scan[0] == 0))
        checks.append(("scaling_identity", self.scaling, self.scaling <= _IDENTITY_TOL))
        failed = [(name, weight) for name, weight, passed in checks if not passed]
        return sorted(failed, key=lambda check: _failure_rank(check[1]), reverse=True)

    def ok(self) -> bool:
        return not self.failures()


def _energy_coeffs(p, theta):
    # Common factor 16*p*theta*(p+1)/(theta+1)^2 extracted for stability.
    # p and theta are floats, or arrays for threshold_rows.
    f = 16.0 * p * theta * (p + 1.0) / np.float_power(theta + 1.0, 2)
    return f * (theta + 1.0), f * (p + theta + 2.0), f * (p + 1.0)


def _t0(p, theta):
    # t0 for canonical floats, or arrays for threshold_rows.
    m = p * theta * (p + 1.0) / (theta + 1.0)
    root_m = np.sqrt(m)
    return root_m + np.sqrt(m - root_m)


def eval_t0(e: ExponentPair) -> float:
    """Closed-form constant t0 = sqrt(m) + sqrt(m - sqrt(m)) with
    m = p*theta*(p+1)/(theta+1), canonical order.

    m > 1 holds throughout the validity domain, so the inner radicand
    sqrt(m)*(sqrt(m)-1) is positive.
    """
    return float(_t0(*e.canonical()))


def eval_L(e: ExponentPair, s):
    """Energy quartic L(s) = s^4 - c2*s^2 + c1*s - c0, canonical order; s a float or array.

    c2 = 16 p th (p+1)/(th+1), c1 = 16 p th (p+1)(p+th+2)/(th+1)^2,
    c0 = 16 p th (p+1)^2/(th+1)^2.
    """
    return _quartic(s, *_energy_coeffs(*e.canonical()))


def eval_H(e: ExponentPair, x):
    """Dimension quartic H(x), x a float or array; fully symmetric under p <-> theta."""
    p, theta = e.p, e.theta
    d = p * theta - 1.0
    # theta / d and (theta + 1) / d come first: d * d overflows from theta ~ 1e153 on.
    g = 16.0 * p * (p + 1.0) * (theta / d) * ((theta + 1.0) / d)
    return (
        (x * x) * (x * x)
        - g * (x * x)
        + g * (p + theta + 2.0) / d * x
        - g * (p + 1.0) * ((theta + 1.0) / d) / d
    )


def _monomial_scale_L(e: ExponentPair, s):
    p, theta = e.canonical()
    c2, c1, c0 = _energy_coeffs(p, theta)
    s2 = s * s
    return np.maximum.reduce(np.broadcast_arrays(s2 * s2, c2 * s2, c1 * np.abs(s), c0, 1.0))


def largest_root_L(e: ExponentPair) -> float:
    """Largest root s0 of the energy quartic, located in (2, inf).

    L(2) < 0 throughout the domain and L is eventually positive, so a
    sign change exists beyond 2; L'' = 12 s^2 - 2 c2 is increasing, which
    makes the root unique there.  The s0 of threshold_report(e).
    """
    return threshold_report(e).s0


def threshold_report(e: ExponentPair) -> ThresholdReport:
    """Full threshold summary: t0, s0, x0 and both dimension thresholds.

    The one row of threshold_rows([e.p], [e.theta]), as Python floats.
    """
    rows = threshold_rows([e.p], [e.theta])
    return ThresholdReport(*(float(getattr(rows, f.name)[0]) for f in fields(ThresholdReport)))


def threshold_rows(p, theta) -> ThresholdReport:
    """threshold_report for many exponent pairs at once.

    p and theta are 1-D arrays of equal length; each row may come in
    either order.  Returns a ThresholdReport whose fields are arrays, one
    entry per pair; a row does not depend on the other rows.  If rows
    fail, the first failing row raises the error it would raise on its
    own, with the pair named.
    """
    s0 = threshold_roots(p, theta)
    return threshold_columns(np.asarray(p, dtype=float), np.asarray(theta, dtype=float), s0)


def threshold_roots(p, theta) -> np.ndarray:
    """The s0 column of threshold_rows(p, theta) alone, with its checks.

    threshold_columns forms the other columns from it, so a table can
    hold 8 B a pair and form the rest a chunk at a time.
    """
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if p.ndim != 1 or p.shape != theta.shape:
        raise DomainError(
            f"p and theta must be 1-D arrays of one length, got {p.shape} and {theta.shape}"
        )
    # The checks of ExponentPair; nan and inf fail the comparisons.
    with np.errstate(over="ignore"):
        valid = (p >= 1.0) & (theta >= 1.0) & (np.maximum(p, theta) <= _EXPONENT_MAX)
        valid &= np.minimum(p, theta) <= _SMALLER_EXPONENT_MAX
        valid &= p * theta > 1.0
    n = p.size if valid.all() else int(np.argmin(valid))  # rows before the first invalid one
    p_c, theta_c = np.minimum(p[:n], theta[:n]), np.maximum(p[:n], theta[:n])
    # Python floats overflow to inf and nan without a word; so do these.
    with np.errstate(all="ignore"):
        s0, failure = _largest_roots(*_energy_coeffs(p_c, theta_c))
    if failure is not None:
        row, message = failure
        raise NumericalError(f"{message}; pair {ExponentPair(float(p[row]), float(theta[row]))}")
    if n < p.size:
        ExponentPair(float(p[n]), float(theta[n]))  # raises the row's DomainError
    return s0


def threshold_columns(p, theta, s0) -> ThresholdReport:
    """The rows of threshold_rows for valid pairs whose roots s0 are known.

    p, theta and s0 are 1-D arrays of one length, each pair in either
    order.  Every column is elementwise in its row, so a slice of the
    arrays gives the same bits as the slice of the whole.
    """
    p_c, theta_c = np.minimum(p, theta), np.maximum(p, theta)
    with np.errstate(all="ignore"):
        t0 = _t0(p_c, theta_c)
        k = (theta_c + 1.0) / (p_c * theta_c - 1.0)
        x0 = k * s0
        n_cowan = 2.0 + 4.0 * t0 * k
        n_new = 2.0 + 2.0 * x0
        improvement = n_new - n_cowan
    return ThresholdReport(
        t0=t0, s0=s0, x0=x0, n_cowan=n_cowan, n_new=n_new, improvement=improvement
    )


def _quartic(s, c2, c1, c0):
    # L(s) for eval_L's floats, or for arrays of s and coefficients.
    ss = s * s
    return (ss - c2) * ss + c1 * s - c0


def _largest_roots(c2, c1, c0):
    """Largest roots in (2, inf) for arrays of energy-quartic coefficients.

    Bracketing bisection with safeguarded Newton steps, on every row at
    once with masks; threshold_report passes one row.  A row is done, at
    its bracket midpoint, once the bracket is at most _ROOT_TOL wide or its
    ends are adjacent floats (a width below roundoff counts as that
    roundoff).
    Returns the roots and None, or the roots and (row, message) for the
    first row that fails.
    """
    s0 = np.full(c2.size, np.nan)
    failed: dict[int, str] = {}

    f_lo = _quartic(2.0, c2, c1, c0)
    negative_at_2 = f_lo < 0
    for row in np.flatnonzero(~negative_at_2).tolist():
        failed[row] = f"expected L(2) < 0, got {float(f_lo[row])}"
    hi = np.full(c2.size, 4.0)
    grow = np.flatnonzero(negative_at_2 & (_quartic(hi, c2, c1, c0) <= 0.0))
    while grow.size:
        hi[grow] *= 2.0
        over = hi[grow] > _BRACKET_CAP
        for row in grow[over].tolist():
            failed[row] = "no sign change of the energy quartic below 2^60"
        grow = grow[~over]
        grow = grow[_quartic(hi[grow], c2[grow], c1[grow], c0[grow]) <= 0.0]

    idx = np.flatnonzero(negative_at_2)
    if failed:
        idx = idx[~np.isin(idx, list(failed))]
    lo = np.full(idx.size, 2.0)
    hi, c2, c1, c0 = hi[idx], c2[idx], c1[idx], c0[idx]
    for _ in range(500):
        width = hi - lo
        x = 0.5 * (lo + hi)
        done = (width <= _ROOT_TOL) | (x == lo) | (x == hi)
        if done.any():
            s0[idx[done]] = x[done]
            keep = ~done
            idx, lo, hi, width, x = idx[keep], lo[keep], hi[keep], width[keep], x[keep]
            c2, c1, c0 = c2[keep], c1[keep], c0[keep]
        if not idx.size:
            break
        # Newton from the midpoint, kept only inside the bracket (a zero d
        # gives inf or nan, which fails the test).
        fx = _quartic(x, c2, c1, c0)
        d = 4.0 * np.float_power(x, 3) - 2.0 * c2 * x + c1
        x_newton = x - fx / d
        x = np.where((lo < x_newton) & (x_newton < hi), x_newton, x)
        below = _quartic(x, c2, c1, c0) < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        # Force at least a halving per sweep so progress is geometric
        # even when Newton keeps landing next to one endpoint.
        halve = hi - lo > 0.5 * width
        mid = 0.5 * (lo + hi)
        below = _quartic(mid, c2, c1, c0) < 0.0
        lo = np.where(halve & below, mid, lo)
        hi = np.where(halve & ~below, mid, hi)
    else:
        for row in idx.tolist():
            failed[row] = "root refinement did not reach the requested width"
    if failed:
        row = min(failed)
        return s0, (row, failed[row])
    return s0, None


def hausdorff_bound(e: ExponentPair, dim: int) -> float:
    """Upper bound max(N - (2 + 2*x0), 0) on the singular-set dimension."""
    return _hausdorff_bounds(threshold_report(e), dim)[0]


def hausdorff_bound_proof_form(e: ExponentPair, dim: int) -> float:
    """Diagnostic variant max(N - (2N/(N-2))*x0, 0).

    This is the expression the dimension-reduction argument produces
    before it is weakened to the statement form; it degenerates at
    N <= 2, where no singular set can occur anyway, so 0 is returned.
    """
    return _hausdorff_bounds(threshold_report(e), dim)[1]


def _hausdorff_bounds(rep: ThresholdReport, dim: int) -> tuple[float, float]:
    """hausdorff_bound and hausdorff_bound_proof_form at dim from one report."""
    _check_dim(dim)
    bound = max(float(dim) - rep.n_new, 0.0)
    if dim <= 2:
        return bound, 0.0
    return bound, max(float(dim) - (2.0 * dim / (dim - 2.0)) * rep.x0, 0.0)


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise DomainError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if dim > sys.float_info.max:
        raise DomainError(f"dim must be at most the largest float, got {dim}")


def scaling_exponents(e: ExponentPair) -> ScalingExponents:
    """alpha = 2(p+1)/(p*theta-1), beta = 2(theta+1)/(p*theta-1).

    Computed in the user's order: alpha scales the component forced by
    (v+1)^p, beta the other.  Exact identities beta*p = alpha + 2 and
    alpha*theta = beta + 2 hold; 0 < alpha <= beta when p <= theta.
    """
    d = e.p * e.theta - 1.0
    return ScalingExponents(alpha=2.0 * (e.p + 1.0) / d, beta=2.0 * (e.theta + 1.0) / d)


def check_energy_exponent(e: ExponentPair, s) -> None:
    """Raise DomainError unless s (a float or array) is finite and exceeds p+1, canonical p."""
    p, _ = e.canonical()
    s = np.asarray(s, dtype=float)
    bad = ~(np.isfinite(s) & (s > p + 1.0))
    if bad.any():
        raise DomainError(f"s must be finite and exceed p+1 = {p + 1.0}, got {float(s[bad][0])}")


def stability_product(e: ExponentPair, s):
    """Product a1*a2 of the two one-sided stability coefficients at s, a float or array.

    With r = s - 1 and q + 1 = (theta+1)(r+1)/(p+1) (canonical order),
    a1 = 4 q sqrt(p theta)/(q+1)^2 and a2 = 4 r sqrt(p theta)/(r+1)^2.
    Algebraically a1*a2 - 1 = -L(s)/s^4, so the product exceeds 1
    exactly where the energy quartic is negative.
    """
    check_energy_exponent(e, s)
    p, theta = e.canonical()
    r = s - 1.0
    q = (theta + 1.0) * s / (p + 1.0) - 1.0
    root_pt = math.sqrt(p * theta)
    # (q + 1)^2 overflows for theta near 1e154; q / (q + 1) does not.
    a1 = 4.0 * root_pt * (q / (q + 1.0)) / (q + 1.0)
    a2 = 4.0 * r * root_pt / ((r + 1.0) * (r + 1.0))
    return a1 * a2


def check_polynomial_identities(
    e: ExponentPair, sample_count: int = _SAMPLE_COUNT, seed: int = 0
) -> IdentityReport:
    """Verify the algebraic identities tying the two quartics together.

    Residuals are normalized by the largest monomial magnitude at the
    evaluation point, so the pass threshold is scale-free.  Sample
    points from [0, 2*s0] and the sign scan's from (p+1+1e-6, 1.5*s0) are
    each drawn by default_rng(seed), seed >= 0, so identical inputs give
    identical reports.
    """
    if sample_count < 1:
        raise DomainError(f"sample_count must be >= 1, got {sample_count}")
    if sample_count > _MAX_FLOATS:
        raise DomainError(f"sample_count must be at most {_MAX_FLOATS}, got {sample_count}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    p, theta = e.canonical()
    canon = ExponentPair(p, theta)
    s0 = largest_root_L(canon)
    k = (theta + 1.0) / (p * theta - 1.0)
    s = np.random.default_rng(seed).uniform(0.0, 2.0 * s0, size=sample_count)
    ls = eval_L(canon, s)
    scale = _monomial_scale_L(canon, s)
    # H at k s is normalized by its own monomials, k^4 times those of L at s.
    # np.max propagates nan: a residual that could not be evaluated fails.
    res_rescale = np.max(np.abs(eval_H(canon, k * s) - k ** 4 * ls) / (k ** 4 * scale))

    t0 = eval_t0(canon)
    two_t0 = 2.0 * t0
    # Each factor of theta is divided by theta + 1 before the products are
    # formed; formed first, they overflow for small p and theta near 1e153.
    rhs_2t0 = (
        16.0 * p * (p + 1.0) * (theta / (theta + 1.0)) * ((theta - p) / (theta + 1.0))
        * (1.0 - two_t0)
    )
    res_2t0 = abs(eval_L(canon, two_t0) - rhs_2t0) / _monomial_scale_L(canon, two_t0)

    closed_p1 = (
        (p + 1.0) ** 2
        * ((5.0 * p * theta + theta + p + 1.0) / (theta + 1.0))
        * ((3.0 * p * theta - theta - p - 1.0) / (theta + 1.0))
    )
    res_p1 = abs(eval_L(canon, p + 1.0) + closed_p1) / _monomial_scale_L(canon, p + 1.0)

    mid = 2.0 * theta * (p + 1.0) / (theta + 1.0)
    residuals = {
        "rescale": res_rescale,
        "value_at_2t0": res_2t0,
        "value_at_p_plus_1": res_p1,
    }
    if e.is_symmetric:
        split = (s * s + 4.0 * p * s - 4.0 * p) * (s * s - 4.0 * p * s + 4.0 * p)
        residuals["symmetric_split"] = np.max(np.abs(ls - split) / scale)
    signs = {
        "negative_at_2": bool(eval_L(canon, 2.0) < 0.0),
        "negative_at_p_plus_1": bool(eval_L(canon, p + 1.0) < 0.0),
        "negative_at_mid": bool(eval_L(canon, mid) < 0.0),
        "mid_below_root": mid < s0,
    }
    # The sign of stability_product - 1 must oppose that of L(s) wherever
    # |L(s)| is above the guard (a nan L(s) is scanned).
    s_scan = np.random.default_rng(seed).uniform(p + 1.0 + 1e-6, 1.5 * s0, size=sample_count)
    l_scan = eval_L(canon, s_scan)
    scanned = ~(np.abs(l_scan) <= _SIGN_GUARD)
    above = stability_product(canon, s_scan[scanned]) > 1.0
    disagreements = np.count_nonzero(above != (l_scan[scanned] < 0.0))
    scan = (int(disagreements), int(np.count_nonzero(scanned)))
    se = scaling_exponents(e)
    gaps = (se.beta * e.p - se.alpha - 2.0, se.alpha * e.theta - se.beta - 2.0)
    scaling = max(abs(gap) for gap in gaps) / (se.alpha + 2.0)
    return IdentityReport(s0=s0, residuals=residuals, signs=signs, scan=scan, scaling=scaling)
