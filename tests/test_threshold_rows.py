"""threshold_rows, the one root path, against exact rational arithmetic,
its root sweep against a frozen copy of its array expressions, and
threshold_report, one row of it, against the rows of a whole table."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exle import DomainError, ExponentPair, thresholds, threshold_report, threshold_rows

FIELDS = ("t0", "s0", "x0", "n_cowan", "n_new", "improvement")
TOL = thresholds._ROOT_TOL  # the width every root is bracketed to

log_exponent = st.floats(0.0, 4.0).map(lambda t: 10.0**t)  # log-uniform in [1, 1e4]
above_one = log_exponent.filter(lambda x: x > 1.0)


@st.composite
def pairs(draw):
    """(p, theta) with p <= theta: free, p = 1, or on the diagonal."""
    kind = draw(st.sampled_from(("free", "p_is_one", "diagonal")))
    if kind == "p_is_one":
        return 1.0, draw(above_one)
    if kind == "diagonal":
        x = draw(above_one)
        return x, x
    a, b = sorted((draw(log_exponent), draw(above_one)))
    return a, b


def hexes(values):
    return [float(x).hex() for x in values]


def exact_L(p, theta, s):
    """L(s) and the sum of its monomials' magnitudes, in exact rationals.

    Computed from the float exponents in canonical order.  The coefficients
    are written out from their definitions, not taken from the module:
    c2 = 16 p th (p+1)/(th+1), c1 = c2 (p+th+2)/(th+1), c0 = c2 (p+1)/(th+1).
    """
    p, theta = sorted((Fraction(p), Fraction(theta)))
    c2 = 16 * p * theta * (p + 1) / (theta + 1)
    c1 = c2 * (p + theta + 2) / (theta + 1)
    c0 = c2 * (p + 1) / (theta + 1)
    return s**4 - c2 * s**2 + c1 * s - c0, s**4 + c2 * s**2 + c1 * s + c0


# A bound on the error of L evaluated in floats, relative to the sum of its
# monomials: about 10 roundings in the coefficients and 4 in the evaluation.
# Within it no float computation can tell the sign of L.
ROUNDOFF = Fraction(16, 2**53)


def brackets_root(p, theta, s0):
    """L < 0 at max(s0 - m, 2) and L > 0 at s0 + m, m = max(TOL, 4 ulp(s0)).

    s0 is the largest root in (2, inf); near p = theta = 1 a smaller root
    lies just below 2, since L has a double root at s = 2 in the limit.
    There the root is ill-conditioned, and a sign may also be off where |L|
    is below the float roundoff bound.
    """
    m = Fraction(max(TOL, 4.0 * math.ulp(s0)))
    below, scale_below = exact_L(p, theta, max(Fraction(s0) - m, Fraction(2)))
    above, scale_above = exact_L(p, theta, Fraction(s0) + m)
    return below < ROUNDOFF * scale_below and above > -ROUNDOFF * scale_above


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(pairs(), min_size=1, max_size=24), swap=st.booleans())
def test_rows_bracket_the_exact_root(rows, swap):
    if swap:  # the user's order; the path reorders to p <= theta
        rows = [(b, a) for a, b in rows]
    got = threshold_rows([a for a, _ in rows], [b for _, b in rows])
    for (a, b), s0 in zip(rows, got.s0.tolist()):
        assert brackets_root(a, b, s0), (a, b, s0)
    # Either order of every pair gives the same row, to the last bit.
    flipped = threshold_rows([b for _, b in rows], [a for a, _ in rows])
    for name in FIELDS:
        assert hexes(getattr(got, name)) == hexes(getattr(flipped, name)), name


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(pairs(), min_size=1, max_size=6))
def test_one_pair_is_its_row_of_the_table(rows):
    rows = rows + [(b, a) for a, b in rows]  # both orders
    table = threshold_rows([a for a, _ in rows], [b for _, b in rows])
    for i, (a, b) in enumerate(rows):
        rep = threshold_report(ExponentPair(a, b))
        got = [getattr(rep, name) for name in FIELDS]
        assert hexes(got) == hexes(getattr(table, name)[i] for name in FIELDS), (a, b)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(pairs(), min_size=2, max_size=24), cut=st.integers(1, 23), swap=st.booleans())
def test_columns_of_a_slice_are_the_slice_of_the_columns(rows, cut, swap):
    # The table keeps s0 alone and forms the other columns a chunk at a time.
    if swap:
        rows = [(b, a) for a, b in rows]
    p = np.array([a for a, _ in rows])
    theta = np.array([b for _, b in rows])
    whole = threshold_rows(p, theta)
    s0 = thresholds.threshold_roots(p, theta)
    assert hexes(s0) == hexes(whole.s0)
    cut = min(cut, len(rows) - 1)
    halves = (slice(None, cut), slice(cut, None))
    parts = [thresholds.threshold_columns(p[k], theta[k], s0[k]) for k in halves]
    for name in FIELDS:
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert hexes(joined) == hexes(getattr(whole, name)), name


def _reference_quartic(s, c2, c1, c0):
    ss = s * s
    return (ss - c2) * ss + c1 * s - c0


def reference_largest_roots(c2, c1, c0):
    """The root sweep of thresholds._largest_roots, frozen.

    A verbatim copy of its loop and its constants, so any change to the
    sweep that moves a bit or a failure message fails the test below.
    """
    _quartic, _BRACKET_CAP, _ROOT_TOL = _reference_quartic, 2.0 ** 60, 1e-12
    s0 = np.full(c2.size, np.nan)
    failed: dict[int, str] = {}

    f_lo = (4.0 - c2) * 4.0 + c1 * 2.0 - c0
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


# Pairs at the edges of the domain, and (1e18, 1e18) past it, whose root
# lies beyond the bracket cap.  In the order (theta, p) the coefficients
# are not the energy quartic's, and many rows fail at L(2) < 0 instead.
EDGE_PAIRS = (
    (2.0**58, 2.0**58),
    (2.0**58, 1e154),
    (1.0, 2.0**58),
    (1.5, math.sqrt(sys.float_info.max)),
    (10000.0, 10000.0),
    (2.0, 3.0),
    (1.0, 7.5),
    (1e18, 1e18),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(pairs() | st.sampled_from(EDGE_PAIRS), min_size=1, max_size=24),
    swap=st.booleans(),
)
def test_sweep_matches_the_frozen_reference_bit_for_bit(rows, swap):
    p, theta = (np.array(column) for column in zip(*rows))
    if swap:
        p, theta = theta, p
    with np.errstate(all="ignore"):
        coeffs = thresholds._energy_coeffs(p, theta)
        want, want_failure = reference_largest_roots(*coeffs)
        got, got_failure = thresholds._largest_roots(*coeffs)
    assert hexes(got) == hexes(want)
    assert got_failure == want_failure


def test_width_below_roundoff_counts_as_roundoff():
    # At s0 ~ 4e4 the adjacent floats are 7.3e-12 apart, wider than TOL, so
    # the sweep stops there on adjacent ends.
    s0 = threshold_report(ExponentPair(10000.0, 10000.0)).s0
    assert s0 == 39998.99997499875
    assert math.ulp(s0) > TOL
    for a, b in ((10000.0, 10000.0), (2.0, 3.0), (1.0, 7.5)):
        assert brackets_root(a, b, threshold_report(ExponentPair(a, b)).s0)


def test_smaller_exponent_past_bound_raises_domain_error_on_both_paths():
    # s0 is about 4 min(p, theta); one ulp above 2^58 its bracket passed 2^60
    # and the pair raised NumericalError.
    edge = 2.0**58
    rows = threshold_rows([2.0, edge, 1e154, edge], [3.0, edge, edge, 1.0])
    expected = [
        threshold_report(ExponentPair(a, b))
        for a, b in ((2.0, 3.0), (edge, edge), (1e154, edge), (edge, 1.0))
    ]
    for name in FIELDS:
        assert hexes(getattr(rows, name)) == hexes(getattr(rep, name) for rep in expected), name
    over = math.nextafter(edge, math.inf)
    for p, theta in ((over, over), (1e60, 1e60), (1e100, 1e150)):
        with pytest.raises(DomainError, match="the smaller exponent must not exceed") as scalar:
            ExponentPair(p, theta)
        with pytest.raises(DomainError) as array:
            threshold_rows([2.0, p, 1.0], [3.0, theta, 1.0])
        assert str(array.value) == str(scalar.value)


def test_first_failing_row_decides_the_error():
    # An invalid pair raises the DomainError of ExponentPair ...
    with pytest.raises(DomainError, match=r"p >= 1 and theta >= 1, got \(0.5, 2.0\)"):
        threshold_rows([2.0, 0.5, 1.0], [3.0, 2.0, 1.0])
    with pytest.raises(DomainError, match="p\\*theta must exceed 1"):
        threshold_rows([2.0, 1.0, 0.5], [3.0, 1.0, 2.0])
    # ... unless an earlier row fails first, as in threshold_report(ExponentPair(...)).
    with pytest.raises(DomainError, match=r"must not exceed 2.8823e\+17, got \(1e\+18, 1e\+18\)"):
        threshold_rows([2.0, 1e18, 0.5], [3.0, 1e18, 2.0])
    with pytest.raises(DomainError, match="must be a finite number"):
        threshold_rows([math.nan, 2.0], [2.0, 3.0])


def test_exponent_whose_square_overflows_raises_domain_error_on_both_paths():
    edge = math.sqrt(sys.float_info.max)  # (edge + 1)^2 is still finite
    rows = threshold_rows([2.0, 1.5], [3.0, edge])
    expected = [threshold_report(ExponentPair(a, b)) for a, b in ((2.0, 3.0), (1.5, edge))]
    for name in FIELDS:
        assert hexes(getattr(rows, name)) == hexes(getattr(rep, name) for rep in expected), name
    over = math.nextafter(edge, math.inf)
    with pytest.raises(DomainError, match="exponents must not exceed") as scalar:
        ExponentPair(over, 1.5)
    with pytest.raises(DomainError) as array:
        threshold_rows([2.0, over, 1.0], [3.0, 1.5, 1.0])
    assert str(array.value) == str(scalar.value)


def test_empty_and_misshaped_input():
    rep = threshold_rows([], [])
    assert all(getattr(rep, name).shape == (0,) for name in FIELDS)
    with pytest.raises(DomainError, match="1-D arrays of one length"):
        threshold_rows([2.0, 3.0], [3.0])
    with pytest.raises(DomainError, match="1-D arrays of one length"):
        threshold_rows(np.full((2, 2), 2.0), np.full((2, 2), 3.0))


def test_float_pow_matches_cpython_pow_bit_for_bit():
    # numpy's ** may round a few percent of cubes differently from the C
    # library's pow; np.float_power must not, on arrays or on floats, or
    # the table bytes would move.
    rng = np.random.default_rng(20)
    x = np.exp(rng.uniform(0.0, 60.0 * math.log(2.0), 200_000))
    x = np.concatenate((x, [1.0, 2.0**60, np.nextafter(2.0**60, 0.0)]))
    for n in (2, 3):
        expected = hexes(v**n for v in x.tolist())
        got = np.float_power(x, n)
        assert got.dtype == np.float64
        assert hexes(got) == expected
        assert hexes(np.float_power(v, n) for v in x.tolist()) == expected
