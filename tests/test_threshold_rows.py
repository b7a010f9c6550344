"""threshold_rows against threshold_report, the single-pair oracle, bit for bit."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exle import DomainError, ExponentPair, NumericalError, threshold_report, threshold_rows

FIELDS = ("t0", "s0", "x0", "n_cowan", "n_new", "improvement")
TOLS = (1e-12, 1e-9, 1e-6, 1e-3, 0.5)

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


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(pairs(), min_size=1, max_size=24), tol=st.sampled_from(TOLS), swap=st.booleans())
def test_rows_equal_threshold_report_bit_for_bit(rows, tol, swap):
    if swap:  # the user's order; both paths reorder to p <= theta
        rows = [(b, a) for a, b in rows]
    expected = []
    for a, b in rows:
        try:
            expected.append(threshold_report(ExponentPair(a, b), tol))
        except NumericalError as exc:
            # tol below the root's ulp: the kernel names the same first failure
            with pytest.raises(NumericalError) as info:
                threshold_rows([a for a, _ in rows], [b for _, b in rows], tol)
            assert str(info.value) == f"{exc}; pair {ExponentPair(a, b)}"
            return
    got = threshold_rows([a for a, _ in rows], [b for _, b in rows], tol)
    for name in FIELDS:
        assert hexes(getattr(got, name)) == hexes(getattr(rep, name) for rep in expected), name


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_nonpositive_tol_raises_domain_error_on_both_paths(tol):
    with pytest.raises(DomainError, match="tol must be positive") as scalar:
        threshold_report(ExponentPair(2.0, 3.0), tol)
    with pytest.raises(DomainError) as rows:
        threshold_rows([2.0], [3.0], tol)
    assert str(rows.value) == str(scalar.value)


def test_unreachable_width_raises_numerical_error_on_both_paths():
    with pytest.raises(NumericalError, match="did not reach the requested width"):
        threshold_report(ExponentPair(2.0, 3.0), 1e-300)
    with pytest.raises(NumericalError, match="did not reach the requested width") as info:
        threshold_rows([2.0, 1.5], [3.0, 4.0], 1e-300)
    assert str(info.value).endswith("; pair ExponentPair(p=2.0, theta=3.0)")


def test_first_failing_row_decides_the_error():
    # An invalid pair raises the DomainError of ExponentPair ...
    with pytest.raises(DomainError, match=r"p >= 1 and theta >= 1, got \(0.5, 2.0\)"):
        threshold_rows([2.0, 0.5, 1.0], [3.0, 2.0, 1.0], 1e-12)
    with pytest.raises(DomainError, match="p\\*theta must exceed 1"):
        threshold_rows([2.0, 1.0, 0.5], [3.0, 1.0, 2.0], 1e-12)
    # ... unless an earlier row fails first, and a bad tol is never reached
    # past an invalid first row, as in threshold_report(ExponentPair(...), tol).
    with pytest.raises(NumericalError, match=r"pair ExponentPair\(p=2.0, theta=3.0\)"):
        threshold_rows([2.0, 0.5], [3.0, 2.0], 1e-300)
    with pytest.raises(DomainError, match="must be a finite number"):
        threshold_rows([math.nan, 2.0], [2.0, 3.0], 0.0)


def test_exponent_whose_square_overflows_raises_domain_error_on_both_paths():
    edge = math.sqrt(sys.float_info.max)  # (edge + 1)^2 is still finite
    rows = threshold_rows([2.0, 1.5], [3.0, edge], 1e-12)
    expected = [threshold_report(ExponentPair(a, b)) for a, b in ((2.0, 3.0), (1.5, edge))]
    for name in FIELDS:
        assert hexes(getattr(rows, name)) == hexes(getattr(rep, name) for rep in expected), name
    over = math.nextafter(edge, math.inf)
    with pytest.raises(DomainError, match="exponents must not exceed") as scalar:
        ExponentPair(over, 1.5)
    with pytest.raises(DomainError) as array:
        threshold_rows([2.0, over, 1.0], [3.0, 1.5, 1.0], 1e-12)
    assert str(array.value) == str(scalar.value)


def test_empty_and_misshaped_input():
    rep = threshold_rows([], [], 1e-12)
    assert all(getattr(rep, name).shape == (0,) for name in FIELDS)
    with pytest.raises(DomainError, match="1-D arrays of one length"):
        threshold_rows([2.0, 3.0], [3.0], 1e-12)
    with pytest.raises(DomainError, match="1-D arrays of one length"):
        threshold_rows(np.full((2, 2), 2.0), np.full((2, 2), 3.0), 1e-12)
