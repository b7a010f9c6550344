"""Pointwise and integral diagnostics on manufactured and computed states."""

import json
import math

import numpy as np
import pytest

from exle import cli
from exle import (
    Branch,
    DomainError,
    ExponentPair,
    RadialGrid,
    assemble_radial_laplacian,
    continue_ray,
    energy_report,
    extremal_extrapolate,
    rescale,
    restrict_state,
    scaling_exponents,
    singular_profile,
    solve_minimal,
    souplet_check,
    threshold_report,
)
from exle.radial import Trial
from exle.thresholds import largest_root_L

PAIR22 = ExponentPair(2.0, 2.0)
PAIR23 = ExponentPair(2.0, 3.0)
# A ray whose first state has max v = 3e-101 against p = 1e100: 1 + v rounds
# to 1, so a power of it formed as (1 + v) ** p loses the factor e^(p v).
HUGE_P = ExponentPair(1e100, 1.0)
# `exle continue` rays whose comparison margin the plain powers get wrong, as
# (pair, sigma, nodes).  huge-p is the HUGE_P ray.  On tiny-sigma kappa is
# 1e-320, so (u+1)^3 overflows where kappa (u+1)^3 does not: the margin read
# -inf with an overflow warning, and the summary -Infinity.
MARGIN_RAYS = {
    "huge-p": (HUGE_P, 1e-200, 64),
    "tiny-sigma": (PAIR22, 1e-320, 16),
}


def ball_volume(dim):
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@pytest.fixture(scope="module")
def solved_23():
    grid = RadialGrid.uniform(3, 128)
    res = solve_minimal(PAIR23, 0.5, 1.0, grid)
    assert res.converged
    return grid, res.state


@pytest.fixture(scope="module")
def huge_p_first():
    """Grid and first point of `exle continue --p 1e100 --theta 1 --sigma 1e-200 --nodes 64`."""
    grid = RadialGrid.uniform(3, 64)
    branch = continue_ray(HUGE_P, 1e-200, grid)
    return grid, branch.points[0]


def mp_pow1p(mpmath, w, c):
    """(1 + w)^c at the working precision; 1 + 3e-101 needs 101 digits, log1p does not."""
    return mpmath.exp(mpmath.mpf(c) * mpmath.log1p(mpmath.mpf(w)))


class TestSouplet:
    def test_zero_margin_for_matched_symmetric_state(self):
        u = np.linspace(1.0, 0.0, 33)
        state = np.stack((u, u))
        assert souplet_check(PAIR22, state, 0.7, 0.7) == 0.0

    def test_nonnegative_on_computed_solution(self, solved_23):
        grid, state = solved_23
        # kappa = gam (p+1)/(lam (theta+1)) = 1.5 here, so the shift
        # alpha is strictly positive
        h = grid.spacing
        sup_u, sup_v = np.max(state, axis=1)
        slack = h * h * (1.0 + (sup_v + 2.0) ** 3.0 + 1.5 * (sup_u + 1.0) ** 4.0)
        assert souplet_check(PAIR23, state, 0.5, 1.0) >= -slack

    def test_orientation_swap_exact(self, solved_23):
        _, state = solved_23
        swapped = state[::-1].copy()
        fwd = souplet_check(PAIR23, state, 0.5, 1.0)
        rev = souplet_check(ExponentPair(3.0, 2.0), swapped, 1.0, 0.5)
        assert fwd == rev

    @pytest.mark.parametrize(
        "lam,gam",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf), ("1", 1.0),
         (1.0, None), (True, 1.0)],
    )
    def test_loads_are_validated(self, lam, gam):
        # These raised ZeroDivisionError, a TypeError (complex power, str,
        # None), or returned 1.0 or nan; True ran as a load of 1.
        with pytest.raises(DomainError, match="must be positive and finite"):
            souplet_check(PAIR23, np.zeros((2, 33)), lam, gam)

    def test_huge_exponent_margin_matches_mpmath(self, tmp_path, capsys):
        mpmath = pytest.importorskip("mpmath")
        for ray, (e, sigma, nodes) in MARGIN_RAYS.items():
            out = tmp_path / f"{ray}.csv"
            argv = ["continue", "--p", repr(e.p), "--theta", repr(e.theta),
                    "--sigma", repr(sigma), "--nodes", str(nodes), "--out", str(out)]
            assert cli.main(argv) == 0, ray
            # stderr holds at most the canonical-order note: no warning
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if not line.startswith("# note:")] == []
            summary = json.loads(
                out.with_suffix(".summary.json").read_text(), parse_constant=pytest.fail
            )
            margins = []
            for pt in continue_ray(e, sigma, RadialGrid.uniform(3, nodes)).points:
                margins.append(souplet_check(e, pt.state, pt.lam, pt.gam))
                p, theta, (u, v), lam, gam = e.p, e.theta, pt.state, pt.lam, pt.gam
                if p > theta:  # canonical order: rows and loads swap
                    p, theta, u, v, lam, gam = theta, p, v, u, gam, lam
                kappa = gam * (p + 1.0) / (lam * (theta + 1.0))
                alpha = max(0.0, kappa ** (1.0 / (p + 1.0)) - 1.0)
                with mpmath.workdps(50):
                    terms = [
                        (mp_pow1p(mpmath, mpmath.mpf(vi) + mpmath.mpf(alpha), p + 1.0),
                         kappa * mp_pow1p(mpmath, ui, theta + 1.0))
                        for ui, vi in zip(u, v)
                    ]
                    left, right = min(terms, key=lambda t: t[0] - t[1])
                    gap = abs(mpmath.mpf(margins[-1]) - (left - right))
                    assert gap <= 1e-12 * max(left, right), ray
            assert summary["souplet_margin_min"] == min(margins), ray


class TestEnergyReport:
    def test_zero_state_gives_ball_volume(self):
        for dim in (1, 2):
            grid = RadialGrid.uniform(dim, 64)
            # integrand r^(dim-1) is linear here, trapezoid is exact
            j2 = energy_report(PAIR22, np.zeros((2, 65)), 5.0, grid)
            assert j2 == pytest.approx(ball_volume(dim), rel=1e-13)
        grid = RadialGrid.uniform(3, 256)
        j2 = energy_report(PAIR22, np.zeros((2, 257)), 5.0, grid)
        assert j2 == pytest.approx(ball_volume(3), rel=1e-4)

    def test_s_domain_guard(self):
        grid = RadialGrid.uniform(3, 64)
        zero = np.zeros((2, 65))
        with pytest.raises(DomainError):
            energy_report(PAIR23, zero, 3.0, grid)
        with pytest.raises(DomainError):
            energy_report(PAIR23, zero, 2.9, grid)

    def test_grid_mismatch_rejected(self):
        grid = RadialGrid.uniform(3, 64)
        with pytest.raises(DomainError):
            energy_report(PAIR22, np.zeros((2, 50)), 5.0, grid)

    def test_monotone_in_state(self, solved_23):
        grid, state = solved_23
        low = energy_report(PAIR23, np.zeros_like(state), 4.5, grid)
        high = energy_report(PAIR23, state, 4.5, grid)
        assert type(high) is float
        assert high > low

    def test_huge_exponent_matches_mpmath(self, huge_p_first):
        # The trapezoid sum of energy_report at 50 digits, at the CLI's s.
        mpmath = pytest.importorskip("mpmath")
        grid, pt = huge_p_first
        s = 0.5 * (2.0 + largest_root_L(HUGE_P))
        u, v = pt.state[1], pt.state[0]  # canonical order (1, 1e100)
        with mpmath.workdps(50):
            r = [mpmath.mpf(x) for x in grid.nodes]
            f = [
                mp_pow1p(mpmath, ui, (1e100 - 1.0) / 2.0)
                * mp_pow1p(mpmath, vi, (1.0 + 2.0 * s - 1.0) / 2.0) * ri ** 2
                for ui, vi, ri in zip(u, v, r)
            ]
            exact = 4 * mpmath.pi * mpmath.fsum(
                (f[i] + f[i + 1]) / 2 * (r[i + 1] - r[i]) for i in range(grid.m)
            )
            got = energy_report(HUGE_P, pt.state, s, grid)
            assert abs(got / exact - 1) <= 1e-12
        assert got == pytest.approx(9.3048e175, rel=1e-4)


class TestRescale:
    def test_restrict_requires_node(self, solved_23):
        grid, state = solved_23
        with pytest.raises(DomainError):
            restrict_state(state, grid, 0.4999)
        half = restrict_state(state, grid, 0.5)
        assert half.shape == (2, 65)
        assert np.array_equal(half[:, 0], state[:, 0])

    def test_restrict_rejects_radius_outside_the_ball(self, solved_23):
        grid, state = solved_23
        for outside in (0.0, 1.5):
            with pytest.raises(DomainError, match=r"r0 must lie in \(0, 1\]"):
                restrict_state(state, grid, outside)

    def test_sup_scaling_exact(self, solved_23):
        _, state = solved_23
        se = scaling_exponents(PAIR23)
        for r0 in (0.5, 0.25):
            zoomed = rescale(PAIR23, state, r0)
            assert np.max(zoomed[0] + 1.0) == pytest.approx(
                r0**se.alpha * np.max(state[0] + 1.0), rel=1e-14
            )
            assert np.max(zoomed[1] + 1.0) == pytest.approx(
                r0**se.beta * np.max(state[1] + 1.0), rel=1e-14
            )

    def test_r0_validation(self, solved_23):
        _, state = solved_23
        for bad in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError):
                rescale(PAIR23, state, bad)

    def test_residual_maps_by_scaling_power(self):
        # zooming the ball of radius r0 to the unit ball multiplies the
        # interior finite-difference residual by exactly r0^(alpha+2);
        # the identity holds for any state, so use one whose residual is
        # O(1) instead of a converged solution sitting at roundoff
        grid = RadialGrid.uniform(3, 128)
        r = grid.nodes
        state = np.stack((0.8 * (1.0 - r**2), 0.6 * (1.0 - r**4)))
        lam, gam = 0.5, 1.0
        r0 = 0.5
        sub = restrict_state(state, grid, r0)
        zoomed = rescale(PAIR23, sub, r0)
        k = sub.shape[1]
        inner = RadialGrid(grid.dim, grid.nodes[:k] / r0)
        op_fine = assemble_radial_laplacian(grid)
        op_zoom = assemble_radial_laplacian(inner)
        res_u_fine = (op_fine.apply(state[0]) - lam * (state[1] + 1.0) ** PAIR23.p)[1 : k - 1]
        res_u_zoom = (op_zoom.apply(zoomed[0]) - lam * (zoomed[1] + 1.0) ** PAIR23.p)[1 : k - 1]
        se = scaling_exponents(PAIR23)
        factor = r0 ** (se.alpha + 2.0)
        scale = np.abs(res_u_fine).max()
        assert np.abs(res_u_zoom - factor * res_u_fine).max() < 1e-9 * scale


class TestSingularProfile:
    def test_power_of_two_case_exact(self):
        assert singular_profile(PAIR22, 5, 1.0, 1.0) == (2.0, 2.0)
        assert singular_profile(PAIR22, 16, 1.0, 1.0) == (24.0, 24.0)

    def test_symmetry_swap(self):
        a, b = singular_profile(PAIR23, 8, 0.75, 1.25)
        b2, a2 = singular_profile(ExponentPair(3.0, 2.0), 8, 1.25, 0.75)
        assert a == pytest.approx(a2, rel=1e-14)
        assert b == pytest.approx(b2, rel=1e-14)

    def test_dimension_guard(self):
        # alpha = beta = 2 for the symmetric pair, so dim must exceed 4
        with pytest.raises(DomainError):
            singular_profile(PAIR22, 4, 1.0, 1.0)
        with pytest.raises(DomainError):
            singular_profile(PAIR22, 3, 1.0, 1.0)

    def test_load_and_dim_validation(self):
        with pytest.raises(DomainError):
            singular_profile(PAIR22, 5, 0.0, 1.0)
        with pytest.raises(DomainError, match="dim must be a finite real number >= 1"):
            singular_profile(PAIR22, True, 1.0, 1.0)
        # N is any real >= 1, as in RadialGrid: at N = 5.5, a = b = 3 and
        # the pair is (3, 3).
        assert singular_profile(PAIR22, 5.5, 1.0, 1.0) == pytest.approx((3.0, 3.0), rel=1e-15)

    @pytest.mark.parametrize("dim", (16, 1e200, 1e300, 8e307, 1.7e308))
    @pytest.mark.parametrize(
        "pair", (PAIR22, ExponentPair(1.5, 4.0), ExponentPair(1.01, 20.0)),
        ids=("p2-theta2", "p1.5-theta4", "p1.01-theta20"),
    )
    def test_huge_dim_matches_mpmath(self, pair, dim):
        # These raised OverflowError from N = 1e200, or returned (nan, inf)
        # once alpha (N-2-alpha) overflowed.  An amplitude is inf exactly
        # where its log2 reaches 1024.
        mpmath = pytest.importorskip("mpmath")
        got = singular_profile(pair, dim, 1.0, 1.0)
        with mpmath.workdps(50):
            p, theta = mpmath.mpf(pair.p), mpmath.mpf(pair.theta)
            alpha = 2 * (p + 1) / (p * theta - 1)
            beta = 2 * (theta + 1) / (p * theta - 1)
            log2_a = mpmath.log(alpha * (dim - 2 - alpha), 2)
            log2_b = mpmath.log(beta * (dim - 2 - beta), 2)
            log2_b_amp = (theta * log2_a + log2_b) / (p * theta - 1)
            for amp, log2_amp in zip(got, (p * log2_b_amp - log2_a, log2_b_amp)):
                if log2_amp >= 1024:
                    assert amp == math.inf
                else:
                    assert abs(amp / mpmath.power(2, log2_amp) - 1) <= 5e-13

    def test_profile_solves_system_away_from_axis(self):
        # the pair (A r^-alpha - 1, B r^-beta - 1) satisfies the discrete
        # system up to O(h^2) on [0.1, 0.9]
        dim, lam, gam = 5, 1.0, 1.0
        a_amp, b_amp = singular_profile(PAIR22, dim, lam, gam)
        se = scaling_exponents(PAIR22)
        errs = []
        for m in (128, 256):
            grid = RadialGrid.uniform(dim, m)
            r = grid.nodes.copy()
            r[0] = 1.0  # dummy; the axis rows are excluded below
            u = a_amp * r**-se.alpha - 1.0
            v = b_amp * r**-se.beta - 1.0
            op = assemble_radial_laplacian(grid)
            res_u = op.apply(u) - lam * (v + 1.0) ** 2
            res_v = op.apply(v) - gam * (u + 1.0) ** 2
            mask = (grid.nodes >= 0.1) & (grid.nodes <= 0.9)
            errs.append(max(np.abs(res_u[mask]).max(), np.abs(res_v[mask]).max()))
        rate = math.log2(errs[0] / errs[1])
        assert 1.7 < rate < 2.3


def synthetic_trial(lam, sup=None):
    """A trial at lam whose state peaks at sup, or a failed one if sup is None."""
    state = None if sup is None else np.array([[sup, 0.0], [sup, 0.0]])
    mu1 = None if sup is None else 1.5
    return Trial(lam=lam, gam=lam, iterations=10, chosen_by="walk", state=state, mu1=mu1)


def synthetic_trials(slope, n_points=10, lam_star=1.0):
    """n_points converged trials with sup = gap^slope, then a failure at lam_star."""
    gaps = lam_star * 2.0 ** -np.arange(1, n_points + 1)
    points = [synthetic_trial(lam_star - float(gap), float(gap**slope)) for gap in gaps]
    return points + [synthetic_trial(lam_star)]


def synthetic_branch(slope, n_points=10, lam_star=1.0):
    return Branch(trials=synthetic_trials(slope, n_points, lam_star))


def tail_branch(pair, sigma, dim, m):
    """The minimal solutions at 6 loads closing in on the bracket that
    continue_ray finds, then a failure at its lambda_hi."""
    grid = RadialGrid.uniform(dim, m)
    bracket = continue_ray(pair, sigma, grid)
    trials = []
    for gap in (0.5, 0.25, 0.1, 0.03, 0.01, 0.0):
        lam = bracket.lambda_lo * (1.0 - gap)
        res = solve_minimal(pair, lam, sigma * lam, grid)
        trials.append(Trial(lam, sigma * lam, res.iterations, "walk", res.state))
    hi = bracket.lambda_hi
    return Branch(trials=trials + [Trial(hi, sigma * hi, 1, "walk")])


def malformed_branch():
    """A bracket whose top point sits at lambda_hi itself."""
    trials = synthetic_trials(-0.3)[:-1]
    return Branch(trials=trials + [synthetic_trial(trials[-1].lam)])


class TestExtremalExtrapolate:
    @pytest.mark.parametrize(
        "pair, sigma, dim, m",
        [
            # N = 12 lies below n_new = 12.75, so the extremal solution is
            # bounded, but no single run decides that yet (ROADMAP item 8).
            pytest.param(
                ExponentPair(1.01, 20.0), 8.336866576787306, 12, 256,
                id="p1.01-theta20-dim12",
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="no single run reads bounded below n_new yet",
                ),
            ),
        ],
    )
    def test_computed_branch_low_dim_is_bounded_looking(self, pair, sigma, dim, m):
        assert dim < threshold_report(pair).n_new
        assert extremal_extrapolate(tail_branch(pair, sigma, dim, m)) is True

    def test_requires_bracket_and_enough_points(self):
        trials = synthetic_trials(-0.3)
        open_branch = Branch(trials=trials[:-1])
        assert open_branch.lambda_hi is None
        assert extremal_extrapolate(open_branch) is None
        short = Branch(trials=trials[:4] + trials[-1:])
        assert (short.lambda_lo, short.lambda_hi) == (trials[3].lam, 1.0)
        assert extremal_extrapolate(short) is None

    @pytest.mark.parametrize(
        "make_branch",
        [
            pytest.param(lambda: Branch(trials=synthetic_trials(-0.3)[:-1]), id="open"),
            pytest.param(lambda: Branch(trials=synthetic_trials(-0.3, n_points=4)), id="short"),
            pytest.param(lambda: synthetic_branch(-0.01), id="synthetic-flat"),
            pytest.param(lambda: synthetic_branch(-0.6), id="synthetic-growing"),
            pytest.param(malformed_branch, id="malformed"),
            pytest.param(lambda: tail_branch(PAIR22, 1.0, 3, 64), id="p2-theta2-dim3"),
        ],
    )
    def test_reads_undecided(self, make_branch):
        # No single run decides boundedness (ROADMAP items 8 and 16).
        assert extremal_extrapolate(make_branch()) is None
