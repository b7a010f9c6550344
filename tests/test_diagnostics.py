"""Pointwise and integral diagnostics on manufactured and computed states."""

import math

import numpy as np
import pytest

from exle import (
    Branch,
    DiagnosticError,
    DomainError,
    ExponentPair,
    RadialGrid,
    StatePair,
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

PAIR22 = ExponentPair(2.0, 2.0)
PAIR23 = ExponentPair(2.0, 3.0)


def ball_volume(dim):
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@pytest.fixture(scope="module")
def solved_23():
    grid = RadialGrid.uniform(3, 128)
    res = solve_minimal(PAIR23, 0.5, 1.0, grid)
    assert res.converged
    return grid, res.state


class TestSouplet:
    def test_zero_margin_for_matched_symmetric_state(self):
        u = np.linspace(1.0, 0.0, 33)
        state = StatePair(u, u.copy())
        assert souplet_check(PAIR22, state, 0.7, 0.7) == 0.0

    def test_nonnegative_on_computed_solution(self, solved_23):
        grid, state = solved_23
        # kappa = gam (p+1)/(lam (theta+1)) = 1.5 here, so the shift
        # alpha is strictly positive
        h = grid.spacing
        slack = h * h * (1.0 + (state.sup_v + 2.0) ** 3.0 + 1.5 * (state.sup_u + 1.0) ** 4.0)
        assert souplet_check(PAIR23, state, 0.5, 1.0) >= -slack

    def test_orientation_swap_exact(self, solved_23):
        _, state = solved_23
        swapped = StatePair(state.v.copy(), state.u.copy())
        fwd = souplet_check(PAIR23, state, 0.5, 1.0)
        rev = souplet_check(ExponentPair(3.0, 2.0), swapped, 1.0, 0.5)
        assert fwd == rev


class TestEnergyReport:
    def test_zero_state_gives_ball_volume(self):
        for dim in (1, 2):
            grid = RadialGrid.uniform(dim, 64)
            zero = StatePair(np.zeros(65), np.zeros(65))
            rep = energy_report(PAIR22, zero, 5.0, grid)
            # integrand r^(dim-1) is linear here, trapezoid is exact
            assert rep.energy_J2 == pytest.approx(ball_volume(dim), rel=1e-13)
            assert rep.energy_power == pytest.approx(ball_volume(dim), rel=1e-13)
        grid = RadialGrid.uniform(3, 256)
        zero = StatePair(np.zeros(257), np.zeros(257))
        rep = energy_report(PAIR22, zero, 5.0, grid)
        assert rep.energy_J2 == pytest.approx(ball_volume(3), rel=1e-4)

    def test_zero_state_local_ratio(self):
        grid = RadialGrid.uniform(3, 256)
        zero = StatePair(np.zeros(257), np.zeros(257))
        rep = energy_report(PAIR22, zero, 5.0, grid)
        assert rep.local_ratio == pytest.approx(2.0**-3, rel=1e-3)

    def test_s_domain_guard(self):
        grid = RadialGrid.uniform(3, 64)
        zero = StatePair(np.zeros(65), np.zeros(65))
        with pytest.raises(DomainError):
            energy_report(PAIR23, zero, 3.0, grid)
        with pytest.raises(DomainError):
            energy_report(PAIR23, zero, 2.9, grid)

    def test_grid_mismatch_rejected(self):
        grid = RadialGrid.uniform(3, 64)
        zero = StatePair(np.zeros(50), np.zeros(50))
        with pytest.raises(DomainError):
            energy_report(PAIR22, zero, 5.0, grid)

    def test_monotone_in_state(self, solved_23):
        grid, state = solved_23
        zero = StatePair(np.zeros(state.u.size), np.zeros(state.v.size))
        low = energy_report(PAIR23, zero, 4.5, grid)
        high = energy_report(PAIR23, state, 4.5, grid)
        assert high.energy_J2 > low.energy_J2
        assert high.energy_power > low.energy_power
        assert high.s_used == 4.5


class TestRescale:
    def test_restrict_requires_node(self, solved_23):
        grid, state = solved_23
        with pytest.raises(DomainError):
            restrict_state(state, grid, 0.4999)
        half = restrict_state(state, grid, 0.5)
        assert half.u.size == 65
        assert half.u[0] == state.u[0]

    def test_sup_scaling_exact(self, solved_23):
        _, state = solved_23
        se = scaling_exponents(PAIR23)
        for r0 in (0.5, 0.25):
            zoomed = rescale(PAIR23, state, r0)
            assert np.max(zoomed.u + 1.0) == pytest.approx(
                r0**se.alpha * np.max(state.u + 1.0), rel=1e-14
            )
            assert np.max(zoomed.v + 1.0) == pytest.approx(
                r0**se.beta * np.max(state.v + 1.0), rel=1e-14
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
        state = StatePair(0.8 * (1.0 - r**2), 0.6 * (1.0 - r**4))
        lam, gam = 0.5, 1.0
        r0 = 0.5
        sub = restrict_state(state, grid, r0)
        zoomed = rescale(PAIR23, sub, r0)
        inner = RadialGrid(grid.dim, grid.nodes[: sub.u.size] / r0)
        op_fine = assemble_radial_laplacian(grid)
        op_zoom = assemble_radial_laplacian(inner)
        res_u_fine = (op_fine.apply(state.u) - lam * (state.v + 1.0) ** PAIR23.p)[
            1 : sub.u.size - 1
        ]
        res_u_zoom = (op_zoom.apply(zoomed.u) - lam * (zoomed.v + 1.0) ** PAIR23.p)[
            1 : sub.u.size - 1
        ]
        se = scaling_exponents(PAIR23)
        factor = r0 ** (se.alpha + 2.0)
        scale = np.abs(res_u_fine).max()
        assert np.abs(res_u_zoom - factor * res_u_fine).max() < 1e-9 * scale


class TestSingularProfile:
    def test_power_of_two_case_exact(self):
        assert singular_profile(PAIR22, 5, 1.0, 1.0) == (2.0, 2.0)

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
        with pytest.raises(DomainError):
            singular_profile(PAIR22, 5.5, 1.0, 1.0)

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
    state = None if sup is None else StatePair([sup, 0.0], [sup, 0.0])
    mu1 = None if sup is None else 1.5
    return Trial(lam=lam, gam=lam, iterations=10, chosen_by="walk", state=state, mu1=mu1)


def synthetic_trials(slope, n_points=10, lam_star=1.0):
    """n_points converged trials with sup = gap^slope, then a failure at lam_star."""
    gaps = lam_star * 2.0 ** -np.arange(1, n_points + 1)
    points = [synthetic_trial(lam_star - float(gap), float(gap**slope)) for gap in gaps]
    return points + [synthetic_trial(lam_star)]


def synthetic_branch(slope, n_points=10, lam_star=1.0):
    return Branch(sigma=1.0, trials=synthetic_trials(slope, n_points, lam_star))


class TestExtremalExtrapolate:
    def test_computed_branch_low_dim_is_bounded_looking(self):
        grid = RadialGrid.uniform(3, 64)
        branch = continue_ray(PAIR22, 1.0, grid)
        diag = extremal_extrapolate(branch, PAIR22, 3)
        assert diag.bounded_looking
        assert diag.below_threshold
        assert diag.dim == 3
        assert diag.dim_threshold == pytest.approx(threshold_report(PAIR22).n_new)
        assert diag.points_used == min(8, len(branch.points))
        assert len(diag.table[0]) == 3

    def test_synthetic_flat_tail_reads_bounded(self):
        diag = extremal_extrapolate(synthetic_branch(-0.02), PAIR22, 3)
        assert diag.bounded_looking
        assert diag.slope_u == pytest.approx(-0.02, abs=1e-10)

    def test_synthetic_growing_tail_reads_unbounded(self):
        diag = extremal_extrapolate(synthetic_branch(-0.3), PAIR22, 20)
        assert not diag.bounded_looking
        assert not diag.below_threshold
        assert diag.slope_v == pytest.approx(-0.3, abs=1e-10)

    def test_requires_bracket_and_enough_points(self):
        trials = synthetic_trials(-0.3)
        open_branch = Branch(sigma=1.0, trials=trials[:-1])
        assert open_branch.lambda_hi is None
        with pytest.raises(DiagnosticError):
            extremal_extrapolate(open_branch, PAIR22, 3)
        short = Branch(sigma=1.0, trials=trials[:4] + trials[-1:])
        assert (short.lambda_lo, short.lambda_hi) == (trials[3].lam, 1.0)
        with pytest.raises(DiagnosticError):
            extremal_extrapolate(short, PAIR22, 3)

    def test_rejects_points_at_or_above_bracket(self):
        trials = synthetic_trials(-0.3)[:-1]
        branch = Branch(sigma=1.0, trials=trials + [synthetic_trial(trials[-1].lam)])
        assert branch.lambda_hi == branch.lambda_lo
        with pytest.raises(DiagnosticError):
            extremal_extrapolate(branch, PAIR22, 3)
