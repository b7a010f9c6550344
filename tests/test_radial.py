"""Radial operator, monotone solver, eigenvalue, and continuation tests."""

import inspect
import math
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

import exle
from exle import (
    Branch,
    BudgetError,
    ConfigurationError,
    DomainError,
    ExponentPair,
    NumericalError,
    RadialGrid,
    assemble_radial_laplacian,
    continue_ray,
    rescale,
    restrict_state,
    solve_minimal,
    souplet_check,
    stability_mu1,
)
from exle import _cyclic, radial

PAIR22 = ExponentPair(2.0, 2.0)
DIMS = (1, 3, 20)


def boundary_graded_nodes(m, strength=1.5):
    x = np.linspace(0.0, 1.0, m + 1)
    nodes = 1.0 - (1.0 - x) ** strength
    nodes[0] = 0.0
    nodes[-1] = 1.0
    return nodes


class TestRadialGrid:
    def test_uniform_properties(self):
        g = RadialGrid.uniform(3, 64)
        assert g.m == 64
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert g.spacing == pytest.approx(1.0 / 64.0)

    def test_laplacian_assembled_once_per_grid(self, monkeypatch):
        # continue_ray, solve_minimal and stability_mu1 share the grid's factors
        built = []
        assemble = radial.assemble_radial_laplacian

        def recording(grid):
            built.append(grid)
            return assemble(grid)

        monkeypatch.setattr(radial, "assemble_radial_laplacian", recording)
        g = RadialGrid.uniform(3, 64)
        continue_ray(PAIR22, 1.0, g)
        assert len(built) == 1 and built[0] is g
        assert g.laplacian is g.laplacian

    def test_too_few_intervals_rejected(self):
        with pytest.raises(ConfigurationError):
            RadialGrid.uniform(3, 8)

    def test_bad_dim_rejected(self):
        # N is any finite real >= 1, so 2.5 is a dimension; these are not.
        with pytest.raises(DomainError):
            RadialGrid.uniform(0, 64)
        for bad in (0.5, math.nan, math.inf, "3"):
            with pytest.raises(DomainError, match="dim must be a finite real number >= 1"):
                RadialGrid(bad, np.linspace(0.0, 1.0, 65))

    def test_uniform_checks_dim_before_casting(self):
        # True is not cast to N = 1, and 2.5 is kept, not truncated to 2.
        with pytest.raises(DomainError, match="dim must be a finite real number"):
            RadialGrid.uniform(True, 64)
        for dim in (2.5, np.int64(3), np.float32(12.5)):
            g = RadialGrid.uniform(dim, 64)
            assert type(g.dim) is float and g.dim == float(dim)

    def test_bad_nodes_rejected(self):
        nodes = np.linspace(0.0, 1.0, 65)
        with pytest.raises(ConfigurationError):
            RadialGrid(3, nodes[::-1].copy())
        with pytest.raises(ConfigurationError):
            RadialGrid(3, nodes + 0.1)
        shuffled = nodes.copy()
        shuffled[5], shuffled[6] = shuffled[6], shuffled[5]
        with pytest.raises(ConfigurationError):
            RadialGrid(3, shuffled)


class TestStateArray:
    """A state is a (2, n) float array; every entry point checks the shape."""

    ENTRY_POINTS = {
        "solve_minimal": lambda w, g: solve_minimal(PAIR22, 0.5, 0.5, g, seed=w),
        "stability_mu1": lambda w, g: stability_mu1(PAIR22, w, 0.5, 0.5, g),
        "souplet_check": lambda w, g: souplet_check(PAIR22, w, 0.5, 0.5),
        "restrict_state": lambda w, g: restrict_state(w, g, 0.5),
        "rescale": lambda w, g: rescale(PAIR22, w, 0.5),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_bad_shapes_rejected(self, name):
        g = RadialGrid.uniform(3, 64)
        for bad in (np.zeros(65), np.zeros((3, 65))):
            with pytest.raises(ConfigurationError, match=r"\(2, n\) array"):
                self.ENTRY_POINTS[name](bad, g)

    def test_seed_off_the_grid_rejected(self):
        g = RadialGrid.uniform(3, 64)
        with pytest.raises(ConfigurationError, match="seed state does not match the grid"):
            solve_minimal(PAIR22, 0.5, 0.5, g, seed=np.zeros((2, 66)))

    def test_sups_are_row_maxima(self):
        g = RadialGrid.uniform(3, 64)
        seed = solve_minimal(PAIR22, 0.5, 0.5, g).state
        state = solve_minimal(ExponentPair(2.0, 3.0), 0.5, 1.0, g, seed=seed).state
        assert state.shape == (2, 65) and state.dtype == float
        assert not np.shares_memory(state, seed)
        # radial minimal solutions peak on the axis
        sup_u, sup_v = np.max(state, axis=1)
        assert (sup_u, sup_v) == (state[0, 0], state[1, 0])
        assert sup_v > sup_u > 0.0


def loop_assembly(grid):
    """The rows of -Lap built one at a time, as the operator first did."""
    r, dim, n = grid.nodes, grid.dim, grid.m + 1
    lower, diag, upper = np.zeros(n), np.zeros(n), np.zeros(n)
    h1 = r[1] - r[0]
    diag[0] = 2.0 * dim / (h1 * h1)
    upper[0] = -2.0 * dim / (h1 * h1)
    for i in range(1, grid.m):
        hm, hp = r[i] - r[i - 1], r[i + 1] - r[i]
        denom = hm * hp * (hm + hp)
        w = -2.0 * hp / denom + (dim - 1.0) / r[i] * hp * hp / denom
        e = -2.0 * hm / denom - (dim - 1.0) / r[i] * hm * hm / denom
        if w > 0.0:
            ri = float(r[i])
            cell = 0.5 * (hm + hp) * ri ** (dim - 1.0)
            w = -((ri - 0.5 * hm) ** (dim - 1.0)) / (hm * cell)
            e = -((ri + 0.5 * hp) ** (dim - 1.0)) / (hp * cell)
        lower[i], diag[i], upper[i] = w, -(w + e), e
    diag[-1] = 1.0
    return lower, diag, upper


class TestRadialLaplacian:
    @pytest.mark.parametrize("dim", (1, 2, 3, 5, 12, 20, 40, 100))
    def test_rows_match_the_row_loop_bit_for_bit(self, dim):
        # graded grids crowd the axis, where rows take the flux form
        for nodes in (np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 256),
                      np.linspace(0.0, 1.0, 65) ** 1.7, boundary_graded_nodes(80)):
            grid = RadialGrid(dim, nodes)
            op = assemble_radial_laplacian(grid)
            for got, ref in zip((op._lower, op._diag, op._upper), loop_assembly(grid)):
                assert got.tobytes() == ref.tobytes()

    def test_constants_annihilated(self):
        for dim in (1, 2, 3, 8, 40):
            g = RadialGrid.uniform(dim, 64)
            op = assemble_radial_laplacian(g)
            out = op.apply(np.full(65, 3.5))
            # the cancellation is exact up to roundoff on the row scale
            row_scale = float(np.abs(op.to_dense()).max())
            assert np.abs(out[:-1]).max() < 1e-14 * 3.5 * row_scale
            assert out[-1] == pytest.approx(3.5)

    def test_quadratic_reproduced_exactly_low_dim(self):
        # -Lap(1 - r^2) = 2 dim; pure central rows are exact on quadratics
        for dim in (1, 2, 3):
            g = RadialGrid.uniform(dim, 64)
            out = assemble_radial_laplacian(g).apply(1.0 - g.nodes**2)
            assert np.abs(out[:-1] - 2.0 * dim).max() < 1e-10

    def test_quadratic_exact_on_nonuniform_nodes(self):
        g = RadialGrid(3, boundary_graded_nodes(64))
        out = assemble_radial_laplacian(g).apply(1.0 - g.nodes**2)
        assert np.abs(out[:-1] - 6.0).max() < 1e-10

    def test_quadratic_exact_away_from_axis_high_dim(self):
        # near the axis the monotone flux rows trade pointwise accuracy
        # for inverse positivity; central rows further out stay exact
        dim, m = 8, 64
        g = RadialGrid.uniform(dim, m)
        out = assemble_radial_laplacian(g).apply(1.0 - g.nodes**2)
        central = g.nodes[1:-1] > (dim - 1.0) / (2.0 * m) + 1e-12
        assert np.abs(out[1:-1][central] - 2.0 * dim).max() < 1e-10

    def test_inverse_positivity(self):
        for dim, m in ((3, 32), (8, 48), (20, 32), (40, 32)):
            g = RadialGrid.uniform(dim, m)
            dense = assemble_radial_laplacian(g).to_dense()
            inv = np.linalg.inv(dense)
            assert inv.min() >= -1e-12 * np.abs(inv).max()

    def test_solve_nonnegative_for_random_sources(self):
        rng = np.random.default_rng(2)
        for dim in (1, 3, 8, 20, 40):
            g = RadialGrid.uniform(dim, 64)
            op = assemble_radial_laplacian(g)
            for _ in range(5):
                f = rng.uniform(0.0, 1.0, size=65)
                sol = op.solve_dirichlet(f)
                assert sol.min() >= -1e-12 * max(1.0, sol.max())
                assert sol[-1] == 0.0

    def test_manufactured_solution_second_order(self):
        # w = (1 - r^2)^2 solves -Lap w = 4 dim - (8 + 4 dim) r^2
        for dim in (3, 8, 40):
            errs = []
            for m in (64, 128, 256):
                g = RadialGrid.uniform(dim, m)
                op = assemble_radial_laplacian(g)
                f = 4.0 * dim - (8.0 + 4.0 * dim) * g.nodes**2
                w = op.solve_dirichlet(f)
                errs.append(float(np.abs(w - (1.0 - g.nodes**2) ** 2).max()))
            rate = math.log2(errs[0] / errs[1])
            assert 1.7 < rate < 2.3
            rate = math.log2(errs[1] / errs[2])
            assert 1.7 < rate < 2.3

    def test_apply_matches_dense(self):
        g = RadialGrid.uniform(5, 48)
        op = assemble_radial_laplacian(g)
        rng = np.random.default_rng(9)
        w = rng.standard_normal(49)
        assert np.allclose(op.apply(w), op.to_dense() @ w, atol=1e-12)


class TestSolveMinimal:
    def test_linear_regime_sup_value(self):
        # for tiny loads u ~ lam (1 - r^2) / (2 dim), quadratics exact
        g = RadialGrid.uniform(3, 128)
        res = solve_minimal(PAIR22, 1e-6, 1e-6, g)
        assert res.converged
        assert res.state[0].max() == pytest.approx(1e-6 / 6.0, rel=1e-2)
        assert res.state[1].max() == pytest.approx(1e-6 / 6.0, rel=1e-2)

    def test_iterates_increase_to_fixed_point(self):
        g = RadialGrid.uniform(3, 64)
        res = solve_minimal(PAIR22, 1.0, 1.0, g)
        assert res.converged
        u, v = res.state
        assert u.min() >= 0.0 and v.min() >= 0.0
        assert u[-1] == 0.0 and v[-1] == 0.0
        # fixed point: u = A^-1 lam (v+1)^p at solver tolerance
        op = assemble_radial_laplacian(g)
        forced = op.solve_dirichlet(1.0 * (v + 1.0) ** 2)
        assert np.abs(forced - u).max() < 1e-8

    @pytest.mark.parametrize("lam, converged, iterations", [(1.0, True, 4), (5.0, False, 2)])
    def test_returns_the_trial_record(self, lam, converged, iterations):
        g = RadialGrid.uniform(3, 64)
        trial = solve_minimal(PAIR22, lam, 0.5 * lam, g)
        assert isinstance(trial, radial.Trial)
        assert (trial.lam, trial.gam) == (lam, 0.5 * lam)
        assert trial.chosen_by is None and trial.mu1 is None
        assert (trial.converged, trial.iterations) == (converged, iterations)

    def test_trial_is_exported(self):
        assert exle.Trial is radial.Trial
        assert "Trial" in exle.__all__ and "MonotoneResult" not in exle.__all__

    def test_divergence_past_fold(self):
        g = RadialGrid.uniform(3, 64)
        res = solve_minimal(PAIR22, 5.0, 5.0, g)
        assert not res.converged
        assert res.state is None

    def test_load_validation(self):
        g = RadialGrid.uniform(3, 64)
        for lam, gam in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="must be positive and finite"):
                solve_minimal(PAIR22, lam, gam, g)
        tiny = sys.float_info.min
        for lam, gam in ((5e-324, 1.0), (1.0, tiny / 2.0)):
            with pytest.raises(DomainError, match="must be at least"):
                solve_minimal(PAIR22, lam, gam, g)
        assert solve_minimal(PAIR22, tiny, tiny, g).converged

    def test_component_swap_symmetry(self):
        # solving with (theta, p) and swapped loads exchanges the roles
        # of u and v at the shared fixed point
        g = RadialGrid.uniform(3, 64)
        fwd = solve_minimal(ExponentPair(2.0, 3.0), 0.7, 1.1, g)
        rev = solve_minimal(ExponentPair(3.0, 2.0), 1.1, 0.7, g)
        assert fwd.converged and rev.converged
        assert np.abs(fwd.state[0] - rev.state[1]).max() < 1e-7
        assert np.abs(fwd.state[1] - rev.state[0]).max() < 1e-7

    def test_warm_start_reaches_same_solution(self):
        g = RadialGrid.uniform(3, 64)
        cold = solve_minimal(PAIR22, 1.5, 1.5, g)
        lower = solve_minimal(PAIR22, 1.0, 1.0, g)
        warm = solve_minimal(PAIR22, 1.5, 1.5, g, seed=lower.state)
        assert warm.converged
        assert warm.iterations <= cold.iterations
        assert np.abs(warm.state[0] - cold.state[0]).max() < 1e-8

    def test_overflowing_step_past_fold_certifies(self):
        # Seeded from the solution at a = 2.468662109375 on the singular ray,
        # the step at this load has a max of 1.2e16; a slack of -1e-9 times
        # that let a -2.6e6 step pass, v fell below -1, and the next Picard
        # source was nan, which scipy rejected with ValueError.
        e = ExponentPair(1.01, 20.0)
        sigma = 8.694929803671808
        g = RadialGrid.uniform(14, 16384)
        a = 2.468662109375
        below = solve_minimal(e, a, sigma * a, g)
        assert below.converged
        lam = 2.777244873046875
        res = solve_minimal(e, lam, sigma * lam, g, seed=below.state)
        assert not res.converged
        assert res.state is None


class TestStabilityMu1:
    def test_matches_dense_eigensolver(self):
        # At N = 20 the rows with r < 9.5 h take the flux form; the N = 5
        # grid is graded towards the boundary.
        for pair, g, lam, sigma in (
            (PAIR22, RadialGrid.uniform(3, 64), 1.0, 1.0),
            (ExponentPair(1.5, 4.0), RadialGrid.uniform(20, 64), 0.5, 32.0 / 17.0),
            (ExponentPair(2.0, 3.0), RadialGrid(5, boundary_graded_nodes(80)), 0.3, 1.0),
        ):
            gam = sigma * lam
            op = g.laplacian
            res = solve_minimal(pair, lam, gam, g)
            mu = stability_mu1(pair, res.state, lam, gam, g)
            u, v = res.state
            w = np.sqrt(
                lam * gam * pair.p * pair.theta
                * (v + 1.0) ** (pair.p - 1.0) * (u + 1.0) ** (pair.theta - 1.0)
            )
            w[-1] = 0.0
            inv = np.linalg.inv(op.to_dense())
            rho = np.max(np.abs(scipy.linalg.eigvals(inv * w[None, :])))
            assert mu == pytest.approx(1.0 / float(rho), rel=1e-10)

    def test_strictly_decreasing_along_asymmetric_ray(self):
        g = RadialGrid.uniform(20, 256)
        branch = continue_ray(ExponentPair(1.5, 4.0), 32.0 / 17.0, g)
        mus = [pt.mu1 for pt in branch.points]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_interval_closed_form(self):
        # dim 1 with near-zero state: -w'' = mu c w, w'(0)=0, w(1)=0
        # gives mu c = (pi/2)^2 with c = sqrt(lam gam p theta)
        g = RadialGrid.uniform(1, 256)
        res = solve_minimal(PAIR22, 1e-8, 1e-8, g)
        mu = stability_mu1(PAIR22, res.state, 1e-8, 1e-8, g)
        assert mu * 2e-8 == pytest.approx(math.pi**2 / 4.0, rel=1e-4)

    def test_large_for_tiny_loads(self):
        g = RadialGrid.uniform(3, 64)
        res = solve_minimal(PAIR22, 1e-6, 1e-6, g)
        mu = stability_mu1(PAIR22, res.state, 1e-6, 1e-6, g)
        assert mu > 1e3


class TestContinuation:
    def test_config_validation(self):
        g = RadialGrid.uniform(3, 64)
        for bad in (0.0, -1e-4, math.nan):
            with pytest.raises(ConfigurationError, match="bracket_tol must be positive"):
                continue_ray(PAIR22, 1.0, g, bracket_tol=bad)

    def test_newton_solves_have_no_tolerance_knob(self):
        # solve_minimal stops at its own roundoff, the fold solve at sqrt(eps),
        # and the trial budget is radial._TRIAL_BUDGET: no public radial
        # signature takes tol, config or max_steps, and bracket_tol is the
        # one keyword of continue_ray.
        public = [getattr(radial, name) for name in exle._SUBMODULES["radial"]]
        for fn in public + [radial._fold_newton]:
            params = set(inspect.signature(fn).parameters)
            assert not {"tol", "config", "max_steps"} & params, fn.__name__
        params = inspect.signature(continue_ray).parameters
        assert list(params) == ["e", "sigma", "grid", "bracket_tol"]
        assert params["bracket_tol"].kind is inspect.Parameter.KEYWORD_ONLY
        assert not hasattr(radial, "ContinuationConfig")
        assert len(exle.__all__) == 35

    def test_sigma_validation(self):
        g = RadialGrid.uniform(3, 64)
        with pytest.raises(DomainError):
            continue_ray(PAIR22, 0.0, g)

    def test_real_dimension_reaches_a_closed_bracket(self):
        # N = 12.5 runs as 12.5: its bracket closes strictly between the
        # folds of N = 12 and N = 13, which rise with N on this ray.
        branches = [
            continue_ray(PAIR22, 1.0, RadialGrid.uniform(dim, 128)) for dim in (12, 12.5, 13)
        ]
        assert all(b.bracket_rel_width <= 1e-4 for b in branches)
        (_, hi_12), (lo, hi), (lo_13, _) = ((b.lambda_lo, b.lambda_hi) for b in branches)
        assert hi_12 < lo < hi < lo_13

    def test_branch_structure_and_bracket(self):
        g = RadialGrid.uniform(3, 64)
        branch = continue_ray(PAIR22, 1.0, g)
        # the first walk load and two certification loads below the fold
        assert len(branch.points) >= 3
        lams = [pt.lam for pt in branch.points]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        sups = [pt.state[0].max() for pt in branch.points]
        assert all(b >= a for a, b in zip(sups, sups[1:]))
        assert branch.lambda_hi is not None
        assert branch.lambda_lo == pytest.approx(lams[-1])
        assert branch.lambda_lo < branch.lambda_hi
        assert branch.bracket_rel_width <= 1e-4
        # coarse-grid fold location for the symmetric pair on the ball
        assert 2.2 < branch.lambda_lo < 2.5
        assert branch.mu1_min >= 1.0 - 1e-6
        mus = [pt.mu1 for pt in branch.points]
        assert all(b <= a + 1e-8 for a, b in zip(mus, mus[1:]))
        for pt in branch.points:
            assert pt.gam == pytest.approx(pt.lam)

    def test_logs_the_records_solve_minimal_returns(self, monkeypatch):
        returned = []
        solve = radial.solve_minimal

        def recording(*args, **kwargs):
            returned.append(solve(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(radial, "solve_minimal", recording)
        branch = continue_ray(PAIR22, 1.5, RadialGrid.uniform(3, 64))
        assert len(branch.trials) == len(returned) >= 4
        for logged, record in zip(branch.trials, returned):
            assert (logged.lam, logged.gam, logged.iterations) == (
                record.lam, record.gam, record.iterations
            )
            assert logged.state is record.state
            assert logged.chosen_by in ("walk", "predictor", "bisection")
            assert (logged.mu1 is None) == (logged.state is None)

    def test_sigma_scales_the_ray(self):
        g = RadialGrid.uniform(3, 64)
        branch = continue_ray(PAIR22, 2.0, g)
        for pt in branch.points:
            assert pt.gam == pytest.approx(2.0 * pt.lam)

    def test_budget_error_carries_partial_branch(self, monkeypatch):
        # One trial leaves the bracket open; after three, the walk's failed
        # load closes it and the first certification load has a solution.
        g = RadialGrid.uniform(3, 64)
        for steps, points in ((1, 1), (3, 2)):
            monkeypatch.setattr(radial, "_TRIAL_BUDGET", steps)
            with pytest.raises(BudgetError) as info:
                continue_ray(PAIR22, 1.0, g)
            partial = info.value.partial
            assert isinstance(partial, Branch)
            assert len(partial.trials) == steps
            assert len(partial.points) == points
            first = partial.trials[0].lam
            assert partial.lambda_hi == (None if steps == 1 else 2.0 * first)

    def test_tight_bracket_sits_at_the_fold(self):
        # mu1 tends to 1 at the fold, so the eigensolver independently
        # checks that a tight bracket sits there and not below it.
        g = RadialGrid.uniform(3, 256)
        branch = continue_ray(PAIR22, 1.0, g, bracket_tol=1e-8)
        assert branch.bracket_rel_width <= 1e-8
        assert 1.0 - 1e-6 <= branch.mu1_min <= 1.0 + 3e-4

    def test_bisection_stops_at_adjacent_floats(self, monkeypatch):
        # Below roundoff the midpoint equals an end; retrying an end from a
        # newer seed could accept a load already certified to have no solution.
        trials = []
        solve = radial.solve_minimal

        def recording(e, lam, gam, grid, **kwargs):
            trials.append(lam)
            return solve(e, lam, gam, grid, **kwargs)

        monkeypatch.setattr(radial, "solve_minimal", recording)
        branch = continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64), bracket_tol=1e-300)
        assert branch.lambda_lo < branch.lambda_hi
        assert np.nextafter(branch.lambda_lo, math.inf) == branch.lambda_hi
        assert len(set(trials)) == len(trials)

    def test_loads_ulps_apart_seed_from_the_last_state(self, monkeypatch):
        # A fold predicted 5e-5 low: at bracket_tol 1e-300 the certification
        # loads are one eps apart and all converge, and the secant through
        # the last two (t ~ 1e11) seeded the bisection with a state that is
        # no subsolution (NumericalError).
        g = RadialGrid.uniform(3, 64)
        exact = continue_ray(PAIR22, 1.0, g, bracket_tol=1e-300)
        fold = radial._fold_newton
        monkeypatch.setattr(
            radial, "_fold_newton", lambda *args: (fold(*args)[0] * (1.0 - 5e-5), 5)
        )
        branch = continue_ray(PAIR22, 1.0, g, bracket_tol=1e-300)
        chosen = [t.chosen_by for t in branch.trials]
        assert chosen[:5] == ["walk"] * 2 + ["predictor"] * 3
        assert all(t.converged for t in branch.trials[2:5])
        assert set(chosen[5:]) == {"bisection"}
        assert branch.lambda_fold is None
        assert np.nextafter(branch.lambda_lo, math.inf) == branch.lambda_hi
        assert branch.lambda_lo == pytest.approx(exact.lambda_lo, rel=1e-14)

    @pytest.mark.parametrize(
        "pair, sigma, dim, m",
        [
            (PAIR22, 1.0, 3, 256),
            (ExponentPair(1.5, 4.0), 32.0 / 17.0, 20, 512),
            # the singular ray sigma = b/a of (1.01, 20) at N = 14
            (ExponentPair(1.01, 20.0), 8.694929803671808, 14, 1024),
        ],
    )
    def test_secant_seeds_are_subsolutions(self, monkeypatch, pair, sigma, dim, m):
        # -Lap z <= F(z) row by row, up to the roundoff of applying -Lap.
        seeds = []
        solve = radial.solve_minimal

        def recording(e, lam, gam, grid, **kwargs):
            if kwargs["seed"] is not None:
                seeds.append((lam, gam, kwargs["seed"]))
            return solve(e, lam, gam, grid, **kwargs)

        monkeypatch.setattr(radial, "solve_minimal", recording)
        g = RadialGrid.uniform(dim, m)
        branch = continue_ray(pair, sigma, g, bracket_tol=1e-8)
        # every trial after the first accepted point is seeded, and checked below
        first = next(i for i, t in enumerate(branch.trials) if t.converged)
        assert [lam for lam, _, _ in seeds] == [t.lam for t in branch.trials[first + 1 :]]
        op = assemble_radial_laplacian(g)
        size = np.abs(op.to_dense())
        eps = np.finfo(float).eps
        for lam, gam, z in seeds:
            for w, f in ((z[0], lam * (z[1] + 1.0) ** pair.p), (z[1], gam * (z[0] + 1.0) ** pair.theta)):
                excess = (op.apply(w) - f)[:-1]
                roundoff = 64.0 * eps * (size @ np.abs(w) + f)[:-1]
                assert np.all(excess <= roundoff), (lam, float(np.max(excess / roundoff)))

    def test_graded_grid_reaches_a_tight_bracket(self):
        # Next to the fold the Newton correction drifted past d >= 0 while
        # the Picard step was already at roundoff.
        g = RadialGrid(20, np.linspace(0.0, 1.0, 513) ** 1.5)
        continue_ray(
            ExponentPair(1.5, 4.0), 32.0 / 17.0, g, bracket_tol=1e-9
        )

    @pytest.mark.parametrize(
        "pair, sigma, dim, m, cfg",
        [
            (PAIR22, 1.0, 3, 256, {}),
            (ExponentPair(1.5, 4.0), 32.0 / 17.0, 20, 256, {}),
            (PAIR22, 1.0, 3, 64, {"bracket_tol": 1e-12}),
            (ExponentPair(1.01, 20.0), 8.336866576787306, 12, 512, {"bracket_tol": 1e-8}),
            (ExponentPair(1.5, 4.0), 32.0 / 17.0, 12, 256, {"bracket_tol": 1e-12}),
            (PAIR22, 1.0, 16, 256, {}),
            (ExponentPair(3.0, 1.2), 0.5, 5, 256, {}),
        ],
        ids=["p2-N3", "p1.5-N20", "p2-N3-tight", "p1.01-N12", "p1.5-N12-tight", "p2-N16",
             "p3-N5"],
    )
    def test_accepted_states_meet_a_residual_bound(self, pair, sigma, dim, m, cfg):
        # Every accepted state solves the discrete system to roundoff:
        # max |-Lap w - F(w)| <= n eps max(|Lap| |w| + |F|), with -Lap and F
        # formed apart from the solver, in long double.
        g = RadialGrid.uniform(dim, m)
        branch = continue_ray(pair, sigma, g, **cfg)
        lap = g.laplacian.to_dense().astype(np.longdouble)
        n = m + 1
        for pt in branch.points:
            w = pt.state.astype(np.longdouble)
            load = np.array([[pt.lam], [pt.gam]], dtype=np.longdouble)
            expo = np.array([[pair.p], [pair.theta]], dtype=np.longdouble)
            f = load * np.power(1 + w[::-1], expo)
            residual = (w @ lap.T - f)[:, :-1]
            size = (np.abs(w) @ np.abs(lap).T + f)[:, :-1]
            ratio = float(np.max(np.abs(residual)) / np.max(size))
            assert ratio <= n * np.finfo(float).eps, (pt.lam, ratio / (n * np.finfo(float).eps))

    @pytest.mark.parametrize(
        "pair, dim",
        [(PAIR22, 3), (ExponentPair(1.5, 4.0), 3), (ExponentPair(1.5, 4.0), 10), (PAIR22, 10)],
    )
    def test_fold_lies_in_the_bisection_bracket(self, monkeypatch, pair, dim):
        g = RadialGrid.uniform(dim, 256)
        branch = continue_ray(pair, 1.0, g, bracket_tol=1e-12)
        assert branch.lambda_fold is not None
        assert branch.lambda_lo < branch.lambda_fold < branch.lambda_hi
        monkeypatch.setattr(radial, "_fold_newton", lambda *args: (None, 0))
        bisected = continue_ray(pair, 1.0, g, bracket_tol=1e-12)
        assert bisected.lambda_fold is None
        assert bisected.bracket_rel_width <= 1e-12
        assert bisected.lambda_lo <= branch.lambda_fold <= bisected.lambda_hi
        assert len(branch.trials) < len(bisected.trials)

    def test_trial_log(self):
        g = RadialGrid.uniform(3, 256)
        branch = continue_ray(PAIR22, 1.0, g)
        trials = branch.trials
        assert [t.lam for t in trials if t.converged] == [pt.lam for pt in branch.points]
        assert [t.iterations for t in trials if t.converged] == [
            pt.iterations for pt in branch.points
        ]
        assert min(t.lam for t in trials if not t.converged) == branch.lambda_hi
        # the torsion load and its double, which has no solution, then the
        # three certification loads around the Moore-Spence fold
        assert [t.chosen_by for t in trials] == ["walk"] * 2 + ["predictor"] * 3
        assert [t.converged for t in trials] == [True, False, True, True, False]
        # (p-1)^(p-1) / p^p = 1/4 over max psi = 1/(2N)
        assert trials[0].lam == pytest.approx(1.5, rel=1e-13)
        assert trials[1].lam == 2.0 * trials[0].lam
        assert 0 < branch.fold_iterations <= radial._FOLD_BUDGET
        fold = branch.lambda_fold
        eps = 1e-4 / 8.0
        assert trials[-3].lam == fold * (1.0 - 8.0 * eps)
        assert (branch.lambda_lo, branch.lambda_hi) == (fold * (1.0 - eps), fold * (1.0 + eps))

    def test_contradicted_prediction_falls_back_to_bisection(self, monkeypatch):
        # A predicted fold 4 eps too low: lam_f (1 + eps), expected to have
        # no solution, has one, and the loop bisects the bracket it holds.
        g = RadialGrid.uniform(3, 64)
        exact = continue_ray(PAIR22, 1.0, g, bracket_tol=1e-10)
        fold = radial._fold_newton
        monkeypatch.setattr(
            radial, "_fold_newton", lambda *args: (fold(*args)[0] * (1.0 - 4.0 * 1e-4 / 8.0), 7)
        )
        branch = continue_ray(PAIR22, 1.0, g)
        assert branch.lambda_fold is None
        assert branch.fold_iterations == 7
        chosen = [t.chosen_by for t in branch.trials]
        assert chosen[:5] == ["walk"] * 2 + ["predictor"] * 3
        assert all(t.converged for t in branch.trials[2:5])
        assert len(chosen) > 5 and set(chosen[5:]) == {"bisection"}
        assert branch.bracket_rel_width <= 1e-4
        assert branch.lambda_lo <= exact.lambda_lo < exact.lambda_hi <= branch.lambda_hi

    def test_first_load_without_a_solution_raises(self, monkeypatch):
        # The first load is certified to have a solution; failing there is
        # no bracket end, and the walk never goes below it.
        monkeypatch.setattr(radial, "_torsion_load", lambda *args: 3.0)
        with pytest.raises(NumericalError, match="torsion"):
            continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64))

    def test_walk_bracket_within_tolerance_skips_the_fold_solve(self):
        # the walk ends on a bracket one doubling wide
        branch = continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64), bracket_tol=1.0)
        assert [t.chosen_by for t in branch.trials] == ["walk"] * 2
        assert branch.bracket_rel_width == pytest.approx(1.0)
        assert branch.fold_iterations == 0
        assert branch.lambda_fold is None

    def test_certification_load_below_the_bracket_falls_back_to_bisection(self):
        # lam_f (1 - 8 eps) = 0.6 * 2.343 with eps = 0.4 / 8 lies below
        # lambda_lo = 1.5, the torsion load.
        branch = continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64), bracket_tol=0.4)
        assert [t.chosen_by for t in branch.trials] == ["walk"] * 2 + ["bisection"]
        assert branch.fold_iterations == 6
        assert branch.lambda_fold is None
        assert branch.bracket_rel_width <= 0.4

    def test_certification_stops_once_the_bracket_is_narrow(self):
        # lam_f (1 - eps) with eps = 0.35 / 8 lies within 0.35 of the walk's
        # failed load 1.28 lam_f, so the third certification load is not tried.
        branch = continue_ray(PAIR22, 0.5, RadialGrid.uniform(3, 64), bracket_tol=0.35)
        trials = branch.trials
        assert [t.chosen_by for t in trials] == ["walk"] * 2 + ["predictor"] * 2
        assert all(t.converged for t in trials[2:])
        assert branch.bracket_rel_width == pytest.approx(0.3394, abs=1e-4)
        assert branch.lambda_fold == 3.287819028635436
        assert branch.fold_iterations == 6

    def test_secant_seeds_save_newton_iterations(self):
        # 76 iterations when each trial was seeded with the last accepted state.
        g = RadialGrid.uniform(3, 256)
        branch = continue_ray(PAIR22, 1.0, g)
        assert sum(pt.iterations for pt in branch.points) < 76

    def test_newton_budget_exhaustion_never_sets_lambda_hi(self, monkeypatch):
        monkeypatch.setattr(radial, "_NEWTON_BUDGET", 1)
        with pytest.raises(BudgetError) as info:
            continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64))
        partial = info.value.partial
        assert isinstance(partial, Branch)
        assert partial.lambda_hi is None


@settings(max_examples=20, deadline=None)
@given(
    pair=st.sampled_from([(2.0, 2.0), (1.5, 4.0)]),
    dim=st.sampled_from([3, 10]),
    sigma=st.floats(0.3, 3.0),
    bracket_tol=st.sampled_from([1e-8, 1e-4, 0.05, 0.3, 2.0]),
    max_steps=st.sampled_from([3, 8, 14, 200]),
)
def test_continuation_phases_and_certified_bracket(pair, dim, sigma, bracket_tol, max_steps):
    grid = RadialGrid.uniform(dim, 32)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(radial, "_TRIAL_BUDGET", max_steps)
            branch = continue_ray(ExponentPair(*pair), sigma, grid, bracket_tol=bracket_tol)
        finished = True
    except BudgetError as exc:
        branch, finished = exc.partial, False
    # walk, then at most three certification loads, then bisection
    phases = " ".join(t.chosen_by for t in branch.trials)
    assert re.fullmatch(r"walk( walk)*( predictor){0,3}( bisection)*", phases), phases
    # a full or partial branch: increasing loads, nondecreasing states,
    # and bracket ends read from the trials
    points = branch.points
    assert all(a.lam < b.lam for a, b in zip(points, points[1:]))
    for a, b in zip(points, points[1:]):
        assert np.all(b.state >= a.state)
    assert branch.lambda_lo == (points[-1].lam if points else None)
    failed = [t.lam for t in branch.trials if not t.converged]
    assert branch.lambda_hi == (min(failed) if failed else None)
    assert all(math.isfinite(pt.mu1) for pt in points)
    assert len(branch.trials) <= max_steps
    if not finished:
        return
    lo, hi = branch.lambda_lo, branch.lambda_hi
    assert all(t.lam <= lo for t in branch.trials if t.converged)
    assert all(t.lam >= hi for t in branch.trials if not t.converged)
    assert hi - lo <= bracket_tol * lo or math.nextafter(lo, math.inf) == hi


def eigen_load_bound(p, theta, sigma, grid):
    """Lambda1 / sqrt(sigma k_p k_theta), above every load with a discrete solution.

    With phi the left Perron vector of -Lap on the nodes 0..M-1 and
    (1+v)^c > k_c v, k_c = c^c / (c-1)^(c-1) (k_1 = 1), a solution has
    Lambda1 phi.u > lam k_p phi.v and Lambda1 phi.v > gam k_theta phi.u.
    Lambda1 comes from a dense LAPACK eigen-solve, not from _cyclic.
    """
    lap1 = float(np.min(np.linalg.eigvals(grid.laplacian.to_dense()[:-1, :-1]).real))
    k_p, k_theta = (c ** c / (c - 1.0) ** (c - 1.0) for c in (p, theta))
    return lap1 / math.sqrt(sigma * k_p * k_theta)


@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(1.0, 6.0),
    theta=st.floats(1.0, 6.0),
    log_sigma=st.floats(-1.0, 1.0),
    dim=st.integers(1, 20),
    m=st.sampled_from([32, 64]),
)
def test_every_solution_lies_below_the_eigen_bound(p, theta, log_sigma, dim, m):
    # An independent check of every converged trial and of the fold solve:
    # near p = theta = 1 the fold comes within 1e-4 of the bound.
    assume(p * theta > 1.0)
    sigma = 10.0**log_sigma
    grid = RadialGrid.uniform(dim, m)
    branch = continue_ray(ExponentPair(p, theta), sigma, grid)
    bound = eigen_load_bound(p, theta, sigma, grid)
    assert all(pt.lam < bound for pt in branch.points)
    assert branch.lambda_fold is None or branch.lambda_fold < bound



def tangent_point(p, theta, sigma):
    """(t, s, log X) where t = X (1+s)^p and s = sigma X (1+t)^theta touch.

    Parametrized by x = (p theta - 1) t - 1 > 0, on which the tangency
    p theta t s = (1+t)(1+s) gives s = (1+t) / x; brentq then matches
    the two expressions for log X.
    """
    k = p * theta - 1.0

    def ts(log_x):
        t = (1.0 + math.exp(log_x)) / k
        return t, (1.0 + t) / math.exp(log_x)

    def mismatch(log_x):
        t, s = ts(log_x)
        return (math.log(s) + p * math.log1p(s)) - (math.log(sigma) + math.log(t) + theta * math.log1p(t))

    t, s = ts(scipy.optimize.brentq(mismatch, -60.0, 60.0, xtol=1e-15, rtol=4.0 * np.finfo(float).eps))
    return t, s, math.log(t) - p * math.log1p(s)


def dense_torsion(grid):
    """psi with -Lap psi = 1, by a dense LAPACK solve."""
    rhs = np.ones(grid.m + 1)
    rhs[-1] = 0.0
    return np.linalg.solve(grid.laplacian.to_dense(), rhs)


class TestTorsionLoad:
    """continue_ray's first trial load, against independent computations."""

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(1.0, 1.3e154),
        theta=st.floats(1.0, 1.3e154),
        log_sigma=st.floats(-100.0, 100.0),
        dim=st.integers(1, 40),
    )
    def test_finite_and_positive_over_the_domain(self, p, theta, log_sigma, dim):
        # Every ExponentPair.  sigma is bounded: with p = 1e65 and
        # sigma = 1e261 the load itself is about 1e-327, below every float.
        if min(p, theta) > 2.0**58 or p * theta <= 1.0:
            return
        grid = RadialGrid.uniform(dim, 16)
        lam = radial._torsion_load(ExponentPair(p, theta), 10.0**log_sigma, grid)
        assert math.isfinite(lam) and lam > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(1.0, 2.0**58, exclude_min=True),
        dim=st.integers(1, 40),
        m=st.integers(16, 512),
    )
    def test_symmetric_ray_closed_form(self, p, dim, m):
        # X = (p-1)^(p-1) / p^p, in logs: (p-1) log(1 - 1/p) - log p
        grid = RadialGrid.uniform(dim, m)
        lam = radial._torsion_load(ExponentPair(p, p), 1.0, grid)
        x = math.exp((p - 1.0) * math.log1p(-1.0 / p) - math.log(p))
        if dim <= 3:
            # No flux-form rows: the grid reproduces psi = (1 - r^2) / (2N),
            # and -Lap is solved accurately entry by entry.
            assert x / lam == pytest.approx(1.0 / (2.0 * dim), rel=1e-12)
        # a dense solve carries the condition number of -Lap, about m^2
        big_m = float(np.max(dense_torsion(grid)))
        assert lam * big_m == pytest.approx(x, rel=4.0 * m * m * np.finfo(float).eps)

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.floats(1.05, 10.0),
        theta=st.floats(1.05, 10.0),
        log_sigma=st.floats(-1.0, 1.0),
        dim=st.integers(1, 20),
        m=st.integers(16, 256),
    )
    def test_minimal_solution_lies_below_the_supersolution(self, p, theta, log_sigma, dim, m):
        sigma = 10.0**log_sigma
        grid = RadialGrid.uniform(dim, m)
        e = ExponentPair(p, theta)
        lam = radial._torsion_load(e, sigma, grid)
        psi = dense_torsion(grid)
        big_m = float(np.max(psi))
        t, s, log_x = tangent_point(p, theta, sigma)
        assert lam * big_m == pytest.approx(math.exp(log_x), rel=1e-9)
        res = solve_minimal(e, lam, sigma * lam, grid)
        assert res.converged
        slack = 1e-9 * max(t, s)
        assert np.all(res.state[0] <= t * psi / big_m + slack)
        assert np.all(res.state[1] <= s * psi / big_m + slack)

def grid_of(dim, m, kind):
    if kind == "uniform":
        return RadialGrid.uniform(dim, m)
    return RadialGrid(dim, boundary_graded_nodes(m))


def dense_jacobian(op, fu, fv):
    """J on interleaved (u0, v0, u1, ...), built from the dense operator."""
    jac = np.kron(op.to_dense(), np.eye(2))
    m = op._diag.size - 1
    jac[2 * np.arange(m), 2 * np.arange(m) + 1] -= fu[:-1]
    jac[2 * np.arange(m) + 1, 2 * np.arange(m)] -= fv[:-1]
    return jac


def coupling(pair, lam, gam, state):
    fu = lam * pair.p * (state[1] + 1.0) ** (pair.p - 1.0)
    fv = gam * pair.theta * (state[0] + 1.0) ** (pair.theta - 1.0)
    return fu, fv


def nonnegative_data(rng, shape):
    """Nonnegative entries over 300 decades, with some exact zeros."""
    data = np.exp(rng.uniform(-700.0, 0.0, shape)) * (rng.uniform(size=shape) > 0.1)
    data[..., -1] = 0.0
    return data


class TestCyclicReduction:
    """The numpy kernels against dense LAPACK solves and eigenvalues."""

    @pytest.mark.parametrize("kind", ("uniform", "graded"))
    @pytest.mark.parametrize("m", (16, 17, 1024))
    @pytest.mark.parametrize("dim", DIMS)
    def test_solves_match_dense(self, dim, m, kind):
        g = grid_of(dim, m, kind)
        op = g.laplacian
        rng = np.random.default_rng(dim * m)
        f = rng.standard_normal(m + 1)
        f[-1] = 0.0
        ref = np.linalg.solve(op.to_dense(), f)
        assert np.abs(op.solve_dirichlet(f) - ref).max() <= 1e-10 * np.abs(ref).max()
        # the Jacobian at a state well below the fold of every dimension
        res = solve_minimal(PAIR22, 0.25, 0.25, g)
        fu, fv = coupling(PAIR22, 0.25, 0.25, res.state)
        rhs = rng.standard_normal((2, m + 1))
        rhs[:, -1] = 0.0
        got = _cyclic.solve_block_tridiagonal(*op.jacobian(np.stack((fu, fv))), rhs)
        ref = np.linalg.solve(dense_jacobian(op, fu, fv), rhs.T.ravel()).reshape(-1, 2).T
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 25),
        m=st.integers(16, 600),
        with_rowsum=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_solve_bit_for_bit_alone(self, dim, m, with_rowsum, seed):
        # Tridiagonal.solve on (2, n) is its two 1-D solves, bit for bit
        op = RadialGrid.uniform(dim, m).laplacian
        rowsum = np.zeros(m + 1)
        rowsum[-1] = 1.0
        factors = _cyclic.Tridiagonal(
            op._lower, op._diag, op._upper, rowsum if with_rowsum else None
        )
        rhs = np.random.default_rng(seed).standard_normal((2, m + 1))
        got = factors.solve(rhs)
        assert got.shape == rhs.shape
        for row in range(2):
            assert np.array_equal(got[row], factors.solve(rhs[row].copy()))

    def test_each_row_keeps_its_own_floor(self, monkeypatch):
        # Row 1 (sup 1/6) dips to -1e-9: below its own floor -1e-12, above
        # the floor -1.7e-6 that the sup 1.7e6 of row 0 would set.
        op = RadialGrid.uniform(3, 64).laplacian
        real = op._factors.solve

        def dip(rhs):
            sol = real(rhs)
            sol[1, 3] = -1e-9
            return sol

        monkeypatch.setattr(op._factors, "solve", dip)
        f = np.ones((2, 65))
        f[0] *= 1e7
        with pytest.raises(NumericalError, match="maximum principle violated: min -1.000e-09"):
            op.solve_dirichlet(f)
        # a row with negative data is not checked
        f[1, 0] = -1.0
        assert op.solve_dirichlet(f)[1, 3] == -1e-9

    @pytest.mark.parametrize("kind", ("uniform", "graded"))
    @pytest.mark.parametrize("dim", DIMS)
    def test_jacobian_matches_dense(self, dim, kind):
        g = grid_of(dim, 40, kind)
        op = g.laplacian
        c = np.random.default_rng(dim).uniform(0.0, 5.0, (2, 41))
        lower, diag, upper = op.jacobian(c)
        dense = np.zeros((82, 82))
        for i in range(41):
            dense[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = diag[..., i]
            if i > 0:
                dense[2 * i : 2 * i + 2, 2 * i - 2 : 2 * i] = lower[..., i]
            if i < 40:
                dense[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = upper[..., i]
        assert np.array_equal(dense, dense_jacobian(op, c[0], c[1]))
        # the operator's own blocks are left as they were
        assert np.array_equal(op.jacobian(np.zeros((2, 41)))[1][0, 1], np.zeros(41))

    @pytest.mark.parametrize("dim", DIMS)
    def test_many_right_hand_sides(self, dim):
        # each column of a (2, r, n) solve is bit for bit its own (2, n) solve
        g = grid_of(dim, 300, "graded")
        op = g.laplacian
        res = solve_minimal(PAIR22, 0.25, 0.25, g)
        blocks = op.jacobian(np.stack(coupling(PAIR22, 0.25, 0.25, res.state)))
        rhs = np.random.default_rng(dim).standard_normal((2, 3, 301))
        rhs[..., -1] = 0.0
        got = _cyclic.solve_block_tridiagonal(*blocks, rhs)
        assert got.shape == rhs.shape
        dense = dense_jacobian(op, *coupling(PAIR22, 0.25, 0.25, res.state))
        for j in range(3):
            single = _cyclic.solve_block_tridiagonal(*blocks, rhs[:, j].copy())
            assert np.array_equal(got[:, j], single)
            ref = np.linalg.solve(dense, rhs[:, j].T.ravel()).reshape(-1, 2).T
            assert np.abs(got[:, j] - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_block_solve_next_to_the_fold(self):
        # bracket 1e-8: J has a condition number of about 5e9 here
        g = RadialGrid.uniform(3, 64)
        op = assemble_radial_laplacian(g)
        pt = continue_ray(PAIR22, 1.0, g, bracket_tol=1e-8).points[-1]
        fu, fv = coupling(PAIR22, pt.lam, pt.gam, pt.state)
        rhs = np.random.default_rng(4).standard_normal((2, 65))
        rhs[:, -1] = 0.0
        got = _cyclic.solve_block_tridiagonal(*op.jacobian(np.stack((fu, fv))), rhs)
        ref = np.linalg.solve(dense_jacobian(op, fu, fv), rhs.T.ravel()).reshape(-1, 2).T
        assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("dim", DIMS)
    def test_nonnegative_data_give_nonnegative_solutions(self, dim):
        # exact signs, not signs up to roundoff: the sweeps never cancel
        rng = np.random.default_rng(dim)
        for kind in ("uniform", "graded"):
            g = grid_of(dim, 256, kind)
            op = assemble_radial_laplacian(g)
            for _ in range(5):
                assert op.solve_dirichlet(nonnegative_data(rng, 257)).min() >= 0.0
            pt = continue_ray(PAIR22, 1.0, g).points[-1]
            blocks = op.jacobian(np.stack(coupling(PAIR22, pt.lam, pt.gam, pt.state)))
            for _ in range(5):
                rhs = nonnegative_data(rng, (2, 257))
                assert _cyclic.solve_block_tridiagonal(*blocks, rhs).min() >= 0.0

    @pytest.mark.parametrize("kind", ("uniform", "graded"))
    @pytest.mark.parametrize("m", (16, 17, 256))
    @pytest.mark.parametrize("dim", DIMS)
    def test_mu1_matches_eigvalsh(self, dim, m, kind):
        # On a uniform N = 3 grid lower[1] == 0: the symmetrized matrix is
        # reducible, and the row at the axis has an eigenvalue of its own.
        g = grid_of(dim, m, kind)
        op = g.laplacian
        if dim == 3 and kind == "uniform":
            assert op._lower[1] == 0.0
        pt = continue_ray(PAIR22, 1.0, g).points[-1]
        mu = stability_mu1(PAIR22, pt.state, pt.lam, pt.gam, g)
        a = op.to_dense()[:-1, :-1]
        u, v = pt.state[:, :-1]
        w = np.sqrt(pt.lam * pt.gam * 4.0 * (v + 1.0) * (u + 1.0))
        off = -np.sqrt(np.diag(a, 1) * np.diag(a, -1) / (w[:-1] * w[1:]))
        sym = np.diag(np.diag(a) / w) + np.diag(off, 1) + np.diag(off, -1)
        assert mu == pytest.approx(float(np.linalg.eigvalsh(sym)[0]), rel=1e-10)


# (diag, off) that stability_mu1 built on `exle continue --p 2 --theta 2
# --dim 10 --sigma 0.8817888451814433 --nodes 32 --bracket-tol 1e-4`, when
# its Newton tolerance was set to 1e-10, at the walk load 4.096, where a shift of the inverse iteration landed on
# mu1 in floating point and the factor divided by a zero pivot.
ZERO_PIVOT_DIAG = [
    "0x1.0ac35fd65ce0ap+11", "0x1.0074788d0448cp+12", "0x1.91a83e8d2f634p+9",
    "0x1.c065a173ae790p+8", "0x1.54d50bbb37e09p+8", "0x1.ac8107dc63129p+7",
    "0x1.ad9978133d7cap+7", "0x1.aee7625677e6cp+7", "0x1.b069600953d67p+7",
    "0x1.b21f6ef6527b3p+7", "0x1.b409ba1527db9p+7", "0x1.b62879164b579p+7",
    "0x1.b87beb0e9879dp+7", "0x1.bb04554472b58p+7", "0x1.bdc202d0babdbp+7",
    "0x1.c0b54472a6b0ap+7", "0x1.c3de70712bc40p+7", "0x1.c73de27ff7899p+7",
    "0x1.cad3fba501251p+7", "0x1.cea1221dc8fe4p+7", "0x1.d2a5c1440881dp+7",
    "0x1.d6e24971d1320p+7", "0x1.db572fe5335cap+7", "0x1.e004eea390c4cp+7",
    "0x1.e4ec045cc6a3ap+7", "0x1.ea0cf44e5fa20p+7", "0x1.ef6846270308cp+7",
    "0x1.f4fe85ea5aef7p+7", "0x1.fad043d5afd8dp+7", "0x1.006f0a22be95bp+8",
    "0x1.039447ce23a2bp+8", "0x1.06d8291580db1p+8",
]
ZERO_PIVOT_OFF = [
    "-0x1.5178a44306fdcp+4", "-0x1.6aaf8f165fe2bp+7", "-0x1.009e312494ad6p+7",
    "-0x1.d5105d59cd741p+6", "-0x1.cc0936cf4a8f6p+5", "-0x1.27b409e62ad15p+6",
    "-0x1.5424b7011e335p+6", "-0x1.6df480c682cefp+6", "-0x1.7ef4fc626e209p+6",
    "-0x1.8b2e30dba7829p+6", "-0x1.9498a83ecb79ep+6", "-0x1.9c47230bf2ee5p+6",
    "-0x1.a2db0cbdc9273p+6", "-0x1.a8b8d76c79ca1p+6", "-0x1.ae21ef01c29dap+6",
    "-0x1.b342908650dbbp+6", "-0x1.b8399caf81126p+6", "-0x1.bd1d3a518f86ap+6",
    "-0x1.c1fdb18625f1bp+6", "-0x1.c6e73d92bde82p+6", "-0x1.cbe33e792abe1p+6",
    "-0x1.d0f9067ae8f28p+6", "-0x1.d62e676aab684p+6", "-0x1.db8815c7d871cp+6",
    "-0x1.e109ef7b97fabp+6", "-0x1.e6b72f248f58cp+6", "-0x1.ec9291d2afe90p+6",
    "-0x1.f29e73262bd06p+6", "-0x1.f8dce284abdf9p+6", "-0x1.ff4fb344d0e0ap+6",
    "-0x1.02fc44913231fp+7",
]


def test_smallest_eigenvalue_survives_a_zero_pivot():
    diag = np.array([float.fromhex(x) for x in ZERO_PIVOT_DIAG])
    off = np.array([float.fromhex(x) for x in ZERO_PIVOT_OFF])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = _cyclic.smallest_eigenvalue(diag, off)
    dense = float(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0])
    # both carry the rounding of T, a few eps of its largest entry
    assert abs(mu - dense) <= 4.0 * np.finfo(float).eps * float(np.max(diag))
