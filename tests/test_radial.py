"""Radial operator, monotone solver, eigenvalue, and continuation tests."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from exle import (
    Branch,
    BudgetError,
    ConfigurationError,
    ContinuationConfig,
    DomainError,
    ExponentPair,
    RadialGrid,
    StatePair,
    assemble_radial_laplacian,
    continue_ray,
    solve_minimal,
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
        with pytest.raises(ConfigurationError):
            RadialGrid.uniform(0, 64)
        with pytest.raises(ConfigurationError):
            RadialGrid(2.5, np.linspace(0.0, 1.0, 65))

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


class TestStatePair:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            StatePair(np.zeros(5), np.zeros(6))

    def test_sup_and_copy(self):
        s = StatePair(np.array([0.0, 2.0, 1.0]), np.array([0.5, 0.0, 0.25]))
        assert s.sup_u == 2.0
        assert s.sup_v == 0.5


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
        assert res.state.sup_u == pytest.approx(1e-6 / 6.0, rel=1e-2)
        assert res.state.sup_v == pytest.approx(1e-6 / 6.0, rel=1e-2)

    def test_iterates_increase_to_fixed_point(self):
        g = RadialGrid.uniform(3, 64)
        res = solve_minimal(PAIR22, 1.0, 1.0, g)
        assert res.converged
        u, v = res.state.u, res.state.v
        assert u.min() >= 0.0 and v.min() >= 0.0
        assert u[-1] == 0.0 and v[-1] == 0.0
        # fixed point: u = A^-1 lam (v+1)^p at solver tolerance
        op = assemble_radial_laplacian(g)
        forced = op.solve_dirichlet(1.0 * (v + 1.0) ** 2)
        assert np.abs(forced - u).max() < 1e-8

    def test_divergence_past_fold(self):
        g = RadialGrid.uniform(3, 64)
        res = solve_minimal(PAIR22, 5.0, 5.0, g)
        assert not res.converged
        assert res.state is None

    def test_load_validation(self):
        g = RadialGrid.uniform(3, 64)
        for lam, gam in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0)):
            with pytest.raises(DomainError):
                solve_minimal(PAIR22, lam, gam, g)

    def test_component_swap_symmetry(self):
        # solving with (theta, p) and swapped loads exchanges the roles
        # of u and v at the shared fixed point
        g = RadialGrid.uniform(3, 64)
        fwd = solve_minimal(ExponentPair(2.0, 3.0), 0.7, 1.1, g)
        rev = solve_minimal(ExponentPair(3.0, 2.0), 1.1, 0.7, g)
        assert fwd.converged and rev.converged
        assert np.abs(fwd.state.u - rev.state.v).max() < 1e-7
        assert np.abs(fwd.state.v - rev.state.u).max() < 1e-7

    def test_warm_start_reaches_same_solution(self):
        g = RadialGrid.uniform(3, 64)
        cold = solve_minimal(PAIR22, 1.5, 1.5, g)
        lower = solve_minimal(PAIR22, 1.0, 1.0, g)
        warm = solve_minimal(PAIR22, 1.5, 1.5, g, seed=lower.state)
        assert warm.converged
        assert warm.iterations <= cold.iterations
        assert np.abs(warm.state.u - cold.state.u).max() < 1e-8

    def test_overflowing_step_past_fold_certifies(self):
        # Seeded from the solution at a = 2.468662109375 on the singular ray,
        # the step at this load has a max of 1.2e16; a slack of -1e-9 times
        # that let a -2.6e6 step pass, v fell below -1, and the next Picard
        # source was nan, which scipy rejected with ValueError.
        e = ExponentPair(1.01, 20.0)
        sigma = 8.694929803671808
        g = RadialGrid.uniform(14, 16384)
        a = 2.468662109375
        below = solve_minimal(e, a, sigma * a, g, tol=1e-12)
        assert below.converged
        lam = 2.777244873046875
        res = solve_minimal(e, lam, sigma * lam, g, tol=1e-12, seed=below.state)
        assert not res.converged
        assert res.state is None

    def test_tol_below_roundoff_reads_as_roundoff(self):
        # Here no Picard step falls below 1e-300; the solve must stop at roundoff.
        g = RadialGrid.uniform(3, 1024)
        res = solve_minimal(PAIR22, 2.3, 2.3, g, tol=1e-300)
        ref = solve_minimal(PAIR22, 2.3, 2.3, g, tol=1e-10)
        assert res.converged
        assert np.abs(res.state.u - ref.state.u).max() < 1e-9


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
            u, v = res.state.u, res.state.v
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
        for bad in (
            {"max_steps": 0},
            {"tol": 0.0},
            {"bracket_tol": 0.0},
            {"bracket_tol": math.nan},
        ):
            with pytest.raises(ConfigurationError):
                ContinuationConfig(**bad)

    def test_sigma_validation(self):
        g = RadialGrid.uniform(3, 64)
        with pytest.raises(DomainError):
            continue_ray(PAIR22, 0.0, g)

    def test_branch_structure_and_bracket(self):
        g = RadialGrid.uniform(3, 64)
        branch = continue_ray(PAIR22, 1.0, g)
        assert len(branch.points) >= 5
        lams = [pt.lam for pt in branch.points]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        sups = [pt.state.sup_u for pt in branch.points]
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

    def test_sigma_scales_the_ray(self):
        g = RadialGrid.uniform(3, 64)
        branch = continue_ray(PAIR22, 2.0, g)
        for pt in branch.points:
            assert pt.gam == pytest.approx(2.0 * pt.lam)

    def test_budget_error_carries_partial_branch(self):
        g = RadialGrid.uniform(3, 64)
        cfg = ContinuationConfig(max_steps=3)
        with pytest.raises(BudgetError) as info:
            continue_ray(PAIR22, 1.0, g, cfg)
        partial = info.value.partial
        assert isinstance(partial, Branch)
        assert len(partial.points) == 3
        assert partial.lambda_hi is None

    def test_tight_bracket_sits_at_the_fold(self):
        # mu1 tends to 1 at the fold, so the eigensolver independently
        # checks that a tight bracket sits there and not below it.
        g = RadialGrid.uniform(3, 256)
        branch = continue_ray(PAIR22, 1.0, g, ContinuationConfig(bracket_tol=1e-8))
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
        branch = continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64), ContinuationConfig(bracket_tol=1e-300))
        assert branch.lambda_lo < branch.lambda_hi
        assert np.nextafter(branch.lambda_lo, math.inf) == branch.lambda_hi
        assert len(set(trials)) == len(trials)

    def test_loads_ulps_apart_seed_from_the_last_state(self, monkeypatch):
        # A fold predicted 5e-5 low: at bracket_tol 1e-300 the certification
        # loads are one eps apart and all converge, and the secant through
        # the last two (t ~ 1e11) seeded the bisection with a state that is
        # no subsolution (NumericalError).
        g = RadialGrid.uniform(3, 64)
        cfg = ContinuationConfig(bracket_tol=1e-300)
        exact = continue_ray(PAIR22, 1.0, g, cfg)
        fold = radial._fold_newton
        monkeypatch.setattr(
            radial, "_fold_newton", lambda *args: (fold(*args)[0] * (1.0 - 5e-5), 5)
        )
        branch = continue_ray(PAIR22, 1.0, g, cfg)
        chosen = [t.chosen_by for t in branch.trials]
        assert chosen[13:16] == ["predictor"] * 3
        assert all(t.converged for t in branch.trials[13:16])
        assert set(chosen[16:]) == {"bisection"}
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
        branch = continue_ray(pair, sigma, g, ContinuationConfig(tol=1e-12, bracket_tol=1e-8))
        # every trial after the first accepted point is seeded, and checked below
        first = next(i for i, t in enumerate(branch.trials) if t.converged)
        assert [lam for lam, _, _ in seeds] == [t.lam for t in branch.trials[first + 1 :]]
        op = assemble_radial_laplacian(g)
        size = np.abs(op.to_dense())
        eps = np.finfo(float).eps
        for lam, gam, z in seeds:
            for w, f in ((z.u, lam * (z.v + 1.0) ** pair.p), (z.v, gam * (z.u + 1.0) ** pair.theta)):
                excess = (op.apply(w) - f)[:-1]
                roundoff = 64.0 * eps * (size @ np.abs(w) + f)[:-1]
                assert np.all(excess <= roundoff), (lam, float(np.max(excess / roundoff)))

    @pytest.mark.parametrize(
        "pair, dim",
        [(PAIR22, 3), (ExponentPair(1.5, 4.0), 3), (ExponentPair(1.5, 4.0), 10), (PAIR22, 10)],
    )
    def test_fold_lies_in_the_bisection_bracket(self, monkeypatch, pair, dim):
        g = RadialGrid.uniform(dim, 256)
        cfg = ContinuationConfig(bracket_tol=1e-12)
        branch = continue_ray(pair, 1.0, g, cfg)
        assert branch.lambda_fold is not None
        assert branch.lambda_lo < branch.lambda_fold < branch.lambda_hi
        monkeypatch.setattr(radial, "_fold_newton", lambda *args: (None, 0))
        bisected = continue_ray(pair, 1.0, g, cfg)
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
        # the doubling walk to the first load without a solution, then the
        # three certification loads around the Moore-Spence fold
        assert [t.chosen_by for t in trials] == ["walk"] * 13 + ["predictor"] * 3
        assert [t.converged for t in trials[-4:]] == [False, True, True, False]
        assert 0 < branch.fold_iterations <= radial._FOLD_BUDGET
        fold = branch.lambda_fold
        eps = 1e-4 / 8.0
        assert trials[-3].lam == fold * (1.0 - 8.0 * eps)
        assert (branch.lambda_lo, branch.lambda_hi) == (fold * (1.0 - eps), fold * (1.0 + eps))

    def test_contradicted_prediction_falls_back_to_bisection(self, monkeypatch):
        # A predicted fold 4 eps too low: lam_f (1 + eps), expected to have
        # no solution, has one, and the loop bisects the bracket it holds.
        g = RadialGrid.uniform(3, 64)
        exact = continue_ray(PAIR22, 1.0, g, ContinuationConfig(bracket_tol=1e-10))
        fold = radial._fold_newton
        monkeypatch.setattr(
            radial, "_fold_newton", lambda *args: (fold(*args)[0] * (1.0 - 4.0 * 1e-4 / 8.0), 7)
        )
        branch = continue_ray(PAIR22, 1.0, g)
        assert branch.lambda_fold is None
        assert branch.fold_iterations == 7
        chosen = [t.chosen_by for t in branch.trials]
        assert chosen[13:16] == ["predictor"] * 3
        assert all(t.converged for t in branch.trials[13:16])
        assert len(chosen) > 16 and set(chosen[16:]) == {"bisection"}
        assert branch.bracket_rel_width <= 1e-4
        assert branch.lambda_lo <= exact.lambda_lo < exact.lambda_hi <= branch.lambda_hi

    def test_walk_bracket_within_tolerance_skips_the_fold_solve(self):
        cfg = ContinuationConfig(bracket_tol=2.0)
        branch = continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64), cfg)
        assert [t.chosen_by for t in branch.trials] == ["walk"] * 13
        assert branch.fold_iterations == 0
        assert branch.lambda_fold is None

    def test_certification_load_below_the_bracket_falls_back_to_bisection(self):
        # lam_f (1 - 8 eps) with eps = 0.3 / 8 lies below lambda_lo = 2.048.
        cfg = ContinuationConfig(bracket_tol=0.3)
        branch = continue_ray(PAIR22, 1.0, RadialGrid.uniform(3, 64), cfg)
        assert [t.chosen_by for t in branch.trials] == ["walk"] * 13 + ["bisection"] * 2
        assert branch.fold_iterations == 5
        assert branch.lambda_fold is None
        assert branch.bracket_rel_width <= 0.3

    def test_certification_stops_once_the_bracket_is_narrow(self):
        cfg = ContinuationConfig(bracket_tol=0.3)
        branch = continue_ray(PAIR22, 0.5, RadialGrid.uniform(3, 64), cfg)
        trials = branch.trials
        assert [t.chosen_by for t in trials] == ["walk"] * 13 + ["predictor"] * 2
        assert all(t.converged for t in trials[13:])
        assert branch.bracket_rel_width == pytest.approx(0.2943, abs=1e-4)
        assert branch.lambda_fold == 3.2878190286354494
        assert branch.fold_iterations == 6

    def test_secant_seeds_save_newton_iterations(self):
        # 76 iterations when each trial was seeded with the last accepted state.
        g = RadialGrid.uniform(3, 256)
        branch = continue_ray(PAIR22, 1.0, g, ContinuationConfig(tol=1e-12))
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
    cfg = ContinuationConfig(bracket_tol=bracket_tol, max_steps=max_steps)
    try:
        branch = continue_ray(ExponentPair(*pair), sigma, RadialGrid.uniform(dim, 32), cfg)
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
        assert np.all(b.state.u >= a.state.u) and np.all(b.state.v >= a.state.v)
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


def grid_of(dim, m, kind):
    if kind == "uniform":
        return RadialGrid.uniform(dim, m)
    return RadialGrid(dim, boundary_graded_nodes(m))


def jacobian_blocks(op, fu, fv):
    """J = (-Lap) - f' as the (2, 2, n) block stacks solve_minimal builds."""
    n = op._diag.size
    lower, diag, upper = (np.zeros((2, 2, n)) for _ in range(3))
    for i in range(2):
        lower[i, i], diag[i, i], upper[i, i] = op._lower, op._diag, op._upper
    diag[0, 1, :-1] = -fu[:-1]
    diag[1, 0, :-1] = -fv[:-1]
    return lower, diag, upper


def dense_jacobian(op, fu, fv):
    """J on interleaved (u0, v0, u1, ...), built from the dense operator."""
    jac = np.kron(op.to_dense(), np.eye(2))
    m = op._diag.size - 1
    jac[2 * np.arange(m), 2 * np.arange(m) + 1] -= fu[:-1]
    jac[2 * np.arange(m) + 1, 2 * np.arange(m)] -= fv[:-1]
    return jac


def coupling(pair, lam, gam, state):
    fu = lam * pair.p * (state.v + 1.0) ** (pair.p - 1.0)
    fv = gam * pair.theta * (state.u + 1.0) ** (pair.theta - 1.0)
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
        got = _cyclic.solve_block_tridiagonal(*jacobian_blocks(op, fu, fv), rhs)
        ref = np.linalg.solve(dense_jacobian(op, fu, fv), rhs.T.ravel()).reshape(-1, 2).T
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("dim", DIMS)
    def test_many_right_hand_sides(self, dim):
        # each column of a (2, r, n) solve is bit for bit its own (2, n) solve
        g = grid_of(dim, 300, "graded")
        op = g.laplacian
        res = solve_minimal(PAIR22, 0.25, 0.25, g)
        blocks = jacobian_blocks(op, *coupling(PAIR22, 0.25, 0.25, res.state))
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
        pt = continue_ray(PAIR22, 1.0, g, ContinuationConfig(bracket_tol=1e-8)).points[-1]
        fu, fv = coupling(PAIR22, pt.lam, pt.gam, pt.state)
        rhs = np.random.default_rng(4).standard_normal((2, 65))
        rhs[:, -1] = 0.0
        got = _cyclic.solve_block_tridiagonal(*jacobian_blocks(op, fu, fv), rhs)
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
            blocks = jacobian_blocks(op, *coupling(PAIR22, pt.lam, pt.gam, pt.state))
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
        u, v = pt.state.u[:-1], pt.state.v[:-1]
        w = np.sqrt(pt.lam * pt.gam * 4.0 * (v + 1.0) * (u + 1.0))
        off = -np.sqrt(np.diag(a, 1) * np.diag(a, -1) / (w[:-1] * w[1:]))
        sym = np.diag(np.diag(a) / w) + np.diag(off, 1) + np.diag(off, -1)
        assert mu == pytest.approx(float(np.linalg.eigvalsh(sym)[0]), rel=1e-10)
