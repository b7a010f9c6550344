"""Plain Picard sweeps as an independent oracle for the Newton fold bracket.

From (0, 0) the Picard iterates increase to the minimal solution when one
exists and grow without bound otherwise, whatever the Newton solver does.
So Picard from zero must reproduce the last branch state at lambda_lo
(minimality), and Picard at lambda_hi must blow up (nonexistence).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from exle import (
    ContinuationConfig,
    ExponentPair,
    RadialGrid,
    assemble_radial_laplacian,
    continue_ray,
    solve_minimal,
)


def picard(e, lam, gam, op, u, v, *, tol=1e-13, cap=1e8, budget=500_000):
    """Sweep u <- (-Lap)^-1 lam (v+1)^p, then v; None once a sup passes cap."""
    for _ in range(budget):
        u_next = op.solve_dirichlet(lam * (v + 1.0) ** e.p)
        v_next = op.solve_dirichlet(gam * (u_next + 1.0) ** e.theta)
        if max(u_next.max(), v_next.max()) > cap:
            return None
        step = max(np.abs(u_next - u).max(), np.abs(v_next - v).max())
        u, v = u_next, v_next
        if step < tol:
            return u, v
    raise AssertionError(f"Picard oracle did not settle at lam={lam}")


exponent = st.floats(1.05, 6.0)


@settings(max_examples=10, deadline=None)
@given(
    p=exponent,
    theta=exponent,
    log_sigma=st.floats(-2.0, 2.0),
    dim=st.integers(1, 20),
    grading=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
)
def test_bracket_agrees_with_picard(p, theta, log_sigma, dim, grading):
    e = ExponentPair(p, theta)
    sigma = 10.0**log_sigma
    # grading 1 is the uniform grid; above 1 nodes crowd the axis, below 1
    # the boundary.
    grid = RadialGrid(dim, np.linspace(0.0, 1.0, 33) ** grading)
    op = assemble_radial_laplacian(grid)
    branch = continue_ray(e, sigma, grid)
    last = branch.points[-1]
    assert last.lam == branch.lambda_lo

    zero = np.zeros(grid.m + 1)
    lo = picard(e, last.lam, last.gam, op, zero, zero)
    assert lo is not None, "Picard from zero blew up below the bracket"
    scale = max(float(np.max(last.state)), 1.0)
    assert np.abs(lo[0] - last.state[0]).max() <= 1e-7 * scale
    assert np.abs(lo[1] - last.state[1]).max() <= 1e-7 * scale

    hi = branch.lambda_hi
    assert picard(e, hi, sigma * hi, op, *last.state) is None


def test_singular_ray_bracket_agrees_with_picard():
    # On sigma = b/a of (1.01, 20) at N = 14 the fold sits next to a =
    # 2.468662109375.  A slack scaled by the state let a negative Newton step
    # pass there, and the bracket ended at 2.4686621246337896, below loads
    # where Picard settles.
    e = ExponentPair(1.01, 20.0)
    sigma = 8.694929803671808
    grid = RadialGrid.uniform(14, 16384)
    branch = continue_ray(e, sigma, grid, ContinuationConfig(bracket_tol=1e-8))
    assert branch.lambda_lo > 2.4686621246337896
    last = branch.points[-1]
    op = assemble_radial_laplacian(grid)
    assert picard(e, last.lam, last.gam, op, *last.state) is not None


def test_accepted_state_near_fold_is_within_tol():
    # 2.343125 is the last accepted load below the fold on this grid, where
    # mu1 is 1.007; accepting on the Picard step left the state 5.7e-5 off.
    e = ExponentPair(2.0, 2.0)
    grid = RadialGrid.uniform(3, 256)
    op = assemble_radial_laplacian(grid)
    lam = 2.343125
    zero = np.zeros(grid.m + 1)
    u, v = picard(e, lam, lam, op, zero, zero)
    tol = 1e-6
    res = solve_minimal(e, lam, lam, grid, tol=tol)
    assert res.converged
    assert np.abs(res.state - np.stack((u, v))).max() <= 0.01 * tol
