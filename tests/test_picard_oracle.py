"""Plain Picard sweeps as an independent oracle for the Newton fold bracket.

From (0, 0) the Picard iterates increase to the minimal solution when one
exists and grow without bound otherwise, whatever the Newton solver does.
So Picard from zero must reproduce the last branch state at lambda_lo
(minimality), and Picard at lambda_hi must blow up (nonexistence).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from exle import ExponentPair, RadialGrid, assemble_radial_laplacian, continue_ray


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
)
def test_bracket_agrees_with_picard(p, theta, log_sigma, dim):
    e = ExponentPair(p, theta)
    sigma = 10.0**log_sigma
    grid = RadialGrid.uniform(dim, 32)
    op = assemble_radial_laplacian(grid)
    branch = continue_ray(e, sigma, grid)
    last = branch.points[-1]
    assert last.lam == branch.lambda_lo

    zero = np.zeros(grid.m + 1)
    lo = picard(e, last.lam, last.gam, op, zero, zero)
    assert lo is not None, "Picard from zero blew up below the bracket"
    scale = max(last.sup_u, last.sup_v, 1.0)
    assert np.abs(lo[0] - last.state.u).max() <= 1e-7 * scale
    assert np.abs(lo[1] - last.state.v).max() <= 1e-7 * scale

    hi = branch.lambda_hi
    assert picard(e, hi, sigma * hi, op, last.state.u, last.state.v) is None
