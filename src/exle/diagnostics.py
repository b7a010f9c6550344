"""Inequality and profile diagnostics evaluated on computed states.

These routines check, on discrete solutions, the pointwise and integral
estimates that the threshold algebra promises for stable solutions: the
shifted comparison inequality between the two components, the weighted
energy integral, scaling covariance of the system, the explicit
singular profile, and a growth heuristic whose verdict on a branch end
is True (bounded-looking), False (unbounded-looking) or None (undecided).

A state is a (2, n) float array with rows u and v, as `radial` makes it.
All asymmetric formulas assume the canonical order p <= theta with u
the component forced by (u+1)^theta; inputs in the opposite order are
reoriented by swapping the rows, (lam, gam) and (p, theta), which maps
the system onto itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DiagnosticError, DomainError
from .radial import Branch, RadialGrid
from . import radial, thresholds
from .thresholds import ExponentPair, check_energy_exponent, scaling_exponents
# Unused here, but bench/tracer.py wraps exle.diagnostics.threshold_report.
from .thresholds import threshold_report  # noqa: F401

# Log-log growth slope separating plateauing from blowing-up branch
# tails; desk-scale runs sit near -0.04 (bounded) and -0.6 (unbounded).
_GROWTH_SLOPE_CUT = -0.15
# Accepted branch points the tail slope is fitted over.
_TAIL_POINTS = 8


def _orient(
    e: ExponentPair, state: np.ndarray, lam: float | None, gam: float | None
):
    """Return (p, theta, u, v, lam, gam) in canonical order p <= theta."""
    u, v = radial._as_state(state)
    if e.p <= e.theta:
        return e.p, e.theta, u, v, lam, gam
    return e.theta, e.p, v, u, gam, lam


def souplet_check(e: ExponentPair, state: np.ndarray, lam: float, gam: float) -> float:
    """Minimum over nodes of the shifted comparison margin.

    With kappa = gam (p+1) / (lam (theta+1)) and the shift
    alpha = max(0, kappa^(1/(p+1)) - 1), stable solutions satisfy
    (v+1+alpha)^(p+1) >= kappa (u+1)^(theta+1) pointwise; the returned
    margin is min over nodes of (left - right).  In the symmetric case
    p == theta, lam == gam with u == v the margin vanishes identically.
    Powers of the state are radial._pow1p, as in the reaction.  Where
    (u+1)^(theta+1) alone overflows, right is exp(log kappa + (theta+1)
    log1p(u)), finite when a tiny kappa brings it back in range.
    """
    radial._check_load(lam, gam)
    p, theta, u, v, lam, gam = _orient(e, state, lam, gam)
    kappa = gam * (p + 1.0) / (lam * (theta + 1.0))
    alpha = max(0.0, kappa ** (1.0 / (p + 1.0)) - 1.0)
    with np.errstate(over="ignore"):
        right = kappa * radial._pow1p(u, theta + 1.0)
        big = np.isinf(right)
        right[big] = np.exp(math.log(kappa) + (theta + 1.0) * np.log1p(u[big]))
    return float(np.min(radial._pow1p(v + alpha, p + 1.0) - right))


def _ball_integral(values: np.ndarray, nodes: np.ndarray, dim: float) -> float:
    """Integral over the ball of a radial function sampled on nodes."""
    solid_angle = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return solid_angle * float(np.trapezoid(values * nodes ** (dim - 1.0), nodes))


def energy_report(
    e: ExponentPair, state: np.ndarray, s: float, grid: RadialGrid
) -> float:
    """Weighted energy integral J2 of one state.

    J2 integrates (u+1)^((theta-1)/2) (v+1)^((p+2s-1)/2) over the ball,
    powers by radial._pow1p; the zero state makes it the ball volume.
    """
    check_energy_exponent(e, s)
    p, theta, u, v, _, _ = _orient(e, state, None, None)
    if u.size != grid.m + 1:
        raise DomainError("state does not match the grid")
    return _ball_integral(
        radial._pow1p(u, (theta - 1.0) / 2.0) * radial._pow1p(v, (p + 2.0 * s - 1.0) / 2.0),
        grid.nodes,
        grid.dim,
    )


def restrict_state(state: np.ndarray, grid: RadialGrid, r0: float) -> np.ndarray:
    """Slice a (2, n) state to the nodes with r <= r0; r0 must be a grid node."""
    state = radial._as_state(state)
    if not (0.0 < r0 <= 1.0):
        raise DomainError(f"r0 must lie in (0, 1], got {r0}")
    idx = int(np.argmin(np.abs(grid.nodes - r0)))
    if abs(grid.nodes[idx] - r0) > 1e-12:
        raise DomainError(f"r0 = {r0} is not a node of the grid")
    return state[:, : idx + 1].copy()


def rescale(e: ExponentPair, state: np.ndarray, r0: float) -> np.ndarray:
    """Zoom a (2, n) state on the ball of radius r0 to the unit ball.

    With (alpha, beta) the scaling exponents, u_new + 1 = r0^alpha
    (u + 1) and v_new + 1 = r0^beta (v + 1) sampled at the same nodes
    reinterpreted as spanning [0, 1].  The transformation maps discrete
    solutions to discrete solutions for the same loads: sup norms of the
    shifted fields scale by exactly r0^alpha and r0^beta, and the
    interior finite-difference residual is multiplied by r0^(alpha+2) =
    r0^(beta * p), which is at most 1.
    """
    u, v = radial._as_state(state)
    if not (0.0 < r0 <= 1.0) or not math.isfinite(r0):
        raise DomainError(f"r0 must lie in (0, 1], got {r0}")
    se = scaling_exponents(e)
    return np.stack((r0 ** se.alpha * (u + 1.0) - 1.0, r0 ** se.beta * (v + 1.0) - 1.0))


def singular_profile(
    e: ExponentPair, dim: int, lam: float, gam: float
) -> tuple[float, float]:
    """Amplitudes (A, B) of the exact singular pair (A r^-alpha, B r^-beta).

    Matching -Lap(A r^-alpha) = lam (B r^-beta)^p and its partner gives
    A a = lam B^p and B b = gam A^theta with a = alpha (N-2-alpha),
    b = beta (N-2-beta); both need N > 2 + max(alpha, beta).  Solved in
    log2 space so power-of-two data stays exact.
    """
    thresholds._check_dim(dim)
    radial._check_load(lam, gam)
    se = scaling_exponents(e)
    if dim <= 2 + max(se.alpha, se.beta):
        raise DomainError(
            f"dim must exceed 2 + max(alpha, beta) = {2 + max(se.alpha, se.beta)}, got {dim}"
        )
    a = se.alpha * (dim - 2.0 - se.alpha)
    b = se.beta * (dim - 2.0 - se.beta)
    p, theta = e.p, e.theta
    log2_b_amp = (
        theta * math.log2(a) + math.log2(b) - math.log2(gam) - theta * math.log2(lam)
    ) / (p * theta - 1.0)
    b_amp = 2.0 ** log2_b_amp
    a_amp = lam * b_amp ** p / a
    return a_amp, b_amp


def extremal_extrapolate(branch: Branch) -> bool | None:
    """Read the branch tail as bounded (True), unbounded (False) or undecided (None).

    Fits the slopes of log sup u and log sup v against
    log(lambda_hi - lambda) over the last 8 accepted points, each squared
    residual weighted by 1/(lambda_hi - lambda).  A plateauing branch has
    slopes near 0; a branch heading for an unbounded extremal state keeps
    a markedly negative one.  The verdict is None while the bracket is
    open or with fewer than 5 points.  Raises DiagnosticError for points
    not strictly below lambda_hi.
    """
    pts = branch.points[-_TAIL_POINTS:]
    if branch.lambda_hi is None or len(pts) < 5:
        return None
    gaps = np.array([branch.lambda_hi - pt.lam for pt in pts])
    if np.any(gaps <= 0.0):
        raise DiagnosticError("branch points are not strictly below lambda_hi")
    log_gap = np.log(gaps)
    # The slope is an exponent as the gap closes, so the doubling walk's
    # far, pre-asymptotic points count little next to those at the fold.
    weight = 1.0 / np.sqrt(gaps)
    sups = np.array([np.max(pt.state, axis=1) for pt in pts]).T
    slope = min(np.polyfit(log_gap, np.log(sup), 1, w=weight)[0] for sup in sups)
    return bool(slope > _GROWTH_SLOPE_CUT)
