"""Inequality and profile diagnostics evaluated on computed states.

These routines check, on discrete solutions, the pointwise and integral
estimates that the threshold algebra promises for stable solutions: the
shifted comparison inequality between the two components, the weighted
energy integrals, scaling covariance of the system, the explicit
singular profile, and a growth heuristic that classifies a branch end
as bounded- or unbounded-looking.

All asymmetric formulas assume the canonical order p <= theta with u
the component forced by (u+1)^theta; inputs in the opposite order are
reoriented by swapping (u, v), (lam, gam), (p, theta), which maps the
system onto itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, DomainError
from .radial import Branch, RadialGrid, StatePair
from . import radial, thresholds
from .thresholds import ExponentPair, check_energy_exponent, scaling_exponents, threshold_report

# Log-log growth slope separating plateauing from blowing-up branch
# tails; desk-scale runs sit near -0.04 (bounded) and -0.6 (unbounded).
_GROWTH_SLOPE_CUT = -0.15
# Accepted branch points the tail slope is fitted over.
_TAIL_POINTS = 8


@dataclass(frozen=True)
class DiagnosticsReport:
    """Integral diagnostics for one state at integrability exponent s."""

    energy_J2: float
    energy_power: float
    local_ratio: float
    s_used: float


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Tail-growth classification of a branch near its fold bracket.

    table rows are (lambda, sup_u, sup_v) for the fitted tail points;
    dim_threshold is the no-singular-set dimension bound 2 + 2*x0 the
    flag should be read against (dim below the threshold is the regime
    where bounded-looking is expected).
    """

    table: tuple[tuple[float, float, float], ...]
    slope_u: float
    slope_v: float
    bounded_looking: bool
    dim: int
    dim_threshold: float
    below_threshold: bool

    @property
    def points_used(self) -> int:
        return len(self.table)


def _orient(
    e: ExponentPair, state: StatePair, lam: float | None, gam: float | None
):
    """Return (p, theta, u, v, lam, gam) in canonical order p <= theta."""
    if e.p <= e.theta:
        return float(e.p), float(e.theta), state.u, state.v, lam, gam
    return float(e.theta), float(e.p), state.v, state.u, gam, lam


def souplet_check(e: ExponentPair, state: StatePair, lam: float, gam: float) -> float:
    """Minimum over nodes of the shifted comparison margin.

    With kappa = gam (p+1) / (lam (theta+1)) and the shift
    alpha = max(0, kappa^(1/(p+1)) - 1), stable solutions satisfy
    (v+1+alpha)^(p+1) >= kappa (u+1)^(theta+1) pointwise; the returned
    margin is min over nodes of (left - right).  In the symmetric case
    p == theta, lam == gam with u == v the margin vanishes identically.
    """
    p, theta, u, v, lam, gam = _orient(e, state, lam, gam)
    kappa = gam * (p + 1.0) / (lam * (theta + 1.0))
    alpha = max(0.0, kappa ** (1.0 / (p + 1.0)) - 1.0)
    margin = (v + 1.0 + alpha) ** (p + 1.0) - kappa * (u + 1.0) ** (theta + 1.0)
    return float(np.min(margin))


def _ball_integral(values: np.ndarray, nodes: np.ndarray, dim: int) -> float:
    """Integral over the ball of a radial function sampled on nodes."""
    solid_angle = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return solid_angle * float(np.trapezoid(values * nodes ** (dim - 1.0), nodes))


def energy_report(
    e: ExponentPair, state: StatePair, s: float, grid: RadialGrid
) -> DiagnosticsReport:
    """Weighted energy integrals for one state.

    energy_J2 integrates (u+1)^((theta-1)/2) (v+1)^((p+2s-1)/2) over the
    ball; energy_power integrates (u+1)^(theta + (theta+1)(s-1)/(p+1)).
    local_ratio compares the mixed integrand over the half-radius ball
    (the nodes up to m // 2) against the plain power of (v+1) over the full
    ball, the discrete form of the interior doubling estimate at R = 1.  The zero state
    makes both energies equal the ball volume and local_ratio = 2^-dim.
    """
    check_energy_exponent(e, s)
    p, theta, u, v, _, _ = _orient(e, state, None, None)
    if u.size != grid.m + 1:
        raise DomainError("state does not match the grid")
    half = grid.m // 2
    nodes = grid.nodes
    j2 = _ball_integral(
        (u + 1.0) ** ((theta - 1.0) / 2.0) * (v + 1.0) ** ((p + 2.0 * s - 1.0) / 2.0),
        nodes,
        grid.dim,
    )
    power = _ball_integral(
        (u + 1.0) ** (theta + (theta + 1.0) * (s - 1.0) / (p + 1.0)), nodes, grid.dim
    )
    local_num = _ball_integral(
        ((u + 1.0) ** theta * (v + 1.0) ** (s - 1.0))[: half + 1],
        nodes[: half + 1],
        grid.dim,
    )
    local_den = _ball_integral((v + 1.0) ** s, nodes, grid.dim)
    return DiagnosticsReport(
        energy_J2=j2,
        energy_power=power,
        local_ratio=local_num / local_den,
        s_used=float(s),
    )


def restrict_state(state: StatePair, grid: RadialGrid, r0: float) -> StatePair:
    """Slice a state to the nodes with r <= r0; r0 must be a grid node."""
    if not (0.0 < r0 <= 1.0):
        raise DomainError(f"r0 must lie in (0, 1], got {r0}")
    idx = int(np.argmin(np.abs(grid.nodes - r0)))
    if abs(grid.nodes[idx] - r0) > 1e-12:
        raise DomainError(f"r0 = {r0} is not a node of the grid")
    return StatePair(state.u[: idx + 1].copy(), state.v[: idx + 1].copy())


def rescale(e: ExponentPair, state: StatePair, r0: float) -> StatePair:
    """Zoom a state on the ball of radius r0 to the unit ball.

    With (alpha, beta) the scaling exponents, u_new + 1 = r0^alpha
    (u + 1) and v_new + 1 = r0^beta (v + 1) sampled at the same nodes
    reinterpreted as spanning [0, 1].  The transformation maps discrete
    solutions to discrete solutions for the same loads: sup norms of the
    shifted fields scale by exactly r0^alpha and r0^beta, and the
    interior finite-difference residual is multiplied by r0^(alpha+2) =
    r0^(beta * p), which is at most 1.
    """
    if not (0.0 < r0 <= 1.0) or not math.isfinite(r0):
        raise DomainError(f"r0 must lie in (0, 1], got {r0}")
    se = scaling_exponents(e)
    u_new = r0 ** se.alpha * (state.u + 1.0) - 1.0
    v_new = r0 ** se.beta * (state.v + 1.0) - 1.0
    return StatePair(u_new, v_new)


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
    p, theta = float(e.p), float(e.theta)
    log2_b_amp = (
        theta * math.log2(a) + math.log2(b) - math.log2(gam) - theta * math.log2(lam)
    ) / (p * theta - 1.0)
    b_amp = 2.0 ** log2_b_amp
    a_amp = lam * b_amp ** p / a
    return a_amp, b_amp


def extremal_extrapolate(branch: Branch, e: ExponentPair, dim: int) -> GrowthDiagnostic:
    """Classify the branch tail as bounded- or unbounded-looking.

    Fits the slope of log sup-norm against log(lambda_hi - lambda) over
    the last 8 accepted points, each squared residual weighted by
    1/(lambda_hi - lambda).  A plateauing branch has slope
    near 0; a branch heading for an unbounded extremal state keeps a
    markedly negative slope.  Needs at least 5 points and a closed
    bracket.  The report carries the dimension threshold 2 + 2*x0 for
    side-by-side reading.
    """
    if branch.lambda_hi is None:
        raise DiagnosticError("branch has no fold bracket to extrapolate toward")
    pts = branch.points[-_TAIL_POINTS:]
    if len(pts) < 5:
        raise DiagnosticError(f"need at least 5 branch points, got {len(pts)}")
    gaps = np.array([branch.lambda_hi - pt.lam for pt in pts])
    if np.any(gaps <= 0.0):
        raise DiagnosticError("branch points are not strictly below lambda_hi")
    log_gap = np.log(gaps)
    # The slope is an exponent as the gap closes, so the doubling walk's
    # far, pre-asymptotic points count little next to those at the fold.
    weight = 1.0 / np.sqrt(gaps)
    table = tuple((pt.lam, pt.state.sup_u, pt.state.sup_v) for pt in pts)
    _, sup_u, sup_v = np.array(table).T
    slope_u = float(np.polyfit(log_gap, np.log(sup_u), 1, w=weight)[0])
    slope_v = float(np.polyfit(log_gap, np.log(sup_v), 1, w=weight)[0])
    threshold = threshold_report(e).n_new
    return GrowthDiagnostic(
        table=table,
        slope_u=slope_u,
        slope_v=slope_v,
        bounded_looking=min(slope_u, slope_v) > _GROWTH_SLOPE_CUT,
        dim=int(dim),
        dim_threshold=threshold,
        below_threshold=dim < threshold,
    )
