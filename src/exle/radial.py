"""Radial finite differences and the minimal-solution branch machinery.

Discretizes -Lap(w) = -(w'' + (N-1) w'/r) on [0, 1] with a symmetry row
at r = 0 (from Lap w(0) = N * w''(0)) and a Dirichlet row at r = 1.
On top of the operator sit the monotone Newton solver for the coupled
system, the principal stability eigenvalue, and parameter continuation
along a ray gamma = sigma * lambda up to the fold, in three phases: a
doubling walk to the first load without a solution, a Moore-Spence Newton
solve for the fold that places three certification loads, and bisection
of whatever bracket those leave too wide.

Every linear system here is a tridiagonal M-matrix (-Lap, and -Lap
shifted for mu1) or, while a solution exists, a 2x2-block tridiagonal
M-matrix (the Newton Jacobian).  They are solved by odd-even cyclic
reduction in numpy (`_cyclic`): an M-matrix needs no pivoting, and the
reduction adds terms of one sign only, so nonnegative data give a
solution whose sign is exact.  -Lap is factored once per grid, from its
off-diagonals and its row sums (zero but at the Dirichlet row), which
makes its solves accurate entry by entry.  The grid owns that factored
operator (`RadialGrid.laplacian`), so every solver on one grid shares it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._cyclic import Tridiagonal, smallest_eigenvalue, solve_block_tridiagonal
from .errors import (
    BudgetError,
    ConfigurationError,
    DomainError,
    NumericalError,
)
from .thresholds import ExponentPair

_MIN_INTERVALS = 16
# Newton iterations per nonlinear solve.  Most loads take at most about 15,
# but next to a fold the step can stall and spend all 50 (ROADMAP item 2).
_NEWTON_BUDGET = 50
_EPS = float(np.finfo(float).eps)
# continue_ray's first trial load, and the factor between trials until
# the first load without a solution.
_LAMBDA_INIT = 1e-3
_GROWTH = 2.0
# Moore-Spence Newton iterations for the fold.  From the walk's last
# accepted load, folds below the critical dimension take 5 to 9; above it
# the fold state is large, the solve takes 12 to 29 and more as m grows
# (measured up to m = 1024), and such rays mostly fall back to bisection.
_FOLD_BUDGET = 12
# Inverse-iteration steps for the first null-vector guess of the fold solve.
_NULL_STEPS = 3


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Node set 0 = r_0 < ... < r_M = 1 with the space dimension."""

    dim: int
    nodes: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or isinstance(self.dim, bool):
            raise ConfigurationError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < _MIN_INTERVALS + 1:
            raise ConfigurationError(
                f"grid needs at least {_MIN_INTERVALS} intervals, got {nodes.size - 1}"
            )
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or np.any(np.diff(nodes) <= 0):
            raise ConfigurationError(
                "nodes must increase strictly from 0.0 to 1.0"
            )

    @classmethod
    def uniform(cls, dim: int, m: int) -> "RadialGrid":
        if not isinstance(m, (int, np.integer)) or m < _MIN_INTERVALS:
            raise ConfigurationError(f"m must be an integer >= {_MIN_INTERVALS}, got {m}")
        return cls(dim=int(dim), nodes=np.linspace(0.0, 1.0, int(m) + 1))

    @property
    def m(self) -> int:
        return self.nodes.size - 1

    @property
    def spacing(self) -> float:
        """Mesh width of a uniform grid (max spacing otherwise)."""
        return float(np.max(np.diff(self.nodes)))

    @functools.cached_property
    def laplacian(self) -> "RadialLaplacian":
        """The factored -Lap of this grid, assembled on first use."""
        return assemble_radial_laplacian(self)


@dataclass
class StatePair:
    """Component fields (u, v) sampled on the grid nodes.

    Solver-produced states are nonnegative with zero boundary values;
    the container itself does not enforce that (rescaled restrictions
    legitimately violate both).
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ConfigurationError("u and v must be 1-d arrays of equal length")

    @property
    def sup_u(self) -> float:
        return float(np.max(self.u))

    @property
    def sup_v(self) -> float:
        return float(np.max(self.v))


class RadialLaplacian:
    """Tridiagonal action of -Lap on node fields, Dirichlet row last.

    Interior rows use second-order central differences.  Rows where the
    advective coefficient (N-1)/(2 h r) would overpower 1/h^2 (possible
    only for r < (N-1)h/2, so only for N >= 4 next to the axis) fall
    back to the conservative flux form, which keeps every off-diagonal
    nonpositive.  The matrix is then an M-matrix for every dimension and
    the discrete maximum principle is asserted on each solve.  Every row
    but the Dirichlet one annihilates constants, which the cached
    cyclic-reduction factors use to form each pivot without cancellation.
    """

    def __init__(self, grid: RadialGrid):
        n = grid.m + 1
        r = grid.nodes
        dim = grid.dim
        lower = np.zeros(n)
        diag = np.zeros(n)
        upper = np.zeros(n)
        # r = 0 symmetry row: -Lap w(0) = -N w''(0) = 2N (w0 - w1)/h1^2.
        h1 = r[1] - r[0]
        diag[0] = 2.0 * dim / (h1 * h1)
        upper[0] = -2.0 * dim / (h1 * h1)
        # Interior rows 1..M-1: -w'' and -(N-1)/r w' by three-point formulas.
        ri = r[1:-1]
        hm = ri - r[:-2]
        hp = r[2:] - ri
        denom = hm * hp * (hm + hp)
        w = -2.0 * hp / denom + (dim - 1.0) / ri * hp * hp / denom
        e = -2.0 * hm / denom - (dim - 1.0) / ri * hm * hm / denom
        # Flux form over the cell [r - hm/2, r + hp/2] where w > 0; float_power
        # calls the C library's pow, as a Python float power does.
        flux = w > 0.0
        rf, hmf, hpf = ri[flux], hm[flux], hp[flux]
        cell = 0.5 * (hmf + hpf) * np.float_power(rf, dim - 1.0)
        w[flux] = -np.float_power(rf - 0.5 * hmf, dim - 1.0) / (hmf * cell)
        e[flux] = -np.float_power(rf + 0.5 * hpf, dim - 1.0) / (hpf * cell)
        lower[1:-1] = w
        diag[1:-1] = -(w + e)
        upper[1:-1] = e
        diag[grid.m] = 1.0
        self._lower = lower
        self._diag = diag
        self._upper = upper
        rowsum = np.zeros(n)
        rowsum[grid.m] = 1.0
        self._factors = Tridiagonal(lower, diag, upper, rowsum)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Row action: -Lap w at nodes 0..M-1, plain w at the boundary row."""
        w = np.asarray(w, dtype=float)
        out = self._diag * w
        out[:-1] += self._upper[:-1] * w[1:]
        out[1:] += self._lower[1:] * w[:-1]
        return out

    def solve_dirichlet(self, f: np.ndarray) -> np.ndarray:
        """Solve -Lap w = f with w(1) = 0 (the boundary entry of f is ignored).

        When f is nonnegative the discrete maximum principle applies and
        the solution is checked to be nonnegative up to roundoff.
        """
        rhs = np.asarray(f, dtype=float).copy()
        rhs[-1] = 0.0
        sol = self._factors.solve(rhs)
        if np.all(rhs >= 0.0):
            floor = -1e-12 * max(1.0, float(np.max(np.abs(sol))))
            if np.min(sol) < floor:
                raise NumericalError(
                    f"maximum principle violated: min {np.min(sol):.3e} for nonnegative data"
                )
        return sol

    def to_dense(self) -> np.ndarray:
        a = np.diag(self._diag)
        a += np.diag(self._upper[:-1], 1)
        a += np.diag(self._lower[1:], -1)
        return a


def assemble_radial_laplacian(grid: RadialGrid) -> RadialLaplacian:
    """Build the tridiagonal -Lap operator for the grid."""
    return RadialLaplacian(grid)


@dataclass
class MonotoneResult:
    """Outcome of the monotone Newton iteration.

    state is None only when the Newton correction of solve_minimal turned
    negative or non-finite, which certifies that no representable solution
    exists at this load.  Budget exhaustion is not an outcome: it raises
    BudgetError.  iterations counts Newton iterations, the accepting one
    included.
    """

    state: StatePair | None
    iterations: int

    @property
    def converged(self) -> bool:
        return self.state is not None


def _laplacian_blocks(op: RadialLaplacian):
    """-Lap on both components as (2, 2, n) block stacks; block i couples
    (u_i, v_i), and the caller fills the coupling of the diagonal blocks."""
    n = op._diag.size
    lower = np.zeros((2, 2, n))
    diag = np.zeros((2, 2, n))
    upper = np.zeros((2, 2, n))
    for i in range(2):
        lower[i, i], diag[i, i], upper[i, i] = op._lower, op._diag, op._upper
    return lower, diag, upper


def _check_load(lam: float, gam: float) -> None:
    for name, value in (("lam", lam), ("gam", gam)):
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"{name} must be positive and finite, got {value}")


def solve_minimal(
    e: ExponentPair,
    lam: float,
    gam: float,
    grid: RadialGrid,
    *,
    tol: float = 1e-10,
    seed: StatePair | None = None,
) -> MonotoneResult:
    """Minimal solution of -Lap u = lam (v+1)^p, -Lap v = gam (u+1)^theta.

    Each iteration takes the Picard step d = (-Lap)^{-1} F(u, v) - (u, v)
    and then the Newton step delta, J delta = (-Lap) d, with the Jacobian
    J = (-Lap) - f' and f' the cross-coupled diagonal lam p (v+1)^(p-1),
    gam theta (u+1)^(theta-1).  It is formed as delta = d + e with
    J e = f' max(d, 0), so the Laplacian is never applied to d.  A state is
    accepted once max delta < tol (never below roundoff).  From (0, 0) or a
    subsolution seed (e.g. the minimal solution at a smaller load) the
    iterates of this convex cooperative system stay subsolutions below
    every solution, so d >= 0 (asserted) and, while a solution exists, J is
    an M-matrix and e >= 0: a negative or non-finite e certifies that this
    load has no (representable) solution.

    The two Picard solves reuse the grid's factors of -Lap.  J e = f' max(d, 0)
    is solved by 2x2-block cyclic reduction on the blocks (u_i, v_i),
    without pivoting: while J is an M-matrix every block pivot is one too,
    with a nonnegative inverse, so e is a sum of nonnegative terms and its
    sign does not rest on cancellation.  It can turn negative or non-finite
    only through a pivot that has lost that sign pattern, as past the fold
    (or within roundoff of it).
    """
    _check_load(lam, gam)
    op = grid.laplacian
    n = grid.m + 1
    if seed is not None and seed.u.size != n:
        raise ConfigurationError("seed state does not match the grid")
    u, v = (np.zeros(n), np.zeros(n)) if seed is None else (seed.u, seed.v)
    p, theta = float(e.p), float(e.theta)
    lower, diag, upper = _laplacian_blocks(op)
    for k in range(1, _NEWTON_BUDGET + 1):
        du = op.solve_dirichlet(lam * (v + 1.0) ** p) - u
        dv = op.solve_dirichlet(gam * (u + 1.0) ** theta) - v
        scale = max(1.0, float(np.max(u + du)), float(np.max(v + dv)))
        if min(float(np.min(du)), float(np.min(dv))) < -1e-9 * scale:
            raise NumericalError("monotone iteration decreased; seed not a subsolution?")
        fu = lam * p * (v + 1.0) ** (p - 1.0)
        fv = gam * theta * (u + 1.0) ** (theta - 1.0)
        # the Dirichlet rows are uncoupled
        diag[0, 1, :-1] = -fu[:-1]
        diag[1, 0, :-1] = -fv[:-1]
        rhs = np.stack((fu * np.maximum(dv, 0.0), fv * np.maximum(du, 0.0)))
        corr = solve_block_tridiagonal(lower, diag, upper, rhs)
        if not float(np.min(corr)) >= 0.0:
            return MonotoneResult(None, k)
        du += corr[0]
        dv += corr[1]
        u, v = u + du, v + dv
        # A tol below the roundoff of an n-point solve reads as that roundoff.
        if max(float(np.max(du)), float(np.max(dv))) < max(tol, n * _EPS * scale):
            return MonotoneResult(StatePair(u, v), k)
    raise BudgetError(f"Newton budget of {_NEWTON_BUDGET} iterations exhausted at lam={lam:.12g}")


def stability_mu1(
    e: ExponentPair,
    state: StatePair,
    lam: float,
    gam: float,
    grid: RadialGrid,
) -> float:
    """Principal eigenvalue mu1 of -Lap(phi) = mu W phi, Dirichlet data.

    W = sqrt(lam gam p theta (v+1)^(p-1) (u+1)^(theta-1)) is the
    geometric-mean linearized weight; mu1 >= 1 is the semi-stability
    inequality satisfied by minimal solutions.  On the nodes 0..M-1, mu1
    is the smallest eigenvalue of W^(-1/2) (-Lap) W^(-1/2).  Opposite
    off-diagonals of the M-matrix -Lap have a nonnegative product, so a
    diagonal similarity makes it a symmetric tridiagonal M-matrix, and
    shifted inverse iteration on it brackets mu1 from both sides until the
    bracket is a few eps wide (`_cyclic.smallest_eigenvalue`).
    """
    _check_load(lam, gam)
    op = grid.laplacian
    p, theta = float(e.p), float(e.theta)
    u, v = state.u[:-1], state.v[:-1]
    w = np.sqrt(lam * gam * p * theta * (v + 1.0) ** (p - 1.0) * (u + 1.0) ** (theta - 1.0))
    diag = op._diag[:-1] / w
    off = -np.sqrt(op._upper[:-2] * op._lower[1:-1] / (w[:-1] * w[1:]))
    return smallest_eigenvalue(diag, off)


@dataclass(frozen=True)
class ContinuationConfig:
    """Knobs for continue_ray; defaults match the desk-scale studies.

    `exle continue` reads its bracket_tol and max_steps defaults from here.
    Its tol default is 1e-12, tighter than the 1e-10 here; neither moves,
    since either change would change output bytes.
    """

    bracket_tol: float = 1e-4  # relative to lambda_lo
    tol: float = 1e-10
    max_steps: int = 200

    def __post_init__(self):
        if not (self.bracket_tol > 0):
            raise ConfigurationError(f"bracket_tol must be positive, got {self.bracket_tol}")
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (self.tol > 0):
            raise ConfigurationError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class Trial:
    """One trial load (lam, gam) of continue_ray and what solve_minimal made of it.

    state is the minimal solution there, with mu1 its stability_mu1, or
    None when a negative Newton step certified that the load has no
    solution.  chosen_by names what picked the load: "walk" (the geometric
    search for the first load without a solution), "predictor" (the
    certification loads around the Moore-Spence fold) or "bisection".
    """

    lam: float
    gam: float
    iterations: int
    chosen_by: str
    state: StatePair | None = None
    mu1: float | None = None

    @property
    def converged(self) -> bool:
        return self.state is not None


@dataclass
class Branch:
    """Minimal branch along gamma = sigma * lambda up to the fold bracket.

    trials logs every load handed to solve_minimal, in order, and is the
    only record of the run; the rest is read from it.  points are the
    converged trials, with increasing lambda and pointwise nondecreasing
    states.  lambda_lo is the load of the last point, and lambda_hi the
    smallest load certified to have no solution (budget exhaustion never
    sets it); each is None until such a trial exists.
    lambda_fold is the fold load of the Moore-Spence solve when it lay
    inside the bracket and no trial outcome contradicted it, else None;
    fold_iterations counts that solve's Newton iterations (0 if it never
    ran).
    """

    sigma: float
    trials: list[Trial] = field(default_factory=list)
    lambda_fold: float | None = None
    fold_iterations: int = 0

    @property
    def points(self) -> list[Trial]:
        return [t for t in self.trials if t.converged]

    @property
    def lambda_lo(self) -> float | None:
        return next((t.lam for t in reversed(self.trials) if t.converged), None)

    @property
    def lambda_hi(self) -> float | None:
        return min((t.lam for t in self.trials if not t.converged), default=None)

    @property
    def bracket_rel_width(self) -> float | None:
        lo, hi = self.lambda_lo, self.lambda_hi
        return None if lo is None or hi is None else (hi - lo) / lo

    @property
    def mu1_min(self) -> float | None:
        return min((pt.mu1 for pt in self.points), default=None)


def _fold_newton(
    e: ExponentPair,
    sigma: float,
    lam: float,
    state: StatePair,
    grid: RadialGrid,
    tol: float,
) -> tuple[float | None, int]:
    """Fold load of the ray by Newton on the Moore-Spence system.

    Solves F(w, lam) = 0, J(w, lam) phi = 0, l.phi = 1 (Moore & Spence
    1980), which is regular at a simple fold, from a converged state w at
    lam below it.  phi starts from a few inverse-iteration steps with J
    there, and l = phi / (phi.phi).  Each step is bordered (Keller 1977)
    with two 2x2-block solves of two right-hand sides each on J:
    a = -J^{-1} F and b = -J^{-1} F_lam, then c' = -J^{-1} (J_w phi) a and
    d = -J^{-1} ((J_w phi) b + J_lam phi).  With c = c' - phi the step is
    dlam = (1 - l.phi - l.c) / (l.d) = (1 - l.c') / (l.d), dw = a + dlam b
    and phi + dphi = c' + dlam d.

    Returns (lam_fold, iterations) once the step in (w, lam) is below tol
    or sqrt(eps) relative, and (None, iterations) when an iterate is
    non-finite or _FOLD_BUDGET runs out.  Past the fold J is
    not an M-matrix, so nothing here is certified: continue_ray only
    places trial loads with the result.
    """
    op = grid.laplacian
    expo = np.array([[float(e.p)], [float(e.theta)]])
    ray = np.array([[1.0], [sigma]])
    blocks = _laplacian_blocks(op)
    diag = blocks[1]
    w = np.stack((state.u, state.v))

    def linearize(w, lam):
        # f(w) = lam * f0, with f0 and its derivatives in the other
        # component; the Dirichlet rows are uncoupled.
        base = w[::-1] + 1.0
        f0 = ray * base**expo
        f1 = ray * expo * base ** (expo - 1.0)
        f2 = ray * expo * (expo - 1.0) * base ** (expo - 2.0)
        for f in (f0, f1, f2):
            f[:, -1] = 0.0
        diag[0, 1] = -lam * f1[0]
        diag[1, 0] = -lam * f1[1]
        return f0, f1, f2

    linearize(w, lam)
    phi = np.ones_like(w)
    phi[:, -1] = 0.0
    for _ in range(_NULL_STEPS):
        phi = solve_block_tridiagonal(*blocks, phi)
        phi /= np.max(phi)
    ell = phi / np.sum(phi * phi)
    # Iterates past the fold may leave the domain of the powers; a
    # non-finite iterate ends the solve, so numpy need not warn of it.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(1, _FOLD_BUDGET + 1):
            f0, f1, f2 = linearize(w, lam)
            residual = np.stack((op.apply(w[0]), op.apply(w[1]))) - lam * f0
            ab = solve_block_tridiagonal(*blocks, np.stack((-residual, f0), axis=1))
            a, b = ab[:, 0], ab[:, 1]
            # (J_w phi) x = -curv * x[::-1] and J_lam phi = -f1 * phi[::-1]
            curv = lam * f2 * phi[::-1]
            rhs = np.stack((curv * a[::-1], curv * b[::-1] + f1 * phi[::-1]), axis=1)
            cd = solve_block_tridiagonal(*blocks, rhs)
            c, d = cd[:, 0], cd[:, 1]
            dlam = float((1.0 - np.sum(ell * c)) / np.sum(ell * d))
            dw = a + dlam * b
            phi = c + dlam * d
            w = w + dw
            lam = lam + dlam
            if not (math.isfinite(lam) and np.all(np.isfinite(w)) and np.all(np.isfinite(phi))):
                return None, k
            # In the quadratic phase a step of sqrt(eps) relative leaves an
            # error of order eps, while smaller steps are roundoff-decided.
            scale = max(1.0, abs(lam), float(np.max(np.abs(w))))
            if max(abs(dlam), float(np.max(np.abs(dw)))) < max(tol, math.sqrt(_EPS) * scale):
                return lam, k
    return None, _FOLD_BUDGET


def continue_ray(
    e: ExponentPair,
    sigma: float,
    grid: RadialGrid,
    config: ContinuationConfig = ContinuationConfig(),
) -> Branch:
    """Walk the minimal branch along gamma = sigma * lambda to the fold.

    Three phases run in turn; the bracket is done once it is
    config.bracket_tol relative wide or its ends are adjacent floats.
    1. Walk: lambda starts at 1e-3, doubles after a load with a solution
       and halves after one without, until both bracket ends exist.
    2. Fold prediction, skipped if the bracket is done: _fold_newton
       solves for the fold from the last accepted state.  If its lam_f
       lies inside the bracket, the trials are lam_f (1 - 8 eps) and
       lam_f (1 - eps), expected to converge, then lam_f (1 + eps),
       expected to have no solution, with eps = bracket_tol / 8 (at least
       one rounding error), so the bracket ends bracket_tol / 4 wide.  The
       phase stops once the bracket is done, or drops lam_f when a load
       falls outside the bracket or its outcome disagrees.
    3. Bisection until the bracket is done.
    Only the outcomes of solve_minimal move the bracket, so it is
    certified whichever phase closed it.  States are pointwise
    nondecreasing along the branch, which is asserted.  Running out of
    trial loads or of Newton iterations in one solve raises BudgetError
    carrying the partial branch.

    Each trial load lam is seeded with the secant z = w1 + (lam - lam1) s,
    s = (w1 - w0) / (lam1 - lam0), through the last two accepted points
    (lam0, w0), (lam1, w1); the state 0 at load 0 counts as the first
    point, so the first seed is (lam / lam1) w1.  Every trial lies above
    lam1, and s >= 0, so z >= w0.  Writing w1 as a convex combination of z
    and w0, convexity of (.+1)^p gives, in the u component,
    -Lap z <= lam1 (z_v+1)^p + (lam - lam1) (w0_v+1)^p <= lam (z_v+1)^p,
    and likewise in v: z is a subsolution at lam, so solve_minimal keeps
    d >= 0 and its "no solution" certificate.  If lam1 - lam0 <= 4 eps lam1,
    the seed is w1 (t = 0), a subsolution at every lam > lam1 too.
    """
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    branch = Branch(sigma=sigma)
    zero = np.zeros(grid.m + 1)
    origin = (0.0, StatePair(zero, zero))

    def attempt(lam: float, chosen_by: str) -> bool:
        """Solve at lam and log the trial; True if solved."""
        if len(branch.trials) >= config.max_steps:
            raise BudgetError(
                f"continuation budget of {config.max_steps} solves exhausted",
                partial=branch,
            )
        # The last two accepted points, oldest first: (load, state).
        (lam0, w0), (lam1, w1) = (
            [origin, origin] + [(pt.lam, pt.state) for pt in branch.points[-2:]]
        )[-2:]
        seed = None
        if lam1 > 0.0:
            t = (lam - lam1) / (lam1 - lam0) if lam1 - lam0 > 4.0 * _EPS * lam1 else 0.0
            seed = StatePair(w1.u + t * (w1.u - w0.u), w1.v + t * (w1.v - w0.v))
        gam = sigma * lam
        try:
            result = solve_minimal(e, lam, gam, grid, tol=config.tol, seed=seed)
        except BudgetError as exc:
            raise BudgetError(str(exc), partial=branch) from exc
        state, mu1 = result.state, None
        if state is not None:
            slack = -1e-9 * max(1.0, state.sup_u, state.sup_v)
            if float(np.min(state.u - w1.u)) < slack or float(np.min(state.v - w1.v)) < slack:
                raise NumericalError("branch states are not nondecreasing in lambda")
            mu1 = stability_mu1(e, state, lam, gam, grid)
        branch.trials.append(Trial(lam, gam, result.iterations, chosen_by, state, mu1))
        return state is not None

    def done() -> bool:
        lo, hi = branch.lambda_lo, branch.lambda_hi
        # A midpoint equal to an end means the ends are adjacent floats.
        return hi - lo <= config.bracket_tol * lo or 0.5 * (lo + hi) in (lo, hi)

    trial = _LAMBDA_INIT
    while branch.lambda_lo is None or branch.lambda_hi is None:
        if attempt(trial, "walk"):
            trial *= _GROWTH
        else:
            trial /= _GROWTH
            if branch.lambda_lo is None and trial < 1e-300:
                raise NumericalError("no convergent load found above 1e-300")

    lam_fold = None
    if not done():
        last = branch.points[-1]
        lam_fold, branch.fold_iterations = _fold_newton(
            e, sigma, last.lam, last.state, grid, config.tol
        )
        if lam_fold is not None and branch.lambda_lo < lam_fold < branch.lambda_hi:
            eps = max(config.bracket_tol / 8.0, _EPS)
            for load, expected in (
                (lam_fold * (1.0 - 8.0 * eps), True),
                (lam_fold * (1.0 - eps), True),
                (lam_fold * (1.0 + eps), False),
            ):
                if done():
                    break
                inside = branch.lambda_lo < load < branch.lambda_hi
                if not inside or attempt(load, "predictor") != expected:
                    lam_fold = None
                    break
        else:
            lam_fold = None

    while not done():
        attempt(0.5 * (branch.lambda_lo + branch.lambda_hi), "bisection")
    branch.lambda_fold = lam_fold
    return branch
