"""Radial finite differences and the minimal-solution branch machinery.

Discretizes -Lap(w) = -(w'' + (N-1) w'/r) on [0, 1] with a symmetry row
at r = 0 (from Lap w(0) = N * w''(0)) and a Dirichlet row at r = 1.
On top of the operator sit the monotone Newton solver for the coupled
system, the principal stability eigenvalue, and parameter continuation
along a ray gamma = sigma * lambda up to the fold, in three phases: a
doubling walk from a load that the torsion function certifies to have a
solution to the first load without one, a Moore-Spence Newton solve for
the fold that places three certification loads, and bisection of whatever
bracket those leave too wide.  Each nonlinear solve makes one `Trial`:
`solve_minimal` returns it, and `continue_ray` logs it with what picked
the load and its mu1.

Every linear system here is a tridiagonal M-matrix (-Lap, and -Lap
shifted for mu1) or, while a solution exists, a 2x2-block tridiagonal
M-matrix (the Newton Jacobian).  They are solved by odd-even cyclic
reduction in numpy (`_cyclic`): an M-matrix needs no pivoting, and the
reduction adds terms of one sign only, so nonnegative data give a
solution whose sign is exact.  -Lap is factored once per grid, from its
off-diagonals and its row sums (zero but at the Dirichlet row), which
makes its solves accurate entry by entry.  The grid owns that factored
operator (`RadialGrid.laplacian`), so every solver on one grid shares it,
and its `jacobian` assembles J = -Lap - f' for both Newton solves.

A state is a float array of shape (2, n) sampled on the n grid nodes,
row 0 = u and row 1 = v; its sups are `state.max(axis=1)`.  Solver
states are nonnegative with zero boundary values, which nothing enforces
(rescaled restrictions legitimately violate both); `_as_state` checks the
shape wherever a caller hands a state in, and its length too where the
state comes with a grid.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._cyclic import _EPS, Tridiagonal, smallest_eigenvalue, solve_block_tridiagonal
from .errors import BudgetError, DomainError, NumericalError
from .thresholds import _MAX_FLOATS, ExponentPair, _check_dim, _real

_MIN_INTERVALS = 16
# Newton iterations per nonlinear solve.  Most loads take at most about 15;
# next to a fold the Picard image is accepted once its step is at roundoff.
_NEWTON_BUDGET = 50
# Moore-Spence Newton iterations for the fold.  From the walk's last
# accepted load, a torsion load times a power of 2 within a factor 2 below
# the fold, folds below the critical dimension take 6 or 7, and 12 on
# (1.01, 20) at N = 12 (m = 128 to 2048); above it the fold state is large,
# the solve takes 12 to 29 and more as m grows (measured up to m = 1024),
# and such rays mostly fall back to bisection.
_FOLD_BUDGET = 12
# Trial loads per branch: the walk, the certification loads and bisection.
_TRIAL_BUDGET = 200
# Inverse-iteration steps for the first null-vector guess of the fold solve.
_NULL_STEPS = 3


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Node set 0 = r_0 < ... < r_M = 1 with the space dimension N, a real
    number >= 1: the operator reads N only through its coefficients."""

    dim: float
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim))
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < _MIN_INTERVALS + 1:
            raise DomainError(
                f"grid needs at least {_MIN_INTERVALS} intervals, got {nodes.size - 1}"
            )
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must increase strictly from 0.0 to 1.0")

    @classmethod
    def uniform(cls, dim: float, m: int) -> "RadialGrid":
        if not isinstance(m, (int, np.integer)) or m < _MIN_INTERVALS:
            raise DomainError(f"m must be an integer >= {_MIN_INTERVALS}, got {m}")
        if m >= _MAX_FLOATS:
            raise DomainError(f"m must be below {_MAX_FLOATS}, got {m}")
        return cls(dim=dim, nodes=np.linspace(0.0, 1.0, int(m) + 1))

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


def _as_state(state, n: int | None = None) -> np.ndarray:
    """state as a float array of shape (2, n): row 0 is u, row 1 is v.
    Given n, the node count of the state's grid, it must have n columns."""
    state = np.asarray(state, dtype=float)
    if state.ndim != 2 or state.shape[0] != 2 or state.shape[1] != (n or state.shape[1]):
        raise DomainError(f"a state must be a (2, {n or 'n'}) array, got shape {state.shape}")
    return state


class RadialLaplacian:
    """Tridiagonal action of -Lap on node fields, Dirichlet row last.

    Interior rows use second-order central differences.  Rows where the
    advective coefficient (N-1)/(2 h r) would overpower 1/h^2 (possible
    only for r < (N-1)h/2, so only for N > 3 next to the axis) fall
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
        # Flux form over the cell [r - hm/2, r + hp/2] where w > 0, the face
        # weights (r -+ h/2)^(N-1) / r^(N-1) formed as one power of their
        # ratio: near the axis the powers alone underflow from N ~ 100.
        # float_power calls the C library's pow, as a Python float power does.
        flux = w > 0.0
        rf, hmf, hpf = ri[flux], hm[flux], hp[flux]
        cell = 0.5 * (hmf + hpf)
        w[flux] = -np.float_power(1.0 - 0.5 * hmf / rf, dim - 1.0) / (hmf * cell)
        e[flux] = -np.float_power(1.0 + 0.5 * hpf / rf, dim - 1.0) / (hpf * cell)
        lower[1:-1] = w
        diag[1:-1] = -(w + e)
        upper[1:-1] = e
        diag[grid.m] = 1.0
        self._lower, self._diag, self._upper = lower, diag, upper
        rowsum = np.zeros(n)
        rowsum[grid.m] = 1.0
        self._factors = Tridiagonal(lower, diag, upper, rowsum)
        # (lower, diag, upper) of -Lap on both components, 2x2 blocks on (u_i, v_i)
        self._blocks = np.zeros((3, 2, 2, n))
        self._blocks[:, (0, 1), (0, 1)] = np.stack((lower, diag, upper))[:, None]
        self._blocks.flags.writeable = False

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Row action on the last axis: -Lap w at nodes 0..M-1, w at node M."""
        w = np.asarray(w, dtype=float)
        out = self._diag * w
        out[..., :-1] += self._upper[:-1] * w[..., 1:]
        out[..., 1:] += self._lower[1:] * w[..., :-1]
        return out

    def solve_dirichlet(self, f: np.ndarray) -> np.ndarray:
        """Solve -Lap w = f, w(1) = 0, for each row of f (its last entry is
        ignored).  By the discrete maximum principle a nonnegative row gives a
        nonnegative solution, checked up to that row's own roundoff."""
        rhs = np.array(f, dtype=float)
        rhs[..., -1] = 0.0
        sol = self._factors.solve(rhs)
        low = np.min(sol, axis=-1)
        floor = -1e-12 * np.maximum(1.0, np.max(np.abs(sol), axis=-1))
        violated = np.all(rhs >= 0.0, axis=-1) & (low < floor)
        if np.any(violated):
            raise NumericalError(
                f"maximum principle violated: min {np.min(low[violated]):.3e} for nonnegative data"
            )
        return sol

    def jacobian(self, coupling: np.ndarray):
        """Blocks (lower, diag, upper) of J = -Lap - f' on (u_i, v_i), with the
        (2, n) coupling f' = (df_u/dv, df_v/du); the Dirichlet rows stay uncoupled."""
        lower, diag, upper = self._blocks
        diag = diag.copy()
        diag[0, 1, :-1] = -coupling[0, :-1]
        diag[1, 0, :-1] = -coupling[1, :-1]
        return lower, diag, upper

    def to_dense(self) -> np.ndarray:
        a = np.diag(self._diag)
        a += np.diag(self._upper[:-1], 1)
        a += np.diag(self._lower[1:], -1)
        return a


def assemble_radial_laplacian(grid: RadialGrid) -> RadialLaplacian:
    """Build the tridiagonal -Lap operator for the grid."""
    return RadialLaplacian(grid)


@dataclass(frozen=True)
class Trial:
    """One nonlinear solve: what solve_minimal returns and continue_ray logs.

    state is the (2, n) minimal solution at the load (lam, gam), or None
    when the Newton correction of solve_minimal turned negative or
    non-finite, which certifies that no representable solution exists
    there.  Budget exhaustion is not an outcome: it raises BudgetError.
    iterations counts Newton iterations, the accepting one included.
    continue_ray sets the fields solve_minimal leaves None: chosen_by names
    what picked the load, "walk" (the geometric search for the first load
    without a solution), "predictor" (the certification loads around the
    Moore-Spence fold) or "bisection", and mu1 is the state's stability_mu1.
    """

    lam: float
    gam: float
    iterations: int
    chosen_by: str | None = None
    state: np.ndarray | None = None
    mu1: float | None = None

    @property
    def converged(self) -> bool:
        return self.state is not None


def _check_load(lam: float, gam: float) -> None:
    # subnormal loads give states whose stability_mu1 weights underflow
    for name, value in (("lam", lam), ("gam", gam)):
        if not 0.0 < _real(value) < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if value < sys.float_info.min:
            raise DomainError(f"{name} must be at least {sys.float_info.min} (normal), got {value}")


def _pow1p(w, c):
    """(1 + w)^c as exp(c log1p(w)), accurate where 1 + w rounds to 1 but
    c w does not; the one form of every power of a state in this package."""
    return np.exp(c * np.log1p(w))


def _reaction(e: ExponentPair, lam: float, gam: float, w: np.ndarray) -> np.ndarray:
    """(F, F', F'') of F(w) = (lam (v+1)^p, gam (u+1)^theta) as a (3, 2, n)
    array, each derivative taken in the other component and 0 at the
    Dirichlet node.  Powers are _pow1p; out of range they are inf, which on
    huge-p rays only F'' reaches, and only the fold solve reads it."""
    expo = np.array([[e.p], [e.theta]])
    load = np.array([[lam], [gam]])
    with np.errstate(over="ignore"):
        coef = np.stack((load, load * expo, load * expo * (expo - 1.0)))
        out = coef * _pow1p(w[::-1], expo - np.arange(3.0)[:, None, None])
    out[..., -1] = 0.0
    return out


def solve_minimal(
    e: ExponentPair,
    lam: float,
    gam: float,
    grid: RadialGrid,
    *,
    seed: np.ndarray | None = None,
) -> Trial:
    """Minimal solution of -Lap u = lam (v+1)^p, -Lap v = gam (u+1)^theta.

    The state w = (u, v) is a (2, n) array, a copy of seed or 0 at the
    start.  Each iteration takes the Picard step d = (-Lap)^{-1} F(w) - w,
    one two-column solve_dirichlet on the grid's factors, and then the
    Newton step delta, J delta = (-Lap) d, with J = (-Lap) - f' from
    `RadialLaplacian.jacobian` and f' the coupling lam p (v+1)^(p-1),
    gam theta (u+1)^(theta-1), both from `_reaction`.  It is formed as
    delta = d + e with J e = f' max(d[::-1], 0), so the Laplacian is never
    applied to d.  The load is accepted once the Picard defect is at
    roundoff, max d <= n eps max(1, w + d).  The Trial's state is then the
    Newton iterate w + delta if max delta is below that roundoff too, and
    the Picard image w + d otherwise, as next to a fold, where e need not
    shrink while |J^{-1}| grows.  Since e >= 0 is checked first, delta >= d,
    so a Newton step at roundoff always has its Picard defect there too.

    From (0, 0) or a subsolution seed (e.g. the minimal solution at a
    smaller load) the iterates of this convex cooperative system stay
    subsolutions below every solution, so d >= 0 (asserted) and, while a
    solution exists, J is an M-matrix and e >= 0: a negative or non-finite
    e certifies that this load has no (representable) solution, and the
    Trial returned has no state.

    J e is solved by 2x2-block cyclic reduction on the blocks (u_i, v_i),
    without pivoting: while J is an M-matrix every block pivot is one too,
    with a nonnegative inverse, so e is a sum of nonnegative terms and its
    sign does not rest on cancellation.  It can turn negative or non-finite
    only through a pivot that has lost that sign pattern, as past the fold
    (or within roundoff of it).
    """
    _check_load(lam, gam)
    op = grid.laplacian
    n = grid.m + 1
    w = np.zeros((2, n)) if seed is None else _as_state(seed, n)
    for k in range(1, _NEWTON_BUDGET + 1):
        f, coupling, _ = _reaction(e, lam, gam, w)
        d = op.solve_dirichlet(f) - w
        scale = max(1.0, float(np.max(w + d)))
        d_min, floor = float(np.min(d)), -1e-9 * scale
        if d_min < floor:
            raise NumericalError(
                f"monotone iteration decreased at lam={lam:.12g}, Newton iteration {k}: "
                f"min d = {d_min:.3g} below its floor {floor:.3g}"
            )
        corr = solve_block_tridiagonal(*op.jacobian(coupling), coupling * np.maximum(d[::-1], 0.0))
        if not float(np.min(corr)) >= 0.0:
            return Trial(lam, gam, k)
        roundoff = n * _EPS * scale
        step = d + corr
        if float(np.max(d)) <= roundoff:
            accepted = step if float(np.max(step)) < roundoff else d
            return Trial(lam, gam, k, state=w + accepted)
        w = w + step
    raise BudgetError(f"Newton budget of {_NEWTON_BUDGET} iterations exhausted at lam={lam:.12g}")


def stability_mu1(
    e: ExponentPair,
    state: np.ndarray,
    lam: float,
    gam: float,
    grid: RadialGrid,
) -> float:
    """Principal eigenvalue mu1 of -Lap(phi) = mu W phi, Dirichlet data.

    With (u, v) the rows of the (2, n) state,
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
    state = _as_state(state, grid.m + 1)
    w = np.sqrt(np.prod(_reaction(e, lam, gam, state)[1, :, :-1], axis=0))
    diag = op._diag[:-1] / w
    off = -np.sqrt(op._upper[:-2] * op._lower[1:-1] / (w[:-1] * w[1:]))
    return smallest_eigenvalue(diag, off)


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
    w: np.ndarray,
    grid: RadialGrid,
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

    Returns (lam_fold, iterations) once the step in (w, lam) is below
    sqrt(eps) relative, and (None, iterations) when an iterate is
    non-finite or _FOLD_BUDGET runs out.  Past the fold J is
    not an M-matrix, so nothing here is certified: continue_ray only
    places trial loads with the result.
    """
    op = grid.laplacian
    # F(w) = lam f0 on the ray, (f0, f1, f2) at unit load, J = -Lap - lam f1;
    # each step forms them at the iterate it starts from.
    f0, f1, f2 = _reaction(e, 1.0, sigma, w)
    blocks = op.jacobian(lam * f1)
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
            residual = op.apply(w) - lam * f0
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
            if max(abs(dlam), float(np.max(np.abs(dw)))) < math.sqrt(_EPS) * scale:
                return lam, k
            f0, f1, f2 = _reaction(e, 1.0, sigma, w)
            blocks = op.jacobian(lam * f1)
    return None, _FOLD_BUDGET


def _torsion_load(e: ExponentPair, sigma: float, grid: RadialGrid) -> float:
    """A load on the ray with a solution, from the torsion function psi.

    With -Lap psi = 1 on the grid and M = max psi, the pair
    (t psi / M, s psi / M) is a supersolution at lam = X / M whenever
    X (1+s)^p <= t and sigma X (1+t)^theta <= s, so by the discrete
    maximum principle a solution exists there and lies below it.  The
    largest such X is where the two curves touch, p theta t s =
    (1+s)(1+t), that is t' s' = 1 / (p theta) with t' = t / (1+t) and
    s' = s / (1+s).  Writing t' = exp(-a), s' = exp(-b), with
    a = l / (1 + exp(-z)), b = l / (1 + exp(z)) and l = log(p theta),
    the two bounds on log X, log t - p log(1+s) and
    log s - log sigma - theta log(1+t), differ by a decreasing function
    of z, whose root bisection finds.  All of it is in logarithms, so
    nothing overflows for any ExponentPair and sigma (X underflows to 0
    only where it lies below every float), and the smaller bound is a load
    with a solution wherever z lands.  For p = theta and sigma = 1, z = 0
    and X = (p-1)^(p-1) / p^p.
    """
    psi = grid.laplacian.solve_dirichlet(np.ones(grid.m + 1))
    p, theta = e.p, e.theta
    ell = math.log(p) + math.log(theta)
    log_sigma = math.log(sigma)

    def log1p_odds(c: float) -> float:
        """log(1 + x) for x / (1 + x) = exp(-c), that is -log(1 - exp(-c)),
        with each branch accurate where the other cancels (Maechler 2012)."""
        if c <= math.log(2.0):
            return -math.log(-math.expm1(-c))
        return -math.log1p(-math.exp(-c))

    def log_bounds(z: float) -> tuple[float, float]:
        a = ell / (1.0 + math.exp(-z))
        b = ell / (1.0 + math.exp(z))
        log1t, log1s = log1p_odds(a), log1p_odds(b)
        return log1t - a - p * log1s, log1s - b - log_sigma - theta * log1t

    # The root lies inside (-600, 600) for every ExponentPair and sigma.
    # An error of eps in z moves a and b by eps relative, so bisection
    # stops there or at adjacent floats, whichever comes first.
    lo, hi = -600.0, 600.0
    z = 0.0
    while hi - lo > _EPS:
        z = 0.5 * (lo + hi)
        if z in (lo, hi):
            break
        log_u, log_v = log_bounds(z)
        if log_u == log_v:
            break
        lo, hi = (z, hi) if log_u > log_v else (lo, z)
    return math.exp(min(log_bounds(z))) / float(np.max(psi))


def continue_ray(
    e: ExponentPair,
    sigma: float,
    grid: RadialGrid,
    *,
    bracket_tol: float = 1e-4,
) -> Branch:
    """Walk the minimal branch along gamma = sigma * lambda to the fold.

    Three phases run in turn; the bracket is done once it is bracket_tol
    wide relative to lambda_lo, or its ends are adjacent floats.  A smaller
    bracket_tol costs more solves.  `exle continue` has the same default,
    written out in its option table so that its parser loads no radial.
    1. Walk: lambda starts at the load _torsion_load certifies to have a
       solution, a third to two thirds of the fold on the rays measured,
       and doubles until the first load without one.  A first trial
       without a solution contradicts that certificate and raises
       NumericalError.
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
    trial loads (_TRIAL_BUDGET) or of Newton iterations in one solve raises
    BudgetError carrying the partial branch.

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
    if not 0.0 < _real(sigma) < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
    tol = _real(bracket_tol)  # an int past the float range is an infinite width
    if not tol > 0.0:
        raise DomainError(f"bracket_tol must be positive, got {bracket_tol!r}")
    branch = Branch()
    origin = (0.0, np.zeros((2, grid.m + 1)))

    def attempt(lam: float, chosen_by: str) -> bool:
        """Solve at lam and log the trial; True if solved."""
        if len(branch.trials) >= _TRIAL_BUDGET:
            raise BudgetError(
                f"continuation budget of {_TRIAL_BUDGET} solves exhausted",
                partial=branch,
            )
        # The last two accepted points, oldest first: (load, state).
        (lam0, w0), (lam1, w1) = (
            [origin, origin] + [(pt.lam, pt.state) for pt in branch.points[-2:]]
        )[-2:]
        seed = None
        if lam1 > 0.0:
            t = (lam - lam1) / (lam1 - lam0) if lam1 - lam0 > 4.0 * _EPS * lam1 else 0.0
            seed = w1 + t * (w1 - w0)
        try:
            trial = solve_minimal(e, lam, sigma * lam, grid, seed=seed)
        except BudgetError as exc:
            raise BudgetError(str(exc), partial=branch) from exc
        state, mu1 = trial.state, None
        if state is not None:
            if float(np.min(state - w1)) < -1e-9 * max(1.0, float(np.max(state))):
                raise NumericalError("branch states are not nondecreasing in lambda")
            mu1 = stability_mu1(e, state, lam, trial.gam, grid)
        branch.trials.append(replace(trial, chosen_by=chosen_by, mu1=mu1))
        return trial.converged

    def done() -> bool:
        lo, hi = branch.lambda_lo, branch.lambda_hi
        # A midpoint equal to an end means the ends are adjacent floats.
        return hi - lo <= tol * lo or 0.5 * (lo + hi) in (lo, hi)

    lam = _torsion_load(e, sigma, grid)
    while attempt(lam, "walk"):
        lam *= 2.0
    if branch.lambda_lo is None:
        raise NumericalError(f"no solution at lam={lam:.12g}, where the torsion function certifies one")

    lam_fold = None
    if not done():
        last = branch.points[-1]
        lam_fold, branch.fold_iterations = _fold_newton(e, sigma, last.lam, last.state, grid)
        if lam_fold is not None and branch.lambda_lo < lam_fold < branch.lambda_hi:
            eps = max(tol / 8.0, _EPS)
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
