"""Independent references and output checks for the benchmark workloads.

Nothing here imports exle.  Each reference is recomputed from the
mathematics with numpy/scipy, so a defect in the package cannot hide in
the code that checks it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np
from scipy.integrate import solve_ivp

# sha256 of `exle thresholds --grid 1.1:20:0.1`, identical with the
# default pool and with one worker; the table must stay byte-identical.
THRESHOLD_TABLE_SHA256 = "6be12e868c8a4d3ee121795bf0fcda38fc24a347d9ef6607c59cd42a72974cd6"
THRESHOLD_HEADER = "p,theta,t0,s0,x0,n_cowan,n_new,improvement"
BRANCH_HEADER = "lambda,gamma,sup_u,sup_v,mu1,souplet_margin,energy_J2,iterations"

# Both ends of the fold bracket must lie within this relative distance of
# the continuum fold.  The reported brackets sit within 6e-5 of it; the
# grid offset at the benchmark resolutions is O(1e-6).
FOLD_REF_TOL = 5e-4
BRACKET_REL_WIDTH_MAX = 1e-4
MU1_MIN = 1.0
SOUPLET_MARGIN_FLOOR = -1e-9
# Table columns carry 12 significant digits; roots are solved to 1e-12.
TABLE_REL_TOL = 1e-10
IMPROVEMENT_FLOOR = -1e-9


def shoot_fold(p: float, dim: int) -> float:
    """Fold load of -Lap w = lam w^p in the unit ball, w = 1 on the sphere.

    This is the symmetric branch u = v = w - 1 of the system with
    p = theta and sigma = 1.  With -Lap W = W^p, W(0) = 1 in R^dim, every
    solution is w(r) = W(rho r) / W(rho) at the load
    lam(rho) = rho^2 W(rho)^(p-1) (Emden-Fowler scaling).  The fold is
    the first maximum of lam(rho), where 2 W + (p-1) rho W' = 0.
    """

    def rhs(r, y):
        w, dw = y
        return [dw, -(dim - 1.0) / r * dw - max(w, 0.0) ** p]

    def turning(r, y):
        return 2.0 * y[0] + (p - 1.0) * r * y[1]

    turning.terminal = True
    turning.direction = -1
    r0 = 1e-6  # series start: W = 1 - r^2 / (2 dim) + O(r^4)
    sol = solve_ivp(
        rhs,
        (r0, 1e3),
        [1.0 - r0 * r0 / (2.0 * dim), -r0 / dim],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        events=turning,
    )
    if sol.status != 1 or not sol.t_events[0].size:
        raise RuntimeError(f"shooting found no fold for p={p}, dim={dim}")
    rho = float(sol.t_events[0][0])
    w = float(sol.y_events[0][0][0])
    return rho * rho * w ** (p - 1.0)


def singular_fold(p: float, theta: float, dim: int) -> tuple[float, float]:
    """(lam*, sigma) for which the singular pair is the extremal solution.

    With alpha = 2(p+1)/(p theta - 1) and beta = 2(theta+1)/(p theta - 1),
    (u+1, v+1) = (r^-alpha, r^-beta) solves the system at
    lam = a = alpha (N-2-alpha) and gam = b = beta (N-2-beta), so on the
    ray sigma = b/a the extremal load is a exactly (above the dimension
    threshold, where the extremal solution is singular).
    """
    d = p * theta - 1.0
    alpha = 2.0 * (p + 1.0) / d
    beta = 2.0 * (theta + 1.0) / d
    a = alpha * (dim - 2.0 - alpha)
    b = beta * (dim - 2.0 - beta)
    return a, b / a


def check_branch(csv_bytes: bytes, summary_bytes: bytes, lam_ref: float) -> dict:
    """Check one `exle continue` output against the fold reference lam_ref.

    Returns problems (empty when every check passes), ref_rel_err (the
    larger relative distance from lam_ref to either end of the bracket),
    fold_rel_err (|lambda_lo - lam_ref| / lam_ref) and the flags the
    summary reports without gating on them.
    """
    problems: list[str] = []
    summary = json.loads(summary_bytes)
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    if not rows or ",".join(rows[0]) != BRANCH_HEADER:
        problems.append("branch CSV header differs")
    lams = [float(row[0]) for row in rows[1:]]
    if not lams or any(b <= a for a, b in zip(lams, lams[1:])):
        problems.append("branch loads are not strictly increasing")
    lo, hi = summary.get("lambda_lo"), summary.get("lambda_hi")
    if lo is None or hi is None or not lo < hi:
        problems.append(f"bracket is not ordered: lambda_lo={lo}, lambda_hi={hi}")
        lo = hi = math.nan
    elif lams and not abs(lams[-1] - lo) <= 1e-11 * lo:  # CSV keeps 12 digits
        problems.append("last branch row is not lambda_lo")
    width = summary.get("bracket_rel_width")
    if width is None or not width <= BRACKET_REL_WIDTH_MAX:
        problems.append(f"bracket_rel_width {width} > {BRACKET_REL_WIDTH_MAX}")
    mu1 = summary.get("mu1_min")
    if mu1 is None or not mu1 >= MU1_MIN:
        problems.append(f"mu1_min {mu1} < {MU1_MIN}")
    margin = summary.get("souplet_margin_min")
    if margin is None or not margin >= SOUPLET_MARGIN_FLOOR:
        problems.append(f"souplet_margin_min {margin} < {SOUPLET_MARGIN_FLOOR}")
    ref_rel_err = max(abs(lo - lam_ref), abs(hi - lam_ref)) / lam_ref
    if not ref_rel_err <= FOLD_REF_TOL:
        problems.append(
            f"bracket [{lo}, {hi}] is {ref_rel_err:.3e} from the reference fold {lam_ref!r}"
        )
    return {
        "problems": problems,
        "ref_rel_err": ref_rel_err,
        "fold_rel_err": abs(lo - lam_ref) / lam_ref,
        "bounded_looking": summary.get("bounded_looking"),
        "budget_exhausted": summary.get("budget_exhausted"),
    }


def energy_quartic_roots(p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Largest real root of L(s) = s^4 - c2 s^2 + c1 s - c0 for p <= theta.

    c2 = 16 p th (p+1)/(th+1), c1 = 16 p th (p+1)(p+th+2)/(th+1)^2 and
    c0 = 16 p th (p+1)^2/(th+1)^2.  Roots are the eigenvalues of the
    companion matrix, as numpy.roots computes them, batched over rows.
    """
    f = 16.0 * p * theta * (p + 1.0) / (theta + 1.0) ** 2
    c2, c1, c0 = f * (theta + 1.0), f * (p + theta + 2.0), f * (p + 1.0)
    comp = np.zeros((p.size, 4, 4))
    comp[:, 0, 1] = c2
    comp[:, 0, 2] = -c1
    comp[:, 0, 3] = c0
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots.real))
    return np.where(real, roots.real, -np.inf).max(axis=1)


def check_threshold_table(csv_bytes: bytes) -> dict:
    """Check an `exle thresholds` table row by row against the quartic.

    Every row is checked: s0 against the companion-matrix roots, t0 and
    n_cowan against their closed forms, x0 and n_new against s0,
    improvement >= 0 to root tolerance, and on the diagonal
    s0 = 2p + 2 sqrt(p^2 - p).  The bytes must match the recorded hash.
    ref_rel_err is the largest relative error of n_new.
    """
    problems: list[str] = []
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if digest != THRESHOLD_TABLE_SHA256:
        problems.append(f"threshold table sha256 {digest} differs from the recorded table")
    lines = csv_bytes.decode("utf-8").splitlines()
    if not lines or lines[0] != THRESHOLD_HEADER:
        problems.append("threshold table header differs")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if data.ndim != 2 or data.shape[1] != 8:
        problems.append("threshold table rows do not have 8 columns")
        return {"problems": problems, "ref_rel_err": math.inf, "rows": 0}
    p, theta, t0, s0, x0, n_cowan, n_new, improvement = data.T
    if np.any(p > theta):
        problems.append("threshold table has rows with p > theta")
    k = (theta + 1.0) / (p * theta - 1.0)
    s0_ref = energy_quartic_roots(p, theta)
    m = p * theta * (p + 1.0) / (theta + 1.0)
    t0_ref = np.sqrt(m) + np.sqrt(m - np.sqrt(m))
    n_new_ref = 2.0 + 2.0 * k * s0_ref

    def rel(a, b):
        return np.abs(a - b) / np.abs(b)

    for name, got, want in (
        ("s0", s0, s0_ref),
        ("t0", t0, t0_ref),
        ("x0", x0, k * s0_ref),
        ("n_cowan", n_cowan, 2.0 + 4.0 * k * t0_ref),
        ("n_new", n_new, n_new_ref),
    ):
        err = rel(got, want)
        bad = ~(err <= TABLE_REL_TOL)
        if np.any(bad):
            i = int(np.argmax(np.where(bad, err, -1.0)))
            problems.append(
                f"{int(bad.sum())} rows have {name} off by > {TABLE_REL_TOL:g}, e.g. "
                f"p={p[i]!r} theta={theta[i]!r}: {got[i]!r} vs {want[i]!r}"
            )
    if np.any(improvement < IMPROVEMENT_FLOOR):
        problems.append(f"{int((improvement < IMPROVEMENT_FLOOR).sum())} rows have improvement < 0")
    diag = p == theta
    s0_diag = 2.0 * p[diag] + 2.0 * np.sqrt(p[diag] ** 2 - p[diag])
    if not diag.any() or np.any(~(rel(s0[diag], s0_diag) <= TABLE_REL_TOL)):
        problems.append("diagonal rows do not match s0 = 2p + 2 sqrt(p^2 - p)")
    return {
        "problems": problems,
        "ref_rel_err": float(np.max(rel(n_new, n_new_ref))),
        "rows": int(p.size),
    }
