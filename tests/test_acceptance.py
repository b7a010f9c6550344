"""Acceptance suite: one criterion per test, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines with
their measured values; each test also asserts, so a plain pytest run
still gates on every criterion.
"""

import math
import time

import numpy as np
import pytest

from exle import (
    ContinuationConfig,
    ExponentPair,
    RadialGrid,
    assemble_radial_laplacian,
    check_polynomial_identities,
    continue_ray,
    energy_report,
    eval_L,
    largest_root_L,
    rescale,
    restrict_state,
    scaling_exponents,
    singular_profile,
    souplet_check,
    stability_product,
    threshold_report,
    threshold_rows,
)

PAIR22 = ExponentPair(2.0, 2.0)


def line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def grid_reports():
    values = np.round(1.1 + 0.1 * np.arange(190), 10)
    assert values[-1] == 20.0
    i, j = np.triu_indices(values.size)
    p, theta = values[i], values[j]
    start = time.perf_counter()
    rep = threshold_rows(p, theta)
    elapsed = time.perf_counter() - start
    return elapsed, p, theta, rep


def run_branch(m):
    grid = RadialGrid.uniform(3, m)
    start = time.perf_counter()
    branch = continue_ray(PAIR22, 1.0, grid, ContinuationConfig(bracket_tol=1e-4))
    elapsed = time.perf_counter() - start
    return elapsed, grid, branch


@pytest.fixture(scope="module")
def branch_256():
    return run_branch(256)


@pytest.fixture(scope="module")
def branch_512():
    return run_branch(512)


def test_criterion_1_symmetric_closed_forms():
    start = time.perf_counter()
    root = largest_root_L(PAIR22)
    rep = threshold_report(PAIR22)
    elapsed = time.perf_counter() - start
    root_err = abs(root - (4.0 + 2.0 * math.sqrt(2.0)))
    rep_err = abs(rep.n_new - (10.0 + 4.0 * math.sqrt(2.0)))
    ok = root_err < 1e-10 and rep_err < 1e-9 and elapsed < 1.0
    assert line(
        1,
        "symmetric-closed-forms",
        ok,
        f"root err {root_err:.2e}, dimension err {rep_err:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_strict_improvement_on_grid(grid_reports):
    elapsed, p, theta, rep = grid_reports
    diagonal = p == theta
    worst_off = float(rep.improvement[~diagonal].min())
    worst_diag = float(np.abs(rep.improvement[diagonal]).max())
    ok = worst_off > 0.0 and worst_diag < 1e-8 and elapsed < 30.0
    assert line(
        2,
        "grid-improvement",
        ok,
        f"{p.size} pairs, min off-diagonal {worst_off:.3e}, "
        f"max diagonal {worst_diag:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_x0_exceeds_four(grid_reports):
    _, p, _, rep = grid_reports
    min_x0 = float(rep.x0.min())
    ok = min_x0 > 4.0
    assert line(3, "x0-above-four", ok, f"min x0 {min_x0:.6f} over {p.size} pairs")


def test_criterion_4_identity_residuals():
    rng = np.random.default_rng(2024)
    worst = 0.0
    signs_ok = True
    samples = 0
    pairs = [PAIR22, ExponentPair(2.0, 3.0)]
    draws = rng.uniform(1.02, 15.0, size=(50, 2))
    pairs += [ExponentPair(min(a, b), max(a, b)) for a, b in draws]
    for pair in pairs:
        report = check_polynomial_identities(pair, sample_count=20, seed=7)
        samples += 20
        worst = max(worst, report.worst_residual()[1])
        signs_ok = signs_ok and all(report.signs.values())
    ok = worst < 1e-9 and signs_ok and samples >= 1000
    assert line(
        4,
        "identity-residuals",
        ok,
        f"{samples} samples, worst residual {worst:.2e}, signs {'ok' if signs_ok else 'BAD'}",
    )


def test_criterion_5_stability_sign_equivalence():
    rng = np.random.default_rng(4096)
    exceptions = 0
    checked = 0
    target = 10_000
    while checked < target:
        a, b = rng.uniform(1.02, 15.0, size=2)
        pair = ExponentPair(min(a, b), max(a, b))
        p, _ = pair.canonical()
        s0 = largest_root_L(pair)
        for s in rng.uniform(p + 1.0 + 1e-6, 1.5 * s0, size=10):
            ls = eval_L(pair, float(s))
            if abs(ls) <= 1e-6:
                continue
            checked += 1
            if (stability_product(pair, float(s)) > 1.0) != (ls < 0.0):
                exceptions += 1
    ok = exceptions == 0
    assert line(
        5,
        "stability-sign-equivalence",
        ok,
        f"{checked} samples, {exceptions} exceptions",
    )


def souplet_slack(state, grid, lam, gam, p, theta):
    kappa = gam * (p + 1.0) / (lam * (theta + 1.0))
    alpha = max(0.0, kappa ** (1.0 / (p + 1.0)) - 1.0)
    h = grid.spacing
    sup_u, sup_v = np.max(state, axis=1)
    return h * h * (
        1.0
        + (sup_v + 1.0 + alpha) ** (p + 1.0)
        + kappa * (sup_u + 1.0) ** (theta + 1.0)
    )


def test_criterion_6_fold_bracket_and_stability(branch_256, branch_512):
    t_coarse, grid_c, coarse = branch_256
    t_fine, grid_f, fine = branch_512
    width = coarse.bracket_rel_width
    mid_c = 0.5 * (coarse.lambda_lo + coarse.lambda_hi)
    mid_f = 0.5 * (fine.lambda_lo + fine.lambda_hi)
    shift = abs(mid_f - mid_c) / mid_c
    mu_min = min(coarse.mu1_min, fine.mu1_min)
    souplet_ok = True
    for grid, branch in ((grid_c, coarse), (grid_f, fine)):
        for pt in branch.points:
            slack = souplet_slack(pt.state, grid, pt.lam, pt.gam, 2.0, 2.0)
            if souplet_check(PAIR22, pt.state, pt.lam, pt.gam) < -slack:
                souplet_ok = False
    elapsed = t_coarse + t_fine
    ok = (
        width <= 1e-3
        and shift <= 0.01
        and mu_min >= 1.0 - 1e-6
        and souplet_ok
        and elapsed < 120.0
    )
    assert line(
        6,
        "fold-bracket-stability",
        ok,
        f"width {width:.2e}, midpoint shift {shift:.2e}, min mu1 {mu_min:.8f}, "
        f"souplet {'ok' if souplet_ok else 'BAD'}, {elapsed:.1f}s",
    )


def test_criterion_7_singular_profile():
    amps = singular_profile(PAIR22, 5, 1.0, 1.0)
    exact = amps == (2.0, 2.0)
    se = scaling_exponents(PAIR22)
    errs = []
    for m in (128, 256):
        grid = RadialGrid.uniform(5, m)
        r = grid.nodes.copy()
        r[0] = 1.0  # placeholder; axis rows are masked out below
        u = amps[0] * r**-se.alpha - 1.0
        v = amps[1] * r**-se.beta - 1.0
        op = assemble_radial_laplacian(grid)
        res_u = op.apply(u) - 1.0 * (v + 1.0) ** 2
        res_v = op.apply(v) - 1.0 * (u + 1.0) ** 2
        mask = (grid.nodes >= 0.1) & (grid.nodes <= 0.9)
        errs.append(max(np.abs(res_u[mask]).max(), np.abs(res_v[mask]).max()))
    rate = math.log2(errs[0] / errs[1])
    ok = exact and 1.7 < rate < 2.3
    assert line(
        7,
        "singular-profile",
        ok,
        f"amplitudes {amps}, residual rate {rate:.2f} "
        f"({errs[0]:.2e} -> {errs[1]:.2e})",
    )


def test_criterion_8_energy_stabilizes(branch_256):
    _, grid, branch = branch_256
    s = 0.5 * (2.0 + 1.0 + largest_root_L(PAIR22))
    running = []
    peak = -math.inf
    for pt in branch.points:
        peak = max(peak, energy_report(PAIR22, pt.state, s, grid))
        running.append(peak)
    change = abs(running[-1] - running[-2]) / running[-2]
    ok = len(running) >= 2 and change < 0.05
    assert line(
        8,
        "energy-stabilizes",
        ok,
        f"s = {s:.4f}, running max {running[-2]:.4f} -> {running[-1]:.4f}, "
        f"final change {change:.2%}",
    )


def test_criterion_9_rescale_covariance(branch_256):
    _, grid, branch = branch_256
    state = branch.points[-1].state
    lam = branch.points[-1].lam
    se = scaling_exponents(PAIR22)
    ok = True
    details = []
    for r0 in (0.5, 0.25):
        sub = restrict_state(state, grid, r0)
        zoomed = rescale(PAIR22, sub, r0)
        sup_u_err = abs(
            np.max(zoomed[0] + 1.0) - r0**se.alpha * np.max(sub[0] + 1.0)
        ) / np.max(zoomed[0] + 1.0)
        sup_v_err = abs(
            np.max(zoomed[1] + 1.0) - r0**se.beta * np.max(sub[1] + 1.0)
        ) / np.max(zoomed[1] + 1.0)
        inner = RadialGrid(grid.dim, grid.nodes[: sub.shape[1]] / r0)
        op_fine = assemble_radial_laplacian(grid)
        op_zoom = assemble_radial_laplacian(inner)
        k = sub.shape[1] - 1
        eps_fine = max(
            np.abs((op_fine.apply(state[0]) - lam * (state[1] + 1.0) ** 2)[:k]).max(),
            np.abs((op_fine.apply(state[1]) - lam * (state[0] + 1.0) ** 2)[:k]).max(),
        )
        eps_zoom = max(
            np.abs((op_zoom.apply(zoomed[0]) - lam * (zoomed[1] + 1.0) ** 2)[:k]).max(),
            np.abs((op_zoom.apply(zoomed[1]) - lam * (zoomed[0] + 1.0) ** 2)[:k]).max(),
        )
        ok = ok and sup_u_err < 1e-13 and sup_v_err < 1e-13 and eps_zoom <= 10.0 * eps_fine
        details.append(
            f"R0={r0}: sup errs {sup_u_err:.1e}/{sup_v_err:.1e}, "
            f"residual {eps_fine:.1e} -> {eps_zoom:.1e}"
        )
    assert line(9, "rescale-covariance", ok, "; ".join(details))
