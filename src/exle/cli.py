"""Command-line front end emitting CSV tables and JSON summaries.

Usage:
    exle roots --p 2 --theta 2
    exle thresholds --grid 1.1:5:0.1 --out thresholds.csv
    exle continue --p 2 --theta 2 --sigma 1 --dim 3 --nodes 256 --out branch.csv
    exle verify --p 2 --theta 3 --samples 200 --seed 1
    exle partial --p 2 --theta 2 --dim 16

This module only parses, dispatches and formats; the policies live with
the modules that own them.  Tables print 12 significant digits, verify
residuals 4, and the `continue` summary JSON full-precision floats, all
with LF line endings, so identical inputs give byte-identical output.
Exit codes: 0 success, 1 verification failure, 3 I/O error, and otherwise
the `exit_code` of the package error raised (errors.py: 2 for a domain or
configuration error, 4 for an exhausted budget, where stderr names the
budget and `continue` still writes the partial branch).  Flags are the
only input; the option table marks the required ones.

The summary of `continue` holds the certified fold bracket lambda_lo <
lambda_hi and lambda_fold, the fold load of the Moore-Spence solve that
placed the bracket, or null when the run fell back to bisection.

Only `continue` loads radial, _cyclic and diagnostics; every other command
needs numpy and thresholds alone.  The names cmd_continue calls from those
modules (continue_ray, RadialGrid, souplet_check, energy_report,
extremal_extrapolate) are attributes of this module bound on
first access (PEP 562), so `exle.cli.continue_ray` still resolves, and a
function set there, such as a tracing wrapper, is the one `continue` calls.
`exle thresholds` keeps one root per pair and forms each 512-row chunk of
the table from it.

The one LAPACK call of any command is the least-squares fit of
extremal_extrapolate (np.polyfit, through numpy.linalg.lstsq) over at most
8 tail points of a `continue` branch.  No command needs a second BLAS
thread, so this module sets OPENBLAS_NUM_THREADS=1 before it first imports
numpy; otherwise numpy's OpenBLAS starts a worker thread that spins for
about 0.1 s of CPU in every process.  It leaves the variable alone when
the caller has set it, or when numpy was imported before this module,
since the variable then no longer takes effect.

The `exle` script and `python -m exle.cli` end through console_main: once
main() has returned and stdout and stderr are flushed, the process ends
with os._exit, which skips the interpreter's teardown (module cleanup and
its last garbage collections).  So atexit handlers do not run in the CLI
process.  If a flush fails, the normal exit runs instead and reports a
closed stdout as it always did.  main() itself returns as usual, for tests
and library callers.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread unless the caller chose a count (see the docstring).
if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import importlib
import json
import math
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError, DomainError, ExleError
from . import _HOME, thresholds
from .thresholds import ExponentPair, largest_root_L, threshold_report

if TYPE_CHECKING:
    from .diagnostics import energy_report, extremal_extrapolate, souplet_check
    from .radial import RadialGrid, continue_ray

# The names cmd_continue calls from the `continue` layers, each from its
# module in the package's _HOME table.  They are bound on first access
# (PEP 562), so only `continue` loads radial, _cyclic and diagnostics; a
# value set on this module first is kept.
_CONTINUE_NAMES = ("continue_ray", "RadialGrid", "souplet_check", "energy_report",
                   "extremal_extrapolate")


def __getattr__(name: str):
    if name not in _CONTINUE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 3

# Per command, the options it accepts as (key, type, default, help); the
# table builds argparse.  A default of ... marks a required flag (_require
# checks it); None leaves an optional flag without a value.
_P = ("p", float, ..., "first exponent, the power of (v+1)")
_THETA = ("theta", float, ..., "second exponent, the power of (u+1)")

_OPTIONS = {
    "roots": (_P, _THETA),
    "thresholds": (
        ("grid", str, ..., '"pmin:pmax:step"'),
        ("out", str, None, "output CSV; stdout if unset"),
    ),
    "continue": (
        _P,
        _THETA,
        ("sigma", float, 1.0, "ray slope, gamma = sigma*lambda"),
        ("dim", int, 3, "space dimension N"),
        ("nodes", int, 256, "grid intervals m (m + 1 nodes)"),
        # continue_ray's default, written out so that building the parser
        # loads no radial; a test pins it to the signature.
        ("bracket_tol", float, 1e-4, "relative width of the fold bracket"),
        ("s", float, None, "energy integrability exponent"),
        ("out", str, "branch.csv", "branch CSV; the summary goes beside it"),
    ),
    "verify": (
        _P,
        _THETA,
        ("samples", int, thresholds._SAMPLE_COUNT, "sample points per check"),
        ("seed", int, 0, "sampling seed"),
    ),
    "partial": (_P, _THETA, ("dim", int, ..., "space dimension N")),
}


# Every float of a CSV or stdout table: 12 significant digits.
_FLOAT = "%.12g"
# Pairs per threshold_roots call; it bounds the kernel's temporary arrays.
_TABLE_BLOCK = 2048
# Rows per formatted chunk of the table.  The table keeps s0 alone, 8 B a
# pair; a chunk's other five columns (threshold_columns), float tuple,
# template and text are the formatting transients, which scale with the
# chunk: on 18 145 pairs (Linux, Python 3.11, numpy 2.4) tracemalloc traces
# a peak of 1.45 MB for the whole command at 2048 rows and 0.78 MB at 512.
# Formatting the table takes 30-46 ms (min of 25 runs, 2-core Xeon) at
# every size from 256 to 2048 rows, with no trend.
_TABLE_CHUNK = 512


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return _FLOAT % float(x)


def _write_lines(path: str | None, blocks: Iterable[str]) -> None:
    """Write each block, one line or several, with an LF after it.

    blocks may be any iterable, a generator too: each block is written
    before the next is taken, so a generator's text is never held whole.
    """
    if path is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(path, "w", encoding="utf-8", newline="")
    with target as fh:
        for block in blocks:
            fh.write(block)
            fh.write("\n")


def _require(args: argparse.Namespace) -> None:
    """Raise DomainError for the first required flag, in table order, left unset."""
    for key, _, default, _ in _OPTIONS[args.command]:
        if default is ... and getattr(args, key) is None:
            raise DomainError(f"{args.command} requires --{key.replace('_', '-')}")


def _pair_from(args: argparse.Namespace) -> ExponentPair:
    pair = ExponentPair(args.p, args.theta)
    if pair.p > pair.theta:
        lo, hi = pair.canonical()
        print(
            f"# note: canonical order (p, theta) = ({_fmt(lo)}, {_fmt(hi)}) "
            "used for threshold quantities",
            file=sys.stderr,
        )
    return pair


def cmd_roots(args: argparse.Namespace) -> int:
    """threshold constants for one exponent pair"""
    _require(args)
    rep = threshold_report(_pair_from(args))
    _write_lines(None, [
        "t0,s0,x0,n_cowan,n_new,improvement",
        ",".join(_fmt(x) for x in (rep.t0, rep.s0, rep.x0, rep.n_cowan, rep.n_new, rep.improvement)),
    ])
    return EXIT_OK


def _parse_grid(spec: str) -> tuple[float, float, int]:
    """(lo, step, count) of a "pmin:pmax:step" grid; value k is lo + k step."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f'grid must look like "pmin:pmax:step", got {spec!r}')
    try:
        lo, hi, step = (float(t) for t in parts)
    except ValueError as exc:
        raise DomainError(f"grid values must be numeric: {spec!r}") from exc
    if not all(math.isfinite(t) for t in (lo, hi, step)):
        raise DomainError(f"grid values must be finite: {spec!r}")
    if not (lo < hi) or not (step > 0):
        raise DomainError(f"grid needs pmin < pmax and step > 0, got {spec!r}")
    span = (hi - lo) / step
    count = int(math.floor(span + 1e-9)) + 1 if math.isfinite(span) else None
    # The table holds a float for each of the n(n+1)/2 pairs of n values.
    if count is None or count * (count + 1) // 2 > thresholds._MAX_FLOATS:
        raise DomainError(f"grid has too many values: {spec!r}")
    return lo, step, count


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices (i, j), i <= j < n, row by row, as int32 arrays.

    The same pairs as np.triu_indices(n), without its n x n mask.
    """
    first = np.repeat(np.arange(n, dtype=np.int32), np.arange(n, 0, -1))
    # j steps by 1 along a row and falls back to i where row i starts.
    second = np.ones(first.size, dtype=np.int32)
    second[0] = 0
    second[np.cumsum(np.arange(n, 1, -1))] = np.arange(2 - n, 1)
    np.cumsum(second, dtype=np.int32, out=second)
    return first, second


def cmd_thresholds(args: argparse.Namespace) -> int:
    """threshold table over an exponent grid"""
    _require(args)
    lo, step, count = _parse_grid(args.grid)
    # The per-pair arrays come first, s0 the largest of them, so a grid
    # whose table does not fit in memory fails before anything is formed.
    try:
        s0 = np.empty(count * (count + 1) // 2)
        first, second = _upper_pairs(count)  # p <= theta, row by row
        grid = lo + np.arange(count) * step
    except MemoryError:
        raise DomainError(f"grid has too many values: {args.grid!r}") from None
    # Every root is computed before any byte is written, so a failing pair
    # leaves no partial table behind.  Only s0 is kept; each chunk forms its
    # other columns, which are elementwise and so the same bits.
    for start in range(0, first.size, _TABLE_BLOCK):
        rows = slice(start, start + _TABLE_BLOCK)
        s0[rows] = thresholds.threshold_roots(grid[first[rows]], grid[second[rows]])
    # p and theta are grid values, each formatted once; a chunk of rows is
    # one % over a template that holds them.
    labels = [_FLOAT % v for v in grid.tolist()]
    tail = "," + ",".join([_FLOAT] * 6)

    def text():
        yield "p,theta,t0,s0,x0,n_cowan,n_new,improvement"
        for start in range(0, first.size, _TABLE_CHUNK):
            rows = slice(start, start + _TABLE_CHUNK)
            i, j = first[rows], second[rows]
            rep = thresholds.threshold_columns(grid[i], grid[j], s0[rows])
            columns = np.column_stack(
                (rep.t0, rep.s0, rep.x0, rep.n_cowan, rep.n_new, rep.improvement)
            )
            template = "\n".join([
                labels[a] + "," + labels[b] + tail for a, b in zip(i.tolist(), j.tolist())
            ])
            yield template % tuple(columns.ravel().tolist())

    _write_lines(args.out, text())
    return EXIT_OK


def cmd_partial(args: argparse.Namespace) -> int:
    """singular-set dimension bounds"""
    _require(args)
    rep = threshold_report(_pair_from(args))
    bound, proof_form = thresholds._hausdorff_bounds(rep, args.dim)
    _write_lines(None, [
        "dim,n_new,bound,bound_proof_form",
        ",".join(_fmt(x) for x in (args.dim, rep.n_new, bound, proof_form)),
    ])
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """identity and equivalence verification suite"""
    _require(args)
    report = thresholds.check_polynomial_identities(
        _pair_from(args), sample_count=args.samples, seed=args.seed
    )
    checks = [(name, f"residual {name} {value:.3e}") for name, value in report.residuals.items()]
    checks += [(name, f"sign {name}") for name in report.signs]
    checks.append(("equivalence_scan", "equivalence_scan disagreements %d of %d" % report.scan))
    checks.append(("scaling_identity", f"residual scaling_identity {report.scaling:.3e}"))
    failures = report.failures()
    failed = {name for name, _ in failures}
    lines = [f"{line} {'FAIL' if name in failed else 'PASS'}" for name, line in checks]
    if failures:
        lines.append("RESULT FAIL worst %s %.3e" % failures[0])
    else:
        lines.append("RESULT PASS")
    _write_lines(None, lines)
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_continue(args: argparse.Namespace) -> int:
    """minimal-branch continuation along gamma = sigma*lambda"""
    _require(args)
    for name in _CONTINUE_NAMES:  # a name already set here is kept
        if name not in globals():
            __getattr__(name)
    pair = _pair_from(args)
    grid = RadialGrid.uniform(args.dim, args.nodes)
    p_lo, _ = pair.canonical()
    s_energy = args.s if args.s is not None else 0.5 * (p_lo + 1.0 + largest_root_L(pair))
    thresholds.check_energy_exponent(pair, s_energy)

    budget_hit = False
    try:
        branch = continue_ray(pair, args.sigma, grid, bracket_tol=args.bracket_tol)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        branch = exc.partial
        budget_hit = True

    lines = ["lambda,gamma,sup_u,sup_v,mu1,souplet_margin,energy_J2,iterations"]
    margins = []
    energies = []
    for pt in branch.points:
        margin = souplet_check(pair, pt.state, pt.lam, pt.gam)
        energy = energy_report(pair, pt.state, s_energy, grid)
        margins.append(margin)
        energies.append(energy)
        sup_u, sup_v = np.max(pt.state, axis=1)
        row = (pt.lam, pt.gam, sup_u, sup_v, pt.mu1, margin, energy, pt.iterations)
        lines.append(",".join(_fmt(x) for x in row))

    summary = {
        "p": pair.p,
        "theta": pair.theta,
        "sigma": args.sigma,
        "dim": args.dim,
        "nodes": grid.m,
        "s_energy": s_energy,
        "lambda_lo": branch.lambda_lo,
        "lambda_hi": branch.lambda_hi,
        "lambda_fold": branch.lambda_fold,
        "bracket_rel_width": branch.bracket_rel_width,
        "mu1_min": branch.mu1_min,
        "souplet_margin_min": min(margins) if margins else None,
        "observed_C_s": max(energies) if energies else None,
        "bounded_looking": extremal_extrapolate(branch),
        "budget_exhausted": budget_hit,
    }
    _write_lines(args.out, lines)
    summary_path = str(Path(args.out).with_suffix(".summary.json"))
    _write_lines(summary_path, [json.dumps(summary, sort_keys=True, indent=2)])
    return BudgetError.exit_code if budget_hit else EXIT_OK


_HANDLERS = {
    "roots": cmd_roots,
    "thresholds": cmd_thresholds,
    "continue": cmd_continue,
    "verify": cmd_verify,
    "partial": cmd_partial,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="exle", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        for key, kind, default, help_text in _OPTIONS[name]:
            if default is ...:
                default = None
            elif default is not None:
                help_text = f"{help_text} (default: {default})"
            cmd.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=kind, default=default, help=help_text
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (ExleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ExleError) else EXIT_IO


def console_main() -> None:
    """Run main() and end the process without interpreter teardown."""
    code = main(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)  # teardown reports the stream that failed
    os._exit(code)


if __name__ == "__main__":
    console_main()
