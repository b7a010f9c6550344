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
budget and `continue` still writes the partial branch).  A JSON config
file (flat keys mirroring the flags) can seed any command; explicit flags
win.  Every config key is also a flag, and the option table marks the
required ones.  The tol of `continue` is the Newton correction tolerance;
elsewhere it is the width of the root bracket.

The summary of `continue` holds the certified fold bracket lambda_lo <
lambda_hi and lambda_fold, the fold load of the Moore-Spence solve that
placed the bracket, or null when the run fell back to bisection.

Only `continue` loads radial, _cyclic and diagnostics; every other command
needs numpy and thresholds alone.  The names cmd_continue calls from those
modules (continue_ray, RadialGrid, ContinuationConfig, souplet_check,
energy_report, extremal_extrapolate) are attributes of this module bound on
first access (PEP 562), so `exle.cli.continue_ray` still resolves, and a
function set there, such as a tracing wrapper, is the one `continue` calls.
`exle thresholds` keeps one root per pair and forms each 512-row chunk of
the table from it.

No command calls BLAS, so this module sets OPENBLAS_NUM_THREADS=1 before
it first imports numpy; otherwise numpy's OpenBLAS starts a worker thread
that spins for about 0.1 s of CPU in every process.  It leaves the
variable alone when the caller has set it, or when numpy was imported
before this module, since the variable then no longer takes effect.

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

from .errors import BudgetError, ConfigurationError, DomainError, ExleError
from . import thresholds
from .thresholds import ExponentPair, largest_root_L, threshold_report

if TYPE_CHECKING:
    from .diagnostics import energy_report, extremal_extrapolate, souplet_check
    from .radial import ContinuationConfig, RadialGrid, continue_ray

# The names cmd_continue calls from the `continue` layers, by module.  They
# are bound on first access (PEP 562), so only `continue` loads radial,
# _cyclic and diagnostics; a value set on this module first is kept.
_CONTINUE_NAMES = {
    "continue_ray": "radial",
    "RadialGrid": "radial",
    "ContinuationConfig": "radial",
    "souplet_check": "diagnostics",
    "energy_report": "diagnostics",
    "extremal_extrapolate": "diagnostics",
}


def __getattr__(name: str):
    if name not in _CONTINUE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_CONTINUE_NAMES[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 3

# Per command, the options it accepts as (key, type, default, help); the
# table builds argparse and defines the keys a config file may set.  A
# default of ... marks a required key (no config value can be ...); None
# leaves an optional key without a value.
_P = ("p", float, ..., "first exponent, the power of (v+1)")
_THETA = ("theta", float, ..., "second exponent, the power of (u+1)")
_ROOT_TOL = ("tol", float, 1e-12, "width of the root bracket")

_OPTIONS = {
    "roots": (_P, _THETA, _ROOT_TOL),
    "thresholds": (
        ("grid", str, ..., '"pmin:pmax:step"'),
        _ROOT_TOL,
        ("out", str, None, "output CSV; stdout if unset"),
    ),
    "continue": (
        _P,
        _THETA,
        ("sigma", float, 1.0, "ray slope, gamma = sigma*lambda"),
        ("dim", int, 3, "space dimension N"),
        ("nodes", int, 256, "grid intervals m (m + 1 nodes)"),
        ("tol", float, 1e-12, "Newton correction tolerance"),
        # ContinuationConfig's defaults, written out so that building the
        # parser loads no radial; a test pins them to the class.
        ("bracket_tol", float, 1e-4, "relative width of the fold bracket"),
        ("s", float, None, "energy integrability exponent"),
        ("out", str, "branch.csv", "branch CSV; the summary goes beside it"),
        ("max_steps", int, 200, "trial budget per branch"),
    ),
    "verify": (
        _P,
        _THETA,
        ("samples", int, 200, "sample points per check"),
        ("seed", int, 0, "sampling seed"),
    ),
    "partial": (_P, _THETA, ("dim", int, ..., "space dimension N"), _ROOT_TOL),
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


def _convert(key: str, kind: type, value):
    """Convert a JSON config value as argparse converts the flag's text.

    So {"samples": 2.5} fails as --samples 2.5 does; a list, an object or
    a boolean has no flag text and fails too.
    """
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return kind(str(value))
    raise ConfigurationError(
        f"config key {key}: invalid {kind.__name__} value: {json.dumps(value)}"
    )


def _effective(args: argparse.Namespace, command: str) -> dict:
    """Merge documented defaults, config-file values, then explicit flags.

    Raises DomainError for the first required key, in table order, that
    neither a flag nor the config file set.
    """
    merged = {key: default for key, _, default, _ in _OPTIONS[command]}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = set(raw) - set(merged)
        if unknown:
            raise ConfigurationError(
                f"unknown config keys for {command}: {', '.join(sorted(unknown))}"
            )
        kinds = {key: kind for key, kind, _, _ in _OPTIONS[command]}
        for key, value in raw.items():
            if value is not None:
                merged[key] = _convert(key, kinds[key], value)
    for key in merged:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
        elif merged[key] is ...:
            raise DomainError(f"{command} requires --{key.replace('_', '-')}")
    return merged


def _pair_from(cfg: dict) -> ExponentPair:
    pair = ExponentPair(cfg["p"], cfg["theta"])
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
    cfg = _effective(args, "roots")
    rep = threshold_report(_pair_from(cfg), float(cfg["tol"]))
    _write_lines(None, [
        "t0,s0,x0,n_cowan,n_new,improvement",
        ",".join(_fmt(x) for x in (rep.t0, rep.s0, rep.x0, rep.n_cowan, rep.n_new, rep.improvement)),
    ])
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
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
    if not math.isfinite(span):
        raise DomainError(f"grid has too many values: {spec!r}")
    count = int(math.floor(span + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def cmd_thresholds(args: argparse.Namespace) -> int:
    """threshold table over an exponent grid"""
    cfg = _effective(args, "thresholds")
    values = _parse_grid(str(cfg["grid"]))
    grid = np.array(values)
    # p <= theta, row by row; a grid index fits in 4 bytes.
    first, second = (index.astype(np.int32) for index in np.triu_indices(grid.size))
    tol = float(cfg["tol"])
    # Every root is computed before any byte is written, so a failing pair
    # leaves no partial table behind.  Only s0 is kept; each chunk forms its
    # other columns, which are elementwise and so the same bits.
    s0 = np.empty(first.size)
    for start in range(0, first.size, _TABLE_BLOCK):
        rows = slice(start, start + _TABLE_BLOCK)
        s0[rows] = thresholds.threshold_roots(grid[first[rows]], grid[second[rows]], tol)
    # p and theta are grid values, each formatted once; a chunk of rows is
    # one % over a template that holds them.
    labels = [_FLOAT % v for v in values]
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

    _write_lines(cfg["out"], text())
    return EXIT_OK


def cmd_partial(args: argparse.Namespace) -> int:
    """singular-set dimension bounds"""
    cfg = _effective(args, "partial")
    pair = _pair_from(cfg)
    dim = int(cfg["dim"])
    tol = float(cfg["tol"])
    rep = threshold_report(pair, tol)
    bound, proof_form = thresholds._hausdorff_bounds(rep, dim)
    _write_lines(None, [
        "dim,n_new,bound,bound_proof_form",
        ",".join(_fmt(x) for x in (dim, rep.n_new, bound, proof_form)),
    ])
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """identity and equivalence verification suite"""
    cfg = _effective(args, "verify")
    pair = _pair_from(cfg)
    samples = int(cfg["samples"])
    seed = int(cfg["seed"])
    report = thresholds.check_polynomial_identities(pair, sample_count=samples, seed=seed)
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
    cfg = _effective(args, "continue")
    for name in _CONTINUE_NAMES:  # a name already set here is kept
        if name not in globals():
            __getattr__(name)
    pair = _pair_from(cfg)
    sigma = float(cfg["sigma"])
    dim = int(cfg["dim"])
    grid = RadialGrid.uniform(dim, int(cfg["nodes"]))
    run = ContinuationConfig(
        bracket_tol=float(cfg["bracket_tol"]),
        tol=float(cfg["tol"]),
        max_steps=int(cfg["max_steps"]),
    )
    p_lo, _ = pair.canonical()
    s_energy = float(cfg["s"]) if cfg["s"] is not None else 0.5 * (
        p_lo + 1.0 + largest_root_L(pair)
    )
    thresholds.check_energy_exponent(pair, s_energy)
    out = str(cfg["out"])

    budget_hit = False
    try:
        branch = continue_ray(pair, sigma, grid, run)
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
        "sigma": sigma,
        "dim": dim,
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
    _write_lines(out, lines)
    summary_path = str(Path(out).with_suffix(".summary.json"))
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
        cmd.add_argument("--config", type=str, default=None, help="JSON config file; flags win")
        for key, kind, default, help_text in _OPTIONS[name]:
            if default not in (None, ...):
                help_text = f"{help_text} (default: {default})"
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=help_text)
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
