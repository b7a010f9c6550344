#!/usr/bin/env python3
"""Benchmark of the exle CLI on three named workloads.

Run from the root of a source checkout; nothing needs to be installed:

    python3 bench/run.py --workload fold-subcritical --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all

--trace 0 times `python3 -m exle.cli ...` subprocesses one after another
for --seconds and prints the end-to-end metrics.  --trace 1 calls
exle.cli.main in-process, with spans around each layer boundary, and
prints the per-layer metrics.  Every output is checked against the
independent references in reference.py.  The last line of a
single-workload run is one JSON object with the keys correct, attempted,
failed and metrics; the metric names come from BENCHMARK.json.

--all runs both modes on every workload, prints every metric by name
with its unit, writes the results to --out (and the traced result next
to it) and exits 1 if any output check failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import reference
from launcher import TIMEOUT_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "bench" / "results" / "latest.json"

MIN_INVOCATIONS = 3
SETUP_SAMPLES = 9
MIN_PASSES = 2  # per kind, so traced counters can be compared
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    """A fixed `exle` command line and the reference its output is checked against."""

    args: tuple[str, ...]
    lam_ref: float | None = None  # continuum fold load; None for the table

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.args[0] == "continue":
            return ("branch.csv", "branch.summary.json")
        return ("table.csv",)

    def argv(self, work: Path) -> list[str]:
        return [*self.args, "--out", str(work / self.outputs[0])]

    def check(self, blobs: list[bytes]) -> dict:
        if self.lam_ref is None:
            return reference.check_threshold_table(blobs[0])
        return reference.check_branch(blobs[0], blobs[1], self.lam_ref)


def workloads() -> dict[str, Workload]:
    lam_sup, sigma_sup = reference.singular_fold(1.5, 4.0, 20)
    return {
        "fold-subcritical": Workload(
            ("continue", "--p", "2", "--theta", "2", "--sigma", "1", "--dim", "3",
             "--nodes", "1024"),
            reference.shoot_fold(2.0, 3),
        ),
        "fold-supercritical": Workload(
            ("continue", "--p", "1.5", "--theta", "4", "--sigma", repr(sigma_sup),
             "--dim", "20", "--nodes", "4096"),
            lam_sup,
        ),
        "threshold-table": Workload(("thresholds", "--grid", "1.1:20:0.1")),
    }


@dataclass
class Result:
    """Outcome of one run: metrics by name as (value, unit), plus context."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


class OutputChecker:
    """Checks each distinct output once and notes outputs that differ between runs."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.paths = [work / name for name in workload.outputs]
        self.checks: dict[str, dict] = {}

    def clear(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)

    def check(self) -> dict:
        try:
            blobs = [path.read_bytes() for path in self.paths]
        except OSError as exc:
            return {"problems": [f"output missing: {exc}"]}
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        if digest not in self.checks:
            self.checks[digest] = self.workload.check(blobs)
        return self.checks[digest]

    def finish(self, res: Result) -> dict:
        """Fold the checks into res; return the check of the first output."""
        if len(self.checks) > 1:
            res.problems.append(f"{len(self.checks)} different outputs from identical runs")
        for check in self.checks.values():
            for problem in check["problems"]:
                if problem not in res.problems:
                    res.problems.append(problem)
        return next(iter(self.checks.values()), {"ref_rel_err": 1.0})


@dataclass(frozen=True)
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


class Launcher:
    """Client of launcher.py, which starts every timed child (see there why)."""

    def __init__(self, work: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> Invocation:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return Invocation(**json.loads(reply))

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def timed_run(name: str, wl: Workload, seconds: float, work: Path) -> Result:
    res = Result(name)
    py = sys.executable
    setup_argv = [py, "-c", "import exle.cli"]
    checker = OutputChecker(wl, work)
    argv = [py, "-m", "exle.cli", *wl.argv(work)]
    setup: list[float] = []
    runs: list[Invocation] = []

    def probe_setup(launcher):
        probe = launcher.run(setup_argv)
        if probe.code != 0:
            res.problems.append(f"import exle.cli failed: {probe.stderr.strip()}")
        setup.append(probe.wall_s)

    with Launcher(work) as launcher:
        launcher.run(setup_argv)  # compiles the bytecode; not timed
        # Start-up probes are spread over the run, so a burst of load on a
        # shared machine moves few of them.  Probes and checks count toward
        # --seconds, so the run's length does not grow with them.
        start = time.perf_counter()
        elapsed = 0.0
        while len(runs) < MIN_INVOCATIONS or elapsed < seconds:
            if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
                probe_setup(launcher)
            checker.clear()
            inv = launcher.run(argv)
            runs.append(inv)
            if inv.code != 0:
                res.failed += 1
                res.problems.append(f"exit code {inv.code}: {inv.stderr.strip()}")
            elif checker.check()["problems"]:
                res.failed += 1
            elapsed = time.perf_counter() - start
        while len(setup) < SETUP_SAMPLES:
            probe_setup(launcher)
    res.attempted = len(runs)
    check = checker.finish(res)
    walls = [inv.wall_s for inv in runs]
    res.metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(inv.cpu_s for inv in runs), "s"),
        "peak_rss_mb": (statistics.median(inv.peak_rss_mb for inv in runs), "MB"),
        "ref_rel_err": (check["ref_rel_err"], "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    q1, _, q3 = statistics.quantiles(walls, n=4)
    res.info.update(samples=len(runs), wall_q1_s=q1, wall_q3_s=q3, wall_max_s=max(walls))
    if wl.lam_ref is None:
        res.metrics["pairs_per_s"] = (check.get("rows", 0) / res.metrics["wall_s"][0], "1/s")
    else:
        res.metrics["fold_rel_err"] = (check.get("fold_rel_err", math.nan), "ratio")
        # Recorded as reported, never gated on.
        res.info["bounded_looking"] = check.get("bounded_looking")
        res.info["budget_exhausted"] = check.get("budget_exhausted")
    return res


def _grid_pairs(spec: str):
    """The exponent pairs `exle thresholds --grid spec` tabulates, p <= theta."""
    from exle.thresholds import ExponentPair

    lo, hi, step = (float(t) for t in spec.split(":"))
    values = [lo + k * step for k in range(int(math.floor((hi - lo) / step + 1e-9)) + 1)]
    return [ExponentPair(a, b) for i, a in enumerate(values) for b in values[i:]]


def traced_run(name: str, wl: Workload, seconds: float, work: Path) -> Result:
    """In-process passes of exle.cli.main, alternating untraced and traced.

    On the table, pool workers hide the thresholds layer, so each pass
    also replays the same pairs in-process (root span bench.replay).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import exle.cli
    import tracer

    res = Result(name)
    checker = OutputChecker(wl, work)
    argv = wl.argv(work)
    replay = _grid_pairs(wl.args[2]) if wl.lam_ref is None else []

    def one_pass(tr):
        checker.clear()
        start = time.perf_counter()
        if tr is None:
            code = exle.cli.main(argv)
            for pair in replay:
                exle.cli.threshold_report(pair)
        else:
            with tr.installed():
                with tr.span("cli.main"):
                    code = exle.cli.main(argv)
                if replay:
                    report = exle.cli.threshold_report
                    with tr.span("bench.replay"):
                        for pair in replay:
                            report(pair)
        elapsed = time.perf_counter() - start
        res.attempted += 1
        if code != 0:
            res.failed += 1
            res.problems.append(f"exle.cli.main returned {code}")
        elif checker.check()["problems"]:
            res.failed += 1
        return elapsed

    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(one_pass(None))
        tr = tracer.Tracer()
        traced.append(one_pass(tr))
        layers.append(tracer.layer_metrics(tr, "bench.replay" if replay else "cli.main"))
    checker.finish(res)

    for metric, (value, unit) in layers[0].items():
        if unit == "count":
            seen = {layer[metric][0] for layer in layers}
            if len(seen) > 1:
                res.problems.append(f"counter {metric} differs between traced passes: {sorted(seen)}")
            res.metrics[metric] = (value, unit)
        else:
            res.metrics[metric] = (statistics.median(layer[metric][0] for layer in layers), unit)
    res.metrics["trace.pass_s"] = (statistics.median(plain), "s")
    res.metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    res.info["passes"] = len(traced)
    return res


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "EXLE_NUM_WORKERS_set": "EXLE_NUM_WORKERS" in os.environ,
        "EXLE_NUM_WORKERS": os.environ.get("EXLE_NUM_WORKERS"),
    }


def run_one(name: str, seconds: float, trace: int) -> Result:
    wl = workloads()[name]
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        if trace:
            return traced_run(name, wl, seconds, work)
        return timed_run(name, wl, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_metrics(res: Result) -> None:
    for metric, (value, unit) in res.metrics.items():
        print(f"metric {res.workload} {metric} {value!r} {unit}")
    if res.info:
        print(f"info {res.workload} {json.dumps(res.info, sort_keys=True)}")
    for problem in res.problems:
        print(f"problem {res.workload} {problem}")


def result_line(res: Result, spec_metrics: list[dict]) -> str:
    metrics = {}
    correct = res.correct
    for item in spec_metrics:
        value, unit = res.metrics[item["name"]]
        if unit != item["unit"]:
            raise SystemExit(f"unit of {item['name']} is {unit}, BENCHMARK.json says {item['unit']}")
        if not math.isfinite(value):
            correct, value = False, 0.0
        metrics[item["name"]] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    })


def run_all(seed: int, seconds: float, out: Path) -> int:
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    results = {}
    for name in workloads():
        for trace in (0, 1):
            res = run_one(name, seconds, trace)
            print_metrics(res)
            results[(name, trace)] = res
    ok = all(res.correct for res in results.values())

    def dump(trace: int) -> dict:
        return {
            "env": env,
            "seed": seed,
            "seconds": seconds,
            "correct": all(res.correct for (_, t), res in results.items() if t == trace),
            "workloads": {
                name: {
                    "attempted": res.attempted,
                    "failed": res.failed,
                    "problems": res.problems,
                    "metrics": {m: {"value": v, "unit": u} for m, (v, u) in res.metrics.items()},
                    "info": res.info,
                }
                for (name, t), res in results.items() if t == trace
            },
        }

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(dump(0), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    trace_out = out.with_suffix(".trace.json")
    trace_out.write_text(json.dumps(dump(1), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out} and {trace_out}; all checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads()))
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="result file for --all")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "exle" / "cli.py").is_file():
        print(f"error: no exle sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    # The workloads are fixed command lines that later changes are measured
    # on; the seed is recorded but selects nothing.
    if args.all:
        return run_all(args.seed, seconds, args.out)
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    res = run_one(args.workload, seconds, args.trace)
    print_metrics(res)
    print(result_line(res, spec["per_layer" if args.trace else "end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
