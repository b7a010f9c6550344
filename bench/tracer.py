"""In-process spans and counts around exle's layer boundaries.

The package is left untouched: the public functions at each boundary
are replaced, for the duration of one pass, by wrappers that record a
span (name, start, end, parent) and the solver outcomes.  This works
because the callers resolve them through module globals and the class.
Spans stay in memory; per-layer metrics are derived after the pass.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import exle.cli
import exle.diagnostics
import exle.radial

# (owner, attribute, span name); the span name's prefix is the layer.
BOUNDARIES = (
    (exle.cli, "continue_ray", "radial.continue_ray"),
    (exle.cli, "souplet_check", "diagnostics.souplet_check"),
    (exle.cli, "energy_report", "diagnostics.energy_report"),
    (exle.cli, "extremal_extrapolate", "diagnostics.extremal_extrapolate"),
    (exle.cli, "threshold_report", "thresholds.threshold_report"),
    (exle.cli, "largest_root_L", "thresholds.largest_root_L"),
    (exle.diagnostics, "threshold_report", "thresholds.threshold_report"),
    (exle.radial, "solve_minimal", "radial.solve_minimal"),
    (exle.radial, "stability_mu1", "radial.stability_mu1"),
    (exle.radial, "assemble_radial_laplacian", "radial.assemble"),
    (exle.radial.RadialLaplacian, "solve_dirichlet", "radial.solve_dirichlet"),
)

# The span whose results are the nonlinear-solve trials counted per pass.
_TRIAL = "radial.solve_minimal"


class Tracer:
    """Spans and solver outcomes of one pass."""

    def __init__(self):
        # [name, start, end, parent index or -1, root name]
        self.spans: list[list] = []
        # (converged, sweeps) of every solve_minimal call, in call order
        self.trials: list[tuple[bool, int]] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else name
        record = [name, 0.0, 0.0, parent, root]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, fn):
        trials = self.trials if name == _TRIAL else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if trials is not None:
                trials.append((bool(result.converged), int(result.iterations)))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Route every boundary call through a recording wrapper."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in BOUNDARIES]
        try:
            for owner, attr, name in BOUNDARIES:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, thresholds_root: str) -> dict[str, tuple[float, str]]:
    """Per-layer times and counts of one traced pass, by metric name.

    Times are summed span durations; a `self` time subtracts the child
    spans.  thresholds.* come from spans under the root span named
    thresholds_root, so a replay pass can stand in for pool workers.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    mu1_solves = 0
    for i, (name, _, _, parent, root) in enumerate(spans):
        if name.startswith("thresholds.") and root != thresholds_root:
            continue
        total[name] = total.get(name, 0.0) + dur[i]
        self_time[name] = self_time.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "radial.solve_dirichlet" and parent >= 0 and spans[parent][0] == "radial.stability_mu1":
            mu1_solves += 1

    def t(name):
        return total.get(name, 0.0)

    solves = calls.get("radial.solve_dirichlet", 0)
    pairs = calls.get("thresholds.threshold_report", 0)
    sweeps = [n for _, n in tracer.trials]
    return {
        "cli.self_s": (self_time.get("cli.main", 0.0), "s"),
        "radial.solve_minimal_s": (t("radial.solve_minimal"), "s"),
        "radial.stability_mu1_s": (t("radial.stability_mu1"), "s"),
        "radial.assemble_s": (t("radial.assemble"), "s"),
        "radial.continue_ray_self_s": (self_time.get("radial.continue_ray", 0.0), "s"),
        "radial.solve_dirichlet_us": (1e6 * t("radial.solve_dirichlet") / solves if solves else 0.0, "us"),
        "diagnostics.souplet_check_s": (t("diagnostics.souplet_check"), "s"),
        "diagnostics.energy_report_s": (t("diagnostics.energy_report"), "s"),
        "diagnostics.extremal_extrapolate_s": (t("diagnostics.extremal_extrapolate"), "s"),
        "thresholds.threshold_report_s": (t("thresholds.threshold_report"), "s"),
        "thresholds.largest_root_L_s": (t("thresholds.largest_root_L"), "s"),
        "thresholds.us_per_pair": (1e6 * t("thresholds.threshold_report") / pairs if pairs else 0.0, "us"),
        # Machine-independent counters: equal on every pass of the same code.
        "thresholds.threshold_report.calls": (pairs, "count"),
        "radial.trials": (len(tracer.trials), "count"),
        "radial.trials_accepted": (sum(ok for ok, _ in tracer.trials), "count"),
        "radial.picard_sweeps": (sum(sweeps), "count"),
        "radial.max_sweeps": (max(sweeps, default=0), "count"),
        "radial.banded_solves": (solves, "count"),
        "radial.mu1_solves": (mu1_solves, "count"),
        "diagnostics.calls": (
            sum(calls.get(n, 0) for n in (
                "diagnostics.souplet_check",
                "diagnostics.energy_report",
                "diagnostics.extremal_extrapolate",
            )),
            "count",
        ),
    }

