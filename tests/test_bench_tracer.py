"""bench/tracer.py keeps working against the package it wraps.

The benchmark's traced passes replace the package functions named in
tracer.BOUNDARIES; a renamed or moved function would break them, and
nothing else would notice.
"""

import importlib.util
from pathlib import Path

import pytest

from exle import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_passes_fire_every_span(tracer, tmp_path):
    for owner, attr, name in tracer.BOUNDARIES:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)
    tr = tracer.Tracer()
    with tr.installed():
        with tr.span("cli.main"):
            code = cli.main([
                "continue", "--p", "2", "--theta", "2", "--nodes", "32",
                "--out", str(tmp_path / "branch.csv"),
            ])
        assert code == 0
        with tr.span("cli.main"):
            code = cli.main([
                "thresholds", "--grid", "1.1:1.5:0.1", "--out", str(tmp_path / "table.csv"),
            ])
        assert code == 0
        # The 3-point continue branch is too short for extremal_extrapolate,
        # which returns None; roots calls threshold_report.
        with tr.span("cli.main"):
            code = cli.main(["roots", "--p", "2", "--theta", "3"])
        assert code == 0
    # the wrappers are gone again
    for owner, attr, _ in tracer.BOUNDARIES:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    names = [span[0] for span in tr.spans]
    for _, _, name in tracer.BOUNDARIES:
        assert name in names
    # one operator per grid, and so one assembly per continue pass
    assert names.count("radial.assemble") == 1
    metrics = tracer.layer_metrics(tr, "cli.main")
    assert metrics["radial.trials"][0] == len(tr.trials) > 0
    assert metrics["radial.banded_solves"][0] > 0
    assert metrics["diagnostics.calls"][0] > 0
