"""The benchmark's own output checks pass on the listed workloads.

bench/reference.py decides whether a benchmark run is correct: the fold
workload's bracket against a continuum shooting reference, and the
threshold table against an independent root solve and its recorded
sha256.  Running the same checks here makes a change that breaks them fail
the tests, not only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from exle import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """(reference, run) loaded from bench/, as run.py loads its neighbours.

    run.py imports reference and launcher by name, and its dataclasses look
    their module up, so each is in sys.modules while the modules load.
    """
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("reference", "launcher", "run"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
    return modules["reference"], modules["run"]


def test_fold_subcritical_passes_the_bench_checks(bench, tmp_path):
    reference, run = bench
    argv = run.workloads()["fold-subcritical"].argv(tmp_path)
    assert argv[0] == "continue"
    assert cli.main(argv) == 0
    csv = (tmp_path / "branch.csv").read_bytes()
    summary = (tmp_path / "branch.summary.json").read_bytes()
    assert reference.check_branch(csv, summary, reference.shoot_fold(2.0, 3))["problems"] == []


def test_threshold_table_passes_the_bench_checks(bench, tmp_path):
    reference, run = bench
    argv = run.workloads()["threshold-table"].argv(tmp_path)
    assert argv[:3] == ["thresholds", "--grid", "1.1:20:0.1"]
    assert cli.main(argv) == 0
    # The check includes the sha256 gate on the table's bytes.
    assert reference.check_threshold_table((tmp_path / "table.csv").read_bytes())["problems"] == []
