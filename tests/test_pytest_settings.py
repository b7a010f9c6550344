"""The repository's pytest settings report a failing property as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_property_is_reported_and_the_run_goes_on(tmp_path):
    # On a failure, Hypothesis imports libcst, whose mypy_extensions import
    # warns DeprecationWarning; under error::DeprecationWarning alone that
    # ended the run in INTERNALERROR before test_passes ran.
    (tmp_path / "test_suite.py").write_text(SUITE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         str(tmp_path / "test_suite.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
