"""README's Library example runs as written, so the documented API cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first fenced python block of the Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    n_new, lo, hi, fold, mu1_min, sup_u, sup_v = map(float, capsys.readouterr().out.split())
    assert n_new > 2.0
    assert lo < fold < hi
    assert mu1_min >= 1.0 - 1e-6
    assert sup_u > 0.0 and sup_v > 0.0
