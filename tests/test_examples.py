"""Every script under ``examples/`` runs to completion.

Each example asserts its own claims (equivalence after optimization,
heuristic vs exact cover sizes, ...), so running it in-process as
``__main__`` is the whole check.  The examples write no files.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
