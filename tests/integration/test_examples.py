"""Every script under ``examples/`` runs to completion (nothing else
executes them; ``analytics_and_scaling.py`` is the facade's only in-repo
caller of ``add_node()`` / ``remove_node()``)."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out  # each one narrates what it did
