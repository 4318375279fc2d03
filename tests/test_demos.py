"""Smoke test of the demo scripts: each runs to completion and prints its
summary, so a library change that breaks a demo fails here."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, expected", [
    ("patch_test.py", "patch test passed"),
    ("meshes_and_overlay.py", "area conservation"),
])
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
