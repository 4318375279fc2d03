"""Smoke test of the demo scripts: each runs to completion and prints its
summary, so a library change that breaks a demo fails here."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, expected", [
    ("patch_test.py", "patch test passed"),
    ("meshes_and_overlay.py", "area conservation"),
    ("dd_interface_solver.py", "relative difference vs monolithic solve"),
    ("displacement_baseline.py", "final-level stress error"),
    ("convergence_mixed.py", "wrote convergence_nonmatching.csv"),
])
def test_demo_runs(script, expected, capsys, monkeypatch, tmp_path):
    # Demos that write files write them into the working directory.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
