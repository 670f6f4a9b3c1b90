"""Smoke-run the fast example scripts: the documented entry points must
keep working.

The two heaviest walkthroughs (hyperthreading_throughput, defensiveness_
politeness) run multi-minute co-run matrices and are exercised indirectly
through the experiment drivers instead.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "affinity_hierarchy_demo.py",
    "interprocedural_reordering.py",
    "adopt_external_profile.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example prints a report


def test_affinity_demo_asserts_paper_sequences(capsys):
    # this example contains its own fidelity assertions; reaching the end
    # means Fig. 1 and Fig. 2 reproduced.
    runpy.run_path(str(EXAMPLES / "affinity_hierarchy_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "B1 B4 B2 B3 B5" in out
    assert "A B E F C" in out


def test_interprocedural_example_improves(capsys):
    runpy.run_path(
        str(EXAMPLES / "interprocedural_reordering.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "icache misses" in l]
    assert len(lines) == 2
    original = int(lines[0].split(":")[1].split("(")[0])
    optimized = int(lines[1].split(":")[1].split("(")[0])
    assert optimized < original
