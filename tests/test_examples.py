"""Smoke tests: every example script runs to completion at small scale."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str]):
    """Execute an example as __main__ with a controlled argv."""
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


@pytest.mark.parametrize(
    "name,argv",
    [
        ("quickstart.py", ["20"]),
        ("scheduler_comparison.py", ["20"]),
        ("multi_tenant_consolidation.py", ["20"]),
        ("trace_toolkit.py", []),
        ("graduated_sla.py", ["15"]),
        ("shared_server_isolation.py", ["15"]),
        ("online_provisioning.py", ["40"]),
        ("storage_array_sim.py", ["15"]),
        ("trace_twin.py", ["30"]),
        ("brownout_monitoring.py", ["20"]),
    ],
)
def test_example_runs(name, argv, capsys):
    run_example(name, argv)
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_capacity_planning_example(capsys, monkeypatch):
    # capacity_planning reads its trace from argv[1] if present; run the
    # default (library) path but at the script's built-in duration.
    run_example("capacity_planning.py", [])
    out = capsys.readouterr().out
    assert "Cmin" in out
    assert "knee" in out


def test_brownout_example_figures(capsys):
    """The fault-plane brownout reproduces the example's published figures."""
    run_example("brownout_monitoring.py", ["20"])
    out = capsys.readouterr().out
    assert "overall <= 200 ms: 81.1%" in out
    assert "violated windows: ['6s', '7s', '8s', '9s']" in out
    assert "availability (1 s windows >= 80%): 80.0%" in out
