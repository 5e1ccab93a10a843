"""Every demo script runs to completion, reports no failure and prints
exactly its pinned output in ``tests/demo_outputs/<stem>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "demo_outputs"


def test_there_are_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_reports_no_failure(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines
    # statuses print as "...: pass" or lead their line; checks as ": True"
    failing = [line for line in lines if ": fail" in line
               or line.startswith("fail") or line.endswith(": False")]
    assert not failing, done.stdout
    assert done.stdout == (PINNED / f"{demo.stem}.txt").read_text()
