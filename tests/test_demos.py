"""The public surface as its users meet it: every demo script runs to the end,
and every exported name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascadefin as cf

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_all_names_resolve_once():
    assert len(set(cf.__all__)) == len(cf.__all__)
    missing = [name for name in cf.__all__ if not hasattr(cf, name)]
    assert missing == []
