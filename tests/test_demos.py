"""The public surface as its users meet it: every demo script runs to the end
and prints its pinned bytes, and every exported name resolves."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascadefin as cf

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout; a demo's output changes only on purpose
STDOUT_SHA256 = {
    "failed_bank_profile": "513a412a118b01849f1d5f57474e8912c70f5c568ff27958e4194df51151c61f",
    "phase_transition": "18566578bbf86bf5ffd02e8ff43bb68eb11dc68524acd4a5b560fff5d9789d14",
    "roc_attribution": "22dacfdf9de29df92c44de6ea1af09aba705a002ed49d902a5fb90a9a38ca649",
    "single_cascade": "882183e2f86a2292c1c22a336a01406e5393e1e5e58d541ec80149481395872b",
    "survival_curves": "b5e80157c1e8423854b9b5ec4acb2f8e7d4a7f6c7dd6d27579af4bc5cd060b28",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem]


def test_all_names_resolve_once():
    assert len(set(cf.__all__)) == len(cf.__all__)
    missing = [name for name in cf.__all__ if not hasattr(cf, name)]
    assert missing == []
