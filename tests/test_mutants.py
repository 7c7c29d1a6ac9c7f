"""tests/mutants.py's list, checked without running a mutant: every line it
replaces occurs once in its file, and every kill id names collected tests, so
that a renamed test or an edited line shows here rather than as a mutant that
pytest never ran."""

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutated_line_occurs_once(mutant):
    with open(os.path.join(ROOT, mutant.path)) as fh:
        text = fh.read()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert bool(mutant.kills) != bool(mutant.proof)


def test_every_kill_id_is_collected():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", "tests"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {line for line in proc.stdout.splitlines() if "::" in line}
    # a test id without its parameters selects every parametrized case
    functions = {test.split("[")[0] for test in collected}
    missing = sorted({(m.name, kill) for m in MUTANTS for kill in m.kills
                      if kill not in collected and kill not in functions})
    assert missing == []
