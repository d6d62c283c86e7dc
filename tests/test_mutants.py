"""Every mutant in ``tests/mutants.py`` still aims at code that exists, and the suite kills each one.

Running them reruns their test files once per mutant, so the default run
checks only that each edit would apply: its old text occurs exactly once
in its file. The slow test runs ``python tests/mutants.py`` itself; select
it with ``pytest -m slow``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, occurrences


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert occurrences(mutant) == 1


@pytest.mark.slow
def test_the_suite_kills_every_mutant():
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("mutants.py"))], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
