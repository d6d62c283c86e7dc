"""Every mutant in ``tests/mutants.py`` still aims at code that exists.

Running them reruns their test files once per mutant, so the suite
checks only that each edit would apply: its old text occurs exactly once
in its file. ``python tests/mutants.py`` runs them.
"""

import pytest

from mutants import MUTANTS, occurrences


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert occurrences(mutant) == 1
