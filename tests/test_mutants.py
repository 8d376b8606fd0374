"""The mutant registry of `tests/mutants.py` matches the source it mutates
and the tests it names, so that `tests/run_mutants.py` can apply it."""

from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {path.name: path.read_text() for path in (ROOT / "src" / "qrc1").glob("*.py")}


@pytest.mark.parametrize("mutant", MUTANTS + EQUIVALENT, ids=lambda m: m.name)
def test_each_snippet_occurs_exactly_once_in_src(mutant):
    assert mutant.snippet != mutant.replacement
    assert SOURCES[mutant.file].count(mutant.snippet) == 1
    assert sum(text.count(mutant.snippet) for text in SOURCES.values()) == 1


def test_each_mutant_has_a_unique_name_and_names_tests_that_exist():
    assert len({m.name for m in MUTANTS + EQUIVALENT}) == len(MUTANTS + EQUIVALENT)
    for mutant in MUTANTS:
        assert mutant.tests and not mutant.reason, mutant.name
        for node in mutant.tests:
            path, _, name = node.partition("::")
            assert not name or f"\ndef {name}(" in (ROOT / path).read_text(), node
    assert all(m.reason and not m.tests for m in EQUIVALENT)
