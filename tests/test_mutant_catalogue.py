"""The mutant catalogue still fits the source: each fragment occurs once, each test exists.

Running the mutants takes a second or more each (``python3 tests/mutants.py``); this
check takes milliseconds, so a refactor that moves a fragment, or renames
a test a mutant names, must port the catalogue entry in the same change.
"""

import re

import pytest

from mutants import CATALOGUE, ROOT, apply


def test_mutant_names_are_unique():
    names = [m.name for m in CATALOGUE]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_each_fragment_occurs_once_and_mutates(mutant):
    source = (ROOT / mutant.file).read_text()
    assert apply(mutant, source) != source


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.M), node
