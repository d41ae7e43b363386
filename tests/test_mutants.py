"""The mutant list of ``scripts/mutants.py`` stays aimed at the code.

Running the mutants takes minutes and is not part of this suite.  What is
checked here is cheap: each entry's text occurs exactly once in its file,
its replacement differs, the mutated file still compiles, and the test
files that must kill it exist, so a refactor that moves a fast path fails
here until its mutant is re-aimed.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
MUTANTS = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS.MUTANTS,
                         ids=lambda mutant: mutant.name)
def test_each_mutant_is_aimed_at_one_text(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text
    # A mutant that only breaks the syntax would count as killed.
    compile(source.replace(mutant.text, mutant.replacement), mutant.path,
            "exec")
    assert mutant.tests and all((ROOT / name).is_file()
                                for name in mutant.tests)
    assert mutant.reason


def test_mutant_names_are_distinct():
    names = [mutant.name for mutant in MUTANTS.MUTANTS]
    assert len(set(names)) == len(names)
