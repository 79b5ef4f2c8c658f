"""The mutant table of tests/mutants.py stays in step with src/: each mutant
changes one place in its file, and the tests it names exist."""

import pytest

from .mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_changes_one_place(mutant):
    text = (ROOT / "src" / "cdmetrics" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old
    assert all((ROOT / test.partition("::")[0]).is_file() for test in mutant.tests)
