"""The mutant table of tests/mutants.py stays in step with src/ and tests/: each
mutant changes one place in its file, and each test it names is collected."""

import subprocess
import sys

import pytest

from .conftest import SRC_ENV
from .mutants import MUTANTS, ROOT


@pytest.fixture(scope="module")
def collected() -> set[str]:
    """The ids pytest collects from the files the mutants name, in one run."""
    files = sorted({test.partition("::")[0] for mutant in MUTANTS for test in mutant.tests})
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=SRC_ENV, capture_output=True, text=True, check=True)
    return set(result.stdout.splitlines())


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_changes_one_place(mutant, collected):
    text = (ROOT / "src" / "cdmetrics" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old
    # An id names a test, one row of a table, or every row of a parametrized test.
    missing = [test for test in mutant.tests
               if test not in collected and not any(c.startswith(test + "[") for c in collected)]
    assert not missing
