"""The mutants of tests/mutants.py stay in step with src/.  The guard count per
module is pinned, so that a guard added or dropped, or a blind generator, shows."""

import ast
from collections import Counter

import pytest

from .mutants import MUTANTS, SRC, guard_mutants

GUARDS = {"cli.py": 5, "corpus.py": 9, "diagram.py": 3, "dsl.py": 23, "regression.py": 5,
          "spearman.py": 3}


def test_guard_count_per_module():
    assert Counter(file for _, file, _ in guard_mutants()) == GUARDS


@pytest.mark.parametrize("file", GUARDS)
def test_each_guard_mutant_changes_one_if_test(file):
    original = ast.dump(ast.parse((SRC / file).read_bytes()))
    for mutated in [text for _, at, text in guard_mutants() if at == file]:
        tree = ast.parse(mutated)
        changed = [node for node in ast.walk(tree) if isinstance(node, ast.If)
                   and isinstance(test := node.test, ast.BoolOp) and isinstance(test.op, ast.And)
                   and len(test.values) == 2 and getattr(test.values[1], "value", 0) is False]
        assert len(changed) == 1
        changed[0].test = changed[0].test.values[0]  # back to the guard's own test
        assert ast.dump(tree) == original


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_changes_one_place(mutant):
    text = (SRC / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old
