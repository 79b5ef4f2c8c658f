"""Mutation check of the tier-1 tests: each mutant below changes one place in
src/, and the tests named with it must then fail, which kills it.

    python tests/mutants.py

The tree (src/, tests/ and pyproject.toml) is copied to a temporary directory.
Each mutant is applied there in turn, and its tests run with
`python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0`.  Each mutant
is reported as killed or survived.  The script exits 1 if one survives, unless
it is marked equivalent, with the reason no test can kill it.  It uses the
standard library alone; tests/test_mutants.py checks that each `old` text
occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cdmetrics/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, from the root of the tree
    equivalent: str = ""  # why no test can tell it from the program, if none can


MUTANTS = [
    Mutant("diagram_union_skipped", "diagram.py", "                parent[a] = b\n",
           "                pass\n", ("tests/test_metrics.py",)),
    Mutant("diagram_batches_from_0", "diagram.py", "enumerate(iter(order.get_ready, ()), 1)",
           "enumerate(iter(order.get_ready, ()), 0)", ("tests/test_metrics.py",)),
    Mutant("corpus_known_unchecked", "corpus.py", 'return _number(row, "known", where), computed',
           'return float(row["known"]), computed', ("tests/test_cli_errors.py",)),
    Mutant("corpus_plain_table_reads_empty_body", "corpus.py",
           " or not body or body.isspace():", ":", ("tests/test_corpus.py",)),
    Mutant("spearman_computed_from_known", "spearman.py", "score([p[1] for p in pairs])",
           "score([p[0] for p in pairs])", ("tests/test_spearman.py",)),
    Mutant("spearman_constant_column_allowed", "spearman.py",
           "if ranks[0] == (n + 1) / 2 and", "if False and ranks[0] == (n + 1) / 2 and",
           ("tests/test_spearman.py",)),
    Mutant("dsl_repeated_member_allowed", "dsl.py", "if tokens[1] in members:", "if False:",
           ("tests/test_dsl.py",)),
    Mutant("dsl_unknown_class_key_allowed", "dsl.py", "if not _CLASS_KEYS.issuperset(obj):",
           "if False:", ("tests/test_dsl.py",)),
    Mutant("regression_rank_unchecked", "regression.py", "if rank < needed:", "if False:",
           ("tests/test_regression.py",)),
    Mutant("metrics_na_counts_methods", "metrics.py", "NA=sum(len(c.attributes)",
           "NA=sum(len(c.methods)", ("tests/test_metrics.py",)),
    Mutant("errors_naming_keeps_message", "errors.py",
           "exc.args = (f\"{path}{':' if isinstance(exc, DslSyntaxError) else ': '}{exc}\",)",
           "pass", ("tests/test_cli_errors.py",)),
    Mutant("cli_last_exit_code_wins", "cli.py", "max(exit_code, exc.exit_code)",
           "exc.exit_code", ("tests/test_cli.py",)),
]


def _run(mutant: Mutant, tree: Path, env: dict) -> int:
    """pytest's exit code on the mutant's tests, with the mutant applied."""
    path = tree / "src" / "cdmetrics" / mutant.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.old, mutant.new, 1), encoding="utf-8")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    finally:
        path.write_text(original, encoding="utf-8")
        # A failing example saved for one mutant would be replayed for the next.
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        # No bytecode: a mutant and its original can share a size and an mtime.
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
        for mutant in MUTANTS:
            start = time.perf_counter()
            code = _run(mutant, tree, env)
            if code in (1, 2):  # a test failed, or a test module no longer imports
                verdict = "killed"
            elif code == 0 and mutant.equivalent:
                verdict = f"equivalent: {mutant.equivalent}"
            else:
                verdict = "SURVIVED" if code == 0 else f"ERROR: pytest exited {code}"
                failed += 1
            print(f"{mutant.name:<38} {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed or equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
