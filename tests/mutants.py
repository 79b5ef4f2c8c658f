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


# Prefixes of the test ids named below.
M = "tests/test_metrics.py::"
S = "tests/test_spearman.py::"
DSL = "tests/test_dsl.py::"
CASE = "tests/test_cli_errors.py::test_malformed_input_is_one_line_naming_the_file_once"
TWIN = "tests/test_cli.py::test_twin_inputs_give_the_same_stdout"
GOLDEN = "tests/test_cli_golden.py::test_golden_stdout_and_exit_code"
IMPORTS = "tests/test_cli.py::test_each_command_loads_only_the_modules_it_runs"

MUTANTS = [
    Mutant("diagram_union_skipped", "diagram.py", "                parent[a] = b\n",
           "                pass\n", (M + "test_diamond_inheritance", M + "test_hierarchy_counting")),
    Mutant("diagram_batches_from_0", "diagram.py", "enumerate(iter(order.get_ready, ()), 1)",
           "enumerate(iter(order.get_ready, ()), 0)", (M + "test_dit_chain", M + "test_hagg_paths")),
    Mutant("corpus_known_unchecked", "corpus.py", 'return _number(row, "known", where), computed',
           'return float(row["known"]), computed',
           (CASE + "[validate_bad_known]",
            "tests/test_cli_errors.py::test_non_finite_known_is_corpus_error_naming_the_column")),
    Mutant("corpus_plain_table_reads_empty_body", "corpus.py",
           " or not body or body.isspace():", ":",
           ("tests/test_corpus.py::test_a_body_without_rows_is_read_as_before",)),
    Mutant("corpus_diagram_over_computed", "corpus.py", 'if row.get("computed")\n',
           'if not row.get("diagram")\n',
           (TWIN + "[validate_both_value_columns_rank]", TWIN + "[validate_both_value_columns_value]")),
    Mutant("spearman_computed_from_known", "spearman.py", "score([p[1] for p in pairs])",
           "score([p[0] for p in pairs])",
           (S + "test_reversed_ordering_gives_minus_one", S + "test_reference_fixture_rank_mode")),
    Mutant("spearman_constant_column_allowed", "spearman.py",
           "if ranks[0] == (n + 1) / 2 and", "if False and ranks[0] == (n + 1) / 2 and",
           (S + "test_a_constant_known_column_against_untied_values_is_an_error",
            S + "test_a_constant_column_is_an_error_in_rank_mode")),
    Mutant("dsl_repeated_member_allowed", "dsl.py", "if tokens[1] in members:", "if False:",
           (DSL + "test_duplicate_member_is_syntax_error_at_duplicate",
            CASE + "[cd_duplicate_attribute]")),
    Mutant("dsl_unknown_class_key_allowed", "dsl.py", "if not _CLASS_KEYS.issuperset(obj):",
           "if False:", (DSL + "test_structured_schema_error_is_the_first_failing_check",
                         CASE + "[json_misspelt_key]")),
    Mutant("regression_rank_unchecked", "regression.py", "if rank < needed:", "if False:",
           ("tests/test_regression.py::test_fit_singular_design",
            CASE + "[fit_corpus_constant_predictor]")),
    Mutant("metrics_na_counts_methods", "metrics.py", "NA=sum(len(c.attributes)",
           "NA=sum(len(c.methods)", (M + "test_single_class_counts",)),
    Mutant("metrics_graph_core_at_import", "metrics.py", "from collections import namedtuple\n",
           "from collections import namedtuple\n\nfrom .diagram import RelKind\n",
           (IMPORTS + "[fit]", IMPORTS + "[reproduce]")),
    Mutant("errors_naming_keeps_message", "errors.py",
           "exc.args = (f\"{path}{':' if isinstance(exc, DslSyntaxError) else ': '}{exc}\",)",
           "pass", (CASE + "[cd_unexpected_token]", CASE + "[json_repeated_key]")),
    Mutant("errors_bom_kept", "errors.py", 'encoding="utf-8-sig"', 'encoding="utf-8"',
           (TWIN + "[bom_cd]", TWIN + "[bom_json]", TWIN + "[bom_fit_corpus]", TWIN + "[bom_model]")),
    Mutant("cli_last_exit_code_wins", "cli.py", "max(exit_code, exc.exit_code)",
           "exc.exit_code", ("tests/test_cli.py::test_metrics_keeps_processing_and_worst_exit_wins",)),
    Mutant("cli_json_extension_case_sensitive", "cli.py", "os.path.splitext(path)[1].lower() ==",
           "os.path.splitext(path)[1] ==",
           (GOLDEN + "[metrics_json_upper_case-csv]",
            TWIN + "[validate_diagram_json_extension_in_any_case]")),
    Mutant("cli_paths_sorted", "cli.py", "for path in paths:", "for path in sorted(paths):",
           ("tests/test_cli.py::test_metrics_output_follows_argument_order",)),
    Mutant("cli_corpus_at_import", "cli.py", "\nfrom .errors import",
           "\nfrom . import corpus\nfrom .errors import",
           (IMPORTS + "[import]", IMPORTS + "[metrics]", IMPORTS + "[estimate]")),
    Mutant("cli_quiet_ignored", "cli.py", "if report and not args.quiet:", "if report:",
           (GOLDEN + "[reproduce_quiet-table]", GOLDEN + "[reproduce_quiet_tolerance_0-table]")),
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
