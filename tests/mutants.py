"""Mutation check of the tier-1 tests: each mutant changes one place in src/,
and some tier-1 test must then fail, which kills it.

    python tests/mutants.py

A guard is an `if` in src/cdmetrics/*.py whose body opens with a `raise` or a
call to one of RAISERS; its generated mutant splices the test, at the node's
byte offsets, into `(<test>) and False`, which still runs and binds what it
binds, but never fires.  MUTANTS holds the rest by hand.  Each mutant is applied
in turn to a copy of the tree, where tier-1 runs under `pytest -x` with the
Hypothesis profile `mutants` (no shrinking, no example database) in one order:
test_cli_errors.py, the module's own test_<module>.py, then the other files by
name but test_mutants.py, which reads the `old` texts.  Each line names the
mutant and its killer, the first test that failed.  The script exits 1 if a
mutant survives, unless it is marked equivalent, with the reason.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cdmetrics"
RAISERS = {"_fail", "_unknown_key", "_ident", "check"}  # calls that always raise


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cdmetrics/
    old: str
    new: str
    equivalent: str = ""  # why no test can tell it from the program, if none can


MUTANTS = [
    Mutant("diagram_union_skipped", "diagram.py", "                parent[a] = b\n",
           "                pass\n"),
    Mutant("diagram_batches_from_0", "diagram.py", "enumerate(iter(order.get_ready, ()), 1)",
           "enumerate(iter(order.get_ready, ()), 0)"),
    Mutant("diagram_sources_given_to_graphlib", "diagram.py",
           "successors.items()\n                                       if source in targeted})",
           "successors.items()})"),
    Mutant("diagram_source_depth_from_first_target", "diagram.py",
           "max(map(depths.__getitem__, targets))", "depths[next(iter(targets))]"),
    Mutant("corpus_known_unchecked", "corpus.py", 'return _number(row, "known", where), computed',
           'return float(row["known"]), computed'),
    Mutant("corpus_plain_table_reads_empty_body", "corpus.py",
           " or not body or body.isspace():", ":"),
    Mutant("corpus_diagram_over_computed", "corpus.py", 'if row.get("computed")\n',
           'if not row.get("diagram")\n'),
    Mutant("spearman_computed_from_known", "spearman.py", "score([p[1] for p in pairs])",
           "score([p[0] for p in pairs])"),
    Mutant("regression_rating_column_last", "regression.py", 'table[:, names.index("rating")]',
           "table[:, -1]"),
    Mutant("metrics_na_counts_methods", "metrics.py", "NA=sum(len(c.attributes)",
           "NA=sum(len(c.methods)"),
    Mutant("metrics_graph_core_at_import", "metrics.py", "from collections import namedtuple\n",
           "from collections import namedtuple\n\nfrom .diagram import RelKind\n"),
    Mutant("errors_naming_keeps_message", "errors.py",
           "exc.args = (f\"{path}{':' if isinstance(exc, DslSyntaxError) else ': '}{exc}\",)",
           "pass"),
    Mutant("errors_bom_kept", "errors.py", 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    Mutant("cli_last_exit_code_wins", "cli.py", "max(exit_code, exc.exit_code)",
           "exc.exit_code"),
    Mutant("cli_json_extension_case_sensitive", "cli.py", "os.path.splitext(path)[1].lower() ==",
           "os.path.splitext(path)[1] =="),
    Mutant("cli_paths_sorted", "cli.py", "for path in paths:", "for path in sorted(paths):"),
    Mutant("cli_corpus_at_import", "cli.py", "\nfrom .errors import",
           "\nfrom . import corpus\nfrom .errors import"),
    Mutant("cli_quiet_ignored", "cli.py", "if report and not args.quiet:", "if report:"),
    # Boundaries: each comparison one step off, and the delimiters tried in the other order.
    Mutant("corpus_semicolon_before_comma", "corpus.py", 'for d in ",;"', 'for d in ";,"'),
    Mutant("cli_reproduce_gap_below_tolerance", "cli.py", "ok = gap <= args.tolerance",
           "ok = gap < args.tolerance"),
    Mutant("cli_alpha_half_rejected", "cli.py", "lambda a: 0 < a <= 0.5", "lambda a: 0 < a < 0.5"),
    Mutant("spearman_critical_value_significant", "spearman.py", "r_s > critical",
           "r_s >= critical"),
    Mutant("regression_largest_float_rejected", "regression.py",
           "abs(value) <= sys.float_info.max", "abs(value) < sys.float_info.max"),
    # Fast paths' selectors, each beside a slower path that gives the same result.
    Mutant("corpus_cells_never_stripped", "corpus.py", "strip = not text.isascii() or any(",
           "strip = False and any("),
    Mutant("corpus_plain_table_takes_non_ascii", "corpus.py", "if not text.isascii() or any(",
           "if any("),
    Mutant("corpus_value_scan_skipped", "corpus.py",
           ' or not all(map(itemgetter("computed"), rows))', ""),
    Mutant("corpus_short_rows_unpadded", "corpus.py",
           "if records and min(map(len, records)) < width:", "if False:"),
    Mutant("diagram_class_set_trusted", "diagram.py", "if len(seen) < len(classes):",
           "if False:"),
    Mutant("diagram_endpoint_sets_trusted", "diagram.py", "    if not (seen.issuperset(",
           "    if False and not (seen.issuperset("),
    Mutant("dsl_member_names_trusted", "dsl.py", "if not (named and isinstance(attrs, list)",
           "if not (isinstance(attrs, list)"),
    Mutant("dsl_carriage_returns_kept", "dsl.py", 'if "\\r" in source:', "if False:"),
]


def guard_mutants() -> list[tuple[str, str, str]]:
    """(name, file, mutated source) for each guard in src/cdmetrics/, by file and
    then line; the name is the guard's place, `file:line`."""
    mutants = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_bytes()
        starts = [0, *accumulate(map(len, source.splitlines(keepends=True)))]
        guards = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.If) and (
            isinstance(first := node.body[0], ast.Raise) or isinstance(first, ast.Expr)
            and getattr(getattr(first.value, "func", None), "id", None) in RAISERS)]
        for node in sorted(guards, key=lambda node: node.lineno):
            test = node.test  # col_offset and end_col_offset count UTF-8 bytes
            a = starts[test.lineno - 1] + test.col_offset
            b = starts[test.end_lineno - 1] + test.end_col_offset
            mutated = source[:a] + b"(" + source[a:b] + b") and False" + source[b:]
            mutants.append((f"{path.name}:{node.lineno}", path.name, mutated.decode("utf-8")))
    return mutants


def _run(tree: Path, file: str, mutated: str, env: dict) -> tuple[int, str]:
    """pytest's exit code over tier-1 with the mutated file, and the first failing id."""
    path = tree / "src" / "cdmetrics" / file
    original = path.read_text(encoding="utf-8")
    path.write_text(mutated, encoding="utf-8")
    own = f"test_{Path(file).stem}.py"
    order = sorted((p.name for p in (tree / "tests").glob("test_*.py")
                    if p.name != "test_mutants.py"),
                   key=lambda name: (name != "test_cli_errors.py", name != own, name))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", "--hypothesis-seed=0", *(f"tests/{n}" for n in order)],
        cwd=tree, env=env, capture_output=True, text=True)
    path.write_text(original, encoding="utf-8")
    failed = (ln for ln in result.stdout.splitlines() if ln.startswith(("FAILED ", "ERROR ")))
    return result.returncode, next(failed, " ").split(" ", 1)[1].split(" - ")[0]


def main() -> int:
    start, failed = time.perf_counter(), 0
    mutants = [(*mutant, "") for mutant in guard_mutants()] + [
        (m.name, m.file, (SRC / m.file).read_text(encoding="utf-8").replace(m.old, m.new, 1),
         m.equivalent) for m in MUTANTS]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        # No bytecode: a mutant and its original can share a size and an mtime.
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
        for name, file, mutated, equivalent in mutants:
            began = time.perf_counter()
            code, killer = _run(tree, file, mutated, env)
            if code in (1, 2):  # a test failed, or a test module no longer imports
                verdict = f"killed by {killer}"
            elif code == 0 and equivalent:
                verdict = f"equivalent: {equivalent}"
            else:
                verdict = "SURVIVED" if code == 0 else f"ERROR: pytest exited {code}"
                failed += 1
            print(f"{name:<38} {verdict} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed or equivalent, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
