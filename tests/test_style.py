"""The package's source keeps to its line limit."""

from .mutants import SRC

LIMIT = 99  # characters


def test_no_source_line_is_over_the_limit():
    long = [f"{path.name}:{number}: {len(line)}" for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > LIMIT]
    assert long == []
