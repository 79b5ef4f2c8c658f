"""Golden CLI output: exact stdout and exit code of every subcommand.

Pins the `table` and `json` renderings byte for byte, so that a change to
how reports are built or printed cannot change what callers read.
"""

import json

import pytest

from cdmetrics.cli import main

BIG = (
    "diagram big\n"
    "class A {\n" + "".join(f"  attr a{i}\n" for i in range(10)) + "}\n"
    "class B {\n" + "".join(f"  attr b{i}\n" for i in range(10)) + "}\n"
    "class C {}\nclass D {}\n"
    "assoc A -- B\nassoc A -- C\nassoc A -- D\nassoc B -- C\nassoc B -- D\n"
    "gen C => B\ngen B => A\n"
)
ONE = {
    "id": "one",
    "classes": [
        {"name": "A", "attributes": ["x", "y", "z"], "methods": ["m"]},
        {"name": "B"},
    ],
    "relationships": [
        {"kind": "aggregation", "from": "A", "to": "B"},
        {"kind": "dependency", "from": "B", "to": "A"},
    ],
}
FILES = {
    "big.cd": BIG,
    "one.json": json.dumps(ONE),
    "fit.csv": "NAssoc,NA,MaxDIT,rating\n0,0,0,1.3\n1,0,0,1.5\n0,1,0,1.4\n0,0,1,1.7\n2,3,1,2.2\n",
    "computed.csv": "id,known,computed\na,1,1.2\nb,2,1.9\nc,2,2.6\nd,4,3.3\ne,5,4.1\n",
    "diagrams.csv": "id,known,diagram\nbig,4,big.cd\none,2,one.json\nbig2,5,big.cd\n",
}
COMMANDS = {
    "metrics": ["metrics", "big.cd", "one.json"],
    "estimate": ["estimate", "big.cd", "one.json"],
    "fit": ["fit", "fit.csv", "--predictors", "NAssoc,NA,MaxDIT"],
    "validate_computed": ["validate", "computed.csv"],
    "validate_diagram": ["validate", "diagrams.csv", "--mode", "value"],
    "reproduce_rank": ["reproduce"],
    "reproduce_value": ["reproduce", "--mode", "value"],
}

GOLDEN = [
    ('metrics', 'table', 0, '''\
file      id   NC  NA  NM  NAssoc  NAgg  NDep  NGen  NAggH  NGenH  MaxHAgg  MaxDIT
big.cd    big  4   20  0   5       0     0     2     0      1      0        2
one.json  one  2   3   1   0       1     1     0     1      0      1        0
'''),
    ('metrics', 'json', 0, '''\
[
  {
    "file": "big.cd",
    "id": "big",
    "metrics": {
      "NC": 4,
      "NA": 20,
      "NM": 0,
      "NAssoc": 5,
      "NAgg": 0,
      "NDep": 0,
      "NGen": 2,
      "NAggH": 0,
      "NGenH": 1,
      "MaxHAgg": 0,
      "MaxDIT": 2
    }
  },
  {
    "file": "one.json",
    "id": "one",
    "metrics": {
      "NC": 2,
      "NA": 3,
      "NM": 1,
      "NAssoc": 0,
      "NAgg": 1,
      "NDep": 1,
      "NGen": 0,
      "NAggH": 1,
      "NGenH": 0,
      "MaxHAgg": 1,
      "MaxDIT": 0
    }
  }
]
'''),
    ('estimate', 'table', 0, '''\
file      id   NAssoc  NA  MaxDIT  estimate
big.cd    big  5       20  2       3.587
one.json  one  0       3   0       1.474
'''),
    ('estimate', 'json', 0, '''\
[
  {
    "file": "big.cd",
    "id": "big",
    "metrics": {
      "NAssoc": 5,
      "NA": 20,
      "MaxDIT": 2
    },
    "estimate": 3.5871500000000003
  },
  {
    "file": "one.json",
    "id": "one",
    "metrics": {
      "NAssoc": 0,
      "NA": 3,
      "MaxDIT": 0
    },
    "estimate": 1.47405
  }
]
'''),
    ('fit', 'table', 0, '''\
{
  "intercept": 1.324999999999999,
  "coefficients": {
    "NAssoc": 0.1650000000000003,
    "NA": 0.06000000000000005,
    "MaxDIT": 0.37000000000000005
  }
}
'''),
    ('fit', 'json', 0, '''\
{
  "intercept": 1.324999999999999,
  "coefficients": {
    "NAssoc": 0.1650000000000003,
    "NA": 0.06000000000000005,
    "MaxDIT": 0.37000000000000005
  }
}
'''),
    ('validate_computed', 'table', 0, '''\
n              5
mode           rank
sum d^2        0.5000
r_s            0.9750
critical value 0.8783 (alpha=0.05)
verdict        significant at alpha=0.05
'''),
    ('validate_computed', 'json', 0, '''\
{
  "n": 5,
  "mode": "rank",
  "sum_d_squared": 0.5,
  "r_s": 0.975,
  "alpha": 0.05,
  "critical_value": 0.8783394481598051,
  "significant": true
}
'''),
    ('validate_diagram', 'table', 0, '''\
n              3
mode           value
sum d^2        2.4432
r_s            0.3892
critical value nan (alpha=0.05)
verdict        not significant at alpha=0.05
'''),
    ('validate_diagram', 'json', 0, '''\
{
  "n": 3,
  "mode": "value",
  "sum_d_squared": 2.4432136474999986,
  "r_s": 0.38919658812500035,
  "alpha": 0.05,
  "critical_value": null,
  "significant": false
}
'''),
    ('reproduce_rank', 'table', 0, '''\
computed r_s   0.9492 (rank mode, n=28)
reported r_s   0.9482
gap            0.0010 (tolerance 0.002)
significance   significant at alpha=0.05 (critical 0.3739)
reproduction   OK
'''),
    ('reproduce_rank', 'json', 0, '''\
{
  "n": 28,
  "mode": "rank",
  "computed_r_s": 0.9492337164750958,
  "reported_r_s": 0.9482,
  "gap": 0.0010337164750957584,
  "tolerance": 0.002,
  "significant": true,
  "reproduced": true
}
'''),
    ('reproduce_value', 'table', 5, '''\
computed r_s   0.9985 (value mode, n=28)
reported r_s   0.9482
gap            0.0503 (tolerance 0.002)
significance   significant at alpha=0.05 (critical 0.3739)
reproduction   FAILED
'''),
    ('reproduce_value', 'json', 5, '''\
{
  "n": 28,
  "mode": "value",
  "computed_r_s": 0.9985187077175698,
  "reported_r_s": 0.9482,
  "gap": 0.050318707717569744,
  "tolerance": 0.002,
  "significant": true,
  "reproduced": false
}
'''),
]


@pytest.mark.parametrize(
    "command,fmt,code,stdout", GOLDEN, ids=[f"{c}-{f}" for c, f, _, _ in GOLDEN]
)
def test_golden_stdout_and_exit_code(tmp_path, monkeypatch, capsys, command, fmt, code, stdout):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(["--format", fmt, *COMMANDS[command]]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""
