"""Golden CLI output: exact stdout and exit code of every subcommand.

Pins the `table`, `json` and `csv` renderings byte for byte, so that a change
to how reports are built or printed cannot change what callers read.
"""

import json

import pytest

from .conftest import BIG, run_cli, write_files

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
# Two 3000-class generalization chains, joined by the last edge declared: one hierarchy.
CHAINS = ("".join(f"class C{i} {{}}\n" for i in range(6000))
          + "".join(f"gen C{i} => C{i + 1}\n" for i in range(5999) if i != 2999)
          + "gen C2999 => C3000\n")
# D's two paths to A are 2 and 3 edges long: its depth is the longer one.
UNEVEN = ("class A {}\nclass B {}\nclass C {}\nclass D {}\nclass E {}\n"
          "gen D => B\ngen B => A\ngen D => C\ngen C => E\ngen E => A\n")
FILES = {
    "big.cd": BIG,
    "chains.cd": CHAINS,
    "uneven.cd": UNEVEN,
    "one.json": json.dumps(ONE),
    # Upper- and mixed-case extensions, and a kind in any case. No two names differ
    # in case alone, so none collide on a case-insensitive disk.
    "D.JSON": json.dumps({"id": "j", "classes": [{"name": "A", "attributes": ["x"]}, {"name": "B"}],
                          "relationships": [{"kind": "Generalization", "from": "B", "to": "A"}]}),
    "mixed.Json": json.dumps({"id": "m", "classes": [{"name": "A"}]}),
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
    "reproduce_tolerance_0": ["reproduce", "--tolerance", "0"],
    "metrics_chains": ["metrics", "chains.cd"],
    "metrics_uneven": ["metrics", "uneven.cd"],
    "metrics_json_upper_case": ["metrics", "D.JSON"],
    "metrics_json_mixed_case": ["metrics", "mixed.Json"],
    # --quiet drops the report and keeps the exit code.
    "reproduce_quiet": ["--quiet", "reproduce"],
    "reproduce_quiet_tolerance_0": ["--quiet", "reproduce", "--tolerance", "0"],
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
    ('metrics', 'csv', 0, '''\
file,id,NC,NA,NM,NAssoc,NAgg,NDep,NGen,NAggH,NGenH,MaxHAgg,MaxDIT
big.cd,big,4,20,0,5,0,0,2,0,1,0,2
one.json,one,2,3,1,0,1,1,0,1,0,1,0
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
    ('estimate', 'csv', 0, '''\
file,id,NAssoc,NA,MaxDIT,estimate
big.cd,big,5,20,2,3.5871500000000003
one.json,one,0,3,0,1.47405
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
    ('fit', 'csv', 0, '''\
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
    ('validate_computed', 'csv', 0, '''\
n,mode,sum_d_squared,r_s,alpha,critical_value,significant
5,rank,0.5,0.975,0.05,0.8783394481598051,true
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
    ('validate_diagram', 'csv', 0, '''\
n,mode,sum_d_squared,r_s,alpha,critical_value,significant
3,value,2.4432136474999986,0.38919658812500035,0.05,null,false
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
    ('reproduce_rank', 'csv', 0, '''\
n,mode,computed_r_s,reported_r_s,gap,tolerance,significant,reproduced
28,rank,0.9492337164750958,0.9482,0.0010337164750957584,0.002,true,true
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
    ('reproduce_value', 'csv', 5, '''\
n,mode,computed_r_s,reported_r_s,gap,tolerance,significant,reproduced
28,value,0.9985187077175698,0.9482,0.050318707717569744,0.002,true,false
'''),
    ('reproduce_tolerance_0', 'table', 5, '''\
computed r_s   0.9492 (rank mode, n=28)
reported r_s   0.9482
gap            0.0010 (tolerance 0.0)
significance   significant at alpha=0.05 (critical 0.3739)
reproduction   FAILED
'''),
    ('metrics_chains', 'csv', 0, '''\
file,id,NC,NA,NM,NAssoc,NAgg,NDep,NGen,NAggH,NGenH,MaxHAgg,MaxDIT
chains.cd,unnamed,6000,0,0,0,0,0,5999,0,1,0,5999
'''),
    ('metrics_uneven', 'csv', 0, '''\
file,id,NC,NA,NM,NAssoc,NAgg,NDep,NGen,NAggH,NGenH,MaxHAgg,MaxDIT
uneven.cd,unnamed,5,0,0,0,0,0,5,0,1,0,3
'''),
    ('metrics_json_upper_case', 'csv', 0, '''\
file,id,NC,NA,NM,NAssoc,NAgg,NDep,NGen,NAggH,NGenH,MaxHAgg,MaxDIT
D.JSON,j,2,1,0,0,0,0,1,0,1,0,1
'''),
    ('metrics_json_mixed_case', 'csv', 0, '''\
file,id,NC,NA,NM,NAssoc,NAgg,NDep,NGen,NAggH,NGenH,MaxHAgg,MaxDIT
mixed.Json,m,1,0,0,0,0,0,0,0,0,0,0
'''),
    ('reproduce_quiet', 'table', 0, ''),
    ('reproduce_quiet_tolerance_0', 'table', 5, ''),
]


@pytest.mark.parametrize(
    "command,fmt,code,stdout", GOLDEN, ids=[f"{c}-{f}" for c, f, _, _ in GOLDEN]
)
def test_golden_stdout_and_exit_code(tmp_path, monkeypatch, command, fmt, code, stdout):
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, FILES)
    assert run_cli(["--format", fmt, *COMMANDS[command]]) == (code, stdout, "")
