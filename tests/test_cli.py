import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdmetrics.cli import main
from cdmetrics.metrics import METRIC_NAMES, MetricsVector

SINGLE_CLASS = "class A {\n  attr x\n  attr y\n  attr z\n  method m\n  method n\n}\n"
GEN_CYCLE = "class A {}\nclass B {}\ngen A => B\ngen B => A\n"
BIG = (
    "diagram big\n"
    "class A {\n" + "".join(f"  attr a{i}\n" for i in range(10)) + "}\n"
    "class B {\n" + "".join(f"  attr b{i}\n" for i in range(10)) + "}\n"
    "class C {}\nclass D {}\n"
    "assoc A -- B\nassoc A -- C\nassoc A -- D\nassoc B -- C\nassoc B -- D\n"
    "gen C => B\ngen B => A\n"
)  # NAssoc=5, NA=20, MaxDIT=2

# A fresh interpreter's environment, in which the package imports from this checkout.
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_metrics_single_class(tmp_path, capsys):
    path = _write(tmp_path, "one.cd", SINGLE_CLASS)
    assert main(["metrics", path]) == 0
    out = capsys.readouterr().out
    row = out.splitlines()[1].split()
    assert row[2:] == ["1", "3", "2", "0", "0", "0", "0", "0", "0", "0", "0"]


def test_metrics_empty_diagram(tmp_path, capsys):
    path = _write(tmp_path, "empty.cd", "diagram empty\n")
    assert main(["metrics", path]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[2:] == ["0"] * 11


def test_metrics_json_round_trip(tmp_path, capsys):
    path = _write(tmp_path, "one.cd", SINGLE_CLASS)
    assert main(["--format", "json", "metrics", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert MetricsVector(**payload[0]["metrics"]) == MetricsVector(NC=1, NA=3, NM=2)


def test_metrics_csv_header(tmp_path, capsys):
    path = _write(tmp_path, "one.cd", SINGLE_CLASS)
    assert main(["--format", "csv", "metrics", path]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "file,id," + ",".join(METRIC_NAMES)


def test_metrics_parse_error_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.cd", "clazz A {}\n")
    assert main(["metrics", path]) == 2
    err = capsys.readouterr().err
    assert "bad.cd" in err and "1:1" in err


def test_metrics_cycle_exit_3_and_names_cycle(tmp_path, capsys):
    path = _write(tmp_path, "cycle.cd", GEN_CYCLE)
    assert main(["metrics", path]) == 3
    err = capsys.readouterr().err
    assert "generalization cycle" in err


def test_metrics_keeps_processing_and_worst_exit_wins(tmp_path, capsys):
    good = _write(tmp_path, "good.cd", SINGLE_CLASS)
    bad = _write(tmp_path, "bad.cd", "nonsense\n")
    cyclic = _write(tmp_path, "cycle.cd", GEN_CYCLE)
    assert main(["metrics", bad, good, cyclic]) == 3
    captured = capsys.readouterr()
    assert "good.cd" in captured.out
    assert "bad.cd" in captured.err and "cycle.cd" in captured.err


def test_metrics_output_follows_argument_order(tmp_path, capsys):
    a = _write(tmp_path, "a.cd", SINGLE_CLASS)
    b = _write(tmp_path, "b.cd", "diagram second\n")
    assert main(["metrics", b, a]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert "b.cd" in lines[0] and "a.cd" in lines[1]


def test_metrics_reads_structured_json(tmp_path, capsys):
    obj = {
        "id": "j",
        "classes": [{"name": "A", "attributes": ["x"], "methods": []}],
        "relationships": [],
    }
    path = _write(tmp_path, "d.json", json.dumps(obj))
    assert main(["--format", "json", "metrics", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["metrics"]["NA"] == 1


@pytest.mark.parametrize("name", ["D.JSON", "d.Json"])
def test_metrics_reads_a_json_extension_in_any_case(tmp_path, capsys, name):
    obj = {"id": "j", "classes": [{"name": "A", "attributes": ["x"]}, {"name": "B"}],
           "relationships": [{"kind": "Generalization", "from": "B", "to": "A"}]}
    path = _write(tmp_path, name, json.dumps(obj))
    assert main(["--format", "json", "metrics", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["id"] == "j"
    assert (payload[0]["metrics"]["NA"], payload[0]["metrics"]["NGen"]) == (1, 1)


def test_estimate_default_model(tmp_path, capsys):
    path = _write(tmp_path, "big.cd", BIG)
    assert main(["estimate", path]) == 0
    out = capsys.readouterr().out
    assert "3.587" in out


def test_estimate_intercept_only(tmp_path, capsys):
    path = _write(tmp_path, "empty.cd", "diagram empty\n")
    assert main(["estimate", path]) == 0
    assert "1.335" in capsys.readouterr().out


def test_estimate_custom_model(tmp_path, capsys):
    model = {
        "intercept": 0.0,
        "coefficients": {"NAssoc": 0.129, "NA": 0.0463, "MaxDIT": 0.3405},
    }
    mpath = _write(tmp_path, "custom.model", json.dumps(model))
    dpath = _write(tmp_path, "empty.cd", "diagram empty\n")
    assert main(["estimate", "--model", mpath, dpath]) == 0
    assert "0.000" in capsys.readouterr().out


def test_estimate_malformed_model_exit_4(tmp_path, capsys):
    mpath = _write(tmp_path, "broken.model", "{not json")
    dpath = _write(tmp_path, "empty.cd", "diagram empty\n")
    assert main(["estimate", "--model", mpath, dpath]) == 4


def test_estimate_json_full_precision(tmp_path, capsys):
    path = _write(tmp_path, "big.cd", BIG)
    assert main(["--format", "json", "estimate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["estimate"] == pytest.approx(3.58715, abs=1e-9)
    assert payload[0]["metrics"] == {"NAssoc": 5, "NA": 20, "MaxDIT": 2}


PLANE_CORPUS = (
    "NAssoc,NA,MaxDIT,rating\n"
    "0,0,0,1.33515\n"
    "1,0,0,1.46415\n"
    "0,1,0,1.38145\n"
    "0,0,1,1.67565\n"
)


def test_fit_emits_model(tmp_path, capsys):
    path = _write(tmp_path, "corpus.csv", PLANE_CORPUS)
    assert main(["fit", path, "--predictors", "NAssoc,NA,MaxDIT"]) == 0
    model = json.loads(capsys.readouterr().out)
    assert model["intercept"] == pytest.approx(1.33515, abs=1e-9)
    assert model["coefficients"]["NA"] == pytest.approx(0.0463, abs=1e-9)


def test_fit_insufficient_samples_exit_4(tmp_path, capsys):
    corpus = "NAssoc,NA,MaxDIT,rating\n0,0,0,1\n1,0,0,2\n0,1,0,3\n"
    path = _write(tmp_path, "short.csv", corpus)
    assert main(["fit", path, "--predictors", "NAssoc,NA,MaxDIT"]) == 4
    assert "samples" in capsys.readouterr().err


def test_fit_singular_design_exit_4(tmp_path, capsys):
    corpus = "NA,NM,rating\n1,1,2\n2,2,3\n3,3,4\n4,4,5\n"
    path = _write(tmp_path, "singular.csv", corpus)
    assert main(["fit", path, "--predictors", "NA,NM"]) == 4
    assert "dependent" in capsys.readouterr().err


def test_validate_rank_mode(tmp_path, capsys):
    corpus = "id,known,computed\n" + "".join(
        f"D{i},{k},{c}\n" for i, (k, c) in enumerate(
            [(1, 1.1), (2, 1.9), (3, 3.2), (4, 3.9)]
        )
    )
    path = _write(tmp_path, "v.csv", corpus)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "r_s            1.0000" in out


def test_validate_ties_smallest_n(tmp_path, capsys):
    # At n = 2 a tie makes its column constant, which has no r_s; n = 3 is the
    # smallest corpus with a tie and an r_s.
    path = _write(tmp_path, "v.csv", "id,known,computed\na,2,1.5\nb,2,2.5\nc,3,2.5\n")
    assert main(["validate", path]) == 0
    assert "r_s" in capsys.readouterr().out


@pytest.mark.parametrize("column", ["known", "computed"])
def test_validate_constant_column_in_rank_mode_exit_4(tmp_path, capsys, column):
    rows = [(3, i / 10) if column == "known" else (1 + i % 5, 2.5) for i in range(100)]
    path = _write(tmp_path, "v.csv", "id,known,computed\n" + "".join(
        f"d{i},{k},{c}\n" for i, (k, c) in enumerate(rows)))
    assert main(["validate", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: column {column!r} is constant: no r_s in rank mode\n"
    assert main(["validate", path, "--mode", "value"]) == 0  # the literal formula


def test_validate_resolves_diagram_column(tmp_path, capsys):
    _write(tmp_path, "big.cd", BIG)
    _write(tmp_path, "empty.cd", "diagram empty\n")
    corpus = "id,known,diagram\nbig,4,big.cd\nempty,1,empty.cd\nbig2,4,big.cd\n"
    path = _write(tmp_path, "v.csv", corpus)
    assert main(["--format", "json", "validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3


def test_validate_reads_a_diagram_column_json_extension_in_any_case(tmp_path, capsys):
    _write(tmp_path, "big.cd", BIG)
    reports = []
    for name in ("e.json", "E.JSON"):
        _write(tmp_path, name, json.dumps({"id": "empty"}))
        path = _write(tmp_path, "v.csv", f"id,known,diagram\nbig,4,big.cd\nempty,1,{name}\n")
        assert main(["--format", "json", "validate", path]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[1]["n"] == 2


# With both value columns, a row's computed value is taken and its diagram never
# opened; a row with an empty computed cell is estimated from its stripped diagram
# name, as if that estimate were written in.
@pytest.mark.parametrize("mode", ["rank", "value"])
def test_validate_a_corpus_with_both_value_columns(tmp_path, capsys, mode):
    big = _write(tmp_path, "big.cd", BIG)
    assert main(["--format", "json", "estimate", big]) == 0
    [record] = json.loads(capsys.readouterr().out)
    reports = []
    for big_row in ['big,4,, "  big.cd\t"', f"big,4,{record['estimate']!r},"]:
        path = _write(tmp_path, "v.csv", "id,known,computed,diagram\n"
                      f"a,1,2.5,missing.cd\n{big_row}\nc,2,1.5,\n")
        assert main(["--format", "json", "validate", path, "--mode", mode]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["n"] == 3


def test_validate_malformed_corpus_exit_4(tmp_path, capsys):
    path = _write(tmp_path, "v.csv", "id,nope\nx,1\n")
    assert main(["validate", path]) == 4


def test_reproduce_default(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "0.9492" in out and "0.9482" in out and "0.0010" in out


def test_reproduce_value_mode_fails(capsys):
    assert main(["reproduce", "--mode", "value"]) == 5


def test_reproduce_value_mode_with_loose_tolerance(capsys):
    assert main(["reproduce", "--mode", "value", "--tolerance", "0.1"]) == 0


def test_reproduce_json(capsys):
    assert main(["--format", "json", "reproduce"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reproduced"] is True
    assert report["computed_r_s"] == pytest.approx(0.9492, abs=0.0005)


def test_quiet_suppresses_output(capsys):
    assert main(["--quiet", "reproduce"]) == 0
    assert capsys.readouterr().out == ""


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "yaml", "reproduce"])
    assert exc.value.code == 1


def test_determinism(tmp_path, capsys):
    path = _write(tmp_path, "big.cd", BIG)
    main(["estimate", path])
    first = capsys.readouterr().out
    main(["estimate", path])
    assert capsys.readouterr().out == first


def test_metrics_duplicate_member_exit_2_with_span(tmp_path, capsys):
    path = _write(tmp_path, "dup.cd", "class A {\n  attr x\n  attr x\n}\n")
    assert main(["metrics", path]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3:8:" in err and "Traceback" not in err


@pytest.mark.parametrize("alpha", ["0.7", "0", "abc"])
@pytest.mark.parametrize("command", ["validate", "reproduce"])
def test_alpha_out_of_range_is_usage_error(tmp_path, capsys, command, alpha):
    # Two pairs: below the n >= 4 that the significance test itself needs.
    path = _write(tmp_path, "v.csv", "id,known,computed\na,1,1.5\nb,2,2.5\n")
    argv = [command, path] if command == "validate" else [command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--alpha", alpha])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--alpha" in err and "Traceback" not in err
    assert "must be a number in" in err


# (files, argv) per kind of file the CLI reads; the first file is the one
# written with and without a byte-order mark.
BOM_CASES = {
    "cd": ({"one.cd": SINGLE_CLASS}, ["metrics", "one.cd"]),
    "json": ({"one.json": json.dumps({"classes": [{"name": "A", "attributes": ["x"]}]})},
             ["metrics", "one.json"]),
    "fit_corpus": ({"fit.csv": "NA,NM,rating\n1,2,3.1\n2,1,3.9\n3,5,5.2\n4,3,6.1\n"},
                   ["fit", "fit.csv", "--predictors", "NA,NM"]),
    "model": ({"m.model": json.dumps({"intercept": 1.0, "coefficients": {"NA": 0.5}}),
               "one.cd": SINGLE_CLASS}, ["estimate", "--model", "m.model", "one.cd"]),
}


@pytest.mark.parametrize("case", BOM_CASES)
def test_input_file_may_start_with_a_utf8_bom(tmp_path, monkeypatch, capsys, case):
    files, argv = BOM_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        _write(tmp_path, name, text)
    name, text = next(iter(files.items()))
    outputs = []
    for bom in ("", "\ufeff"):
        _write(tmp_path, name, bom + text)
        assert main(argv) == 0, capsys.readouterr().err
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_a_reader_that_closes_early_ends_the_run_quietly(tmp_path):
    # 3000 rows are past the 64 KB a pipe holds, so writing goes on after the reader closes.
    _write(tmp_path, "one.cd", SINGLE_CLASS)
    proc = subprocess.Popen([sys.executable, "-m", "cdmetrics.cli", "metrics", *["one.cd"] * 3000],
                            cwd=tmp_path, env=SRC_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline().split()[:2] == [b"file", b"id"]
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_cli_import_leaves_importlib_resources_out():
    unused = {"importlib.resources", "dataclasses", "inspect", "pathlib", "statistics"}
    code = f"import sys, cdmetrics.cli; print(sorted({unused!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], env=SRC_ENV,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
