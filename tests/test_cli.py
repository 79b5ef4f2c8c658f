import json
import os
import subprocess
import sys
import sysconfig

import pytest

from cdmetrics.spearman import DifferenceMode

from .conftest import BIG, SRC_ENV, run_cli, write_files

SINGLE_CLASS = "class A {\n  attr x\n  attr y\n  attr z\n  method m\n  method n\n}\n"
GEN_CYCLE = "class A {}\nclass B {}\ngen A => B\ngen B => A\n"



# The worst code, cycle's 3 over bad's 2, wins wherever it stands among the files.
@pytest.mark.parametrize("order", [("bad", "good", "cycle"), ("cycle", "bad"),
                                   ("cycle", "good", "bad"), ("good", "cycle", "bad", "good")],
                         ids=",".join)
@pytest.mark.parametrize("command", ["metrics", "estimate"])
def test_metrics_keeps_processing_and_worst_exit_wins(tmp_path, monkeypatch, command, order):
    texts = {"good": SINGLE_CLASS, "bad": "nonsense\n", "cycle": GEN_CYCLE}
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {f"{name}.cd": texts[name] for name in order})
    code, out, err = run_cli([command, *(f"{name}.cd" for name in order)])
    assert code == 3
    assert out.count("good.cd") == order.count("good")
    assert err.count("bad.cd") == err.count("cycle.cd") == 1


def test_metrics_output_follows_argument_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"a.cd": SINGLE_CLASS, "b.cd": "diagram second\n"})
    code, out, _ = run_cli(["metrics", "b.cd", "a.cd"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert "b.cd" in lines[0] and "a.cd" in lines[1]


def test_estimate_custom_model(tmp_path, monkeypatch):
    model = {
        "intercept": 0.0,
        "coefficients": {"NAssoc": 0.129, "NA": 0.0463, "MaxDIT": 0.3405},
    }
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"custom.model": json.dumps(model), "empty.cd": "diagram empty\n"})
    code, out, _ = run_cli(["estimate", "--model", "custom.model", "empty.cd"])
    assert code == 0 and "0.000" in out


def test_validate_ties_smallest_n(tmp_path, monkeypatch):
    # At n = 2 a tie makes its column constant, which has no r_s; n = 3 is the
    # smallest corpus with a tie and an r_s.
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"v.csv": "id,known,computed\na,2,1.5\nb,2,2.5\nc,3,2.5\n"})
    code, out, _ = run_cli(["validate", "v.csv"])
    assert code == 0 and "r_s" in out


@pytest.mark.parametrize("column", ["known", "computed"])
def test_validate_constant_column_in_rank_mode_exit_4(tmp_path, monkeypatch, column):
    rows = [(3, i / 10) if column == "known" else (1 + i % 5, 2.5) for i in range(100)]
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"v.csv": "id,known,computed\n" + "".join(
        f"d{i},{k},{c}\n" for i, (k, c) in enumerate(rows))})
    assert run_cli(["validate", "v.csv"]) == (
        4, "", f"v.csv: column {column!r} is constant: no r_s in rank mode\n")
    assert run_cli(["validate", "v.csv", "--mode", "value"])[0] == 0  # the literal formula


def test_reproduce_value_mode_with_loose_tolerance():
    assert run_cli(["reproduce", "--mode", "value", "--tolerance", "0.1"])[0] == 0


def test_usage_error_exit_1():
    assert run_cli(["--format", "yaml", "reproduce"])[0] == 1


@pytest.mark.parametrize("alpha", ["0.7", "0", "abc"])
@pytest.mark.parametrize("command", ["validate", "reproduce"])
def test_alpha_out_of_range_is_usage_error(tmp_path, monkeypatch, command, alpha):
    # Two pairs: below the n >= 4 that the significance test itself needs.
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"v.csv": "id,known,computed\na,1,1.5\nb,2,2.5\n"})
    argv = [command, "v.csv"] if command == "validate" else [command]
    code, _, err = run_cli([*argv, "--alpha", alpha])
    assert code == 1
    assert err.startswith("usage:") and "--alpha" in err and "Traceback" not in err
    assert "must be a number in" in err


def _with_bom(argv, files):
    """A twin row: the first of files written again behind a UTF-8 byte-order mark."""
    name, text = next(iter(files.items()))
    return argv, files, {name: "\ufeff" + text}


FIT = "NA,NM,rating\n1,2,3.1\n2,1,3.9\n3,5,5.2\n4,3,6.1\n5,4,6.8\n"
RATINGS = "id,known,computed\na,1,1.2\nb,2,2.4\nc,3,1.9\nd,4,3.9\ne,5,5.1\n"
# Padded with spaces and \037, one of the separators str.strip takes, its id quoted over two lines.
PADDED_RATINGS = ('id, known, computed\037\n"a\n", 1, 1.2\037\nb, 2, 2.4\037\nc, 3, 1.9\037\n'
                  'd, 4, 3.9\037\ne, 5, 5.1\037\n')
SMALL = "class A {\n  attr x\n}\nclass B {}\ngen B => A\n"
# (argv, files, changed files): written over files, the changed ones give the same stdout.
TWINS = {
    "fit_quoted_cell": (["fit", "fit.csv", "--predictors", "NA,NM"], {"fit.csv": FIT},
                        {"fit.csv": FIT.replace("\n3,", '\n"3",')}),
    # The quoted name sends the twin to the exact reader, which strips the \037 padding.
    "fit_crlf_padded": (["fit", "fit.csv", "--predictors", "NA,NM"], {"fit.csv": FIT},
                        {"fit.csv": FIT.replace(",", "\037,").replace("\n", "\037\r\n")
                         .replace("NA\037", '"NA\037"')}),
    "fit_semicolon_rating_first": (
        ["fit", "fit.csv", "--predictors", "NA,NM"], {"fit.csv": FIT},
        {"fit.csv": "rating;NA;NM\n3.1;1;2\n3.9;2;1\n5.2;3;5\n6.1;4;3\n6.8;5;4\n"}),
    "fit_tab_aligned_semicolon": (["fit", "fit.csv", "--predictors", "NA"],
                                  {"fit.csv": "NA,rating\n1,2\n2,3\n3,5\n"},
                                  {"fit.csv": "NA\t;\trating\n1\t;\t2\n2\t;\t3\n3\t;\t5\n"}),
    **{f"validate_{name}_{mode}": (["validate", "v.csv", "--mode", mode], {"v.csv": RATINGS},
                                   {"v.csv": twin})
       for name, twin in [("padded", PADDED_RATINGS), ("crlf", RATINGS.replace("\n", "\r\n"))]
       for mode in ("rank", "value")},
    # With both value columns, a row's computed value is taken and its diagram never
    # opened; a row with an empty computed cell is estimated from its stripped diagram
    # name, as if that estimate, which GOLDEN pins, were written in.
    **{f"validate_both_value_columns_{mode}": (
        ["--format", "json", "validate", "v.csv", "--mode", mode],
        {"big.cd": BIG, "v.csv": 'id,known,computed,diagram\na,1,2.5,missing.cd\n'
                                 'big,4,, "  big.cd\t"\nc,2,1.5,\n'},
        {"v.csv": "id,known,computed,diagram\na,1,2.5,missing.cd\n"
                  "big,4,3.5871500000000003,\nc,2,1.5,\n"})
       for mode in ("rank", "value")},
    "validate_diagram_json_extension_in_any_case": (
        ["--format", "json", "validate", "v.csv"],
        {"big.cd": BIG, "e.json": '{"id": "empty"}',
         "v.csv": "id,known,diagram\nbig,4,big.cd\nempty,1,e.json\n"},
        {"E.JSON": '{"id": "empty"}', "v.csv": "id,known,diagram\nbig,4,big.cd\nempty,1,E.JSON\n"}),
    "metrics_one_line_body": (["metrics", "d.cd"], {"d.cd": SMALL},
                              {"d.cd": "class A { attr x }\nclass B {}\ngen B => A\n"}),
    "metrics_crlf": (["metrics", "d.cd"], {"d.cd": SMALL}, {"d.cd": SMALL.replace("\n", "\r\n")}),
    "bom_cd": _with_bom(["metrics", "one.cd"], {"one.cd": SINGLE_CLASS}),
    "bom_json": _with_bom(["metrics", "one.json"],
                          {"one.json": '{"classes": [{"name": "A", "attributes": ["x"]}]}'}),
    "bom_fit_corpus": _with_bom(["fit", "fit.csv", "--predictors", "NA,NM"], {"fit.csv": FIT}),
    "bom_model": _with_bom(["estimate", "--model", "m.model", "one.cd"],
                           {"m.model": '{"intercept": 1.0, "coefficients": {"NA": 0.5}}',
                            "one.cd": SINGLE_CLASS}),
}


@pytest.mark.parametrize("case", TWINS)
def test_twin_inputs_give_the_same_stdout(tmp_path, monkeypatch, case):
    argv, files, changed = TWINS[case]
    outputs = []
    for name, contents in [("first", files), ("twin", {**files, **changed})]:
        directory = tmp_path / name
        directory.mkdir()
        write_files(directory, contents)
        monkeypatch.chdir(directory)
        code, out, err = run_cli(argv)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_a_reader_that_closes_early_ends_the_run_quietly(tmp_path):
    # 3000 rows are past the 64 KB a pipe holds, so writing goes on after the reader closes.
    write_files(tmp_path, {"one.cd": SINGLE_CLASS})
    proc = subprocess.Popen([sys.executable, "-m", "cdmetrics.cli", "metrics", *["one.cd"] * 3000],
                            cwd=tmp_path, env=SRC_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline().split()[:2] == [b"file", b"id"]
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


# Modules a command may load only if it uses them: csv reads a corpus or writes --format csv,
# statistics gives validate's and reproduce's critical value, and numpy is fit's (numpy
# itself imports typing and inspect).  The rest nothing on the CLI path needs.
WATCHED = ("csv", "statistics", "typing", "numpy", "scipy",
           "importlib.resources", "dataclasses", "inspect", "pathlib")
PACKAGE = {"cli", "corpus", "diagram", "dsl", "errors", "metrics", "regression", "spearman"}
DIAGRAM = {"cli", "diagram", "dsl", "errors", "metrics"}  # what reads a diagram's metrics
IMPORT_FILES = {"d.cd": SMALL, "d.json": '{"classes": [{"name": "A", "attributes": ["x"]}]}',
                "fit.csv": FIT, "c.csv": RATINGS,
                "d.csv": "id,known,computed,diagram\na,1,1.2,\nb,2,,d.cd\nc,3,,d.json\nd,4,5.1,\n"}
# (argv, or None for a bare `import cdmetrics.cli`; the cdmetrics modules loaded; the
# WATCHED modules loaded)
IMPORTS = {
    "import": (None, {"cli", "errors"}, set()),
    "metrics": (["metrics", "d.cd", "d.json"], DIAGRAM, set()),
    "metrics_csv": (["--format", "csv", "metrics", "d.cd"], DIAGRAM, {"csv"}),
    "estimate": (["estimate", "d.cd", "d.json"], DIAGRAM | {"regression"}, set()),
    "fit": (["fit", "fit.csv", "--predictors", "NA,NM"],
            {"cli", "corpus", "errors", "metrics", "regression"},
            {"csv", "numpy", "typing", "inspect"}),
    "reproduce": (["reproduce"], {"cli", "corpus", "errors", "metrics", "spearman"},
                  {"csv", "statistics"}),
    "validate": (["validate", "d.csv"], PACKAGE, {"csv", "statistics"}),
    "validate_computed": (["validate", "c.csv"], PACKAGE - {"diagram", "dsl"},
                          {"csv", "statistics"}),
}


@pytest.mark.parametrize("row", IMPORTS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, row):
    # Under -S, as on a host whose start-up imports nothing; site-packages is on the
    # path, its .pth files unread, so that numpy loads wherever a command imports it.
    argv, package, watched = IMPORTS[row]
    write_files(tmp_path, IMPORT_FILES)
    run = ("import cdmetrics.cli" if argv is None
           else f"from cdmetrics.cli import main\nassert main({argv!r}) == 0")
    code = (f"import sys\n{run}\nprint(*sorted(name for name in sys.modules"
            f" if name.startswith('cdmetrics.') or name in {WATCHED!r}))")
    env = {**SRC_ENV, "PYTHONPATH": os.pathsep.join(
        [SRC_ENV["PYTHONPATH"], sysconfig.get_paths()["platlib"]])}
    result = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    assert set(result.stdout.splitlines()[-1].split()) == (
        {f"cdmetrics.{name}" for name in package} | watched)


@pytest.mark.parametrize("command", ["validate", "reproduce"])
def test_mode_choices_are_the_difference_modes(command):
    # The parser names them as a literal, so that building it loads no spearman.
    code, out, _ = run_cli([command, "--help"])
    assert code == 0
    assert f"--mode {{{','.join(mode.value for mode in DifferenceMode)}}}" in out
