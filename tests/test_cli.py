import contextlib
import hashlib
import io
import json

import pytest

from quivercount.cli import main

QUIVERS = {
    "loop1": {"vertices": ["v"], "matrix": [[1]]},
    "loop2": {"vertices": ["v"], "matrix": [[2]]},
    "loop4": {"vertices": ["v"], "matrix": [[4]]},
    "a2": {"vertices": ["1", "2"], "arrows": [["1", "2"]]},
    "kronecker": {"vertices": ["1", "2"], "arrows": [["1", "2"], ["1", "2"]]},
    "cyclic": {"vertices": ["1", "2"], "arrows": [["1", "2"], ["1", "2"], ["2", "1"]]},
}


@pytest.fixture
def quiver_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(QUIVERS[name]))
        return str(path)

    return write


def test_a_series_loop2(quiver_file, capsys):
    assert main(["a-series", "--quiver", quiver_file("loop2"),
                 "--max-height", "4"]) == 0
    out = capsys.readouterr().out
    assert "alpha=(1,)  count(q) = q^2" in out


def test_a_series_acyclic(quiver_file, capsys):
    assert main(["a-series", "--quiver", quiver_file("a2"),
                 "--max-height", "3"]) == 0
    out = capsys.readouterr().out
    assert "alpha=(1, 0)  count(q) = 1" in out
    assert "alpha=(0, 1)  count(q) = 1" in out
    assert "alpha=(1, 1)  count(q) = 0" in out


def test_a_series_json_format(quiver_file, capsys):
    assert main(["a-series", "--quiver", quiver_file("loop2"),
                 "--max-height", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entries = {tuple(e["alpha"]): e for e in payload["entries"]}
    assert entries[(1,)]["poly_q"] == ["0/1", "0/1", "1/1"]
    assert "poly_qminus1" in entries[(2,)]


def test_a_series_latex_format(quiver_file, capsys):
    assert main(["a-series", "--quiver", quiver_file("loop2"),
                 "--max-height", "2", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert "\\begin{tabular}" in out and "q^{2}" in out


def test_r_series(quiver_file, capsys):
    assert main(["r-series", "--quiver", quiver_file("kronecker"),
                 "--theta", "1,0", "--slope", "1/2", "--max-height", "4"]) == 0
    out = capsys.readouterr().out
    assert "alpha=(1, 1)" in out and "(q + 1)/(q - 1)" in out


def test_s_count(quiver_file, capsys):
    assert main(["s-count", "--quiver", quiver_file("loop2"),
                 "--max-height", "4", "--end-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "alpha=(2,)" in out


def test_f_expand(quiver_file, capsys):
    assert main(["f-expand", "--quiver", quiver_file("loop2"),
                 "--max-height", "4", "--q1-order", "1"]) == 0
    out = capsys.readouterr().out
    assert "f_0 = 1 - 2t" in out
    assert "match" in out


def test_f_expand_acyclic(quiver_file, capsys):
    assert main(["f-expand", "--quiver", quiver_file("a2"),
                 "--max-height", "3", "--q1-order", "2"]) == 0
    out = capsys.readouterr().out
    assert "f_0 = 1" in out
    assert "f_1 = 0" in out and "f_2 = 0" in out


def test_f_expand_rejects_nonzero_theta(quiver_file, capsys):
    assert main(["f-expand", "--quiver", quiver_file("a2"),
                 "--theta", "1,0"]) == 1


def test_verify_ok(quiver_file):
    assert main(["verify", "--quiver", quiver_file("loop1"),
                 "--max-height", "3", "--primes", "2"]) == 0


def test_verify_corrupted_table_exits_three(quiver_file, capsys):
    code = main(["verify", "--quiver", quiver_file("loop1"),
                 "--max-height", "2", "--primes", "2", "--corrupt-table"])
    assert code == 3
    assert "mismatch" in capsys.readouterr().err


def test_verify_json(quiver_file, capsys):
    assert main(["verify", "--quiver", quiver_file("loop1"),
                 "--max-height", "2", "--primes", "2,3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["rows"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["a-series", "--quiver", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["a-series", "--quiver", str(missing)]) == 1


def test_theta_length_validation(quiver_file):
    assert main(["a-series", "--quiver", quiver_file("a2"),
                 "--theta", "1,0,0"]) == 1


def test_theta_from_quiver_file(tmp_path, capsys):
    # a quiver file may carry a default stability; the flag overrides it
    data = dict(QUIVERS["kronecker"], theta=[1, 0])
    path = tmp_path / "kron_theta.json"
    path.write_text(json.dumps(data))
    assert main(["r-series", "--quiver", str(path), "--slope", "1/2",
                 "--max-height", "2"]) == 0
    out = capsys.readouterr().out
    assert "(q + 1)/(q - 1)" in out
    bad = dict(QUIVERS["kronecker"], theta=[1, 0, 0])
    path.write_text(json.dumps(bad))
    assert main(["r-series", "--quiver", str(path), "--slope", "1/2"]) == 1


@pytest.mark.parametrize("theta", [[1.7, 0], [True, 0], ["1", "0"], 5, [None, 0],
                                   [[1], 0], "10"],
                         ids=["float", "bool", "str", "scalar", "null", "nested", "text"])
def test_malformed_file_theta_is_a_usage_error(tmp_path, capsys, theta):
    # the file's stability is taken as given or refused, never coerced
    path = tmp_path / "kron_theta.json"
    path.write_text(json.dumps(dict(QUIVERS["kronecker"], theta=theta)))
    assert main(["a-series", "--quiver", str(path), "--max-height", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "theta" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,code", [
    ("a-series", 0), ("r-series", 0), ("s-count", 1), ("f-expand", 1), ("verify", 1),
])
def test_latex_only_where_rendered(quiver_file, capsys, command, code):
    assert main([command, "--quiver", quiver_file("loop1"), "--max-height", "2",
                 "--format", "latex"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "invalid choice: 'latex'" in captured.err
    else:
        assert "$" in captured.out


def test_zero_slope_denominator_is_a_usage_error(quiver_file, capsys):
    assert main(["r-series", "--quiver", quiver_file("kronecker"),
                 "--theta", "1,0", "--slope", "1/0"]) == 1
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(quiver_file, capsys, budget):
    assert main(["verify", "--quiver", quiver_file("loop1"),
                 "--max-height", "2", "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--budget" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("data", [
    {"vertices": ["v"], "matrix": [["a"]]},
    {"vertices": ["v"], "matrix": [[1.5]]},
    {"vertices": ["v"], "matrix": [[True]]},
    {"vertices": ["v"], "matrix": [[-1]]},
    {"vertices": ["v"], "matrix": [1]},
    {"vertices": 5, "matrix": [[1]]},
    {"vertices": ["v"], "arrows": 5},
    {"vertices": ["v"], "arrows": [5]},
    3,
])
def test_malformed_quiver_is_a_usage_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["a-series", "--quiver", str(path), "--max-height", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("data", [
    {"vertices": ["v", "v"], "arrows": [["v", "v"]]},
    {"vertices": ["v", "v"], "matrix": [[0, 1], [0, 0]]},
])
def test_duplicate_vertex_names_are_a_usage_error(tmp_path, capsys, data):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    assert main(["a-series", "--quiver", str(path), "--max-height", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "distinct" in captured.err


def test_bad_prime_validation(quiver_file):
    assert main(["verify", "--quiver", quiver_file("loop1"),
                 "--primes", "4"]) == 1


def test_necklaces(capsys):
    assert main(["necklaces", "--colors", "2", "--max-beads", "4"]) == 0
    out = capsys.readouterr().out
    assert "4 beads in 2 colours: 3" in out


def test_necklaces_json(capsys):
    assert main(["necklaces", "--colors", "3", "--max-beads", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"][-1] == {"beads": 2, "count": 3}


def test_determinism(quiver_file, capsys):
    args = ["a-series", "--quiver", quiver_file("loop2"), "--max-height", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


# sha256 of stdout, recorded from the Fraction-coefficient implementation of
# qpoly; the arithmetic is exact, so the integer core must reproduce them.
EXACT_OUTPUTS = [
    (["f-expand", "--quiver", "loop4", "--max-height", "6", "--q1-order", "1"],
     "1c235af407af1888d95b4217ea0fcfb6cc3594441ec89a6976d695ff0e88ab61"),
    (["a-series", "--quiver", "cyclic", "--max-height", "6"],
     "214fe8a25c4d0123dbf73665f4bbad9f51a69b60983a43b6fc46ec09bacbd6b3"),
    (["a-series", "--quiver", "kronecker", "--theta", "1,0", "--slope", "1/2",
      "--max-height", "10"],
     "96acb268a2f8aa6d37b9a828377217c6a2c17fc46105ede24e396e43de22d8f2"),
]


@pytest.mark.parametrize("argv,digest", EXACT_OUTPUTS,
                         ids=["loop4-f-expand", "cyclic-a-series", "kronecker-cone"])
def test_exact_outputs_are_unchanged(quiver_file, argv, digest):
    argv = list(argv)
    argv[2] = quiver_file(argv[2])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
