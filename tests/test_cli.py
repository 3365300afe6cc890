import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quivercount
from quivercount import cli, counting, oracle
from quivercount.cli import main

QUIVERS = {
    "arrowless": {"vertices": ["v"], "matrix": [[0]]},
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


def test_verify_corrupted_table_exits_three(quiver_file, capsys, corrupt_table):
    code = main(["verify", "--quiver", quiver_file("loop1"),
                 "--max-height", "2", "--primes", "2"])
    assert code == 3
    assert "mismatch" in capsys.readouterr().err


def test_orbit_division_failure_exits_two(quiver_file, capsys, monkeypatch):
    # one point with trivial endomorphisms cannot make whole GL orbits at
    # alpha = (2,), p = 2, where #GL = 6
    monkeypatch.setattr(oracle, "_stable_end_tally", lambda *args: ((1, 1),))
    assert main(["verify", "--quiver", quiver_file("loop1"),
                 "--max-height", "2", "--primes", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("invariant violation: ")


def test_integrality_failure_exits_two(quiver_file, capsys, monkeypatch):
    # a semistable point count off by one at alpha = (2,) leaves a count
    # that is not a polynomial
    exact = counting._hn_count

    def corrupted(ctx, delta):
        return exact(ctx, delta) + (1 if delta == (2,) else 0)

    monkeypatch.setattr(counting, "_hn_count", corrupted)
    assert main(["a-series", "--quiver", quiver_file("loop2"),
                 "--max-height", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("invariant violation: count at (2,) ")


def test_library_key_errors_are_not_usage_errors(quiver_file, monkeypatch):
    # no malformed input raises KeyError, so one is a bug and must surface
    def broken(ctx):
        raise KeyError((1, 0, 1))

    monkeypatch.setattr(cli, "absolutely_stable_table", broken)
    with pytest.raises(KeyError):
        main(["a-series", "--quiver", quiver_file("loop1"), "--max-height", "2"])


@pytest.mark.parametrize("name, height, prime, summary", [
    ("a2", "2", "65537", "checked 16 comparisons, 1 skipped"),
    ("arrowless", "3", "1009", "checked 11 comparisons, 0 skipped"),
])
def test_verify_unmovable_dims_at_a_large_prime(quiver_file, capsys, name, height,
                                                prime, summary):
    # a2 at alpha = (2, 0) and the arrowless quiver at (2,) and (3,) have
    # dimension vectors no arrow can move, with one subspace tuple per
    # subspace of F_p^2 or F_p^3: the run must not list them
    assert main(["verify", "--quiver", quiver_file(name), "--max-height", height,
                 "--primes", prime]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == summary


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
    (["r-series", "--quiver", "kronecker", "--theta", "1,0", "--slope", "1/2",
      "--max-height", "10"],
     "3fe4edd6dd7803c844ced6e95d0f00daedf5943108d1fd0fe2e55c314541855b"),
    (["r-series", "--quiver", "cyclic", "--theta", "1,0", "--slope", "1/2",
      "--max-height", "8", "--format", "json"],
     "2085be6128992699ccc1ed80aee9f991601ecfcd21990a1c91dadc8d35d03e59"),
    (["s-count", "--quiver", "cyclic", "--theta", "1,0", "--slope", "1/2",
      "--max-height", "8", "--end-degree", "2"],
     "c59074b3673fd6e7f6599fd10518421f6eba59da763b48da65da2f2f629eade0"),
    (["a-series", "--quiver", "kronecker", "--max-height", "4", "--format", "json"],
     "5778e64acf674096de0aaee9d3d5ee8cac2a879ae4e5d4ed867fc924f602fce6"),
    (["a-series", "--quiver", "loop2", "--max-height", "4", "--format", "latex"],
     "1e91c849066f686b5fd4a3b85073bdb387d22c7aa154373a274bbf7d4b238185"),
    (["r-series", "--quiver", "kronecker", "--theta", "1,0", "--slope", "1/2",
      "--max-height", "6", "--format", "latex"],
     "561e7dec8d826918bf7af2b76c1d8a00810e7a1d442b4293ec1e9137af9f5b6b"),
    (["f-expand", "--quiver", "loop2", "--max-height", "5", "--q1-order", "2",
      "--format", "json"],
     "d03dd343be393fc31410529e1c46e7193ad1e09dbbd03da80f209663158ccb47"),
    (["s-count", "--quiver", "loop2", "--max-height", "6", "--end-degree", "2",
      "--format", "json"],
     "0a91cfdc7bbf79dc154b4afd460115a8d02e09abaeb1e18d66d5866b8c5dcd7d"),
    (["verify", "--quiver", "loop2", "--max-height", "2", "--primes", "2,3"],
     "ecba0c11e7bf5a23d3bd8f330311100b60e8ac394ba15fd8995cee48edac5690"),
    (["verify", "--quiver", "a2", "--max-height", "2", "--primes", "2,3",
      "--format", "json"],
     "a7d08e195cbb2ba581121ce97d273676a97340067237fb1c1f780b87ab73ae1a"),
    (["necklaces", "--colors", "3", "--max-beads", "6"],
     "3b9fed4c879f8067cacc80a582848f1f146a8802b262f8cf996480cc1120ebea"),
    (["necklaces", "--colors", "2", "--max-beads", "5", "--format", "json"],
     "2f798366c3faa07180cab935dc4c0d244fb4a5667302e037edaeb23dd09f3919"),
]


@pytest.mark.parametrize("argv,digest", EXACT_OUTPUTS,
                         ids=["loop4-f-expand", "cyclic-a-series", "kronecker-cone",
                              "kronecker-cone-r-series", "cyclic-cone-r-series-json",
                              "cyclic-cone-s-count", "kronecker-a-series-json",
                              "loop2-a-series-latex", "kronecker-cone-r-series-latex",
                              "loop2-f-expand-json", "loop2-s-count-json",
                              "loop2-verify", "a2-verify-json", "necklaces",
                              "necklaces-json"])
def test_exact_outputs_are_unchanged(quiver_file, argv, digest):
    argv = [quiver_file(a) if a in QUIVERS else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, message", [
    (["a-series", "--quiver", "a2", "--theta", "1,0,0"],
     "theta has 3 entries but the quiver has 2 vertices"),
    (["r-series", "--quiver", "kronecker", "--theta", "1,0", "--slope", "1/0"],
     "--slope 1/0 has a zero denominator"),
    (["a-series", "--quiver", "loop1", "--max-height", "0"],
     "--max-height must be >= 1"),
    (["verify", "--quiver", "loop1", "--max-height", "2", "--primes", "2,4"],
     "--primes entry 4 is not prime"),
    (["verify", "--quiver", "loop1", "--max-height", "2", "--primes", "2,3,2"],
     "--primes entry 2 is repeated"),
    (["verify", "--quiver", "loop1", "--max-height", "2", "--budget", "0"],
     "--budget must be >= 1"),
    (["f-expand", "--quiver", "loop1", "--max-height", "2", "--q1-order", "-1"],
     "--q1-order must be >= 0"),
    (["f-expand", "--quiver", "a2", "--max-height", "2", "--theta", "1,0"],
     "f-expand is defined for the zero stability only"),
    (["f-expand", "--quiver", "loop1", "--max-height", "2", "--slope", "1"],
     "f-expand is defined for the zero stability only"),
    (["verify", "--quiver", "loop1", "--max-height", "2", "--primes", "2,,3"],
     "--primes entry '' is not an integer"),
    (["verify", "--quiver", "loop1", "--max-height", "2", "--primes", ""],
     "--primes entry '' is not an integer"),
    (["verify", "--quiver", "loop1", "--max-height", "2", "--primes", "2,x"],
     "--primes entry 'x' is not an integer"),
    (["verify", "--quiver", "loop2", "--max-height", "1",
      "--primes", "9223372036854775837"],
     "--primes entry 9223372036854775837 is not below 2^63, the oracle's integer limit"),
    (["a-series", "--quiver", "a2", "--theta", "1,,2"],
     "--theta entry '' is not an integer"),
    (["a-series", "--quiver", "loop1", "--slope", "abc"],
     "--slope abc is not a fraction P/Q"),
], ids=["theta-length", "slope-zero-denominator", "max-height", "non-prime",
        "repeated-prime", "budget", "q1-order", "f-expand-theta", "f-expand-slope",
        "primes-empty-entry", "primes-empty", "primes-not-integer", "prime-past-int64",
        "theta-empty-entry", "slope-not-fraction"])
def test_usage_error_messages(quiver_file, capsys, argv, message):
    argv = [quiver_file(a) if a in QUIVERS else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("fmt, expected", [
    ("text", "no dimension vector 4*alpha fits under --max-height 3\n"),
    ("json", '{\n  "end_degree": 4,\n  "entries": []\n}\n'),
], ids=["text", "json"])
def test_s_count_with_nothing_to_count(quiver_file, capsys, fmt, expected):
    assert main(["s-count", "--quiver", quiver_file("loop2"), "--max-height", "3",
                 "--end-degree", "4", "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_console_script_runs(capsys):
    # README documents `quivercount ...` commands; pyproject.toml is read
    # with a regex because Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    target = re.search(r'^quivercount\s*=\s*"([\w.]+):(\w+)"', scripts.group(1), re.M)
    module, attr = target.groups()
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["necklaces", "--colors", "1", "--max-beads", "1"]) == 0
    assert capsys.readouterr().out == "primitive necklaces with 1 beads in 1 colours: 1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--quiver", "loop1", "--format", "latex"],
    ["a-series", "--quiver", "loop1", "--no-such-flag"],
    ["a-series", "--max-height", "2"],
    ["a-series", "--quiver", "loop1", "--budget", "5"],
], ids=["bad-choice", "unknown-flag", "missing-quiver", "budget-off-verify"])
def test_argparse_errors_are_one_line(quiver_file, capsys, argv):
    argv = [quiver_file(a) if a in QUIVERS else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["a-series", "--quiver", "cyclic", "--max-height", "3"],
    ["f-expand", "--quiver", "loop2", "--max-height", "3", "--q1-order", "1"],
    ["necklaces", "--colors", "2", "--max-beads", "3"],
], ids=["a-series", "f-expand", "necklaces"])
def test_exact_subcommands_never_import_numpy(quiver_file, argv):
    # numpy serves only the brute-force oracle, which only `verify` runs
    argv = [quiver_file(a) if a in QUIVERS else a for a in argv]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quivercount.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys; from quivercount.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'numpy' in sys.modules, file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.stderr.strip() == "0 False"
