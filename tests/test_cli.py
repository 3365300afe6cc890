import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import quivercount
from quivercount import commands, counting, oracle, verify
from quivercount.cli import main

QUIVERS = {
    "arrowless": {"vertices": ["v"], "matrix": [[0]]},
    "loop1": {"vertices": ["v"], "matrix": [[1]]},
    "loop2": {"vertices": ["v"], "matrix": [[2]]},
    "loop4": {"vertices": ["v"], "matrix": [[4]]},
    "a2": {"vertices": ["1", "2"], "arrows": [["1", "2"]]},
    "kronecker": {"vertices": ["1", "2"], "arrows": [["1", "2"], ["1", "2"]]},
    "cyclic": {"vertices": ["1", "2"], "arrows": [["1", "2"], ["1", "2"], ["2", "1"]]},
    # a count of degree 10^20, which no polynomial can have
    "huge": {"vertices": ["a"], "matrix": [[10 ** 20]]},
    # counts of degree 2^62 and 2^60: exabytes of coefficients, asked for at once
    "loops-2^62": {"vertices": ["a"], "matrix": [[1 << 62]]},
    "loops-2^60": {"vertices": ["a"], "matrix": [[1 << 60]]},
    # the largest count the degree limit admits: an integer past CPython's size
    "loops-2^63-1": {"vertices": ["a"], "matrix": [[(1 << 63) - 1]]},
}
ROOT = Path(__file__).resolve().parent.parent


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


def test_negative_theta_and_slope_in_equals_form(quiver_file, capsys):
    assert main(["verify", "--quiver", quiver_file("kronecker"), "--theta=-1,0",
                 "--slope=-1/2", "--max-height", "3", "--primes", "2,3"]) == 0
    assert capsys.readouterr().out.endswith("checked 6 comparisons, 0 skipped\n")


def test_verify_counts_only_as_high_as_its_rows(quiver_file, monkeypatch):
    # no row lies above stable_height(2) = 4, whatever --max-height says
    exact, heights = verify.absolutely_stable_table, []

    def recorded(ctx):
        heights.append(ctx.trunc.max_height)
        return exact(ctx)

    monkeypatch.setattr(verify, "absolutely_stable_table", recorded)
    assert main(["verify", "--quiver", quiver_file("loop1"), "--max-height", "10",
                 "--primes", "2,3"]) == 0
    assert heights and max(heights) <= 4


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
    # a Harder-Narasimhan sum off by one at alpha = (2,) leaves a count that
    # is not a polynomial; the table reads the non-strict sum, least = 0
    exact = counting._hn_count

    def corrupted(ctx, delta, least):
        return exact(ctx, delta, least) + (1 if delta == (2,) else 0)

    monkeypatch.setattr(counting, "_hn_count", corrupted)
    assert main(["a-series", "--quiver", quiver_file("loop2"),
                 "--max-height", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("invariant violation: count at (2,) ")


def test_non_integer_count_exits_two(quiver_file, capsys, monkeypatch):
    # with #GL doubled, the count at alpha = (1,) is a polynomial whose
    # coefficient is not an integer
    exact = counting._gl_order

    def doubled(alpha, k=None):
        return exact(alpha, k) * 2 if k is None else exact(alpha, k)

    monkeypatch.setattr(counting, "_gl_order", doubled)
    assert main(["a-series", "--quiver", quiver_file("loop1"),
                 "--max-height", "2"]) == 2
    assert capsys.readouterr().err == \
        "invariant violation: count at (1,) has non-integer coefficients: 1/2*q\n"


def test_library_key_errors_are_not_usage_errors(quiver_file, monkeypatch):
    # no malformed input raises KeyError, so one is a bug and must surface
    def broken(ctx):
        raise KeyError((1, 0, 1))

    monkeypatch.setattr(commands, "absolutely_stable_table", broken)
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
    {"vertices": ["v"], "arrows": [[["v"], "v"]]},
    {"vertices": ["v"], "arrows": [["v", {"a": 1}]]},
    {"vertices": ["a"], "arrows": [["a", "a"]], "matrix": [[2]]},
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


@pytest.mark.parametrize("name", ["loops-2^62", "loops-2^60", "loops-2^63-1"])
@pytest.mark.parametrize("command", ["a-series", "r-series", "s-count", "f-expand",
                                     "verify"])
def test_input_past_memory_is_a_usage_error(quiver_file, capsys, command, name):
    # the request for the coefficients fails at once, without allocating
    assert main([command, "--quiver", quiver_file(name), "--max-height", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the input does not fit in memory\n"
    assert captured.out == ""


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
    # the scans that slice an arrow by its orbits: loop2's 3 x 3 loop beside a
    # shifted one, Kronecker's rank orbits, and 1 x 1 tables at p = 4093
    (["verify", "--quiver", "loop2", "--max-height", "3", "--primes", "2,3"],
     "5967f60439bb4e206a01dcef6219ca7486167d987238b57fdb26042ea5cf2083"),
    # the same run on the repository's quiver file, as the benchmark runs it:
    # four points/GL rows skipped past the enumeration cap
    (["verify", "--quiver", "quivers/loop2.json", "--max-height", "3", "--primes", "2,3"],
     "5967f60439bb4e206a01dcef6219ca7486167d987238b57fdb26042ea5cf2083"),
    (["verify", "--quiver", "kronecker", "--max-height", "3", "--primes", "2,3,4093"],
     "b3abfc0e0eeb0145eac9b1b5102b388867e8c7342fefb3825d72331c5b6c8f17"),
    # five rows skipped past the budget, each with its note
    (["verify", "--quiver", "loop1", "--max-height", "2", "--primes", "2",
      "--budget", "1", "--format", "json"],
     "97b706e281b6b712748fb4cfe21a530cf6ac16b895515b98c41650e7952a9700"),
    (["necklaces", "--colors", "3", "--max-beads", "6"],
     "3b9fed4c879f8067cacc80a582848f1f146a8802b262f8cf996480cc1120ebea"),
    (["necklaces", "--colors", "2", "--max-beads", "5", "--format", "json"],
     "2f798366c3faa07180cab935dc4c0d244fb4a5667302e037edaeb23dd09f3919"),
    # counts with 35-bit coefficients, packed several bytes wide
    (["f-expand", "--quiver", "loop4", "--max-height", "16", "--q1-order", "1"],
     "3c2730bd7654d4938a5c8b94b1c130f018796ae596fd4186f7fd60aa47ee0160"),
    # a deep Harder-Narasimhan recursion
    (["a-series", "--quiver", "kronecker", "--theta", "1,0", "--slope", "1/2",
      "--max-height", "24"],
     "bc079a0f30c7c4ec08de7bf398afb6ef0aeac0a8b1665160d3d94fe2105c986a"),
    # two-variable layers, whose terms join coefficient and monomial with *
    (["f-expand", "--quiver", "cyclic", "--max-height", "6", "--q1-order", "2"],
     "573119f5f98146e97b6243b5ccfb3fa3d0342b4b4b5a0291129ab69cbe29e366"),
    # a deep q-Pascal table, and Mobius sums at every squarefree k up to 23
    (["a-series", "--quiver", "loop1", "--max-height", "24"],
     "3e8f4273f9d512156e5655d370f97fe43eaad579a967f6f5b717b817ca876084"),
    # the [k]_q jets of the residual recursion at order 2
    (["f-expand", "--quiver", "loop2", "--max-height", "16", "--q1-order", "2"],
     "f4287e188d2c63c0ab2878ef5fcbcf5b71ab17d03850a0a940bf1aa9250c5fc4"),
    # a two-vertex full table, whose Log terms once had denominators up to 14
    (["a-series", "--quiver", "quivers/kronecker.json", "--max-height", "14"],
     "f0b6f8ad1eb6f939e82b16d6cd9c46787ade70b9760d6a1416a3bc6a89eba2b5"),
    # jet quotients at order 5
    (["f-expand", "--quiver", "quivers/loop3.json", "--max-height", "10", "--q1-order", "5"],
     "8f334653167a7561fe9a06631067647b9dca20e124c41c57ecd2b3c85de0cd01"),
    # negative q-binomial arguments, which give zero and reflected jets
    (["f-expand", "--quiver", "quivers/a3.json", "--max-height", "8", "--q1-order", "3"],
     "9490682e5336500ff03ae369d3fff41e22202de5cde9f8bbaef64d05b6bbbfa4"),
    # Mobius sums at every squarefree k up to 31
    (["a-series", "--quiver", "quivers/loop1.json", "--max-height", "32"],
     "812e9486b8f4ab27b03b6fb589ca03740c11cf31f356dcff665907e5b93ee522"),
    # Euclid, then exact_div, in every normal form
    (["r-series", "--quiver", "quivers/loop2.json", "--max-height", "10"],
     "b439f7143597f4ae1da4a658ff571ed985f141bbb55067c6b126c9a3a2f8fac0"),
    # slope cones whose twisted inverse is the non-strict Harder-Narasimhan
    # sum: two 3-vertex planes, the first with zero inverse coefficients, and
    # the other orientation of two 2-vertex cones
    (["a-series", "--quiver", "quivers/a3.json", "--theta", "2,1,0", "--slope", "1",
      "--max-height", "12"],
     "670f20e5d7cc511fb1cdd3775c90ae96120ef30682d0da16212328e730c97da1"),
    (["a-series", "--quiver", "quivers/a3.json", "--theta", "1,0,0", "--slope", "1/3",
      "--max-height", "12"],
     "3f2825743a666fb61b410b88ba7fcf53b46a422c5af14b1a5c83fc174650fba3"),
    (["a-series", "--quiver", "cyclic", "--theta", "0,1", "--slope", "1/3",
      "--max-height", "15"],
     "a620e35b449ec520edc45171859539084ded591d3260ffaaa2d3917eea18ae1e"),
    (["a-series", "--quiver", "kronecker", "--theta", "0,1", "--slope", "1/2",
      "--max-height", "16"],
     "818f9669c47f934d6b934d1ae4af634af4e4ae28bf967dcf191fb8b26ff42059"),
    # zero-stability ratios q^{dim R} / #GL, normalized by the gcd
    (["r-series", "--quiver", "quivers/loop1.json", "--max-height", "24"],
     "30931092acbdbf7a371683dab9f6eaf978e637a7cb8190df5cb57e1df103ecd3"),
    (["r-series", "--quiver", "quivers/loop2.json", "--max-height", "16", "--format", "json"],
     "6ab4b262c7a38b725a844314d015e009079c01dcfa7744d2a9023694cfdb5a8f"),
    # oracle scans with two shifted loops beside the sliced one, read with the
    # endomorphism label; with cells of no entries (dim = 0); and at a nonzero
    # stability, through both the strict and the non-strict scan
    (["verify", "--quiver", "quivers/loop3.json", "--max-height", "2", "--primes", "2,3"],
     "4c5acbb55f387f2cb20e8545cdc6a0f5d897415b5e1089ddbd9675398085df83"),
    (["verify", "--quiver", "quivers/a3.json", "--max-height", "3", "--primes", "2"],
     "3eea092a663dd38566395006a7ca1a0b41cfefc3f83e99bb804a84a17b7bcf02"),
    (["verify", "--quiver", "cyclic", "--theta", "1,0", "--slope", "1/2",
      "--max-height", "4", "--primes", "2,3"],
     "15df285d097c98a6501d63b69015759d2ff56b17ec11205f8c9e3636a96296df"),
    # jets of hundreds of terms: [k]_q binomial rows and jet quotients at high
    # order, and a two-vertex run with k <= 0 jets and divisors whose constant
    # term is not +-1
    (["f-expand", "--quiver", "loop2", "--max-height", "3", "--q1-order", "400"],
     "a356508fc41dd717401e1cc8eb02343f9e6161c407d2e6ce11eadc4143482f9f"),
    (["f-expand", "--quiver", "loop2", "--max-height", "8", "--q1-order", "100",
      "--format", "json"],
     "14c6fa72590f5b46c125dff2019266fb8ac0586c35261ea951d05ab6325773b7"),
    (["f-expand", "--quiver", "kronecker", "--max-height", "8", "--q1-order", "6"],
     "aed574061404f75f588cb1d3604efaa5da389fc09eecfc61acde72f7c655fb0c"),
]


@pytest.mark.parametrize("argv,digest", EXACT_OUTPUTS,
                         ids=["loop4-f-expand", "cyclic-a-series", "kronecker-cone",
                              "kronecker-cone-r-series", "cyclic-cone-r-series-json",
                              "cyclic-cone-s-count", "kronecker-a-series-json",
                              "loop2-a-series-latex", "kronecker-cone-r-series-latex",
                              "loop2-f-expand-json", "loop2-s-count-json",
                              "loop2-verify", "a2-verify-json",
                              "loop2-verify-h3", "loop2-file-verify-h3",
                              "kronecker-verify-h3-4093",
                              "loop1-verify-skipped-json", "necklaces",
                              "necklaces-json", "loop4-f-expand-h16", "kronecker-cone-h24",
                              "cyclic-f-expand", "loop1-a-series-h24",
                              "loop2-f-expand-h16", "kronecker-a-series-h14",
                              "loop3-f-expand-order5", "a3-f-expand-order3",
                              "loop1-a-series-h32", "loop2-r-series-h10",
                              "a3-cone-a-series", "a3-third-cone-a-series",
                              "cyclic-reversed-cone-a-series",
                              "kronecker-reversed-cone-a-series",
                              "loop1-r-series-h24", "loop2-r-series-h16-json",
                              "loop3-verify-h2", "a3-verify-h3", "cyclic-cone-verify-h4",
                              "loop2-f-expand-order400", "loop2-f-expand-order100-json",
                              "kronecker-f-expand-order6"])
def test_exact_outputs_are_unchanged(quiver_file, argv, digest):
    argv = [quiver_file(a) if a in QUIVERS
            else str(ROOT / a) if a.startswith("quivers/") else a for a in argv]
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
    (["s-count", "--quiver", "loop1", "--max-height", "2", "--end-degree", "0"],
     "--end-degree must be >= 1"),
    (["s-count", "--quiver", "loop1", "--max-height", "2", "--end-degree", "-3"],
     "--end-degree must be >= 1"),
    (["a-series", "--quiver", "huge", "--max-height", "1"],
     f"arrow counts too large: dim R_alpha at alpha=(1,) passes {sys.maxsize}, "
     "the largest polynomial degree"),
    (["verify", "--quiver", "huge", "--max-height", "1"],
     f"arrow counts too large: dim R_alpha at alpha=(1,) passes {sys.maxsize}, "
     "the largest polynomial degree"),
    (["necklaces", "--colors", "0"], "--colors and --max-beads must be >= 1"),
], ids=["theta-length", "slope-zero-denominator", "max-height", "non-prime",
        "repeated-prime", "budget", "q1-order", "f-expand-theta", "f-expand-slope",
        "primes-empty-entry", "primes-empty", "primes-not-integer", "prime-past-int64",
        "theta-empty-entry", "slope-not-fraction", "end-degree-zero",
        "end-degree-negative", "huge-arrow-count", "huge-arrow-count-verify",
        "necklaces-colors-zero"])
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


def test_readme_commands_run(capsys):
    # every `quivercount ...` line of README's sh blocks, with its quivers/
    # paths read from the repository root
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = [shlex.split(line)[1:]
                for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
                for line in block.splitlines() if line.startswith("quivercount ")]
    assert len(commands) >= 6
    for argv in commands:
        argv = [str(ROOT / word) if word.startswith("quivers/") else word
                for word in argv]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv


@pytest.mark.parametrize("argv", [
    ["verify", "--quiver", "loop1", "--format", "latex"],
    ["a-series", "--quiver", "loop1", "--no-such-flag"],
    ["a-series", "--max-height", "2"],
    ["a-series", "--quiver", "loop1", "--budget", "5"],
    # argparse reads a value that starts with '-' as a flag
    ["verify", "--quiver", "kronecker", "--theta", "-1,0", "--slope", "-1/2"],
], ids=["bad-choice", "unknown-flag", "missing-quiver", "budget-off-verify",
        "negative-theta-space-form"])
def test_argparse_errors_are_one_line(quiver_file, capsys, argv):
    argv = [quiver_file(a) if a in QUIVERS else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["a-series", "--quiver", "cyclic", "--max-height", "3"],
    ["r-series", "--quiver", "kronecker", "--theta", "1,0", "--slope", "1/2",
     "--max-height", "4"],
    ["s-count", "--quiver", "loop2", "--max-height", "4", "--end-degree", "2"],
    ["f-expand", "--quiver", "loop2", "--max-height", "3", "--q1-order", "1"],
    ["necklaces", "--colors", "2", "--max-beads", "3"],
], ids=["a-series", "r-series", "s-count", "f-expand", "necklaces"])
def test_exact_subcommands_never_import_numpy(quiver_file, argv):
    # numpy serves only the brute-force oracle, which only `verify` runs;
    # dataclasses and the inspect it pulls in would cost about a tenth of
    # each exact subcommand's start-up
    assert run_and_list_modules(quiver_file, argv, ("numpy", "dataclasses", "inspect")) \
        == "0 False False False"


@pytest.mark.parametrize("argv", [
    ["a-series", "--quiver", "cyclic", "--max-height", "3"],
    ["r-series", "--quiver", "kronecker", "--theta", "1,0", "--slope", "1/2",
     "--max-height", "4"],
    ["s-count", "--quiver", "loop2", "--max-height", "4", "--end-degree", "2"],
    ["f-expand", "--quiver", "loop2", "--max-height", "3", "--q1-order", "1"],
    ["verify", "--quiver", "loop1", "--max-height", "2", "--primes", "2"],
], ids=["a-series", "r-series", "s-count", "f-expand", "verify"])
def test_counting_subcommands_never_import_series(quiver_file, argv):
    # the Q(q) series layer holds the cross-checks, which only the tests run
    assert run_and_list_modules(quiver_file, argv, ("quivercount.series",)) == "0 False"


def test_verify_never_imports_numpy_ma(quiver_file):
    # the orbit tables of the oracle's sliced scan avoid np.unique, whose
    # first call imports numpy.ma: about 25 ms and half a megabyte of peak
    # memory in every verify process
    argv = ["verify", "--quiver", "loop2", "--max-height", "3", "--primes", "2,3"]
    assert run_and_list_modules(quiver_file, argv, ("numpy", "numpy.ma")) == "0 True False"


@pytest.mark.parametrize("argv, code, error", [
    (["necklaces", "--colors", "1", "--max-beads", "1"], 0, ""),
    (["a-series", "--quiver", "loop1", "--no-such-flag"], 1,
     "error: unrecognized arguments: --no-such-flag\n"),
    (["--help"], 0, ""),
], ids=["necklaces", "usage-error", "help"])
def test_light_paths_load_only_cli_and_numtheory(quiver_file, argv, code, error):
    # none of them counts, so none loads commands, qpoly, series, quiver or
    # counting
    modules = [f"quivercount.{m.name}" for m in pkgutil.iter_modules(quivercount.__path__)]
    loaded = ("quivercount.cli", "quivercount.numtheory")
    assert run_and_list_modules(quiver_file, argv, modules) \
        == error + " ".join(map(str, (code, *(m in loaded for m in modules))))


def test_importing_the_package_loads_no_submodule():
    code = ("import sys, quivercount; "
            "print(sorted(m for m in sys.modules if m.startswith('quivercount.')), "
            "file=sys.stderr)")
    assert fresh_interpreter(code) == "[]"


# the package root's exports, by the module that defines each; necklace_count,
# defined in numtheory, is checked through counting, which imports it
ROOT_EXPORTS = {
    "qpoly": ("PoleError", "QPoly", "RationalFunction", "poly_gcd"),
    "series": ("Series", "TruncationError", "adams", "monomial_twist", "ordinary_exp",
               "ordinary_log", "ordinary_pow", "plethystic_exp", "plethystic_log",
               "plethystic_pow", "q_binomial_series", "q_exponential", "residual_series",
               "semistable_ratio_reference", "semistable_series_closed", "series_bar",
               "twisted_inverse", "twisted_mul"),
    "quiver": ("DimVector", "Quiver", "TruncationSpec", "height", "qbinom", "parse_theta",
               "qbinom_vec", "slope"),
    "counting": ("CountingContext", "CountTable", "IntegralityError", "InvariantError",
                 "absolutely_stable_table", "necklace_count", "positivity_report",
                 "rep_ratio", "residual_q1_expansion", "residual_series_recursive",
                 "semistable_ratio", "semistable_series", "stable_end_degree_poly"),
}


@pytest.mark.parametrize("module, name", [(module, name)
                                          for module, names in ROOT_EXPORTS.items()
                                          for name in names])
def test_root_exports_resolve(module, name):
    defining = importlib.import_module(f"quivercount.{module}")
    assert getattr(quivercount, name) is getattr(defining, name)


def test_root_lists_its_exports_and_no_other_names():
    exports = {"__version__", *(name for names in ROOT_EXPORTS.values() for name in names)}
    assert set(quivercount.__all__) == exports and exports <= set(dir(quivercount))
    # an AttributeError for every other name: that is what lets
    # `from quivercount import cli` fall through to the submodule
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quivercount.no_such_name


def run_and_list_modules(quiver_file, argv, modules):
    """Run the CLI in a fresh interpreter; return its exit code and, for each
    module, whether it was imported, as one line."""
    argv = [quiver_file(a) if a in QUIVERS else a for a in argv]
    code = ("import sys; from quivercount.cli import main; rc = main(sys.argv[2:]); "
            "print(rc, *(m in sys.modules for m in sys.argv[1].split(',')), file=sys.stderr)")
    return fresh_interpreter(code, ",".join(modules), *argv)


def fresh_interpreter(code, *args):
    """The stripped stderr of `python -c code args...`, with the package importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quivercount.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=60)
    return run.stderr.strip()
