"""Command-line interface: human output, JSON envelopes, exit codes."""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import numsemi
import numsemi.cli as cli
import numsemi.core
import numsemi.relation
from numsemi import (
    AperySet,
    genera2_closed,
    genus1_closed_3d,
    sylvester_closed,
    validate_generators,
)
from numsemi.cli import main
from numsemi.errors import ValidationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gaps(capsys):
    code, out, err = run(capsys, "gaps", "4", "5", "6")
    assert code == 0 and err == ""
    assert out == "1 2 3 7\n"


def test_gaps_empty(capsys):
    code, out, _ = run(capsys, "gaps", "2", "3")
    assert code == 0 and out == "1\n"


def test_frob_human(capsys):
    code, out, _ = run(capsys, "frob", "23", "29", "44", "--verify")
    assert code == 0
    assert "F = 239" in out
    assert "G = 122" in out
    assert "J = 86" in out
    assert "kind = non-symmetric" in out
    assert "verified = true" in out


def test_frob_json_envelope(capsys):
    code, out, _ = run(capsys, "frob", "23", "29", "44", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["schema_version"] == "1"
    assert env["command"] == "frob"
    assert env["input"] == {"d": ["23", "29", "44"]}
    assert env["result"] == {
        "F": "239", "G": "122", "J": "86", "kind": "non-symmetric",
        "inner": "584", "L1": "249", "L2": "335"}


def _no_bare_numbers(obj):
    """Every numeric leaf of the envelope must be a string."""
    if isinstance(obj, bool) or obj is None:
        return True
    if isinstance(obj, (int, float)):
        return False
    if isinstance(obj, list):
        return all(_no_bare_numbers(x) for x in obj)
    if isinstance(obj, dict):
        return all(_no_bare_numbers(v) for v in obj.values())
    return True


def test_json_integers_are_strings(capsys):
    for argv in (
        ("gaps", "4", "5", "6", "--json"),
        ("hilbert", "6", "10", "15", "--json"),
        ("genera", "23", "29", "44", "--json"),
        ("bounds", "4", "5", "6", "--json"),
        ("falsify", "--nu", "5/8", "--l", "2", "--json"),
        ("sparsity", "4", "21", "26", "43", "--json"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        env = json.loads(out)
        assert _no_bare_numbers(env), argv


def test_json_round_trip(capsys):
    _, first, _ = run(capsys, "frob", "23", "29", "44", "--json")
    env = json.loads(first)
    argv = ["frob"] + env["input"]["d"] + ["--json"]
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_relation_output(capsys):
    code, out, _ = run(capsys, "relation", "3", "4", "5")
    assert code == 0
    assert out == (
        " 3 -1 -1\n"
        "-1  2 -1\n"
        "-2 -1  2\n"
    )


def test_hilbert_output(capsys):
    code, out, _ = run(capsys, "hilbert", "4", "5", "6")
    assert code == 0
    assert out.splitlines()[0] == "1 - z^10 - z^12 + z^22"
    assert "degree = 22" in out
    assert "nonzero_count = 4" in out
    # m = 4: F and the genus off the Apéry set
    code, out, _ = run(capsys, "hilbert", "4", "21", "26", "43", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["F"], res["genus"], res["degree"]) == ("39", "21", "133")


def test_hilbert_large_triple_reads_f_and_genus_off_apery(capsys):
    # 2.5*10^9 gaps: F and the genus are the relation matrix's closed forms
    code, out, _ = run(capsys, "hilbert", "100001", "100003", "200003", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["F"], res["genus"]) == ("5000149999", "2500100000")
    assert res["degree"] == str(5000149999 + 100001 + 100003 + 200003)


def test_oversized_gap_listing_exits_2(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "gaps", "10001", "10003", "20003")
    assert code == 2 and out == ""
    assert err.startswith("error: TooManyGaps:")
    assert "25010000 gaps" in err
    assert time.monotonic() - t0 < 5  # refused before any gap is listed


def test_oversized_diagrams_exit_2(capsys):
    for argv in (["10001", "10003", "--kind", "delta2"],
                 ["10001", "10003", "20003", "--kind", "delta3"]):
        t0 = time.monotonic()
        code, out, err = run(capsys, "diagram", *argv)
        assert time.monotonic() - t0 < 1
        assert code == 2 and out == ""
        assert err.startswith("error: TooManyGaps:")


def test_diagrams_past_the_picture_limit_exit_2_at_once(capsys):
    # 195,000 cells (a 37 MB SVG before the limit) and 1.95 million cells
    # (within MAX_GAPS) are refused before the grid is built, as is a lambda
    # diagram of 100,001 cells before they are listed
    for argv in (["--kind", "delta2", "40", "10001", "--format", "svg"],
                 ["--kind", "delta2", "40", "100001"],
                 ["--kind", "lambda", "100001", "100003", "200003"]):
        t0 = time.monotonic()
        code, out, err = run(capsys, "diagram", *argv)
        assert time.monotonic() - t0 < 0.1, argv
        assert code == 2 and out == ""
        assert err.startswith("error: OutputTooLarge:"), err


def test_sparse_lambda_diagram_is_bounded_by_what_each_writer_draws(capsys):
    # a13 = a12 = 1 and a22 = a33 = 151: 301 cells in a 151 x 151 layout.
    # The SVG draws the 301 cells; the ASCII text would fill all 22,801 slots
    d = ["diagram", "--kind", "lambda", "301", "451", "452"]
    code, out, _ = run(capsys, *d, "--format", "svg")
    assert code == 0 and out.count("<rect") == 301
    code, out, err = run(capsys, *d)
    assert code == 2 and out == ""
    assert err.startswith("error: OutputTooLarge: a diagram of 22801 cells"), err


def test_hilbert_of_a_large_pair_is_closed_form(capsys):
    # Q = 1 - z^(d1 d2): no residue mod d1 is visited
    t0 = time.monotonic()
    code, out, err = run(capsys, "hilbert", "1999999", "2000001", "--json")
    assert time.monotonic() - t0 < 0.1
    assert code == 0 and err == ""
    res = json.loads(out)["result"]
    assert res["numerator"]["text"] == f"1 - z^{1999999 * 2000001}"
    assert (res["F"], res["genus"]) == (str(1999999 * 2000001 - 4000000),
                                        str(1999998 * 2000000 // 2))


def test_family_at_fifty_digits_hilbert_and_genera(capsys):
    # the Apéry set would hold 2*10^50 + 1 elements; Q has six terms
    l = 10 ** 50
    d = [str(x) for x in (2 * l + 1, 2 * l + 3, 4 * l + 3)]
    g1 = genus1_closed_3d(validate_generators(map(int, d)))
    for argv in (["hilbert", *d], ["genera", *d], ["genera", *d, "--n", "10"]):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv, "--json")
        assert time.monotonic() - t0 < 0.1, argv
        assert code == 0 and err == "", argv
        res = json.loads(out)["result"]
        if argv[0] == "hilbert":
            assert res["F"] == str(2 * l * l + 3 * l - 1)
            assert res["nonzero_count"] == "6"
        else:
            assert res["values"][1] == str(g1), argv


def test_frob_verify_builds_one_apery_set(capsys, monkeypatch):
    # the comparison of F, G and Q reads one set: one pass
    # adds d2 and d3 once each
    added = []
    real = numsemi.core._round_robin

    def counted(w, b):
        added.append(b)
        real(w, b)
    monkeypatch.setattr(numsemi.core, "_round_robin", counted)
    code, out, _ = run(capsys, "frob", "563", "775", "903", "--verify")
    assert code == 0 and "verified = true" in out
    assert added == [775, 903]


def test_frob_verify_on_a_paper_triple(capsys):
    # 25,010,000 gaps: F and G come from Ap, with no gap listing
    code, out, err = run(capsys, "frob", "10001", "10003", "20003", "--verify")
    assert code == 0 and err == ""
    assert "F = 50014999\nG = 25010000\n" in out
    assert out.endswith("verified = true\n")


def test_m4_family_relation_and_sparsity_in_under_a_second(capsys):
    d = ("20001", "20003", "20007", "60001")
    t0 = time.monotonic()
    code, out, _ = run(capsys, "relation", *d)
    assert time.monotonic() - t0 < 1
    assert code == 0
    assert out == ("    4    -1     0    -1\n"
                   "   -2     3    -1     0\n"
                   "   -1    -2  6001 -2000\n"
                   "   -1     0 -6000  2001\n")
    t0 = time.monotonic()
    code, out, _ = run(capsys, "sparsity", *d)
    assert time.monotonic() - t0 < 1
    assert code == 0
    assert "count = 18\nbound = 96010\n" in out and "diagonal_sum_ok = true" in out


def test_m4_with_huge_d1_exits_2(capsys):
    # d1 - 1 > MAX_GAPS: validation refuses before it allocates the Apéry set
    d = [str(numsemi.MAX_GAPS + k) for k in (2, 3, 4, 5)]
    for cmd in ("relation", "sparsity", "hilbert", "gaps"):
        t0 = time.monotonic()
        code, out, err = run(capsys, cmd, *d)
        assert time.monotonic() - t0 < 0.1
        assert code == 2 and out == ""
        assert err.startswith("error: TooManyGaps:")


def test_hilbert_takes_no_round_robin_step(capsys, monkeypatch):
    # F, the genus and Q of a triple are the relation matrix's closed forms:
    # no round-robin pass adds a generator
    added = []
    real = numsemi.core._round_robin

    def counted(w, b):
        added.append(b)
        real(w, b)
    monkeypatch.setattr(numsemi.core, "_round_robin", counted)
    code, _, _ = run(capsys, "hilbert", "100001", "100003", "200003")
    assert code == 0
    assert added == []


def test_genera_large_triple_reads_off_apery(capsys):
    # 25,010,000 gaps: too many to list, but the power sums need only Q
    code, out, err = run(capsys, "genera", "10001", "10003", "20003", "--n", "1")
    assert code == 0 and err == ""
    g1 = genus1_closed_3d(validate_generators((10001, 10003, 20003)))
    assert out == f"g_0 = 25010000\ng_1 = {g1}\n"


def test_genera_large_pair_reads_sylvesters_q(capsys):
    # Q = 1 - z^(d_1 d_2) answers at once where Ap(S, d_1) would take d_1 steps
    t0 = time.monotonic()
    code, out, err = run(capsys, "genera", "1999999", "2000001")
    assert time.monotonic() - t0 < 0.1
    assert code == 0 and err == ""
    values = [sylvester_closed(1999999, 2000001).G, *genera2_closed(1999999, 2000001)]
    assert out == "".join(f"g_{n} = {v}\n" for n, v in enumerate(values))


def test_family_at_fifty_digits(capsys):
    # the walk over v = 2..a_11 would need 10^50 steps here
    l = 10 ** 50
    d = [str(x) for x in (2 * l + 1, 2 * l + 3, 4 * l + 3)]
    for argv in (["frob", *d], ["bounds", *d],
                 ["falsify", "--nu", "5/8", "--triple", *d]):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == "", argv
        assert json.loads(out)["result"]["F"] == str(2 * l * l + 3 * l - 1), argv


def test_relation_on_a_random_fifty_digit_triple(capsys):
    rng = random.Random(50)
    while True:
        try:
            g = validate_generators([rng.randrange(10 ** 49, 10 ** 50) for _ in range(3)])
            break
        except ValidationError:
            continue
    code, out, err = run(capsys, "relation", *map(str, g.elements), "--json")
    assert code == 0 and err == ""
    rows = [[int(x) for x in r] for r in json.loads(out)["result"]["rows"]]
    for j, row in enumerate(rows):
        assert row[j] >= 2 and all(x <= 0 for i, x in enumerate(row) if i != j)
        # a_jj d_j = sum of a_ji d_i
        assert sum(x * di for x, di in zip(row, g.elements)) == 0, j


def test_genera_output(capsys):
    code, out, _ = run(capsys, "genera", "3", "5", "--n", "3")
    assert code == 0
    assert out == "g_0 = 4\ng_1 = 14\ng_2 = 70\ng_3 = 416\n"


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "23", "29", "44")
    assert code == 0
    assert "davison = 112225 >= 88044 -> holds" in out
    assert "all_hold = true" in out


def test_diagram_delta2(capsys):
    code, out, _ = run(capsys, "diagram", "3", "5", "--kind", "delta2")
    assert code == 0
    assert out.startswith("sigma(p, q) grid for (3, 5)\n")


def test_diagram_delta3_marks_carved(capsys):
    code, out, _ = run(capsys, "diagram", "5", "7", "8", "--kind", "delta3")
    assert code == 0
    assert "carved cells marked #" in out
    assert "23#" in out


def test_diagram_lambda_svg(capsys):
    code, out, _ = run(capsys, "diagram", "5", "7", "8", "--kind", "lambda",
                       "--format", "svg")
    assert code == 0
    assert out.startswith("<?xml")
    assert "</svg>" in out


def test_scan_appendix_a(capsys):
    code, out, _ = run(capsys, "scan-appendix-a", "--a", "3", "--d3-max", "30")
    assert code == 0
    assert "d = (5, 7, 8)  F = 11  G = 7" in out
    assert "count = 1" in out


def test_scan_appendix_a_cost_follows_a_not_d3_max(capsys):
    # every hit has d3 < a^2, so d3_max = 10^9 keeps all 91 and costs no more
    code, out, err = run(capsys, "scan-appendix-a", "--a", "12",
                         "--d3-max", "1000000000", "--json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["count"] == "91"
    assert all(r["diag"] == ["12", "12", "12"] for r in result["records"])
    # every d_i >= 2a - 1, so nothing of a = 10^6 fits under 30
    t0 = time.monotonic()
    code, out, err = run(capsys, "scan-appendix-a", "--a", "1000000", "--d3-max", "30")
    assert time.monotonic() - t0 < 0.5
    assert code == 0 and err == "" and out == "count = 0\n"


def test_falsify_triple(capsys):
    code, out, _ = run(capsys, "falsify", "--C", "1", "--nu", "5/8",
                       "--triple", "10001", "10003", "20003")
    assert code == 0
    assert "verdict = VIOLATED" in out
    assert "F = 50014999" in out
    assert "l_cr = 4096" in out


def test_falsify_family_member(capsys):
    code, out, _ = run(capsys, "falsify", "--C", "1", "--nu", "5/8", "--l", "2")
    assert code == 0
    assert "verdict = HOLDS" in out
    assert "triple = (5, 7, 11)" in out
    assert "admissible = true" in out
    code, out, _ = run(capsys, "falsify", "--nu", "5/8", "--l", "3")
    assert code == 0
    assert "admissible = false\nreason = common factor gcd(9, 15) = 3\n" in out


def test_falsify_family_member_past_the_primality_limit(capsys):
    code, out, err = run(capsys, "falsify", "--nu", "5/8", "--l", str(10 ** 50), "--json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["d1_prime"] is None
    assert result["violated"] is True


def test_falsify_family_json(capsys):
    code, out, _ = run(capsys, "falsify", "--C", "1", "--nu", "5/8",
                       "--l", "8192", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["violated"] is True
    assert env["result"]["F"] == "134242303"
    assert env["result"]["critical"]["l_cr"] == "4096"


def test_sparsity_single(capsys):
    code, out, _ = run(capsys, "sparsity", "4", "21", "26", "43")
    assert code == 0
    assert "count = 18" in out
    assert "bound = 26" in out
    assert "holds = true" in out
    assert "diagonal_sum_ok = true" in out


def test_sparsity_random_deterministic(capsys):
    args = ("sparsity", "--random", "20", "--m", "4", "--d-max", "120",
            "--seed", "7")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert "violations = 0" in out1
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sparsity_random_at_d_max_10000(capsys):
    code, out, _ = run(capsys, "sparsity", "--random", "20", "--m", "4",
                       "--d-max", "10000", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["checked"], res["violations"]) == ("20", "0")


def test_sparsity_builds_the_relation_matrix_once(capsys, monkeypatch):
    # sparsity_check and diagonal_sum_check both read the one cached matrix
    calls = []
    original = numsemi.relation.diagonal_coefficient

    def counted(g, j):
        calls.append(j)
        return original(g, j)

    monkeypatch.setattr(numsemi.relation, "diagonal_coefficient", counted)
    code, out, _ = run(capsys, "sparsity", "1000", "300001", "300003", "300007", "300011")
    assert code == 0 and "diagonal_sum_ok = true" in out
    assert calls == [1, 2, 3, 4, 5]


def test_sparsity_random_with_too_few_integers_exits_2(capsys):
    code, out, err = run(capsys, "sparsity", "--random", "3", "--m", "4", "--d-max", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidInput:") and "Traceback" not in err


def test_genera_negative_n_exits_2(capsys):
    code, out, err = run(capsys, "genera", "5", "7", "--n", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidInput:")


def _refused_fast(capsys, *argv):
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 0.1, argv
    assert code == 2 and out == "", argv
    assert err.startswith("error: InvalidInput:") and "Traceback" not in err, err


def test_genera_past_its_budget_exits_2_at_once(capsys):
    _refused_fast(capsys, "genera", "3", "5", "--n", "3000")
    _refused_fast(capsys, "genera", "10001", "10003", "20003", "--n", "1000")
    code, out, _ = run(capsys, "genera", "3", "5", "--n", "250")
    assert code == 0 and out.count("\n") == 251
    code, out, _ = run(capsys, "genera", "10001", "10003", "20003")
    assert code == 0 and out.startswith("g_0 = ")


@pytest.mark.parametrize("argv", [
    ["--random", "100", "--m", "1"],                 # no minimal 1-tuple exists
    ["--random", "-5"],                              # a negative count
    ["--random", "3", "--d-max", str(10 ** 33)],     # past random.sample's range
    ["--random", "3", "--m", "40", "--d-max", "3000"],
], ids=["m-1", "negative-count", "huge-d-max", "m-40"])
def test_sparsity_random_refuses_at_once(capsys, argv):
    _refused_fast(capsys, "sparsity", *argv)


@pytest.mark.parametrize("a, d3_max", [(60, 3600), (120, 14400)])
def test_scan_refuses_too_many_candidate_matrices_at_once(capsys, a, d3_max):
    _refused_fast(capsys, "scan-appendix-a", "--a", str(a), "--d3-max", str(d3_max))


def test_falsify_refuses_oversized_powers_and_exponents_at_once(capsys):
    _refused_fast(capsys, "falsify", "--nu", "1/1000000", "--triple", "10001", "10003", "20003")
    _refused_fast(capsys, "falsify", "--C", "1e1000000", "--nu", "5/8", "--l", "2")
    _refused_fast(capsys, "falsify", "--nu", "1e-1000000", "--l", "2")
    code, out, _ = run(capsys, "falsify", "--C", "1e4300", "--nu", "5/8", "--l", "2")
    assert code == 0 and out.startswith("verdict = HOLDS\n")


@pytest.mark.parametrize("argv", [
    ["frob", str(2 * 10 ** 2500 + 1), str(2 * 10 ** 2500 + 3), str(4 * 10 ** 2500 + 3)],
    ["falsify", "--nu", "5/8", "--l", str(10 ** 2500)],
    ["genera", "3", str(10 ** 40 + 1), "--n", "120"],
    ["falsify", "--nu", "1/10000", "--triple", "10001", "10003", "20003", "--json"],
], ids=["frob", "falsify-l", "genera", "falsify-json"])
def test_values_past_the_digit_limit_exit_2(capsys, argv):
    # Python refuses to render an int of more than 4300 decimal digits
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: OutputTooLarge:") and "Traceback" not in err


def _readme_examples():
    """(argv, stdout) for every `$ numsemi ...` example in README.md."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ numsemi "):
            out = []
            for nxt in lines[i + 1:]:
                if not nxt or nxt.startswith("```"):
                    break
                out.append(nxt + "\n")
            examples.append((line[len("$ numsemi "):], "".join(out)))
    return examples


@pytest.mark.parametrize("command, expected", _readme_examples(),
                         ids=[c for c, _ in _readme_examples()])
def test_readme_example(capsys, command, expected):
    code, out, _ = run(capsys, *command.split())
    assert code == 0 and out == expected


def test_readme_has_examples():
    assert len(_readme_examples()) == 9


def test_validation_error_exits_2(capsys):
    code, out, err = run(capsys, "gaps", "9", "21", "24")
    assert code == 2
    assert out == ""
    assert err == "error: NotCoprime: gcd(9, 21, 24) = 3\n"

    code, _, err = run(capsys, "frob", "4", "6", "8")
    assert code == 2 and "NotCoprime" in err

    code, _, err = run(capsys, "falsify", "--nu", "bogus", "--l", "2")
    assert code == 2 and "InvalidInput" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frob", "4", "6"])
    assert exc.value.code == 2


def test_internal_error_exits_3(capsys, monkeypatch):
    # a poisoned Apéry set must surface as an internal invariant violation
    monkeypatch.setattr(cli, "apery_set", lambda g: AperySet((0, 1)))
    code, out, err = run(capsys, "frob", "23", "29", "44", "--verify")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: InternalMismatch")

    # any other ValueError is a bug, not the digit limit: it is not mapped
    def broken(g):
        raise ValueError("negative degree -1")
    monkeypatch.setattr(cli, "apery_set", broken)
    with pytest.raises(ValueError, match="negative degree"):
        main(["frob", "23", "29", "44", "--verify"])


def test_diagram_delta3_without_coprime_pair_exits_2(capsys):
    code, out, err = run(capsys, "diagram", "--kind", "delta3", "6", "10", "15")
    assert code == 2 and out == ""
    assert err.startswith("error: NoCoprimeBasePair:")


def _console_script_argv():
    """argv that starts the `numsemi` console script as a separate process.

    The installed wrapper is used when it is on PATH. In a checkout that was
    never installed, the `[project.scripts]` target is read from
    pyproject.toml and run in a fresh interpreter the way the generated
    wrapper runs it, so a wrong `module:function` entry fails here too.
    """
    exe = shutil.which("numsemi")
    if exe is not None:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["numsemi"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


def _child_env():
    """Environment in which a child imports the same numsemi as this test,
    whatever PYTHONPATH the caller exported."""
    env = dict(os.environ)
    src = str(Path(numsemi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_smoke():
    proc = subprocess.run(_console_script_argv() + ["gaps", "4", "5", "6"],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "1 2 3 7\n"


def test_python_m_numsemi():
    # a checkout that was never installed runs as `python -m numsemi`
    proc = subprocess.run([sys.executable, "-m", "numsemi", "gaps", "4", "5", "6"],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "1 2 3 7\n"
