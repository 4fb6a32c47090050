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
from numsemi import GapSet, genus1_closed_3d, validate_generators
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


def test_hilbert_large_triple_reads_f_and_genus_off_apery(capsys):
    # 2.5*10^9 gaps: F and the genus come from the d1 Apéry elements
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


def test_hilbert_builds_the_apery_set_once(capsys, monkeypatch):
    calls = []
    real = numsemi.core.apery_set

    def counted(g):
        calls.append(g)
        return real(g)
    monkeypatch.setattr(numsemi.core, "apery_set", counted)
    monkeypatch.setattr(cli, "apery_set", counted)
    code, _, _ = run(capsys, "hilbert", "100001", "100003", "200003")
    assert code == 0
    assert len(calls) == 1


def test_genera_large_triple_reads_off_apery(capsys):
    # 25,010,000 gaps: too many to list, but the power sums need only Ap
    code, out, err = run(capsys, "genera", "10001", "10003", "20003", "--n", "1")
    assert code == 0 and err == ""
    g1 = genus1_closed_3d(validate_generators((10001, 10003, 20003)))
    assert out == f"g_0 = 25010000\ng_1 = {g1}\n"


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
    # a poisoned oracle must surface as an internal invariant violation
    monkeypatch.setattr(cli, "gap_set", lambda g: GapSet((1,)))
    code, out, err = run(capsys, "frob", "23", "29", "44", "--verify")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: InternalMismatch")


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


def test_console_script_smoke():
    # the child must import the same numsemi as this test, whatever
    # PYTHONPATH the caller exported
    env = dict(os.environ)
    src = str(Path(numsemi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(_console_script_argv() + ["gaps", "4", "5", "6"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "1 2 3 7\n"
