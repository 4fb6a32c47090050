"""Argv fuzz over the grammar of all ten subcommands.

Every argv must end in exit 0 or 2, with no traceback, inside a per-case
wall budget: a request the CLI should refuse but runs instead fails its case
here rather than stalling the suite.
"""

import contextlib
import io
import signal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from numsemi.cli import main

# well above the slowest admitted request (about 2.5 s for a Q with 2*10^6
# terms, `hilbert 1999999 2000001`), so only a hang or a runaway loop trips it
CASE_SECONDS = 10


class Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise Overtime(f"argv ran past {CASE_SECONDS} s")


def run_argv(argv):
    """(exit code, stderr) of main(argv) in-process, under the wall budget."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:      # argparse usage errors
                code = e.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


# integers: small generators, 0 and 1, negatives, and 10^5 to 10^60
_int = st.one_of(st.integers(2, 60), st.sampled_from([0, 1]),
                 st.integers(-10 ** 6, -1), st.integers(10 ** 5, 10 ** 60)).map(str)
_token = st.one_of(_int, _int, _int,
                   st.sampled_from(["abc", "", "1.5", "0x1f", "1e3", "7/2", "--"]))


def _ints(lo=0, hi=6):
    """Positional integers, sometimes with the last one repeated."""
    xs = st.lists(_token, min_size=lo, max_size=hi)
    return st.one_of(xs, xs.filter(bool).map(lambda v: v + v[-1:]))


def _opt(flag, values):
    """Absent, or the flag followed by one value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _seq(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


_fraction = st.one_of(
    _int,
    st.sampled_from(["1/0", "abc", "5/8", "2/3", "-1/2", "0", "1e4300", "1e-4300",
                     "1e4301", "1/1000000", "1e"]),
    st.integers(-5000, 5000).map(lambda e: f"1e{e:+d}"))
_big = st.one_of(_int, st.integers(-10, 10 ** 22).map(str))
_small = st.one_of(_int, st.integers(-10, 300).map(str))

GRAMMAR = {
    "gaps": _ints(),
    "frob": _seq(_ints(1, 5), st.sampled_from([[], ["--verify"]])),
    "relation": _ints(),
    "hilbert": _ints(),
    "genera": _seq(_ints(), _opt("--n", _small)),
    "bounds": _ints(2, 4),
    "diagram": _seq(_ints(1, 4),
                    _opt("--kind", st.sampled_from(["delta2", "delta3", "lambda", "grid"])),
                    _opt("--format", st.sampled_from(["ascii", "svg", "png"]))),
    "scan-appendix-a": _seq(_opt("--a", _big), _opt("--d3-max", _big)),
    "falsify": _seq(_opt("--C", _fraction), _opt("--nu", _fraction),
                    _opt("--l", _big),
                    st.one_of(st.just([]), _ints(1, 4).map(lambda v: ["--triple", *v]))),
    "sparsity": _seq(_ints(0, 5), _opt("--random", _small), _opt("--m", _small),
                     _opt("--d-max", _big), _opt("--seed", _int)),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command] + draw(GRAMMAR[command])
    if draw(st.booleans()):
        argv.append("--json")
    return argv


# report_multiple_bugs=False stops at the first failing argv, so a refusal
# that regresses does not run every pinned example to its budget.
@settings(deadline=None, max_examples=1500, report_multiple_bugs=False)
@given(argvs())
# sparsity --random: m < 2, a d_max past random.sample, ranges too narrow
# for minimal m-tuples, and samples too large to check
@example(["sparsity", "--random", "100", "--m", "1"])
@example(["sparsity", "--random", "3", "--d-max", str(10 ** 33)])
@example(["sparsity", "--random", "3", "--m", "40", "--d-max", "3000"])
@example(["sparsity", "--random", "2", "--m", "48", "--d-max", "5000"])
@example(["sparsity", "33", "-702", "1", "41", "0", "0", "--random", "2434861", "--m", "56",
          "--seed", "1"])
@example(["sparsity", "1626122", "389275", "389275", "--random", "279233", "--seed", "-15509"])
@example(["sparsity", "--random", "82", "--m", "1", "--d-max", "1359", "--seed", "0", "--json"])
@example(["sparsity", "15912647", "15912647", "--random", "132", "--m", "0", "--d-max", "1",
          "--seed", "1"])
@example(["sparsity", "34", "-108", "18", "-81892", "-81892", "--random", "239", "--m",
          "68021135", "--d-max", "1003300824738650819617020468234551486793080940150128640"])
@example(["sparsity", "-7255", "-7255", "--random", "1", "--m", "288", "--d-max", "2614",
          "--seed", "1"])
@example(["sparsity", "--random", "224", "--m", "216", "--d-max", "40205212", "--seed", "18",
          "--json"])
@example(["sparsity", "--random", "129", "--d-max", "14269515", "--seed", "2702177"])
@example(["sparsity", "-2374", "-2374", "--random", "25", "--d-max", "64396345727661",
          "--seed", "32", "--json"])
@example(["sparsity", "-10376", "232328402", "0", "131779", "2712462", "--random", "1", "--m",
          "65", "--d-max", "55754978", "--seed", "2", "--json"])
# scan-appendix-a: up to (a - 1)^3 candidate matrices, formed unrefused
@example(["scan-appendix-a", "--a", "1953", "--d3-max", "10000000004"])
@example(["scan-appendix-a", "--a", "120", "--d3-max", "14400", "--json"])
def test_cli_argv_fuzz(argv):
    code, err = run_argv(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, argv
