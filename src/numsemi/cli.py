"""Command-line front end.

Human output is plain "key = value" lines (or the raw diagram / gap list);
--json wraps results in a versioned envelope with every integer rendered as
a decimal string, so arbitrary-precision values survive any JSON parser.
Exit codes: 0 success, 2 invalid input (validation errors), 3 violated
internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .bounds import (
    conjecture_bound_check,
    counterexample_family,
    critical_l,
    lower_bounds,
)
from .closedform import frobenius3
from .core import (
    apery_set,
    frobenius_genus,
    gap_set,
    hilbert_numerator,
    validate_generators,
)
from .diagrams import (
    coprime_base,
    delta2_grid,
    delta3_via_diagram,
    lambda_set,
    render_diagram,
)
from .errors import InternalError, InternalMismatch, InvalidInput, OutputTooLarge, ValidationError
from .genera import genera
from .polynomial import SparsePolynomial
from .relation import relation_matrix
from .sparsity import (
    diagonal_sum_check,
    min_element_check,
    random_valid_tuples,
    sparsity_check,
)
from .uniformscan import scan_uniform

SCHEMA_VERSION = "1"


def _stringify(obj):
    """Recursively render integers (and Fractions) as decimal strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def _poly_dict(p: SparsePolynomial) -> dict:
    return {"terms": [[d, c] for d, c in p.items()], "text": p.format()}


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        # Fraction("1e<e>") builds 10^e: exponents get the mantissa's 4300-digit limit
        exp = text.lower().partition("e")[2]
        if exp and abs(int(exp)) > 4300:
            raise InvalidInput(f"{what}: decimal exponent beyond ±4300")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"cannot parse {what} = {text!r} as a rational")


def _kv_lines(pairs) -> str:
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (input_echo, result, human_text)

def _cmd_gaps(args):
    g = validate_generators(args.d)
    gs = gap_set(g)
    result = {"gaps": list(gs.gaps), "frobenius": gs.frobenius,
              "genus": gs.genus, "conductor": gs.conductor}
    human = (" ".join(str(s) for s in gs.gaps) or "(no gaps)") + "\n"
    return {"d": list(g.elements)}, result, human


def _cmd_frob(args):
    g = validate_generators(args.d)
    cf = frobenius3(g)
    result = {"F": cf.F, "G": cf.G, "J": cf.J, "kind": "symmetric" if cf.symmetric
              else "non-symmetric", "inner": cf.inner, "L1": cf.L1, "L2": cf.L2}
    if args.verify:
        ap = apery_set(g)
        if (ap.frobenius, ap.genus) != (cf.F, cf.G) or ap.numerator(g) != cf.Q:
            raise InternalMismatch(f"closed form disagrees with the Apéry set for {g}")
        result["verified"] = True
    pairs = [(k, result[k]) for k in ("F", "G", "J", "kind", "inner", "L1", "L2")]
    if args.verify:
        pairs.append(("verified", "true"))
    return {"d": list(g.elements)}, result, _kv_lines(pairs)


def _cmd_relation(args):
    g = validate_generators(args.d)
    A = relation_matrix(g)
    rows = A.signed_rows()
    width = max(len(str(x)) for r in rows for x in r)
    human = "\n".join(" ".join(f"{x:>{width}}" for x in r) for r in rows) + "\n"
    result = {"m": A.m, "diag": list(A.diag), "rows": [list(r) for r in rows]}
    return {"d": list(g.elements)}, result, human


def _cmd_hilbert(args):
    g = validate_generators(args.d)
    Q = hilbert_numerator(g)
    F, G = frobenius_genus(g)
    result = {"numerator": _poly_dict(Q), "degree": Q.degree,
              "nonzero_count": Q.nonzero_count(), "num_monomials": Q.num_monomials(),
              "F": F, "genus": G}
    human = Q.format() + "\n" + _kv_lines(
        [("degree", Q.degree), ("nonzero_count", Q.nonzero_count())])
    return {"d": list(g.elements)}, result, human


def _cmd_genera(args):
    g = validate_generators(args.d)
    vals = genera(g, args.n)
    result = {"n": args.n, "values": vals}
    human = _kv_lines((f"g_{i}", v) for i, v in enumerate(vals))
    return {"d": list(g.elements), "n": args.n}, result, human


def _cmd_bounds(args):
    g = validate_generators(args.d)
    cf = frobenius3(g)
    report = lower_bounds(g, cf.F, cf.G, cf.symmetric)
    result = {"kind": report.kind, "F": cf.F, "G": cf.G, "all_hold": report.all_hold,
              "checks": [{"name": c.name, "relation": c.relation, "lhs": c.lhs,
                          "rhs": c.rhs, "holds": c.holds} for c in report.checks]}
    lines = [(c.name, f"{c.lhs} {c.relation} {c.rhs} -> "
              f"{'holds' if c.holds else 'VIOLATED'}") for c in report.checks]
    lines.append(("all_hold", str(report.all_hold).lower()))
    return {"d": list(g.elements)}, result, _kv_lines(lines)


def _cmd_diagram(args):
    if args.kind == "delta2":
        if len(args.d) != 2:
            raise InvalidInput("delta2 diagrams take exactly two generators")
        d1, d2 = sorted(args.d)
        text = render_diagram(delta2_grid(d1, d2), args.format)
    elif args.kind == "delta3":
        if len(args.d) != 3:
            raise InvalidInput("delta3 diagrams take exactly three generators")
        g = validate_generators(args.d)
        i, j, _ = coprime_base(g)
        grid = delta2_grid(g.elements[i], g.elements[j])
        kept = set(delta3_via_diagram(g).gaps)
        text = render_diagram(grid, args.format, excluded=grid.values() - kept)
    else:
        if len(args.d) != 3:
            raise InvalidInput("lambda diagrams take exactly three generators")
        g = validate_generators(args.d)
        text = render_diagram(lambda_set(g), args.format)
    result = {"kind": args.kind, "format": args.format, "text": text}
    return {"d": list(args.d), "kind": args.kind, "format": args.format}, result, text


def _cmd_scan_appendix_a(args):
    records = scan_uniform(args.a, args.d3_max)
    result = {"a": args.a, "d3_max": args.d3_max, "count": len(records),
              "records": [{"triple": list(r.triple), "F": r.F, "G": r.G,
                           "diag": list(r.matrix.diag)} for r in records]}
    lines = [f"d = {r.triple}  F = {r.F}  G = {r.G}" for r in records]
    lines.append(f"count = {len(records)}")
    return ({"a": args.a, "d3_max": args.d3_max}, result, "\n".join(lines) + "\n")


def _cmd_falsify(args):
    C = _parse_fraction(args.C, "C")
    nu = _parse_fraction(args.nu, "nu")
    result = {"C": C, "nu": nu}
    if args.l is not None:
        member = counterexample_family(args.l)
        g, F = member.generators, member.F
        result.update({"l": member.l, "admissible": member.admissible,
                       "reason": member.reason, "d1_prime": member.d1_prime})
    else:
        g = validate_generators(args.triple)
        F = frobenius3(g).F
    check = conjecture_bound_check(g, F, C, nu)
    result.update({"triple": list(g.elements), "F": F, "holds": check.holds,
                   "violated": not check.holds, "lhs": check.lhs, "rhs": check.rhs})
    if nu < Fraction(2, 3):
        crit = critical_l(C, nu)
        result["critical"] = {"lg2_exact": crit.exact, "lg2_low": crit.low,
                              "lg2_high": crit.high, "l_cr": crit.l_cr}
    lines = [("verdict", "VIOLATED" if not check.holds else "HOLDS"),
             ("triple", g.elements), ("F", F)]
    if args.l is not None:
        lines += [("l", args.l), ("admissible", str(member.admissible).lower())]
        if member.reason:
            lines.append(("reason", member.reason))
    if "critical" in result and result["critical"]["l_cr"] is not None:
        lines.append(("l_cr", result["critical"]["l_cr"]))
    echo = {"C": args.C, "nu": args.nu, "l": args.l,
            "triple": list(args.triple) if args.triple else None}
    return echo, result, _kv_lines(lines)


def _cmd_sparsity(args):
    if args.random is not None:
        tuples = random_valid_tuples(args.random, args.m, args.d_max, args.seed)
        reports = [sparsity_check(g) for g in tuples]
        violations = [r for r in reports if not r.holds]
        margin = min((r.bound - r.count for r in reports), default=0)
        result = {"checked": len(reports), "violations": len(violations),
                  "min_margin": margin, "seed": args.seed,
                  "reports": [{"d1": r.d1, "m": r.m, "count": r.count,
                               "bound": r.bound} for r in reports]}
        human = _kv_lines([("checked", len(reports)),
                           ("violations", len(violations)),
                           ("min_margin", margin)])
        return ({"random": args.random, "m": args.m, "d_max": args.d_max,
                 "seed": args.seed}, result, human)
    if not args.d:
        raise InvalidInput("give generators or --random N")
    g = validate_generators(args.d)
    rep = sparsity_check(g)
    result = {"m": rep.m, "d1": rep.d1, "diag": list(rep.diag), "count": rep.count,
              "bound": rep.bound, "weak_bound": rep.weak_bound, "holds": rep.holds}
    pairs = [(k, result[k]) for k in ("m", "d1", "count", "bound", "weak_bound")]
    pairs.append(("holds", str(rep.holds).lower()))
    if g.m >= 4:
        result["diagonal_sum_ok"] = diagonal_sum_check(g)
        result["min_element_ok"] = min_element_check(g)
        pairs.append(("diagonal_sum_ok", str(result["diagonal_sum_ok"]).lower()))
    return {"d": list(g.elements)}, result, _kv_lines(pairs)


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones.

    The handlers look their helpers up in this module when they run, so a
    shared parser holds nothing that could go stale.
    """
    parser = argparse.ArgumentParser(
        prog="numsemi",
        description="Exact computations on numerical semigroups: gaps, "
                    "Frobenius numbers, relation matrices, Hilbert-series "
                    "numerators, genera, bounds and diagram renderings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true",
                       help="machine-readable envelope, integers as strings")
        p.set_defaults(func=func)
        return p

    p = add("gaps", _cmd_gaps, help="gap set of a generating tuple")
    p.add_argument("d", nargs="+", type=int)

    p = add("frob", _cmd_frob, help="closed-form F, G, J for a triple")
    p.add_argument("d", nargs=3, type=int)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the Apéry set")

    p = add("relation", _cmd_relation, help="first minimal relation matrix")
    p.add_argument("d", nargs="+", type=int)

    p = add("hilbert", _cmd_hilbert, help="Hilbert series numerator")
    p.add_argument("d", nargs="+", type=int)

    p = add("genera", _cmd_genera, help="higher genera g_0..g_n")
    p.add_argument("d", nargs="+", type=int)
    p.add_argument("--n", type=int, default=3)

    p = add("bounds", _cmd_bounds, help="exact lower-bound checks for a triple")
    p.add_argument("d", nargs=3, type=int)

    p = add("diagram", _cmd_diagram, help="render a gap or lambda diagram")
    p.add_argument("d", nargs="+", type=int)
    p.add_argument("--kind", choices=("delta2", "delta3", "lambda"), required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")

    p = add("scan-appendix-a", _cmd_scan_appendix_a,
            help="scan for uniform-diagonal triples")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--d3-max", dest="d3_max", type=int, required=True)

    p = add("falsify", _cmd_falsify, help="test F <= C*(d1 d2 d3)^nu - sum d")
    p.add_argument("--C", default="1")
    p.add_argument("--nu", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int, default=None,
                       help="member of the family (2l+1, 2l+3, 4l+3)")
    group.add_argument("--triple", nargs=3, type=int, default=None)

    p = add("sparsity", _cmd_sparsity, help="numerator sparsity bounds")
    p.add_argument("d", nargs="*", type=int)
    p.add_argument("--random", type=int, default=None,
                   help="check N random validated tuples instead")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--d-max", dest="d_max", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        echo, result, human = args.func(args)
        if args.json:
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.command,
                        "input": echo, "result": result}
            human = json.dumps(_stringify(envelope), indent=2, sort_keys=True) + "\n"
    except (ValidationError, ValueError) as e:
        # past the int-to-str digit limit, left as set: callers may share the process
        if isinstance(e, ValueError):
            if "integer string conversion" not in str(e):
                raise
            e = OutputTooLarge(f"a value has more than {sys.get_int_max_str_digits()} digits")
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
