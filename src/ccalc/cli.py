"""Worksheet runner: every computation in the package as one subcommand.

Each subcommand prints a human-readable worksheet by default and a single
JSON document with --json; whenever a recorded expected value exists for the
command (the closed forms for the locus classes) the result carries an oracle
comparison, and a mismatch turns the exit code to 1.  `check-all` runs the
whole oracle table plus the randomized property suites from `checks` and
exits 0 only if every line passes.

Exit codes: 0 success, 1 computation error or oracle mismatch, 2 usage error.
"""

import argparse
import json
import os
import re
import sys
import time
from math import gcd

from . import checks
from .chow import DegreeTooSmall, class_bin, class_z, r_value
from .cubic import (
    CubicError,
    PointConfig,
    build_action,
    nontriviality_certificate,
    orbit_decomposition,
    verify_general_position,
)
from .etale import (
    SW_NAMES_LIMIT,
    EtaleAlgebraExpr,
    EtaleError,
    field_str,
    galois_sw_total,
    parse_algebra,
)
from .groups import GroupsError, brauer_stack
from .ksymbols import KError, MODEL_PRESETS, euclidean_model, parse_kelement, residue
from .rings import RingError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RESERVED_NAMES = {"F", "sqrt", "eps"}
# Bound on the digits of every -d: the worksheets render d(d-1)^2, which
# then stays within 3000 digits, below Python's int-to-str limit of 4300.
DEGREE_DIGITS = 1000


class UsageError(Exception):
    """Bad arguments that argparse alone cannot catch; exits with code 2."""


class WorksheetResult:
    """One executed subcommand: the command echo, the rendered output lines,
    the JSON payload, the oracle comparison (expected, computed, match) when
    a recorded value exists, and the elapsed wall time (filled in by the
    dispatcher)."""

    def __init__(self, command, primary, payload, oracle=None):
        self.command = command
        self.primary = list(primary)
        self.payload = payload
        self.oracle = oracle
        self.elapsed = 0.0

    @property
    def match(self):
        return None if self.oracle is None else self.oracle[2]

    def to_json(self):
        data = {"command": self.command}
        data.update(self.payload)
        if self.oracle is not None:
            expected, computed, match = self.oracle
            data["oracle"] = {
                "expected": expected,
                "computed": computed,
                "match": match,
            }
        data["elapsed"] = round(self.elapsed, 6)
        return data


# -- shared rendering helpers ---------------------------------------------------


def _compact(coeffs, order):
    """`3h - 4c1` style rendering for a factored-out coefficient vector."""
    chunks = []
    for name in order:
        c = coeffs.get(name, 0)
        if c == 0:
            continue
        body = name if abs(c) == 1 else "%d%s" % (abs(c), name)
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks) if chunks else "0"


def _class_result(command, report, order, expected):
    match = report.basis_coefficients == expected and report.divisibility_ok
    verdict = "[matches closed form]" if match else "[DIFFERS from closed form]"
    if report.content > 1:
        inner = {
            n: c // report.content for n, c in report.basis_coefficients.items()
        }
        head = "%s = %d*(%s)  %s" % (
            report.poly,
            report.content,
            _compact(inner, order),
            verdict,
        )
    else:
        head = "%s  %s" % (report.poly, verdict)
    lines = [
        head,
        "content: %d (expected divisor %d)" % (report.content, report.expected_divisor),
    ]
    return WorksheetResult(
        command,
        lines,
        report.to_json(),
        oracle=(expected, dict(report.basis_coefficients), match),
    )


def _field_model(model_name, text, drop, extra=()):
    """Build the named preset model over the identifiers appearing in text."""
    if model_name is None:
        model_name = os.environ.get("CCALC_MODEL", "euclidean")
    if model_name not in MODEL_PRESETS:
        raise UsageError(
            "unknown field model %r (choose from %s)"
            % (model_name, ", ".join(sorted(MODEL_PRESETS)))
        )
    names = set(_IDENT.findall(text)) - set(drop) | set(extra)
    return MODEL_PRESETS[model_name](tuple(sorted(names)))


def _check_name(name, kind):
    """UsageError unless name is an identifier that the parsers do not reserve."""
    if not _IDENT.fullmatch(name) or name in _RESERVED_NAMES:
        raise UsageError("bad %s name %r" % (kind, name))


# -- subcommands ------------------------------------------------------------------


def cmd_classz(args):
    report = class_z(args.d)
    return _class_result("classz", report, ("h", "c1"), checks.classz_oracle(args.d))


def cmd_classd(args):
    report = class_bin(args.d)
    return _class_result(
        "classd", report, ("hz", "c1", "u"), checks.classd_oracle(args.d)
    )


def cmd_rvalue(args):
    r = r_value(args.d)
    a = args.d * (args.d - 1) ** 2
    b = 3 * (args.d - 2)
    lines = [
        "r(%d) = gcd(%d, %d) = %d" % (args.d, a, b, r),
        "2-torsion kernel order: %d" % gcd(2, r),
    ]
    payload = {"d": args.d, "r": r, "gcd_of": [a, b], "two_torsion": gcd(2, r)}
    return WorksheetResult("rvalue", lines, payload)


def cmd_sw(args):
    if args.max_degree is not None and args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    model = _field_model(args.model, args.algebra, drop=("F", "sqrt"))
    for n in model.indeterminates:
        _check_name(n, "square-root")
    if len(model.indeterminates) > SW_NAMES_LIMIT:
        raise EtaleError(
            "algebra over %d names; the limit is %d"
            % (len(model.indeterminates), SW_NAMES_LIMIT)
        )
    alg = parse_algebra(args.algebra, model)
    sw = galois_sw_total(alg, max_degree=args.max_degree)
    lines = ["algebra: %s  (rank %d, model %s)" % (alg, alg.rank, model.name)]
    classes = {}
    for i in range(sw.cap + 1):
        rendered = str(sw.alpha(i))
        lines.append("alpha%d = %s" % (i, rendered))
        classes["alpha%d" % i] = rendered
    payload = {
        "algebra": str(alg),
        "model": model.name,
        "indeterminates": list(model.indeterminates),
        "rank": alg.rank,
        "cap": sw.cap,
        "classes": classes,
    }
    return WorksheetResult("sw", lines, payload)


def cmd_lines(args):
    if args.gens is None:
        names = ("a", "b")
    else:
        names = tuple(s.strip() for s in args.gens.split(","))
    if len(names) not in (2, 3):
        raise UsageError("--gens takes two or three comma-separated names")
    if len(set(names)) != len(names):
        raise UsageError("square-class names must be distinct")
    for n in names:
        _check_name(n, "square-class")
    model = euclidean_model(names)
    cfg = PointConfig(model, tuple(frozenset({n}) for n in names))

    ls = build_action(cfg)
    report = orbit_decomposition(ls)
    with_bitangent = report.algebra.times(EtaleAlgebraExpr(model, [((), 1)]))
    alpha2 = galois_sw_total(with_bitangent, max_degree=2).alpha(2)

    lines = [
        "group of order %d: %s"
        % (len(ls.elements), ", ".join(name for name, _ in ls.elements)),
        "orbits:",
    ]
    for o in report.orbits:
        lines.append(
            "  %-16s over %s" % ("+".join(o.labels), field_str(o.extension, model))
        )
    lines.append("algebra: %s" % report.algebra)
    lines.append(
        "rank: %d (%d with the extra bitangent factor)"
        % (report.algebra.rank, with_bitangent.rank)
    )
    lines.append("alpha2 = %s" % alpha2)

    payload = {
        "gens": list(names),
        "group": [name for name, _ in ls.elements],
        "orbits": [
            {
                "labels": list(o.labels),
                "size": len(o.labels),
                "stabilizer": list(o.stabilizer),
                "fixed_field": field_str(o.extension, model),
            }
            for o in report.orbits
        ],
        "algebra": str(report.algebra),
        "rank": report.algebra.rank,
        "algebra_with_bitangent": str(with_bitangent),
        "rank_with_bitangent": with_bitangent.rank,
        "alpha2": str(alpha2),
    }

    if args.verify_position:
        pos = verify_general_position(cfg)
        lines.append(
            "general position: all %d determinants nonzero" % len(pos.checks)
        )
        payload["position"] = {
            "determinants": len(pos.checks),
            "all_nonzero": pos.all_nonzero,
        }
    if args.certificate:
        cert = nontriviality_certificate(with_bitangent)
        lines.append(
            "certificate at (%s): %s"
            % (", ".join(cert.at), " -> ".join(str(x) for x in cert.chain))
        )
        payload["certificate"] = {
            "at": list(cert.at),
            "chain": [str(x) for x in cert.chain],
        }
    return WorksheetResult("lines", lines, payload)


def cmd_brauer(args):
    stack = args.stack.replace("-", "_")
    if stack in ("xd", "xdfr") and args.d is None:
        raise UsageError("--stack %s requires -d" % args.stack)
    if stack not in ("xd", "xdfr") and args.d is not None:
        raise UsageError("--stack %s takes no -d" % args.stack)
    if stack not in ("xdfr", "x4fr") and args.closed:
        raise UsageError("--stack %s takes no --closed" % args.stack)
    desc = brauer_stack(stack, d=args.d, char=args.char, closed=args.closed)
    payload = {
        "stack": args.stack,
        "params": {"d": args.d, "char": args.char, "closed": args.closed},
    }
    payload.update(desc.to_json())
    return WorksheetResult("brauer", [str(desc)], payload)


def cmd_residue(args):
    model = _field_model(args.model, args.expr, drop=("eps",), extra=(args.at,))
    for n in model.indeterminates:
        _check_name(n, "indeterminate")
    x = parse_kelement(args.expr, model)
    result = residue(x, args.at)
    lines = ["residue at %s: %s" % (args.at, result)]
    payload = {
        "expr": str(x),
        "at": args.at,
        "model": model.name,
        "result": str(result),
    }
    return WorksheetResult("residue", lines, payload)


def cmd_check_all(args):
    t0 = time.perf_counter()
    lines = checks.run_all()
    elapsed = time.perf_counter() - t0
    ok = all(line.ok for line in lines)
    if args.json:
        payload = {
            "command": "check-all",
            "checks": [
                {"name": l.name, "ok": l.ok, "detail": l.detail} for l in lines
            ],
            "all_ok": ok,
            "elapsed": round(elapsed, 3),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print("%s  %s" % ("ok  " if line.ok else "FAIL", line.name))
            if not line.ok:
                print("      %s" % line.detail)
        failed = sum(1 for line in lines if not line.ok)
        if failed:
            print("%d of %d checks FAILED (%.1fs)" % (failed, len(lines), elapsed))
        else:
            print("all %d checks passed (%.1fs)" % (len(lines), elapsed))
    return 0 if ok else 1


# -- parser and dispatch -----------------------------------------------------------


def _add_json(p):
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ccalc",
        description="exact worksheets for singular-curve locus classes, "
        "mod-2 Milnor symbols, trace-form invariants, the 27-lines "
        "bookkeeping, and the group descriptors they feed",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "classz", help="degree-1 class of the singular-curve locus"
    )
    p.add_argument("-d", type=int, required=True, help="curve degree (>= 3)")
    _add_json(p)

    p = sub.add_parser(
        "classd", help="residual class of curves with two singular points"
    )
    p.add_argument("-d", type=int, required=True, help="curve degree (>= 4)")
    _add_json(p)

    p = sub.add_parser(
        "rvalue", help="content gcd(d(d-1)^2, 3(d-2)) of the residual class"
    )
    p.add_argument("-d", type=int, required=True, help="curve degree (>= 4)")
    _add_json(p)

    p = sub.add_parser(
        "sw", help="Galois-corrected trace-form classes of an etale algebra"
    )
    p.add_argument(
        "--algebra", required=True, help='e.g. "F(sqrt(a),sqrt(b)) * F^2"'
    )
    p.add_argument(
        "--model",
        choices=sorted(MODEL_PRESETS),
        default=None,
        help="field model (default: CCALC_MODEL or euclidean)",
    )
    p.add_argument(
        "--max-degree", type=int, default=None, dest="max_degree",
        help="materialize classes up to this degree (default min(rank, 7))",
    )
    _add_json(p)

    p = sub.add_parser(
        "lines", help="27 lines over three conjugate point-pairs"
    )
    p.add_argument(
        "--gens",
        default=None,
        help="two or three comma-separated square-class names (default a,b)",
    )
    p.add_argument(
        "--verify-position",
        action="store_true",
        dest="verify_position",
        help="evaluate all degeneracy determinants exactly",
    )
    p.add_argument(
        "--certificate",
        action="store_true",
        help="append the double-residue nontriviality certificate",
    )
    _add_json(p)

    p = sub.add_parser("brauer", help="group descriptor for a moduli stack")
    p.add_argument(
        "--stack",
        required=True,
        choices=["xd", "xdfr", "x4fr", "m3", "m3-minus-h3", "a3"],
    )
    p.add_argument("-d", type=int, default=None, help="curve degree (xd and xdfr only)")
    p.add_argument(
        "--char", type=int, default=0, help="base-field characteristic (0 or p)"
    )
    p.add_argument(
        "--closed",
        action="store_true",
        help="base field algebraically closed (xdfr and x4fr only)",
    )
    _add_json(p)

    p = sub.add_parser("residue", help="ramification of a symbol at a variable")
    p.add_argument("--expr", required=True, help='e.g. "{a,b} + {-1,a}"')
    p.add_argument("--at", required=True, help="indeterminate to ramify at")
    p.add_argument(
        "--model",
        choices=sorted(MODEL_PRESETS),
        default=None,
        help="field model (default: CCALC_MODEL or euclidean)",
    )
    _add_json(p)

    p = sub.add_parser(
        "check-all", help="run the full oracle table and property suites"
    )
    _add_json(p)

    return parser


HANDLERS = {
    "classz": cmd_classz,
    "classd": cmd_classd,
    "rvalue": cmd_rvalue,
    "sw": cmd_sw,
    "lines": cmd_lines,
    "brauer": cmd_brauer,
    "residue": cmd_residue,
    "check-all": cmd_check_all,
}

_CAUGHT = (DegreeTooSmall, RingError, KError, EtaleError, CubicError, GroupsError, SyntaxError)


def _emit_error(args, message, kind):
    if getattr(args, "json", False):
        print(json.dumps({"error": message, "type": kind}), file=sys.stderr)
    else:
        print("error: %s" % message, file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2

    t0 = time.perf_counter()
    try:
        if abs(getattr(args, "d", None) or 0) >= 10 ** DEGREE_DIGITS:
            raise UsageError("-d has more than %d digits" % DEGREE_DIGITS)
        result = HANDLERS[args.command](args)
    except UsageError as e:
        _emit_error(args, str(e), "UsageError")
        return 2
    except _CAUGHT as e:
        _emit_error(args, str(e), type(e).__name__)
        return 1

    if isinstance(result, int):
        return result
    result.elapsed = time.perf_counter() - t0
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        for line in result.primary:
            print(line)
    return 0 if result.match in (None, True) else 1


if __name__ == "__main__":
    sys.exit(main())
