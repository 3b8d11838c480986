"""Worksheet runner: every computation in the package as one subcommand.

Every handler returns one result shape, `(lines, payload, ok)`: the
worksheet's text lines, its JSON payload and whether it passed.  `main` alone
renders it: the lines by default, or with --json the payload plus `"command"`
and `"elapsed"` as a single JSON document, and it exits 1 when the handler did
not pass.  The locus-class worksheets pass when they match their recorded
closed forms (the payload's `"oracle"` object); `check-all` runs the whole
oracle table plus the randomized property suites from `checks` and passes only
if every line does.

The subcommands are the rows of one table, `COMMANDS`.  When the first
argument names one of them, `main` builds only that subcommand's parser, whose
usage, help and errors never mention the others; otherwise (no arguments,
`--help`, an unknown command) it builds the full parser.

Exit codes: 0 success, 1 computation error or oracle mismatch, 2 usage error.
"""

import argparse
import json
import os
import re
import sys
import time

from . import checks
from .chow import DegreeTooSmall, class_bin, class_z, r_value
from .cubic import (
    CubicError,
    PointConfig,
    bitangent_algebra,
    build_action,
    nontriviality_certificate,
    orbit_decomposition,
    verify_general_position,
)
from .etale import (
    SW_NAMES_LIMIT,
    EtaleError,
    field_str,
    galois_sw_total,
    parse_algebra,
)
from .groups import GroupsError, brauer_stack, n_torsion
from .ksymbols import KError, MODEL_PRESETS, euclidean_model, parse_kelement, residue
from .rings import RingError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RESERVED_NAMES = {"F", "sqrt", "eps"}
# Bound on the digits of every -d: the worksheets render d(d-1)^2, which
# then stays within 3000 digits, below Python's int-to-str limit of 4300.
DEGREE_DIGITS = 1000


class UsageError(Exception):
    """Bad arguments that argparse alone cannot catch; exits with code 2."""


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


def _class_result(report, order, expected):
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
    payload = report.to_json()
    payload["oracle"] = {
        "expected": expected,
        "computed": dict(report.basis_coefficients),
        "match": match,
    }
    return lines, payload, match


def _field_model(model_name, text, kind, drop, extra=()):
    """Build the named preset model over the identifiers appearing in text,
    then check each of its indeterminates as a `kind` name."""
    if model_name is None:
        model_name = os.environ.get("CCALC_MODEL", "euclidean")
    if model_name not in MODEL_PRESETS:
        raise UsageError(
            "unknown field model %r (choose from %s)"
            % (model_name, ", ".join(sorted(MODEL_PRESETS)))
        )
    names = set(_IDENT.findall(text)) - set(drop) | set(extra)
    model = MODEL_PRESETS[model_name](tuple(sorted(names)))
    for n in model.indeterminates:
        _check_name(n, kind)
    return model


def _check_name(name, kind):
    """UsageError unless name is an identifier that the parsers do not reserve."""
    if not _IDENT.fullmatch(name) or name in _RESERVED_NAMES:
        raise UsageError("bad %s name %r" % (kind, name))


# -- subcommands ------------------------------------------------------------------


def cmd_classz(args):
    report = class_z(args.d)
    return _class_result(report, ("h", "c1"), checks.classz_oracle(args.d))


def cmd_classd(args):
    report = class_bin(args.d)
    return _class_result(report, ("hz", "c1", "u"), checks.classd_oracle(args.d))


def cmd_rvalue(args):
    r = r_value(args.d)
    two = n_torsion(args.d)
    a = args.d * (args.d - 1) ** 2
    b = 3 * (args.d - 2)
    lines = [
        "r(%d) = gcd(%d, %d) = %d" % (args.d, a, b, r),
        "2-torsion kernel order: %d" % two,
    ]
    return lines, {"d": args.d, "r": r, "gcd_of": [a, b], "two_torsion": two}, True


def cmd_sw(args):
    if args.max_degree is not None and args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    model = _field_model(args.model, args.algebra, "square-root", drop=("F", "sqrt"))
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
    return lines, payload, True


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
    group = list(ls.names.values())
    report = orbit_decomposition(ls)
    with_bitangent = bitangent_algebra(report.algebra)
    alpha2 = galois_sw_total(with_bitangent, max_degree=2).alpha(2)

    lines = ["group of order %d: %s" % (len(group), ", ".join(group)), "orbits:"]
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
        "group": group,
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
    return lines, payload, True


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
    return [str(desc)], payload, True


def cmd_residue(args):
    model = _field_model(
        args.model, args.expr, "indeterminate", drop=("eps",), extra=(args.at,)
    )
    x = parse_kelement(args.expr, model)
    result = str(residue(x, args.at))
    payload = {"at": args.at, "model": model.name, "result": result}
    if args.json:
        payload["expr"] = str(x)
    return ["residue at %s: %s" % (args.at, result)], payload, True


def cmd_check_all(args):
    t0 = time.perf_counter()
    results = checks.run_all()
    elapsed = time.perf_counter() - t0
    lines = []
    for check in results:
        lines.append("%s  %s" % ("ok  " if check.ok else "FAIL", check.name))
        if not check.ok:
            lines.append("      %s" % check.detail)
    failed = sum(not check.ok for check in results)
    if failed:
        lines.append("%d of %d checks FAILED (%.1fs)" % (failed, len(results), elapsed))
    else:
        lines.append("all %d checks passed (%.1fs)" % (len(results), elapsed))
    payload = {"checks": [check._asdict() for check in results], "all_ok": not failed}
    return lines, payload, not failed


# -- parser and dispatch -----------------------------------------------------------


def _option(*flags, **kwargs):
    """One option of a subcommand, as its `add_argument` arguments."""
    return flags, kwargs


def _degree(minimum):
    return _option("-d", type=int, required=True, help="curve degree (>= %d)" % minimum)


_MODEL = _option(
    "--model",
    choices=sorted(MODEL_PRESETS),
    default=None,
    help="field model (default: CCALC_MODEL or euclidean)",
)
_JSON = _option("--json", action="store_true", help="machine-readable output")

# The subcommands in --help order: name -> (handler, summary, options).
# `build_parser` gives each one --json as its last option, since `main` reads
# it for all of them.
COMMANDS = {
    "classz": (cmd_classz, "degree-1 class of the singular-curve locus", (_degree(3),)),
    "classd": (
        cmd_classd,
        "residual class of curves with two singular points",
        (_degree(4),),
    ),
    "rvalue": (
        cmd_rvalue,
        "content gcd(d(d-1)^2, 3(d-2)) of the residual class",
        (_degree(4),),
    ),
    "sw": (
        cmd_sw,
        "Galois-corrected trace-form classes of an etale algebra",
        (
            _option("--algebra", required=True, help='e.g. "F(sqrt(a),sqrt(b)) * F^2"'),
            _MODEL,
            _option(
                "--max-degree", type=int, default=None, dest="max_degree",
                help="materialize classes up to this degree (default min(rank, 7))",
            ),
        ),
    ),
    "lines": (
        cmd_lines,
        "27 lines over three conjugate point-pairs",
        (
            _option(
                "--gens",
                default=None,
                help="two or three comma-separated square-class names (default a,b)",
            ),
            _option(
                "--verify-position",
                action="store_true",
                dest="verify_position",
                help="evaluate all degeneracy determinants exactly",
            ),
            _option(
                "--certificate",
                action="store_true",
                help="append the double-residue nontriviality certificate",
            ),
        ),
    ),
    "brauer": (
        cmd_brauer,
        "group descriptor for a moduli stack",
        (
            _option(
                "--stack",
                required=True,
                choices=["xd", "xdfr", "x4fr", "m3", "m3-minus-h3", "a3"],
            ),
            _option(
                "-d", type=int, default=None, help="curve degree (xd and xdfr only)"
            ),
            _option(
                "--char", type=int, default=0, help="base-field characteristic (0 or p)"
            ),
            _option(
                "--closed",
                action="store_true",
                help="base field algebraically closed (xdfr and x4fr only)",
            ),
        ),
    ),
    "residue": (
        cmd_residue,
        "ramification of a symbol at a variable",
        (
            _option("--expr", required=True, help='e.g. "{a,b} + {-1,a}"'),
            _option("--at", required=True, help="indeterminate to ramify at"),
            _MODEL,
        ),
    ),
    "check-all": (cmd_check_all, "run the full oracle table and property suites", ()),
}


def build_parser(command=None):
    """The ccalc parser: with every subcommand, or with `command`'s alone."""
    parser = argparse.ArgumentParser(
        prog="ccalc",
        description="exact worksheets for singular-curve locus classes, "
        "mod-2 Milnor symbols, trace-form invariants, the 27-lines "
        "bookkeeping, and the group descriptors they feed",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (handler, summary, options) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            p.set_defaults(handler=handler)
            for flags, kwargs in options + (_JSON,):
                p.add_argument(*flags, **kwargs)
    return parser


_CAUGHT = (DegreeTooSmall, RingError, KError, EtaleError, CubicError, GroupsError, SyntaxError)


def _emit_error(args, message, kind):
    if getattr(args, "json", False):
        print(json.dumps({"error": message, "type": kind}), file=sys.stderr)
    else:
        print("error: %s" % message, file=sys.stderr)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # A subparser's usage and help never list its siblings, and the top-level
    # usage names no command, so a request that starts with a command parses
    # and fails the same with that subparser alone.  Anything else (no
    # command, --help, an unknown name) needs the full list.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2

    t0 = time.perf_counter()
    try:
        if abs(getattr(args, "d", None) or 0) >= 10 ** DEGREE_DIGITS:
            raise UsageError("-d has more than %d digits" % DEGREE_DIGITS)
        lines, payload, ok = args.handler(args)
    except UsageError as e:
        _emit_error(args, str(e), "UsageError")
        return 2
    except _CAUGHT as e:
        _emit_error(args, str(e), type(e).__name__)
        return 1

    if args.json:
        payload = dict(
            payload, command=args.command, elapsed=round(time.perf_counter() - t0, 6)
        )
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
