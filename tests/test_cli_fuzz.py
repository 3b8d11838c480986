"""Randomized argv for every ccalc subcommand but check-all.

Each drawn command line, well formed or mangled, must end with exit code 0,
1 or 2 within a time bound, without an uncaught exception.  With --json, a
computation error (exit 1) is exactly one JSON object with "error" and
"type" on stderr; argparse's own usage errors stay plain text.  Whenever the
plain-request reader `cli._read` accepts a command line, its namespace equals
the one argparse parses from it.
"""

import contextlib
import io
import json
import os
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from ccalc.cli import _read, build_parser, main

# Seconds one call may take.  The slowest drawn shapes (eight factors with
# six square roots each, as many as the classes a, b, c, d, -1, 2 allow)
# stay well under it: sw pays one trace form per factor, O(4^s) ring products
# for s roots, and a few truncated steps per distinct class, whatever the
# multiplicities.
CALL_BOUND_S = 5.0

NAMES = ["a", "b", "c", "d", "x", "a1", "F", "sqrt", "eps", "minus_one", "two", "_", ""]
INT_TEXT = st.one_of(
    st.integers(min_value=-3, max_value=14).map(str),
    st.sampled_from(
        ["99999999999", "-99999999999", str(2 ** 31), str(10 ** 25 + 13), "9" * 1500,
         "0x10", "1e3", "", "x", " 4", "³", "٣"]
    ),
)

SQUARE_CLASS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "d", "-1", "2", "4"]), min_size=1,
             max_size=3).map("*".join),
    st.sampled_from(["-a", "1", "", "a*", "q", "sqrt"]),
)
MULTIPLICITY = st.sampled_from(
    ["", "^0", "^1", "^2", "^3", "^99999999999", "^%d" % (2 ** 40 - 1), "^", "^-1",
     "^²"]
)
FACTOR = st.one_of(
    st.just("F"),
    st.lists(SQUARE_CLASS, min_size=1, max_size=6).map(
        lambda ms: "F(%s)" % ",".join("sqrt(%s)" % m for m in ms)
    ),
    st.sampled_from(["F(", "F()", "F(sqrt(a)", "G(sqrt(a))", "F(a)", "sqrt(a)"]),
)
ALGEBRA = st.builds(
    lambda parts: " * ".join(f + m for f, m in parts),
    st.lists(st.tuples(FACTOR, MULTIPLICITY), min_size=1, max_size=8),
)

SYMBOL_TERM = st.one_of(
    st.lists(
        st.sampled_from(["a", "b", "c", "-1", "2", "4", "a*b", "-b", "minus_one", "two",
                         "0", "x"]),
        min_size=1, max_size=4,
    ).map(lambda es: "{%s}" % ",".join(es)),
    st.sampled_from(
        ["1", "0", "eps", "eps^3", "eps*{a}", "eps^2*{a,b}", "eps{a}", "eps^2{a}",
         "eps^1001", "eps*", "{}", "{a", "a}", "", "}{", "{a}}", "eps^³"]
    ),
)
# r entries of three disjoint names expand to 3^r basis symbols; from r = 9 on
# the expansion is past ksymbols.EXPANSION_LIMIT and exits 1
DISJOINT_ENTRIES = st.integers(min_value=1, max_value=12).map(
    lambda r: "{%s}" % ",".join("x%d*x%d*x%d" % (3 * i, 3 * i + 1, 3 * i + 2)
                                for i in range(r))
)
EXPR = st.lists(st.one_of(SYMBOL_TERM, DISJOINT_ENTRIES), min_size=1,
                max_size=4).map(" + ".join)

MODEL = st.sampled_from(["closed", "euclidean", "generic", "bogus"])
JSON = st.lists(st.just("--json"), max_size=1)


def _req(flag, values):
    return values.map(lambda v: [flag, v])


def _opt(flag, values):
    return st.one_of(st.just([]), _req(flag, values))


def _flag(flag):
    return st.lists(st.just(flag), max_size=1)


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


COMMANDS = st.one_of(
    _command("classz", _req("-d", INT_TEXT), JSON),
    _command("classd", _req("-d", INT_TEXT), JSON),
    _command("rvalue", _req("-d", INT_TEXT), JSON),
    _command(
        "sw",
        _req("--algebra", ALGEBRA),
        _opt("--model", MODEL),
        _opt("--max-degree", st.sampled_from(["0", "1", "2", "5", "12", "-1", "129",
                                              "99999999999", "x"])),
        JSON,
    ),
    _command(
        "lines",
        _opt("--gens", st.one_of(
            st.sampled_from(["a,b", "b,a", "a,b,c", "x,y", "u,v,w", "a, b"]),
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=4).map(",".join),
        )),
        _flag("--verify-position"),
        _flag("--certificate"),
        JSON,
    ),
    _command(
        "brauer",
        _req("--stack", st.sampled_from(["xd", "xdfr", "x4fr", "m3", "m3-minus-h3",
                                         "a3", "m3_minus_h3", "bogus"])),
        _opt("-d", INT_TEXT),
        _opt("--char", INT_TEXT),
        _flag("--closed"),
        JSON,
    ),
    _command(
        "residue",
        _req("--expr", EXPR),
        _req("--at", st.sampled_from(NAMES)),
        _opt("--model", MODEL),
        JSON,
    ),
)

TOKENS = st.sampled_from(
    ["--json", "-d", "--bogus", "", "-", "--", "check", "4", "--model", "--algebra"]
)


@st.composite
def argvs(draw):
    """A drawn command line, mangled at random: a token dropped, a stray
    token inserted, or a shorter prefix kept."""
    argv = draw(COMMANDS)
    mangle = draw(st.sampled_from(["none", "none", "drop", "insert", "prefix"]))
    if mangle == "drop" and argv:
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif mangle == "insert":
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    elif mangle == "prefix":
        argv = argv[: draw(st.integers(0, len(argv)))]
    return argv


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs(), st.sampled_from([None, "closed", "bogus"]))
def test_cli_argv_fuzz(argv, ambient_model):
    args = _read(argv)
    if args is not None:
        assert vars(args) == vars(build_parser(argv[0]).parse_args(argv)), argv
    saved = os.environ.pop("CCALC_MODEL", None)
    if ambient_model is not None:
        os.environ["CCALC_MODEL"] = ambient_model
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("CCALC_MODEL", None)
        if saved is not None:
            os.environ["CCALC_MODEL"] = saved
    elapsed = time.perf_counter() - t0
    err = err.getvalue()

    assert elapsed < CALL_BOUND_S, (argv, elapsed)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 0:
        assert err == "", (argv, err)
    elif code == 1:
        assert out.getvalue() == "", (argv, out.getvalue())
        if "--json" in argv:
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            payload = json.loads(err)
            assert set(payload) == {"error", "type"}, (argv, payload)
        else:
            assert err.startswith("error: "), (argv, err)
