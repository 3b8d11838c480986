"""Exit codes, golden worksheets, and JSON round trips for the ccalc CLI."""

import argparse
import json
import re
import sys
import time

import pytest

from ccalc.checks import CheckLine
from ccalc.chow import class_z
from ccalc.cli import COMMANDS, DEGREE_DIGITS, build_parser, main
from ccalc.etale import ROOTS_LIMIT, SW_CAP_LIMIT, SW_NAMES_LIMIT
from ccalc.ksymbols import EXPANSION_LIMIT, KElement


@pytest.fixture(autouse=True)
def _no_ambient_model(monkeypatch):
    monkeypatch.delenv("CCALC_MODEL", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse(capsys, parser, argv):
    """`parser.parse_args(argv)` as (exit code or namespace, stdout, stderr)."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as e:
        result = e.code
    return (result, *capsys.readouterr())


# -- locus classes -------------------------------------------------------------


def test_classz_worksheet(capsys):
    code, out, _ = run(capsys, "classz", "-d", "4")
    assert code == 0
    assert out.splitlines() == [
        "27*h - 36*c1 = 9*(3h - 4c1)  [matches closed form]",
        "content: 9 (expected divisor 9)",
    ]


def test_classz_json_round_trip(capsys):
    code, out, _ = run(capsys, "classz", "-d", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "classz"
    assert data["d"] == 4
    assert data["class"] == str(class_z(4).poly)
    assert data["coefficients"] == {"h": 27, "c1": -36}
    assert data["content"] == 9 and data["expected_divisor"] == 9
    assert data["ok"] is True
    assert data["oracle"]["match"] is True
    assert data["oracle"]["expected"] == data["oracle"]["computed"]


def test_classz_json_is_deterministic_modulo_timing(capsys):
    _, first, _ = run(capsys, "classz", "-d", "7", "--json")
    _, second, _ = run(capsys, "classz", "-d", "7", "--json")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed"), b.pop("elapsed")
    assert a == b


def test_classz_degree_too_small(capsys):
    code, _, err = run(capsys, "classz", "-d", "2")
    assert code == 1
    assert err.startswith("error:")


def test_classz_error_json_on_stderr(capsys):
    code, out, err = run(capsys, "classz", "-d", "2", "--json")
    assert code == 1
    assert out == ""
    data = json.loads(err)
    assert data["type"] == "DegreeTooSmall"
    assert "degree" in data["error"]


def test_classd_factored_worksheet(capsys):
    code, out, _ = run(capsys, "classd", "-d", "4")
    assert code == 0
    assert out.splitlines() == [
        "24*hz - 36*c1 - 6*u = 6*(4hz - 6c1 - u)  [matches closed form]",
        "content: 6 (expected divisor 6)",
    ]


def test_classd_content_one_is_not_factored(capsys):
    code, out, _ = run(capsys, "classd", "-d", "5")
    assert code == 0
    assert out.splitlines()[0] == "45*hz - 80*c1 - 9*u  [matches closed form]"


def test_rvalue_worksheet(capsys):
    code, out, _ = run(capsys, "rvalue", "-d", "7")
    assert code == 0
    assert out.splitlines() == [
        "r(7) = gcd(252, 15) = 3",
        "2-torsion kernel order: 1",
    ]


@pytest.mark.parametrize(
    "argv", [["classz"], ["classd"], ["rvalue"], ["brauer", "--stack", "xdfr"]],
    ids=["classz", "classd", "rvalue", "brauer"],
)
@pytest.mark.parametrize("digits", [DEGREE_DIGITS, DEGREE_DIGITS + 1, 4300])
def test_degree_digit_limit(capsys, argv, digits):
    # d(d-1)^2 of a 1500-digit d passed Python's 4300-digit int-to-str limit
    # and ended in a ValueError traceback
    code, out, err = run(capsys, *argv, "-d", "9" * digits)
    if digits <= DEGREE_DIGITS:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err == "error: -d has more than %d digits\n" % DEGREE_DIGITS


# -- trace-form classes -----------------------------------------------------------


def test_sw_biquadratic(capsys):
    code, out, _ = run(
        capsys, "sw", "--algebra", "F(sqrt(a),sqrt(b))", "--model", "euclidean"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algebra: F(sqrt(a),sqrt(b))  (rank 4, model euclidean)"
    assert "alpha1 = 0" in lines
    assert "alpha2 = {a,b} + {-1,a} + {-1,b}" in lines


def test_sw_max_degree_caps_output(capsys):
    code, out, _ = run(
        capsys, "sw", "--algebra", "F(sqrt(a),sqrt(b))", "--max-degree", "2"
    )
    assert code == 0
    assert "alpha2 = " in out and "alpha3" not in out


def test_sw_json(capsys):
    code, out, _ = run(
        capsys, "sw", "--algebra", "F(sqrt(a)) * F^2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 4
    assert data["model"] == "euclidean"
    assert data["classes"]["alpha1"] == "{a}"


def test_sw_model_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("CCALC_MODEL", "closed")
    code, out, _ = run(capsys, "sw", "--algebra", "F(sqrt(a),sqrt(b))")
    assert code == 0
    assert "model closed" in out
    assert "alpha2 = {a,b}" in out.splitlines()[3]


def test_sw_bad_environment_model_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CCALC_MODEL", "bogus")
    code, _, err = run(capsys, "sw", "--algebra", "F(sqrt(a))")
    assert code == 2
    assert "bogus" in err


def test_sw_parse_error(capsys):
    code, _, err = run(capsys, "sw", "--algebra", "F(sqrt(a)", "--json")
    assert code == 1
    assert json.loads(err)["type"] == "SyntaxError"


@pytest.mark.parametrize("algebra", ["F(sqrt(eps))", "F(sqrt(a),sqrt(eps)) * F"])
def test_sw_eps_is_reserved(capsys, algebra):
    code, out, err = run(capsys, "sw", "--algebra", algebra)
    assert code == 2 and out == ""
    assert err == "error: bad square-root name 'eps'\n"


def test_sw_huge_multiplicity(capsys):
    code, out, err = run(capsys, "sw", "--algebra", "F(sqrt(a))^99999999999")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == (
        "algebra: F(sqrt(a))^99999999999  (rank 199999999998, model euclidean)"
    )
    assert lines[-1] == "alpha7 = {-1,-1,-1,-1,-1,-1,a}"


def test_sw_many_factors_of_huge_multiplicity_is_fast(capsys):
    factor = "F(sqrt(a),sqrt(b))^1099511627775"
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "sw", "--algebra", " * ".join([factor] * 20), "--max-degree", "128"
    )
    assert time.perf_counter() - t0 < 1
    assert code == 0 and err == ""
    # each class occurs 20*(2^40 - 1) = 236 mod 256 times, and below degree
    # 256 only that residue matters
    code, small, _ = run(
        capsys, "sw", "--algebra", "F(sqrt(a),sqrt(b))^236", "--max-degree", "128"
    )
    assert code == 0
    assert out.splitlines()[1:] == small.splitlines()[1:]


def test_sw_cap_limit(capsys):
    alg = "F(sqrt(a),sqrt(b),sqrt(c))^99999999999"
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "sw", "--algebra", alg, "--max-degree", "99999999999", "--json"
    )
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "classes up to degree 99999999999 requested; the limit is %d"
        % SW_CAP_LIMIT,
        "type": "EtaleError",
    }
    code, out, _ = run(
        capsys, "sw", "--algebra", alg, "--max-degree", str(SW_CAP_LIMIT), "--json"
    )
    assert code == 0 and json.loads(out)["cap"] == SW_CAP_LIMIT


def test_sw_roots_limit(capsys):
    # SW_NAMES_LIMIT names span at most SW_NAMES_LIMIT + 2 independent roots
    # with -1 and 2, so past ROOTS_LIMIT the roots repeat; the count is checked
    # before independence, and tests/test_etale.py builds a factor at the limit
    names = ["x%d" % i for i in range(1, SW_NAMES_LIMIT + 1)]
    roots = ["sqrt(%s)" % names[i % len(names)] for i in range(ROOTS_LIMIT + 1)]
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "sw", "--model", "generic", "--algebra", "F(%s)" % ",".join(roots)
    )
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert err == "error: factor with %d square roots; the limit is %d\n" % (
        ROOTS_LIMIT + 1,
        ROOTS_LIMIT,
    )
    roots = ["sqrt(-1)", "sqrt(2)"] + ["sqrt(%s)" % n for n in names]
    code, out, _ = run(
        capsys, "sw", "--model", "generic", "--algebra", "F(%s)" % ",".join(roots)
    )
    assert code == 0 and "(rank %d, model generic)" % 2 ** len(roots) in out


def test_sw_names_limit(capsys):
    names = ["x%d" % i for i in range(1, SW_NAMES_LIMIT + 2)]
    code, out, err = run(
        capsys, "sw", "--algebra", " * ".join("F(sqrt(%s))" % n for n in names)
    )
    assert code == 1 and out == ""
    assert err == "error: algebra over %d names; the limit is %d\n" % (
        SW_NAMES_LIMIT + 1,
        SW_NAMES_LIMIT,
    )
    code, out, _ = run(
        capsys, "sw", "--algebra", " * ".join("F(sqrt(%s))" % n for n in names[1:])
    )
    assert code == 0 and "(rank %d, model euclidean)" % (2 * SW_NAMES_LIMIT) in out


def test_sw_multiplicity_digit_limit(capsys):
    code, out, err = run(capsys, "sw", "--algebra", "F^1" + "0" * 1000)
    assert code == 1 and out == ""
    assert "more than 1000 digits" in err


# -- 27 lines ---------------------------------------------------------------------


def test_lines_worksheet(capsys):
    code, out, _ = run(capsys, "lines")
    assert code == 0
    assert (
        "algebra: F^3 * F(sqrt(a))^2 * F(sqrt(b))^2 * F(sqrt(a*b))^2"
        " * F(sqrt(a),sqrt(b))^3" in out
    )
    assert "rank: 27 (28 with the extra bitangent factor)" in out
    assert "alpha2 = {a,b} + {-1,a} + {-1,b}" in out


def test_lines_json_structure(capsys):
    code, out, _ = run(capsys, "lines", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(o["size"] for o in data["orbits"]) == [
        1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4,
    ]
    assert data["rank"] == 27 and data["rank_with_bitangent"] == 28
    assert data["group"] == ["1", "sigma", "tau", "sigma*tau"]
    labels = [o["labels"] for o in data["orbits"]]
    assert ["L12"] in labels and ["L13", "L14", "L23", "L24"] in labels


def test_lines_custom_generator_names(capsys):
    code, out, _ = run(capsys, "lines", "--gens", "x,y")
    assert code == 0
    assert "F(sqrt(x),sqrt(y))^3" in out
    assert "alpha2 = {x,y} + {-1,x} + {-1,y}" in out


def test_lines_three_generators(capsys):
    code, out, _ = run(capsys, "lines", "--gens", "a,b,c", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 27
    assert data["group"] == [
        "1", "sigma1", "sigma2", "sigma3",
        "sigma1*sigma2", "sigma1*sigma3", "sigma2*sigma3", "sigma1*sigma2*sigma3",
    ]
    assert data["alpha2"] == "{a,b} + {a,c} + {b,c} + {-1,a} + {-1,b} + {-1,c}"
    # every orbit in display order: labels, stabilizer, fixed field
    fixes_a = ["1", "sigma2", "sigma3", "sigma2*sigma3"]
    fixes_b = ["1", "sigma1", "sigma3", "sigma1*sigma3"]
    fixes_c = ["1", "sigma1", "sigma2", "sigma1*sigma2"]
    assert [
        (o["labels"], o["size"], o["stabilizer"], o["fixed_field"])
        for o in data["orbits"]
    ] == [
        (["L12"], 1, data["group"], "F"),
        (["L34"], 1, data["group"], "F"),
        (["L56"], 1, data["group"], "F"),
        (["E1", "E2"], 2, fixes_a, "F(sqrt(a))"),
        (["E3", "E4"], 2, fixes_b, "F(sqrt(b))"),
        (["E5", "E6"], 2, fixes_c, "F(sqrt(c))"),
        (["C1", "C2"], 2, fixes_a, "F(sqrt(a))"),
        (["C3", "C4"], 2, fixes_b, "F(sqrt(b))"),
        (["C5", "C6"], 2, fixes_c, "F(sqrt(c))"),
        (["L13", "L14", "L23", "L24"], 4, ["1", "sigma3"], "F(sqrt(a),sqrt(b))"),
        (["L15", "L16", "L25", "L26"], 4, ["1", "sigma2"], "F(sqrt(a),sqrt(c))"),
        (["L35", "L36", "L45", "L46"], 4, ["1", "sigma1"], "F(sqrt(b),sqrt(c))"),
    ]


def test_lines_gens_count_is_validated(capsys):
    code, _, err = run(capsys, "lines", "--gens", "a")
    assert code == 2
    assert "two or three" in err


def test_lines_duplicate_gens_are_a_usage_error(capsys):
    code, _, err = run(capsys, "lines", "--gens", "a,a")
    assert code == 2
    assert "distinct" in err


def test_lines_position_and_certificate(capsys):
    code, out, _ = run(capsys, "lines", "--verify-position", "--certificate")
    assert code == 0
    assert "general position: all 21 determinants nonzero" in out
    assert out.rstrip().endswith("-> 1")


def test_lines_certificate_json(capsys):
    code, out, _ = run(capsys, "lines", "--certificate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["at"] == ["b", "a"]
    assert data["certificate"]["chain"][-1] == "1"


# -- group descriptors --------------------------------------------------------------


@pytest.mark.parametrize(
    "d,rendered",
    [
        (3, "Z/3"),
        (4, "Z/2"),
        (5, "trivial group"),
        (6, "Z/6"),
        (7, "trivial group"),
        (8, "Z/2"),
        (9, "Z/3"),
        (10, "Z/2"),
    ],
)
def test_brauer_xd_table(capsys, d, rendered):
    code, out, _ = run(capsys, "brauer", "--stack", "xd", "-d", str(d))
    assert code == 0
    assert out.strip() == rendered


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--stack", "xd"], "requires -d"),
        (["--stack", "x4fr", "-d", "7"], "takes no -d"),
        (["--stack", "m3", "-d", "5", "--json"], "takes no -d"),
        (["--stack", "xd", "-d", "5", "--closed"], "takes no --closed"),
        (["--stack", "a3", "--closed"], "takes no --closed"),
    ],
    ids=["xd-without-d", "x4fr-with-d", "m3-with-d-json", "xd-closed", "a3-closed"],
)
def test_brauer_xd_needs_degree(capsys, argv, message):
    code, out, err = run(capsys, "brauer", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_brauer_open_genus3_locus(capsys):
    code, out, _ = run(capsys, "brauer", "--stack", "m3-minus-h3")
    assert code == 0
    assert out.strip() == "Br(k) ⊕ H^1(k, Z/9) ⊕ Z/2"


@pytest.mark.parametrize(
    "stack, summands",
    [
        ("m3-minus-h3", ["Br(k)", "H^1(k, Z/9)", "Z/2"]),
        ("x4fr", ["Br(k)", "H^1(k, Z/9)", "Z/2"]),
        ("m3", ["Br(k)", "Z/2"]),
        ("a3", ["Br(k)", "Z/2"]),
    ],
)
@pytest.mark.parametrize("char", [0, 5])
def test_brauer_genus3_and_framed_quartic_json(capsys, stack, summands, char):
    code, out, _ = run(capsys, "brauer", "--stack", stack, "--char", str(char), "--json")
    assert code == 0
    data = json.loads(out)
    del data["elapsed"]
    expected = {
        "command": "brauer",
        "params": {"char": char, "closed": False, "d": None},
        "placeholder": False,
        "stack": stack,
        "summands": summands,
    }
    label = {"m3": "B_5", "a3": "B''_5"}.get(stack) if char else None
    if label:
        expected.update(
            placeholder=True, placeholder_label=label, summands=summands + [label]
        )
    assert data == expected


def test_brauer_xdfr_even_degree_needs_closed_field(capsys):
    code, _, err = run(capsys, "brauer", "--stack", "xdfr", "-d", "6")
    assert code == 1
    assert "closed" in err
    code, out, _ = run(capsys, "brauer", "--stack", "xdfr", "-d", "6", "--closed")
    assert code == 0
    assert out.strip() == "Z/2"


def test_brauer_a3_placeholder_json(capsys):
    code, out, _ = run(capsys, "brauer", "--stack", "a3", "--char", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["placeholder"] is True
    assert data["placeholder_label"] == "B''_5"
    assert data["summands"] == ["Br(k)", "Z/2", "B''_5"]


def test_brauer_excluded_characteristic(capsys):
    code, _, err = run(capsys, "brauer", "--stack", "m3", "--char", "2")
    assert code == 1
    assert "excluded" in err


def test_brauer_characteristic_too_large_to_certify(capsys):
    code, out, err = run(capsys, "brauer", "--stack", "m3", "--char", str(10 ** 25))
    assert code == 1
    assert out == ""
    assert "too large" in err


# -- residue ------------------------------------------------------------------------


def test_residue_worksheet(capsys):
    code, out, _ = run(capsys, "residue", "--expr", "{a,b} + {-1,a}", "--at", "a")
    assert code == 0
    assert out.strip() == "residue at a: {b} + {-1}"


def test_residue_json(capsys):
    code, out, _ = run(
        capsys, "residue", "--expr", "eps^3*{c}", "--at", "c", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "{-1,-1,-1}"
    assert data["at"] == "c"


@pytest.mark.parametrize("flags, renders", [([], 1), (["--json"], 2)], ids=["text", "json"])
def test_residue_renders_only_what_it_prints(capsys, monkeypatch, flags, renders):
    # the result once; the parsed expression only for the JSON payload
    calls = []
    render = KElement.render

    def counted(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(KElement, "render", counted)
    code, out, _ = run(capsys, "residue", "--expr", "{a,b} + {-1,a}", "--at", "a", *flags)
    assert code == 0
    assert len(calls) == renders


def test_residue_at_a_constant_fails(capsys):
    code, _, err = run(capsys, "residue", "--expr", "{a}", "--at", "minus_one")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--expr", "{2,a}", "--at", "2", "--model", "generic"],
        ["--expr", "{a}", "--at=-1"],
        ["--expr", "{a}", "--at", ""],
        ["--expr", "{a}", "--at", "eps"],
        ["--expr", "{F,a}", "--at", "F"],
        ["--expr", "{a}", "--at", "a b"],
        ["--expr", "{F,a}", "--at", "a"],
        ["--expr", "eps*{a} + {sqrt}", "--at", "a"],
    ],
)
def test_residue_at_must_be_an_indeterminate_name(capsys, argv):
    code, out, err = run(capsys, "residue", *argv, "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["type"] == "UsageError"


@pytest.mark.parametrize(
    "expr", ["eps^1001", "eps^99999999", "eps*", "eps^2*", "eps{a}", "eps^2{a}"]
)
def test_residue_bad_eps_prefix_is_a_syntax_error(capsys, expr):
    code, out, err = run(capsys, "residue", "--expr", expr, "--at", "a", "--json")
    assert code == 1 and out == ""
    assert json.loads(err)["type"] == "SyntaxError"


def test_residue_eps_power_at_the_limit(capsys):
    code, out, _ = run(capsys, "residue", "--expr", "eps^1000*{a}", "--at", "a")
    assert code == 0
    assert out == "residue at a: {%s}\n" % ",".join(["-1"] * 1000)


def test_residue_expansion_limit(capsys):
    # {a, b, x0*x1, ..., x24*x25} forms 1 + 1 + 2 + 4 + ... + 2^13 products
    pairs = ["x%d*x%d" % (2 * i, 2 * i + 1) for i in range(13)]
    assert 2 + sum(2 ** k for k in range(1, 14)) == EXPANSION_LIMIT
    at_limit = "{%s}" % ",".join(["a", "b"] + pairs)
    code, out, _ = run(capsys, "residue", "--expr", at_limit, "--at", "a", "--json")
    assert code == 0 and len(json.loads(out)["result"].split(" + ")) == 2 ** 13
    past = "{%s}" % ",".join(["a", "b", "c"] + pairs)
    code, out, err = run(capsys, "residue", "--expr", past, "--at", "a")
    assert code == 1 and out == ""
    assert err == (
        "error: symbol expansion needs more than %d basis-symbol products\n"
        % EXPANSION_LIMIT
    )


@pytest.mark.parametrize(
    "expr, spelling",
    [("{minus_one}", "-1"), ("{two,a}", "2"), ("{a} + {b,minus_one}", "-1")],
)
def test_residue_reserved_names(capsys, expr, spelling):
    code, out, err = run(capsys, "residue", "--expr", expr, "--at", "a")
    assert code == 1 and out == ""
    assert "is reserved" in err and "write %s instead" % spelling in err


# -- parser-level behaviour ------------------------------------------------------------


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "classz" in out and "check-all" in out


@pytest.mark.parametrize(
    "argv", [["rvalue", "-d", "7"], ["--help"], ["frobnicate"]], ids=" ".join
)
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    # the installed ccalc script calls main() with no arguments
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["ccalc", *argv])
    code = main()
    assert (code, *capsys.readouterr()) == expected


# -- check-all ---------------------------------------------------------------------

PASSING = [("one", True, ""), ("two", True, "")]
FAILING = [("one", True, ""), ("two", False, "broken detail")]


def run_check_all(capsys, monkeypatch, lines, *argv):
    monkeypatch.setattr(
        "ccalc.checks.run_all", lambda: [CheckLine(*line) for line in lines]
    )
    return run(capsys, "check-all", *argv)


def _mask_elapsed(text):
    return re.sub(r"\(\d+\.\ds\)$", "(…s)", text, flags=re.M)


@pytest.mark.parametrize(
    "lines, code, text",
    [
        (PASSING, 0, ["ok    one", "ok    two", "all 2 checks passed (…s)"]),
        (
            FAILING,
            1,
            [
                "ok    one",
                "FAIL  two",
                "      broken detail",
                "1 of 2 checks FAILED (…s)",
            ],
        ),
    ],
    ids=["passing", "failing"],
)
def test_check_all_text(capsys, monkeypatch, lines, code, text):
    got, out, err = run_check_all(capsys, monkeypatch, lines)
    assert (got, err) == (code, "")
    assert _mask_elapsed(out).splitlines() == text


@pytest.mark.parametrize(
    "lines, code", [(PASSING, 0), (FAILING, 1)], ids=["passing", "failing"]
)
def test_check_all_json(capsys, monkeypatch, lines, code):
    got, out, err = run_check_all(capsys, monkeypatch, lines, "--json")
    assert (got, err) == (code, "")
    data = json.loads(out)
    assert isinstance(data.pop("elapsed"), float)
    assert data == {
        "command": "check-all",
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in lines],
        "all_ok": code == 0,
    }


# -- usage lines ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, usage",
    [
        ([], "usage: ccalc [-h] command ..."),
        (["classz"], "usage: ccalc classz [-h] -d D [--json]"),
        (["classd"], "usage: ccalc classd [-h] -d D [--json]"),
        (["rvalue"], "usage: ccalc rvalue [-h] -d D [--json]"),
        (
            ["sw"],
            "usage: ccalc sw [-h] --algebra ALGEBRA [--model {closed,euclidean,generic}]"
            " [--max-degree MAX_DEGREE] [--json]",
        ),
        (
            ["lines"],
            "usage: ccalc lines [-h] [--gens GENS] [--verify-position] [--certificate]"
            " [--json]",
        ),
        (
            ["brauer"],
            "usage: ccalc brauer [-h] --stack {xd,xdfr,x4fr,m3,m3-minus-h3,a3} [-d D]"
            " [--char CHAR] [--closed] [--json]",
        ),
        (
            ["residue"],
            "usage: ccalc residue [-h] --expr EXPR --at AT"
            " [--model {closed,euclidean,generic}] [--json]",
        ),
        (["check-all"], "usage: ccalc check-all [-h] [--json]"),
    ],
    ids=lambda v: " ".join(v) or "ccalc" if isinstance(v, list) else None,
)
def test_help_usage_line(capsys, monkeypatch, command, usage):
    # wide enough that no usage line wraps, so it reads the same on every Python
    monkeypatch.setenv("COLUMNS", "200")
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == usage
    # main builds only the named subcommand's parser; its help is the full one's
    assert parse(capsys, build_parser(), [*command, "--help"]) == (0, out, "")


# -- the parser of one subcommand against the full parser -----------------------------


def subparsers(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


# per subcommand: valid arguments, and arguments that miss a required option
PARSE_CORPUS = {
    "classz": (["-d", "4"], []),
    "classd": (["-d", "5", "--json"], []),
    "rvalue": (["-d", "7"], ["--json"]),
    "sw": (["--algebra", "F(sqrt(a))", "--model", "closed"], ["--max-degree", "2"]),
    "lines": (["--gens", "a,b", "--verify-position", "--certificate"], None),
    "brauer": (["--stack", "xd", "-d", "5"], ["-d", "5"]),
    "residue": (["--expr", "{a,b}", "--at", "a"], ["--expr", "{a,b}"]),
    "check-all": (["--json"], None),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_named_parser_matches_full_parser(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "200")
    full, named = build_parser(), build_parser(name)
    assert list(subparsers(full)) == list(COMMANDS)
    assert list(subparsers(named)) == [name]
    for method in ("format_usage", "format_help"):
        expected = getattr(subparsers(full)[name], method)()
        assert getattr(subparsers(named)[name], method)() == expected
    valid, missing = PARSE_CORPUS[name]
    got = parse(capsys, named, [name, *valid])
    assert got == parse(capsys, full, [name, *valid])
    assert got[0]["command"] == name
    for argv in [valid + ["--bogus"]] + ([missing] if missing is not None else []):
        got = parse(capsys, named, [name, *argv])
        assert got == parse(capsys, full, [name, *argv])
        assert got[0] == 2
