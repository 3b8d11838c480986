"""The acceptance suite: one test per shipped guarantee.

Each test recomputes the relevant pipeline output and compares it against the
frozen oracle data in ``ccalc.checks`` (coefficient tables, hand-reduced
symbol strings, the gcd table), so a run of ``pytest -v tests/test_acceptance.py``
prints exactly one pass/fail line per guarantee.  Wall-clock bounds are
asserted where the guarantee states one.
"""

import io
import json
import os
import time
from contextlib import redirect_stdout
from math import gcd

import pytest

from ccalc import checks
from ccalc.chow import class_bin, class_z, r_value
from ccalc.cli import main as cli_main
from ccalc.cubic import (
    bitangent_algebra,
    build_action,
    default_config,
    nontriviality_certificate,
    orbit_decomposition,
    three_class_config,
    verify_general_position,
)
from ccalc.etale import galois_sw_total, parse_algebra
from ccalc.groups import (
    GroupDescriptor,
    brauer_stack,
    brauer_xd,
    hyperelliptic_divisibility,
    n_torsion,
)
from ccalc.ksymbols import euclidean_model, iterated_residue, parse_kelement

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "check_all.json")


def _basis_poly(ring, coeffs):
    return ring.poly([(c, {name: 1}) for name, c in coeffs.items()])


def test_01_smooth_locus_classes_match_closed_form():
    # exact integer coefficients for every degree, under a second each
    for d in range(3, 13):
        t0 = time.perf_counter()
        report = class_z(d)
        elapsed = time.perf_counter() - t0
        want = _basis_poly(report.poly.ring, checks.classz_oracle(d))
        assert report.poly == want, "d=%d" % d
        assert report.divisibility_ok, "d=%d" % d
        assert elapsed < 1.0, "d=%d took %.2fs" % (d, elapsed)


def test_02_binary_locus_classes_match_closed_form():
    # the exact-division step must succeed, both fiber choices must agree,
    # and each degree stays under two seconds
    for d in range(4, 13):
        t0 = time.perf_counter()
        report = class_bin(d)
        elapsed = time.perf_counter() - t0
        want = _basis_poly(report.poly.ring, checks.classd_oracle(d))
        assert report.poly == want, "d=%d" % d
        assert report.divisibility_ok, "d=%d" % d
        assert class_bin(d, push_fiber="s").poly == want, "d=%d" % d
        assert elapsed < 2.0, "d=%d took %.2fs" % (d, elapsed)


def test_03_torsion_bookkeeping():
    for d in range(4, 13):
        i_d = 1 if d % 3 == 0 else 0
        r = r_value(d)
        assert class_z(d).content == 3 ** i_d * (d - 1) ** 2, "d=%d" % d
        assert class_bin(d).content == r == gcd(d * (d - 1) ** 2, 3 * (d - 2))
        assert (r % 2 == 0) == (d % 2 == 0), "d=%d" % d
        assert n_torsion(d) == gcd(2, r), "d=%d" % d


def test_04_trace_form_examples():
    model = euclidean_model(("a", "b"))

    alg = parse_algebra(checks.THREE_QUADRATICS, model)
    total = galois_sw_total(alg, max_degree=alg.rank).alpha_tot()
    assert total == parse_kelement(checks.THREE_QUADRATICS_TOTAL, model)

    field = parse_algebra(checks.BIQUADRATIC, model)
    sw = galois_sw_total(field, max_degree=field.rank)
    want = tuple(parse_kelement(t, model) for t in checks.BIQUADRATIC_ALPHAS)
    assert (sw.alpha(1), sw.alpha(2)) == want


def test_05_line_orbit_decomposition():
    t0 = time.perf_counter()
    cfg = default_config()
    report = orbit_decomposition(build_action(cfg))
    with_bitangent = bitangent_algebra(report.algebra)
    a2_orbit = galois_sw_total(with_bitangent, max_degree=2).alpha(2)
    hand = parse_algebra(checks.LINES_ALGEBRA_WITH_BITANGENT, cfg.model)
    a2_hand = galois_sw_total(hand, max_degree=2).alpha(2)
    cert = nontriviality_certificate(a2_orbit)
    elapsed = time.perf_counter() - t0

    assert report.algebra == parse_algebra(checks.LINES_ALGEBRA, cfg.model)
    assert report.orbit_sizes() == sorted(checks.LINES_ORBIT_SIZES)
    assert report.algebra.rank == 27
    assert with_bitangent.rank == 28
    want_a2 = parse_kelement(checks.LINES_ALPHA2, cfg.model)
    assert a2_orbit == want_a2 and a2_hand == want_a2
    assert cert.chain[-1].is_one()
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_06_default_points_general_position():
    t0 = time.perf_counter()
    report = verify_general_position(default_config())
    elapsed = time.perf_counter() - t0
    assert len(report.checks) == 21
    assert report.all_nonzero
    assert elapsed < 5.0, "took %.2fs" % elapsed


def test_07_three_class_invariants_and_residues():
    cfg = three_class_config()
    sw = galois_sw_total(
        bitangent_algebra(orbit_decomposition(build_action(cfg)).algebra)
    )
    for deg, text in sorted(checks.THREE_CLASS_DEGREE_PARTS.items()):
        assert sw.alpha(deg) == parse_kelement(text, cfg.model), "degree %d" % deg

    invariants = [sw.alpha(0), sw.alpha(2), sw.alpha(4), sw.alpha(6)]
    results = {}
    for word, texts in checks.THREE_CLASS_RESIDUE_TABLE.items():
        got = [iterated_residue(x, word) for x in invariants]
        assert got == [parse_kelement(t, cfg.model) for t in texts], word
        results[word] = got
    for i in range(4):
        for j in range(i + 1, 4):
            assert any(
                results[w][i] != results[w][j] for w in results
            ), "invariants %d and %d not separated" % (i, j)


def test_08_group_descriptors():
    for d, order in sorted(checks.XD_EXPECTED.items()):
        assert brauer_xd(d) == GroupDescriptor(cyclic=[order]), d
    assert str(brauer_stack("m3")) == checks.STACK_EXPECTED["m3"]
    assert str(brauer_stack("m3_minus_h3")) == checks.STACK_EXPECTED["m3_minus_h3"]
    for p in (5, 7):
        assert brauer_stack("a3", char=p).placeholder_label == "B''_%d" % p
    assert hyperelliptic_divisibility().value == 18


@pytest.fixture(scope="module")
def check_all_run():
    """One `ccalc check-all --json` run in process, which tests 09 to 11
    share: its exit code, its wall time and its JSON document.  check-all
    runs the property suites at checks.DEFAULT_SEED."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out):
        rc = cli_main(["check-all", "--json"])
    elapsed = time.perf_counter() - t0
    return rc, elapsed, json.loads(out.getvalue())


def test_09_property_suites(check_all_run):
    suites = {name for name, _ in checks.PROPERTY_SUITES}
    lines = [c for c in check_all_run[2]["checks"] if c["name"] in suites]
    assert len(lines) == 5
    for line in lines:
        assert line["ok"], "%s: %s" % (line["name"], line["detail"])
        assert line["detail"] == "1000 cases", line["name"]


def test_10_check_all_exits_clean(check_all_run):
    rc, elapsed, doc = check_all_run
    assert rc == 0
    # all 45 checks passed
    assert doc["all_ok"] and len(doc["checks"]) == 45
    assert all(c["ok"] for c in doc["checks"])
    assert elapsed < 60.0, "took %.2fs" % elapsed


def test_11_check_all_json_matches_the_golden_file(check_all_run):
    doc = dict(check_all_run[2])
    assert doc.pop("elapsed") >= 0
    with open(GOLDEN, encoding="utf-8") as f:
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == f.read()
