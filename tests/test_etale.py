"""Tests for etale algebras, trace forms, and SW classes."""

import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ccalc import etale
from ccalc.etale import (
    MULTIPLICITY_DIGITS,
    ROOTS_LIMIT,
    SW_CAP_LIMIT,
    DependentClasses,
    EtaleError,
    EtaleAlgebraExpr,
    NonDiagonalGram,
    UnknownName,
    alpha_tot_product_check,
    galois_sw_total,
    gf2_eliminate,
    monomial_str,
    parse_algebra,
    sw_total,
    trace_form,
)
from ccalc.ksymbols import (
    KElement,
    ModelMismatch,
    closed_model,
    euclidean_model,
    generic_model,
    one,
    symbol,
    zero,
)
from ccalc.checks import _independent_galois_sw
from ccalc.rings import Ring

EUC = euclidean_model(("a", "b", "c"))
CLO = closed_model(("a", "b", "c"))
GEN = generic_model(("a", "b", "c"))

A = frozenset({"a"})
B = frozenset({"b"})
C = frozenset({"c"})
AB = frozenset({"a", "b"})


# -- parsing -------------------------------------------------------------------


def test_parse_three_quadratic_factors():
    alg = parse_algebra("F(sqrt(a)) * F(sqrt(b)) * F(sqrt(a*b))", EUC)
    assert alg.rank == 6
    assert alg.factors == [((A,), 1), ((B,), 1), ((AB,), 1)]


def test_parse_trivial_factor_with_multiplicity():
    alg = parse_algebra("F^3", EUC)
    assert alg.rank == 3
    assert alg.factors == [((), 3)]


def test_parse_dependent_classes_rejected():
    with pytest.raises(DependentClasses):
        parse_algebra("F(sqrt(a), sqrt(a))", EUC)
    with pytest.raises(DependentClasses):
        parse_algebra("F(sqrt(a), sqrt(b), sqrt(a*b))", EUC)
    with pytest.raises(DependentClasses):
        parse_algebra("F(sqrt(1))", EUC)
    # 2 is a square in the euclidean model but not in the generic one
    with pytest.raises(DependentClasses):
        parse_algebra("F(sqrt(2))", EUC)
    assert parse_algebra("F(sqrt(2))", GEN).rank == 2


def test_parse_errors():
    with pytest.raises(SyntaxError):
        parse_algebra("F(sqrt(a)", EUC)
    with pytest.raises(SyntaxError):
        parse_algebra("F()", EUC)
    with pytest.raises(SyntaxError):
        parse_algebra("G", EUC)
    with pytest.raises(SyntaxError):
        parse_algebra("F^0", EUC)
    with pytest.raises(UnknownName):
        parse_algebra("F(sqrt(zz))", EUC)


def test_parse_multiplicity_limits():
    widest = parse_algebra("F^" + "9" * MULTIPLICITY_DIGITS, EUC)
    assert widest.rank == 10 ** MULTIPLICITY_DIGITS - 1
    with pytest.raises(SyntaxError, match="more than"):
        parse_algebra("F^1" + "0" * MULTIPLICITY_DIGITS, EUC)
    with pytest.raises(SyntaxError):
        parse_algebra("F(sqrt(a))^\u00b2", EUC)  # a superscript two


def test_equality_compares_total_multiplicities():
    assert parse_algebra("F(sqrt(a))^2 * F", EUC) == parse_algebra(
        "F * F(sqrt(a)) * F(sqrt(a))", EUC
    )
    assert parse_algebra("F(sqrt(a))^2", EUC) != parse_algebra("F(sqrt(a))^3", EUC)
    huge = parse_algebra("F(sqrt(a))^99999999999", EUC)
    assert huge == parse_algebra("F(sqrt(a))^99999999998 * F(sqrt(a))", EUC)


def test_equality_compares_fields_not_presentations():
    for left, right in (
        ("F(sqrt(a),sqrt(b))", "F(sqrt(a),sqrt(a*b))"),
        ("F(sqrt(2*a))", "F(sqrt(a))"),  # 2 is a square in the euclidean model
        ("F(sqrt(b),sqrt(a)) * F(sqrt(a*b*c))", "F(sqrt(c*a*b)) * F(sqrt(a*b),sqrt(b))"),
    ):
        x, y = parse_algebra(left, EUC), parse_algebra(right, EUC)
        assert x == y
        assert (galois_sw_total(x, max_degree=x.rank).classes
                == galois_sw_total(y, max_degree=y.rank).classes)
    assert parse_algebra("F(sqrt(2*a))", GEN) != parse_algebra("F(sqrt(a))", GEN)
    assert parse_algebra("F(sqrt(-a))", EUC) != parse_algebra("F(sqrt(a))", EUC)
    assert parse_algebra("F(sqrt(a),sqrt(b))", EUC) != parse_algebra("F(sqrt(a),sqrt(c))", EUC)
    assert parse_algebra("F(sqrt(a),sqrt(b))", EUC) != parse_algebra(
        "F(sqrt(a)) * F(sqrt(b))", EUC
    )


# -- GF(2) elimination of square classes ------------------------------------------

NAMES = ("a", "b", "c", "minus_one", "two")


def _subset_products(classes):
    """Every subset of indices with the product of its classes (reference)."""
    for r in range(len(classes) + 1):
        for combo in combinations(range(len(classes)), r):
            acc = frozenset()
            for j in combo:
                acc ^= classes[j]
            yield frozenset(combo), acc


@settings(max_examples=300)
@given(st.lists(st.frozensets(st.sampled_from(NAMES), max_size=3), max_size=6))
def test_gf2_eliminate_against_subset_enumeration(classes):
    basis, deps = gf2_eliminate(classes)
    span = {acc for _, acc in _subset_products(classes)}
    # the basis spans the same classes, is reduced echelon and sorted
    assert {acc for _, acc in _subset_products(list(basis))} == span
    assert len(span) == 2 ** len(basis)
    pivots = [max(m) for m in basis]
    for m in basis:
        assert sum(p in m for p in pivots) == 1
    assert list(basis) == sorted(basis, key=sorted)
    # deps: None exactly for classes outside the span of the earlier ones
    for i, dep in enumerate(deps):
        earlier = {acc for _, acc in _subset_products(classes[:i])}
        assert (dep is None) == (classes[i] not in earlier)
        if dep is not None:
            assert all(j < i and deps[j] is None for j in dep)
            acc = frozenset()
            for j in dep:
                acc ^= classes[j]
            assert acc == classes[i]


@settings(max_examples=300)
@given(
    st.lists(st.frozensets(st.sampled_from(NAMES), max_size=3), max_size=5),
    st.sampled_from(["closed", "euclidean", "generic"]),
)
def test_dependent_classes_names_a_square_subproduct(ext, preset):
    model = {"closed": CLO, "euclidean": EUC, "generic": GEN}[preset]
    squares = [
        combo
        for combo, acc in _subset_products(ext)
        if combo and all(model.is_trivial(n) for n in acc)
    ]
    try:
        EtaleAlgebraExpr(model, [(tuple(ext), 1)])
    except DependentClasses as e:
        named = json.loads(re.search(r"\[.*\]", str(e)).group())
        assert frozenset(named) in squares
    else:
        assert not squares


def test_dependent_classes_message_of_repeated_root():
    with pytest.raises(DependentClasses, match=r"arguments \[0, 1\] is a square"):
        parse_algebra("F(sqrt(a),sqrt(a))", EUC)


def test_parse_whitespace_insensitive():
    assert parse_algebra("F( sqrt( a ) , sqrt( b ) ) ^ 2", EUC) == parse_algebra(
        "F(sqrt(a),sqrt(b))^2", EUC
    )


def test_render_round_trip():
    text = "F^3 * F(sqrt(a))^2 * F(sqrt(-a*b)) * F(sqrt(a),sqrt(b))"
    alg = parse_algebra(text, EUC)
    assert str(alg) == text
    assert parse_algebra(str(alg), EUC) == alg


# -- trace forms ---------------------------------------------------------------


def test_trace_form_biquadratic():
    # diag classes of F(sqrt a, sqrt b): (4, 4a, 4b, 4ab) ~ (1, a, b, ab)
    assert trace_form((A, B), EUC) == [frozenset(), A, B, AB]


def test_trace_form_quadratic():
    # (2, 2a) as honest classes; reduction to (1, a) is the model's business
    assert trace_form((A,), EUC) == [frozenset({"two"}), frozenset({"two", "a"})]


def test_trace_form_trivial_extension():
    assert trace_form((), EUC) == [frozenset()]


def test_trace_form_triquadratic_diag():
    got = trace_form((A, B, C), EUC)
    assert len(got) == 8
    # odd power of two present in every entry of an odd-s extension
    assert all("two" in cls for cls in got)


def _mult_table_product(x, y, gens, ring):
    """Product of two extension elements, each a dict {basis mask: Poly}.
    Basis element for mask S is the product of the sqrt generators in S;
    e_S * e_T = (product of the squared generators over S & T) * e_(S xor T),
    with gens[j] the placeholder q_j for the j-th square.
    """
    out = {}
    for sm, cx in x.items():
        for tm, cy in y.items():
            coeff = cx * cy
            both = sm & tm
            for j, q in enumerate(gens):
                if both >> j & 1:
                    coeff = coeff * q
            key = sm ^ tm
            out[key] = out.get(key, ring.zero) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def _honest_trace(elt, gens, ring):
    """Trace of multiplication by elt, summed over the subset basis."""
    total = ring.zero
    for v in range(2 ** len(gens)):
        prod = _mult_table_product(elt, {v: ring.one}, gens, ring)
        total = total + prod.get(v, ring.zero)
    return total


def _gram_trace_form(ext):
    """Reference for trace_form: the full Gram matrix tr(e_S * e_T), each
    entry one general-element product and one honest trace (O(8^s)).  The
    diagonal must be 2^k * square * q-monomial and everything else zero."""
    s = len(ext)
    ring = Ring([("q%d" % j, 1) for j in range(s)]) if s else Ring([])
    gens = [ring.gen("q%d" % j) for j in range(s)]
    classes = []
    for a in range(2 ** s):
        for b in range(2 ** s):
            prod = _mult_table_product({a: ring.one}, {b: ring.one}, gens, ring)
            entry = _honest_trace(prod, gens, ring)
            if a != b:
                assert entry.is_zero(), (a, b, entry)
                continue
            (exps, coeff), = entry.terms.items()
            two_power = (coeff & -coeff).bit_length() - 1
            odd = coeff >> two_power
            assert odd > 0 and isqrt(odd) ** 2 == odd, coeff
            cls = frozenset({"two"}) if two_power % 2 else frozenset()
            for j, e in enumerate(exps):
                if e % 2:
                    cls ^= ext[j]
            classes.append(cls)
    return classes


ORACLE_CLASSES = [A, B, C, AB, frozenset({"minus_one"}), frozenset({"two"}),
                  frozenset({"minus_one", "a"}), frozenset({"two", "b", "c"})]


def test_trace_form_matches_gram_oracle():
    rng = random.Random(20261018)
    for case in range(24):
        model = (CLO, EUC, GEN)[case % 3]
        s = rng.randint(0, 4)
        ext = []
        for m in rng.sample(ORACLE_CLASSES, len(ORACLE_CLASSES)):
            if len(ext) < s:
                try:
                    EtaleAlgebraExpr(model, [(tuple(ext) + (m,), 1)])
                except DependentClasses:
                    continue
                ext.append(m)
        assert trace_form(tuple(ext), model) == _gram_trace_form(ext), (ext, model)


def test_trace_form_six_roots_is_fast():
    model = generic_model(("a", "b", "c", "d"))
    ext = tuple(frozenset({n}) for n in ("a", "b", "c", "d", "minus_one", "two"))
    t0 = time.perf_counter()
    got = trace_form(ext, model)
    assert time.perf_counter() - t0 < 0.5
    # s even: entry S is the class of the product of the m_j over S
    assert sorted(got, key=sorted) == sorted(
        (acc for _, acc in _subset_products(ext)), key=sorted
    )


def _independent_extensions(model, s, count, rng):
    """Up to count distinct s-root extensions over ORACLE_CLASSES that are
    fields in the model."""
    out = set()
    for _ in range(20 * count):
        ext = []
        for m in rng.sample(ORACLE_CLASSES, len(ORACLE_CLASSES)):
            if len(ext) < s:
                try:
                    EtaleAlgebraExpr(model, [(tuple(ext) + (m,), 1)])
                except DependentClasses:
                    continue
                ext.append(m)
        if len(ext) == s:
            out.add(tuple(ext))
        if len(out) == count:
            break
    return sorted(out, key=lambda e: [sorted(m) for m in e])


def test_cached_trace_form_matches_gram_oracle_in_any_order(monkeypatch):
    # a cold cache, then extensions of each s in shuffled orders: every
    # answer is the one the full Gram oracle gives for that extension
    monkeypatch.setattr(etale, "_DIAGONALS", {})
    rng = random.Random(20261019)
    queries = [
        (model, ext)
        for model in (CLO, EUC, GEN)
        for s in range(5)
        for ext in _independent_extensions(model, s, 3, rng)
    ]
    assert {len(ext) for _, ext in queries} == set(range(5))
    expected = {ext: _gram_trace_form(ext) for _, ext in queries}
    for _ in range(3):
        rng.shuffle(queries)
        for model, ext in queries:
            assert trace_form(ext, model) == expected[ext], (ext, model)
    assert sorted(etale._DIAGONALS) == list(range(5))


def test_trace_form_returns_a_fresh_list():
    first = trace_form((A, B), EUC)
    first[0] = frozenset({"minus_one"})
    first.append(C)
    assert trace_form((A, B), EUC) == [frozenset(), A, B, AB]


def test_trace_form_runs_the_gram_pass_once_per_root_count(monkeypatch):
    monkeypatch.setattr(etale, "_DIAGONALS", {})
    built = []
    real = etale.Ring

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(etale, "Ring", counted)
    assert trace_form((A, B), GEN) == [frozenset(), A, B, AB]
    assert len(built) == 1
    # another extension with two roots, in another model: no new Ring
    assert trace_form((C, frozenset({"minus_one"})), CLO) == _gram_trace_form(
        (C, frozenset({"minus_one"}))
    )
    assert len(built) == 1
    trace_form((A,), GEN)
    assert len(built) == 2


def test_trace_form_cache_is_empty_after_import():
    # a warm cache would cost every CLI start the Gram passes
    src = os.path.dirname(os.path.dirname(os.path.abspath(etale.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ccalc.cli, ccalc.etale as e; print(len(e._DIAGONALS))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


# -- SW classes ----------------------------------------------------------------


def test_sw_trivial_algebra():
    alg = parse_algebra("F^5", EUC)
    sw = sw_total(alg)
    assert sw.alpha(0).is_one()
    assert all(sw.alpha(i).is_zero() for i in range(1, sw.cap + 1))


def test_sw_biquadratic_example():
    alg = parse_algebra("F(sqrt(a),sqrt(b))", EUC)
    sw = sw_total(alg, max_degree=4)
    assert sw.alpha(1).is_zero()  # {a}+{b}+{ab} = 0
    expected2 = symbol(["a", "b"], EUC) + symbol(["a", "a*b"], EUC) + symbol(
        ["b", "a*b"], EUC
    )
    assert sw.alpha(2) == expected2


def test_galois_sw_biquadratic():
    alg = parse_algebra("F(sqrt(a),sqrt(b))", EUC)
    gsw = galois_sw_total(alg, max_degree=4)
    assert gsw.alpha(1).is_zero()
    assert gsw.alpha(2) == symbol(["a", "b"], EUC) + symbol(["-1", "a*b"], EUC)


def test_galois_sw_three_factor_example():
    alg = parse_algebra("F(sqrt(a)) * F(sqrt(b)) * F(sqrt(a*b))", EUC)
    gsw = galois_sw_total(alg, max_degree=6)
    expected = one(EUC) + symbol(["a", "b"], EUC) + symbol(["-1", "a*b"], EUC)
    assert gsw.alpha_tot() == expected


def test_alpha_tot_single_quadratic():
    for m, txt in ((A, "a"), (B, "b"), (AB, "a*b")):
        alg = EtaleAlgebraExpr(EUC, [((m,), 1)])
        tot = galois_sw_total(alg, max_degree=2).alpha_tot()
        assert tot == one(EUC) + symbol([txt], EUC)


def test_f28_alpha_tot_trivial():
    alg = parse_algebra("F^28", EUC)
    assert galois_sw_total(alg).alpha_tot() == one(EUC)


def _sw_unreduced(alg, cap):
    """The recurrence over the full trace-form diagonal, every factor
    repeated its whole multiplicity (reference for sw_total)."""
    e = [one(alg.model)] + [zero(alg.model)] * cap
    for ext, mult in alg.factors:
        for d in trace_form(ext, alg.model) * mult:
            sym = symbol([d], alg.model)
            for i in range(cap, 0, -1):
                e[i] = e[i] + sym * e[i - 1]
    return e


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([(), (A,), (B,), (AB,), (A, B), (A, C)]),
                  st.integers(min_value=1, max_value=20)),
        min_size=1, max_size=3,
    ),
    st.integers(min_value=0, max_value=9),
    st.sampled_from(["closed", "euclidean", "generic"]),
)
def test_sw_multiplicity_reduction_matches_full_recurrence(factors, cap, preset):
    model = {"closed": CLO, "euclidean": EUC, "generic": GEN}[preset]
    alg = EtaleAlgebraExpr(model, factors)
    cap = min(cap, alg.rank)
    assert sw_total(alg, max_degree=cap).classes == _sw_unreduced(alg, cap)


def test_sw_reads_every_factor_once(monkeypatch):
    calls = []
    real = etale.trace_form

    def counted(ext, model):
        calls.append(ext)
        return real(ext, model)

    monkeypatch.setattr(etale, "trace_form", counted)
    # cap 7: multiplicity 8 reduces to 0, and the factor is still read
    alg = parse_algebra("F(sqrt(a))^8 * F(sqrt(b))^3 * F^16", EUC)
    sw_total(alg)
    assert calls == [(A,), (B,), ()]


def test_sw_squares_a_symbol_only_up_to_the_top_bit_in_use(monkeypatch):
    calls = []
    real = KElement.__mul__

    def counted(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(KElement, "__mul__", counted)
    # default cap 7 (2 for F(sqrt(a))); {a} and {b} are the only nonzero symbols
    for text, products in (
        ("F(sqrt(a))", 1),  # n = 1: one pass of one product, no square
        ("F(sqrt(a))^3 * F(sqrt(b))", 8),  # {a}: passes of 1 and 2, one square; {b}: 4
        ("F(sqrt(a))^13", 5),  # bits 1 and 4 of 13 are <= 7: passes of 1 and 2, two squares
        ("F(sqrt(a))^8 * F", 0),  # no bit of 8 is <= 7
    ):
        calls.clear()
        sw_total(parse_algebra(text, EUC))
        assert len(calls) == products, text


def test_sw_cap_is_bounded(monkeypatch):
    alg = parse_algebra("F(sqrt(a))^100 * F^100", EUC)
    assert sw_total(alg, max_degree=SW_CAP_LIMIT).cap == SW_CAP_LIMIT
    # the limit is checked before any trace form is read
    monkeypatch.setattr(etale, "trace_form", None)
    for cap in (SW_CAP_LIMIT + 1, 10 ** 30):
        with pytest.raises(EtaleError, match="the limit is %d" % SW_CAP_LIMIT):
            galois_sw_total(alg, max_degree=cap)


def test_roots_per_factor_are_bounded(monkeypatch):
    names = tuple("x%d" % i for i in range(ROOTS_LIMIT + 1))
    model = generic_model(names)
    ext = [frozenset({n}) for n in names]
    # the limit is checked before any trace form is read
    monkeypatch.setattr(etale, "trace_form", None)
    assert EtaleAlgebraExpr(model, [(ext[:-1], 1)]).rank == 2 ** ROOTS_LIMIT
    message = "%d square roots; the limit is %d" % (ROOTS_LIMIT + 1, ROOTS_LIMIT)
    with pytest.raises(EtaleError, match=message):
        EtaleAlgebraExpr(model, [(ext, 1)])
    # and before the independence check
    with pytest.raises(EtaleError, match=message):
        EtaleAlgebraExpr(model, [([ext[0]] * (ROOTS_LIMIT + 1), 1)])


def test_sw_huge_multiplicity_is_fast():
    t0 = time.perf_counter()
    alg = parse_algebra("F(sqrt(a))^99999999999", EUC)
    gsw = galois_sw_total(alg)
    assert time.perf_counter() - t0 < 1.0
    assert gsw.rank == 2 * 99999999999
    # 99999999999 = 7 mod 8, so below degree 8 this is F(sqrt(a))^7
    assert gsw.classes == galois_sw_total(parse_algebra("F(sqrt(a))^7", EUC)).classes


def test_appending_f_changes_nothing():
    alg = parse_algebra("F(sqrt(a),sqrt(b)) * F(sqrt(c))", EUC)
    padded = parse_algebra("F(sqrt(a),sqrt(b)) * F(sqrt(c)) * F^4", EUC)
    g1 = galois_sw_total(alg, max_degree=6)
    g2 = galois_sw_total(padded, max_degree=6)
    assert [g1.alpha(i) for i in range(7)] == [g2.alpha(i) for i in range(7)]


def test_product_check_examples():
    a = parse_algebra("F(sqrt(a))", EUC)
    b = parse_algebra("F(sqrt(b))", EUC)
    assert alpha_tot_product_check(a, b)
    f3 = parse_algebra("F^3", EUC)
    assert alpha_tot_product_check(f3, a)
    with pytest.raises(ModelMismatch):
        alpha_tot_product_check(a, parse_algebra("F(sqrt(b))", CLO))


def test_generic_model_two_correction_is_visible():
    # alpha_2 of a single quadratic extension picks up {-1,2} when the class
    # of 2 is free: the correction term is exercised, not silently dropped
    alg = parse_algebra("F(sqrt(a))", GEN)
    gsw = galois_sw_total(alg, max_degree=2)
    assert gsw.alpha(2) == symbol(["-1", "2"], GEN)


# -- randomized properties -------------------------------------------------------

MONO_CHOICES = [A, B, C, AB, frozenset({"a", "c"}), frozenset({"b", "c"}),
                frozenset({"minus_one", "a"}), frozenset({"a", "b", "c"})]


def random_algebra(rng, model, max_rank=8):
    factors = []
    rank = 0
    while rank < max_rank and rng.random() < 0.8:
        s = rng.choice([0, 0, 1, 1, 2])
        if 2 ** s + rank > max_rank:
            break
        ext = []
        tries = 0
        while len(ext) < s and tries < 20:
            tries += 1
            m = rng.choice(MONO_CHOICES)
            try:
                EtaleAlgebraExpr(model, [(tuple(ext) + (m,), 1)])
            except DependentClasses:
                continue
            ext.append(m)
        factors.append((tuple(ext), rng.randint(1, 2)))
        rank += 2 ** len(ext) * factors[-1][1]
    try:
        return EtaleAlgebraExpr(model, factors)
    except DependentClasses:  # pragma: no cover - construction retries
        return EtaleAlgebraExpr(model, [])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(["closed", "euclidean"]))
def test_alpha_tot_multiplicative_randomized(seed, preset):
    model = {"closed": CLO, "euclidean": EUC}[preset]
    rng = random.Random(seed)
    a = random_algebra(rng, model, max_rank=6)
    b = random_algebra(rng, model, max_rank=6)
    assert alpha_tot_product_check(a, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(["closed", "euclidean"]))
def test_vanishing_bound_randomized(seed, preset):
    model = {"closed": CLO, "euclidean": EUC}[preset]
    rng = random.Random(seed)
    alg = random_algebra(rng, model, max_rank=8)
    if alg.rank == 0:
        return
    gsw = galois_sw_total(alg, max_degree=alg.rank)
    for i in range(alg.rank // 2 + 1, alg.rank + 1):
        assert gsw.alpha(i).is_zero()


def test_sw_passes_that_stop_at_the_reached_degree_match_the_full_range_loop():
    for model in (CLO, EUC, GEN):
        rng = random.Random(11)
        two = symbol(["2"], model)
        for _ in range(300):
            alg = random_algebra(rng, model, max_rank=8)
            # the recurrence with every pass over all degrees 1..rank
            e = [one(model)] + [zero(model)] * alg.rank
            for ext, mult in alg.factors:
                for d in trace_form(ext, model) * mult:
                    sym = symbol([d], model)
                    for i in range(alg.rank, 0, -1):
                        e[i] = e[i] + sym * e[i - 1]
            want = [c + two * e[i - 1] if i and i % 2 == 0 else c for i, c in enumerate(e)]
            assert galois_sw_total(alg, max_degree=alg.rank).classes == want
            assert _independent_galois_sw(alg) == want
