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

from ccalc import etale, ksymbols
from ccalc.cubic import _echelon_basis
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
    gf2_span,
    monomial_str,
    parse_algebra,
    sw_total,
    trace_form,
)
from ccalc.ksymbols import (
    FieldModel,
    ModelMismatch,
    UnknownGenerator,
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


# -- GF(2) spans of square classes ------------------------------------------

NAMES = ("a", "b", "c", "minus_one", "two")


def _subset_products(classes):
    """Every subset of indices with the product of its classes (reference)."""
    for r in range(len(classes) + 1):
        for combo in combinations(range(len(classes)), r):
            acc = frozenset()
            for j in combo:
                acc ^= classes[j]
            yield frozenset(combo), acc


def _row_reduce(classes):
    """The reduced-echelon basis of the span of classes, sorted by names, by
    row elimination with a row's largest name as its pivot (reference)."""
    rows = []
    for m in classes:
        for row in rows:
            if max(row) in m:
                m ^= row
        if m:
            # clear the new pivot from the other rows; their pivots stay
            rows = [r ^ m if max(m) in r else r for r in rows]
            rows.append(m)
    return tuple(sorted(rows, key=sorted))


CLASS_LISTS = st.lists(st.frozensets(st.sampled_from(NAMES), max_size=3), max_size=6)


def _mask(cls):
    """A class of NAMES as an int mask, bit i for NAMES[i]."""
    return sum(1 << NAMES.index(n) for n in cls)


@settings(max_examples=300)
@given(CLASS_LISTS)
def test_gf2_span_against_subset_enumeration(classes):
    masks = [_mask(m) for m in classes]
    span, coords = gf2_span(masks)
    # the keys are every subset product, 2^k of them for k new classes
    assert set(span) == {_mask(acc) for _, acc in _subset_products(classes)}
    new = [
        _mask(m)
        for i, m in enumerate(classes)
        if m not in {acc for _, acc in _subset_products(classes[:i])}
    ]
    assert len(span) == 2 ** len(new)
    # bit j of a coordinate mask is the j-th new class, so the coordinate
    # masks rebuild the classes
    assert coords == [span[m] for m in masks]
    for m, g in span.items():
        acc = 0
        for j, b in enumerate(new):
            if g >> j & 1:
                acc ^= b
        assert acc == m


@settings(max_examples=300)
@given(CLASS_LISTS)
def test_echelon_basis_of_a_group_is_the_row_reduced_basis(classes):
    group = {acc for _, acc in _subset_products(classes)}
    basis = _row_reduce(classes)
    # the reference: a sorted basis of the group, each row with one pivot
    assert {acc for _, acc in _subset_products(list(basis))} == group
    assert len(group) == 2 ** len(basis)
    pivots = [max(m) for m in basis]
    assert all(sum(p in m for p in pivots) == 1 for m in basis)
    assert _echelon_basis(group) == basis
    assert _echelon_basis(sorted(group, key=sorted, reverse=True)) == basis


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
        # the first dependent class, whose earlier classes are independent
        assert named == sorted(named) and named[-1] == min(map(max, squares))
    else:
        assert not squares


def test_dependent_classes_message_of_repeated_root():
    with pytest.raises(DependentClasses, match=r"arguments \[0, 1\] is a square"):
        parse_algebra("F(sqrt(a),sqrt(a))", EUC)


# -- the mask constructor against the name-set constructor it replaced ---------

# The three presets and one custom model with an extra trivial constant s and
# an extra free constant k.  POOL holds every name of the custom model;
# `_random_factors` sometimes adds two names no model knows.
CUSTOM = FieldModel(
    ("a", "b", "c"), {"minus_one": "free", "two": "trivial", "s": "trivial", "k": "free"}
)
POOL = ("minus_one", "two", "s", "k", "a", "b", "c")


def _name_span(classes):
    """gf2_span over frozensets of names, frozenset() the zero (reference)."""
    span, coords = {frozenset(): 0}, []
    for m in classes:
        if m not in span:
            new = len(span)
            span.update({c ^ m: g | new for c, g in span.items()})
        coords.append(span[m])
    return span, coords


def _reference_fields(model, factors):
    """The name-set constructor: each field, as its group of classes of
    names, with its total multiplicity, and the rank; or the error raised."""
    trivial = {n for n, flag in model.constants.items() if flag == "trivial"}
    known = set(model.constants) | set(model.indeterminates)
    fields, rank = {}, 0
    try:
        for ext, mult in factors:
            for mono in ext:
                for name in mono:
                    if name not in known:
                        raise UnknownName(name)
            span, coords = _name_span([m - trivial for m in ext])
            for i, c in enumerate(coords):
                if c != 1 << i:
                    raise DependentClasses(
                        "subproduct of sqrt arguments %s is a square"
                        % ([j for j in range(i) if c >> j & 1] + [i],)
                    )
            field = frozenset(span)
            fields[field] = fields.get(field, 0) + mult
            rank += mult * 2 ** len(ext)
    except EtaleError as e:
        return type(e), str(e)
    return fields, rank


def _mask_fields(model, factors):
    """EtaleAlgebraExpr's fields, each mask read back as a class of names,
    and its rank; or the error raised."""
    try:
        alg = EtaleAlgebraExpr(model, factors)
    except EtaleError as e:
        return type(e), str(e)
    names = model.gen_names
    groups = {
        frozenset(frozenset(names(m)) for m in field): mult
        for field, mult in alg._fields.items()
    }
    return groups, alg.rank


def _random_factors(rng):
    factors = []
    for _ in range(rng.randrange(1, 4)):
        ext = []
        for _ in range(rng.randrange(4)):
            cls = set(rng.sample(POOL, rng.randrange(4)))
            if rng.random() < 0.04:
                cls |= {"zz", "q"}  # two unknown names: the first one is named
            ext.append(frozenset(cls))
        factors.append((tuple(ext), rng.randrange(1, 4)))
    return factors


def _other_presentation(rng, model, factors):
    """The same fields presented anew: random row operations on each
    factor's classes, trivial names put in, factors split and shuffled."""
    trivial = [n for n in model.constants if model.is_trivial(n)]
    out = []
    for ext, mult in factors:
        ext = list(ext)
        for _ in range(3 if len(ext) > 1 else 0):
            i, j = rng.sample(range(len(ext)), 2)
            ext[j] ^= ext[i]
        if trivial:
            ext = [m ^ {rng.choice(trivial)} if rng.random() < 0.5 else m for m in ext]
        rng.shuffle(ext)
        k = rng.randrange(1, mult + 1)
        out += [(tuple(ext), k)] + ([(tuple(ext), mult - k)] if k < mult else [])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("model", (CLO, EUC, GEN, CUSTOM), ids=lambda m: m.name)
def test_mask_constructor_matches_the_name_set_constructor(model):
    rng = random.Random(43)
    built, errors = [], set()
    for _ in range(600):
        factors = _random_factors(rng)
        got = _mask_fields(model, factors)
        assert got == _reference_fields(model, factors), factors
        if got[0] in (UnknownName, DependentClasses):
            errors.add(got[0])
        else:
            alg = EtaleAlgebraExpr(model, factors)
            assert alg.factors == factors  # the classes keep their names
            built.append((alg, got[0], factors))
    assert errors == {UnknownName, DependentClasses} and len(built) > 60
    for alg, fields, factors in built:
        other = _other_presentation(rng, model, factors)
        assert _reference_fields(model, other) == (fields, alg.rank)
        assert EtaleAlgebraExpr(model, other) == alg
    # random pairs: equal exactly when the name-set fields are equal
    for (x, fx, _), (y, fy, _) in zip(built, built[1:] + built[:1]):
        assert (x == y) == (fx == fy)


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


def test_alpha_past_the_cap_is_an_etale_error():
    sw = sw_total(parse_algebra("F(sqrt(a))", EUC))
    assert sw.cap == 2 and sw.alpha(2).is_zero()
    with pytest.raises(EtaleError, match="alpha_3 not materialized"):
        sw.alpha(3)


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


def test_sw_total_forms_no_support_product(monkeypatch):
    # the power formula is a closed form (ksymbols.power_product): whatever
    # the multiplicities, sw_total multiplies no two supports
    calls = []
    real = ksymbols._product

    def counted(model, xs, ys):
        calls.append(None)
        return real(model, xs, ys)

    monkeypatch.setattr(ksymbols, "_product", counted)
    for text in (
        "F(sqrt(a))",
        "F(sqrt(a))^3 * F(sqrt(b))",
        "F(sqrt(a))^13",
        "F(sqrt(a))^8 * F",
    ):
        sw_total(parse_algebra(text, EUC))
        assert not calls, text


def _kelement_power_loop(counts, cap, model):
    """Reference for `ksymbols.power_product`: the pass loop on KElements.
    counts maps a nonzero degree-1 KElement c to its multiplicity n, and
    (1 + c)^n enters as the product of the 1 + c^(2^b) over the bits
    2^b <= cap of n, highest degree first."""
    e = [one(model)] + [zero(model)] * cap
    top = 0  # e[i] is zero for i > top
    for c, n in counts.items():
        bits = n & ((1 << cap.bit_length()) - 1)
        power, step = c, 1  # power = c^step
        while True:
            if bits & step:
                for i in range(min(cap, top + step), step - 1, -1):
                    e[i] = e[i] + power * e[i - step]
                top += step
            step *= 2
            if step > bits:
                break
            power = power * power
    return e


def _kelement_sw(alg, cap):
    """Reference for `sw_total`: each nonzero diagonal symbol {d} counted
    with its multiplicity, then `_kelement_power_loop`."""
    model = alg.model
    counts = {}
    for ext, mult in alg.factors:
        for d in trace_form(ext, model):
            sym = symbol([d], model)
            if not sym.is_zero():
                counts[sym] = counts.get(sym, 0) + mult
    return _kelement_power_loop(counts, cap, model)


def _class_counts(model, classes):
    """The counts `power_product` takes, {model mask: n}, and the pass loop's
    reference counts, {degree-1 KElement: n}, built from the `degree_one`
    supports, for the (square class, n) pairs `classes`; trivial classes are
    dropped from both."""
    masks, symbols = {}, {}
    for cls, n in classes:
        c = model.class_mask(cls)
        if c:
            masks[c] = masks.get(c, 0) + n
            sym = ksymbols.KElement(model, ksymbols.degree_one(cls, model))
            symbols[sym] = symbols.get(sym, 0) + n
    return masks, symbols


def _random_multiplicity(rnd):
    return rnd.choice((rnd.randint(1, 8), rnd.randint(1, 2 ** 40 - 1), 2 ** 40 - 1))


def test_power_product_matches_the_kelement_loop_on_random_counts():
    """The closed form against the pass loop, on random mask counts over the
    three presets and a model where -1 is a square and 2 is free: caps 0-20
    and 128, multiplicities up to 2^40 - 1, and empty counts."""
    models = (CLO, EUC, GEN, FieldModel(("a", "b", "c"), {"minus_one": "trivial", "two": "free"}))
    names = ("minus_one", "two", "a", "b", "c")
    caps = list(range(21)) + [128]
    rnd = random.Random(20261020)
    for case in range(600):
        model = models[case % len(models)]
        cap = caps[case % len(caps)]
        classes = [
            (frozenset(n for n in names if rnd.random() < 0.4), _random_multiplicity(rnd))
            for _ in range(rnd.randrange(6))
        ]
        masks, symbols = _class_counts(model, classes)
        expected = _kelement_power_loop(symbols, cap, model)
        assert ksymbols.power_product(masks, cap, model) == expected, (model, cap, masks)
    for model in models:
        for cap in caps:
            assert ksymbols.power_product({}, cap, model) == [one(model)] + [zero(model)] * cap


@pytest.mark.parametrize("model", (CLO, EUC, GEN), ids=lambda m: m.name)
def test_power_product_reads_the_minus_one_and_two_bits(model):
    """Seeded counts in which every case holds a class with -1, one with 2
    and one with both, against the pass loop on the `degree_one` supports:
    the -1 bit is the constant point function, and 2 is a name where it is
    free and dropped where it is a square."""
    rnd = random.Random("minus one and two, " + model.name)
    names = ("a", "b", "c")
    for case in range(60):
        cap = (0, 1, 2, 3, 7, 8, 16, 128)[case % 8]
        classes = [
            (frozenset({"minus_one"} | {n for n in names if rnd.random() < 0.3}), 1),
            (frozenset({"two"} | {n for n in names if rnd.random() < 0.3}), 2 ** 40 - 1),
            (frozenset({"minus_one", "two"}), _random_multiplicity(rnd)),
        ]
        classes += [
            (frozenset(n for n in names + ("minus_one", "two") if rnd.random() < 0.4),
             _random_multiplicity(rnd))
            for _ in range(rnd.randrange(4))
        ]
        masks, symbols = _class_counts(model, classes)
        expected = _kelement_power_loop(symbols, cap, model)
        assert ksymbols.power_product(masks, cap, model) == expected, (cap, classes)


def _random_sw_algebra(rnd, model, factors, roots):
    """Up to `factors` factors of up to `roots` roots over a, b, c, -1 and 2,
    multiplicities from 1 up to 2^40 - 1."""
    names = ("a", "b", "c", "minus_one", "two")
    while True:
        spec = []
        for _ in range(rnd.randint(1, factors)):
            ext = []
            for _ in range(rnd.randint(0, roots)):
                mono = frozenset(n for n in names if rnd.random() < 0.4)
                if mono:
                    ext.append(mono)
            mult = rnd.choice(
                (rnd.randint(1, 8), rnd.randint(1, 2 ** 40 - 1), 2 ** 40 - 1)
            )
            spec.append((tuple(ext), mult))
        try:
            return EtaleAlgebraExpr(model, spec)
        except DependentClasses:
            continue


def test_sw_power_formula_on_supports_matches_the_kelement_loop():
    rnd = random.Random(20261019)
    two = {m.name: symbol(["2"], m) for m in (CLO, EUC, GEN)}
    cases = [(m, 4, 3, range(9)) for m in (CLO, EUC, GEN) for _ in range(25)]
    cases += [(m, 2, 2, (128,)) for m in (CLO, EUC, GEN) for _ in range(4)]
    for model, factors, roots, caps in cases:
        alg = _random_sw_algebra(rnd, model, factors, roots)
        for max_degree in caps:
            expected = _kelement_sw(alg, min(alg.rank, max_degree))
            assert sw_total(alg, max_degree).classes == expected, (alg, max_degree)
            galois = [
                c + two[model.name] * expected[i - 1] if i and i % 2 == 0 else c
                for i, c in enumerate(expected)
            ]
            assert galois_sw_total(alg, max_degree).classes == galois, (alg, max_degree)


def test_sw_over_a_model_without_two_names_the_missing_class():
    # an odd number of roots puts {2} on the trace-form diagonal
    model = FieldModel(("a", "b"), {"minus_one": "free"})
    assert sw_total(parse_algebra("F(sqrt(a),sqrt(b))", model), 2).cap == 2
    with pytest.raises(UnknownGenerator, match="^two$"):
        sw_total(parse_algebra("F(sqrt(a))", model))


def _shortcut_cases(rnd, model):
    """F^0 and 20 seeded algebras of up to three factors of up to three roots."""
    return [EtaleAlgebraExpr(model, [])] + [_random_sw_algebra(rnd, model, 3, 3) for _ in range(20)]


def test_galois_classes_are_the_plain_ones_where_two_is_a_square(monkeypatch):
    # {2} = 0 kills every even-degree correction, so galois_sw_total hands
    # back the plain vector and multiplies no two classes
    def no_product(*args):
        raise AssertionError("a KElement product where {2} = 0")

    monkeypatch.setattr(ksymbols.KElement, "__mul__", no_product)
    rnd = random.Random(20261020)
    for model in (CLO, EUC, CUSTOM):
        assert symbol(["2"], model).is_zero()
        for alg in _shortcut_cases(rnd, model):
            for cap in range(9):
                plain, galois = sw_total(alg, cap), galois_sw_total(alg, cap)
                assert galois.classes == plain.classes, (model, alg, cap)
                assert (galois.cap, galois.rank) == (plain.cap, plain.rank)


def test_generic_even_classes_differ_from_the_plain_ones_by_two_times_the_one_below():
    rnd = random.Random(20261021)
    two = symbol(["2"], GEN)
    for alg in _shortcut_cases(rnd, GEN):
        for cap in range(9):
            plain, galois = sw_total(alg, cap), galois_sw_total(alg, cap)
            assert (galois.cap, galois.rank) == (plain.cap, plain.rank)
            w = plain.classes
            for i, alpha in enumerate(galois.classes):
                gap = two * w[i - 1] if i and i % 2 == 0 else zero(GEN)
                assert alpha + w[i] == gap, (alg, cap, i)


def test_sw_cap_is_bounded(monkeypatch):
    alg = parse_algebra("F(sqrt(a))^100 * F^100", EUC)
    assert sw_total(alg, max_degree=SW_CAP_LIMIT).cap == SW_CAP_LIMIT
    # the limit is checked before any trace form is read
    monkeypatch.setattr(etale, "trace_form", None)
    for cap in (SW_CAP_LIMIT + 1, 10 ** 30):
        with pytest.raises(EtaleError, match="the limit is %d" % SW_CAP_LIMIT):
            galois_sw_total(alg, max_degree=cap)


def test_sw_max_degree_is_a_nonnegative_integer():
    alg = parse_algebra("F(sqrt(a))", EUC)
    assert sw_total(alg, max_degree=0).cap == 0
    for bad in (-1, 2.5, "2", 2.0):
        for total in (sw_total, galois_sw_total):
            with pytest.raises(EtaleError, match="^max_degree must be a nonnegative integer, got "):
                total(alg, max_degree=bad)


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


def _random_basis(rnd, names, size):
    """`size` independent square classes, drawn at random from the group of
    `names` (which may include minus_one and two)."""
    rows, classes = [], []  # rows: reduced bit vectors of the classes so far
    while len(classes) < size:
        v = rnd.randrange(1, 1 << len(names))
        r = v
        for row in rows:
            r = min(r, r ^ row)
        if r:
            rows.append(r)
            classes.append(frozenset(n for i, n in enumerate(names) if v >> i & 1))
    return classes


@pytest.mark.parametrize("names, factors", ((6, 1), (7, 8)))
def test_sw_over_many_names_is_fast(names, factors):
    # factors of multiplicity 2^40 - 1, each with 8 roots spanning the group
    # of the names, -1 and 2 (a basis of it over 6 names); cap 128.  The
    # pass loop took 1.6-4.6 s over 6 names and 20-26 s over 7.
    model = generic_model(tuple("x%d" % i for i in range(1, names + 1)))
    group = ("minus_one", "two") + model.indeterminates
    trace_form(tuple(frozenset({n}) for n in group[:ROOTS_LIMIT]), model)  # the Gram pass
    rnd = random.Random(names)
    for _ in range(3):
        alg = EtaleAlgebraExpr(
            model, [(_random_basis(rnd, group, 8), 2 ** 40 - 1) for _ in range(factors)]
        )
        t0 = time.perf_counter()
        galois_sw_total(alg, max_degree=SW_CAP_LIMIT)
        assert time.perf_counter() - t0 < 1.0, alg


def test_sw_bounds_the_names_in_use():
    limit = ksymbols.POWER_NAMES_LIMIT
    model = generic_model(tuple("x%d" % i for i in range(1, limit + 1)))
    alg = parse_algebra(" * ".join("F(sqrt(%s))" % n for n in model.indeterminates), model)
    message = "^power product over %d names; the limit is %d$" % (limit + 1, limit)
    with pytest.raises(ksymbols.KError, match=message):
        sw_total(alg)
    # at the limit, random symbols over every name: 2^16 points per class
    names = ("minus_one", "two") + model.indeterminates[1:]
    rnd = random.Random(limit)
    counts = {}
    for _ in range(40):
        c = model.class_mask(frozenset(n for n in names if rnd.random() < 0.5))
        counts[c] = counts.get(c, 0) + 2 ** 40 - 1
    t0 = time.perf_counter()
    classes = ksymbols.power_product(counts, 8, model)
    assert time.perf_counter() - t0 < 1.0
    assert [c.degrees() for c in classes] == [[i] for i in range(9)]


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


def test_sw_closed_form_matches_the_full_range_recurrence():
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
