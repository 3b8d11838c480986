"""Tests for the mod-2 symbol calculus."""

import pytest
from hypothesis import given, settings, strategies as st

from ccalc.ksymbols import (
    EPS_POWER_LIMIT,
    FieldModel,
    KError,
    ModelMismatch,
    NotAnIndeterminate,
    UnknownGenerator,
    closed_model,
    euclidean_model,
    generic_model,
    iterated_residue,
    one,
    parse_kelement,
    residue,
    symbol,
    zero,
)

EUC = euclidean_model(("a", "b", "c"))
CLO = closed_model(("a", "b", "c"))
GEN = generic_model(("a", "b", "c"))


# -- models ------------------------------------------------------------------


def test_model_requires_minus_one():
    with pytest.raises(KError):
        FieldModel(("a",), {"two": "trivial"})


def test_model_flags():
    assert EUC.eps_free and not CLO.eps_free
    assert EUC.is_trivial("two") and not GEN.is_trivial("two")


# -- symbol normal form ------------------------------------------------------


def test_multilinear_expansion():
    assert symbol(["a*b", "c"], EUC) == symbol(["a", "c"], EUC) + symbol(["b", "c"], EUC)


def test_square_collapse():
    assert symbol(["a", "a"], EUC) == symbol(["-1", "a"], EUC)
    assert symbol(["a", "a"], CLO).is_zero()


def test_x_minus_x_vanishes():
    assert symbol(["a", "-a"], EUC).is_zero()
    assert symbol(["a", "-a"], CLO).is_zero()


def test_trivial_entry_kills_symbol():
    assert symbol(["1", "a"], EUC).is_zero()
    assert symbol(["2", "a"], EUC).is_zero()  # 2 is a square here
    assert not symbol(["2", "a"], GEN).is_zero()
    assert symbol(["-1", "a"], CLO).is_zero()


def test_power_of_two_entries():
    assert symbol(["4"], EUC).is_zero()
    assert symbol(["8", "a"], GEN) == symbol(["2", "a"], GEN)


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        symbol(["q"], EUC)


# -- mul ---------------------------------------------------------------------


def test_mul_concatenates():
    assert symbol(["a"], EUC) * symbol(["b"], EUC) == symbol(["a", "b"], EUC)
    assert symbol(["a"], EUC) * symbol(["a"], EUC) == symbol(["-1", "a"], EUC)


def test_total_class_of_three_quadratic_pieces():
    e = one(EUC)
    lhs = (e + symbol(["a"], EUC)) * (e + symbol(["b"], EUC)) * (e + symbol(["a*b"], EUC))
    rhs = e + symbol(["a", "b"], EUC) + symbol(["-1", "a*b"], EUC)
    assert lhs == rhs


def test_mul_model_mismatch():
    with pytest.raises(ModelMismatch):
        symbol(["a"], EUC) * symbol(["a"], CLO)


def test_elements_are_immutable():
    x = symbol(["a", "b"], EUC)
    for name, value in (("model", CLO), ("support", frozenset()), ("other", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, value)
    assert x.model is EUC and x == symbol(["a", "b"], EUC)


# -- residue -----------------------------------------------------------------


def test_residue_basic():
    assert residue(symbol(["a", "b"], EUC), "a") == symbol(["b"], EUC)
    assert residue(symbol(["b"], EUC), "a").is_zero()


def test_double_residue_of_alpha2():
    x = symbol(["a", "b"], EUC) + symbol(["-1", "a*b"], EUC)
    assert residue(residue(x, "b"), "a") == one(EUC)


def test_residue_rejects_constants():
    with pytest.raises(NotAnIndeterminate):
        residue(symbol(["a"], EUC), "two")
    with pytest.raises(UnknownGenerator):
        residue(symbol(["a"], EUC), "nope")


# -- rendering and parsing ---------------------------------------------------


def test_render_sorted_basis_form():
    x = symbol(["a", "b"], EUC) + symbol(["-1", "a*b"], EUC)
    assert str(x) == "{a,b} + {-1,a} + {-1,b}"
    assert str(zero(EUC)) == "0"
    assert str(one(EUC)) == "1"
    assert str(symbol(["-1", "-1"], EUC)) == "{-1,-1}"


def test_parse_round_trip():
    x = one(EUC) + symbol(["a", "b", "c"], EUC) + symbol(["-1", "-1", "a"], EUC)
    assert parse_kelement(str(x), EUC) == x


def test_parse_composite_spellings():
    assert parse_kelement("{a,b} + {-1,a*b}", EUC) == symbol(["a", "b"], EUC) + symbol(
        ["-1", "a*b"], EUC
    )
    assert parse_kelement("eps^3", EUC) == symbol(["-1"] * 3, EUC)
    assert parse_kelement("0", EUC).is_zero()
    assert parse_kelement("1", EUC) == one(EUC)


def test_parse_errors():
    with pytest.raises(SyntaxError):
        parse_kelement("{a,b", EUC)
    with pytest.raises(SyntaxError):
        parse_kelement("{}", EUC)
    with pytest.raises(SyntaxError):
        parse_kelement("{3}", EUC)
    with pytest.raises(UnknownGenerator):
        parse_kelement("{zz}", EUC)


def test_numerals_outside_ascii_or_too_long_fail_cleanly():
    with pytest.raises(UnknownGenerator):
        parse_kelement("{\u00b2}", EUC)  # a superscript two is not a numeral
    with pytest.raises(SyntaxError):
        parse_kelement("{%s}" % ("4" * 5000), EUC)
    assert parse_kelement("{%d}" % (2 * 4 ** 1000), GEN) == symbol(["2"], GEN)


def test_eps_power_is_bounded():
    top = parse_kelement("eps^%d" % EPS_POWER_LIMIT, EUC)
    assert top.support == {(EPS_POWER_LIMIT, frozenset())}
    assert parse_kelement("eps^0001*{a}", EUC) == parse_kelement("eps*{a}", EUC)
    for text in (
        "eps^%d" % (EPS_POWER_LIMIT + 1),
        "eps^99999999",
        "eps^" + "9" * 5000,
        "eps^\u00b3",
    ):
        with pytest.raises(SyntaxError):
            parse_kelement(text, EUC)


def test_dangling_star_after_eps_is_rejected():
    for text in ("eps*", "eps *", "eps^3*", "eps^3 * ", "{a} + eps*"):
        with pytest.raises(SyntaxError):
            parse_kelement(text, EUC)


def test_braces_after_eps_need_a_star():
    for text in ("eps{a}", "eps {a}", "eps^2{a}", "eps^2 {a}", "{b} + eps{a}"):
        with pytest.raises(SyntaxError):
            parse_kelement(text, EUC)
    assert parse_kelement("eps * {a}", EUC) == symbol(["-1", "a"], EUC)
    assert parse_kelement("eps^2 * {a}", EUC) == symbol(["-1", "-1", "a"], EUC)


@pytest.mark.parametrize("m", range(5))
def test_eps_prefix_is_a_product_with_minus_one_entries(m):
    prefix = "eps^%d" % m
    for model in (EUC, CLO, GEN):
        assert parse_kelement(prefix, model) == symbol(["-1"] * m, model)
        for entries in (["a"], ["a", "-b"], ["a*b", "a", "2"]):
            text = "%s*{%s}" % (prefix, ",".join(entries))
            assert parse_kelement(text, model) == symbol(["-1"] * m + entries, model)


def test_reserved_names_point_to_their_spelling():
    with pytest.raises(KError, match="'minus_one' is reserved.*write -1 instead"):
        euclidean_model(("a", "minus_one"))
    with pytest.raises(KError, match="'two' is reserved.*write 2 instead"):
        generic_model(("two",))
    with pytest.raises(KError, match="model names must be unique"):
        FieldModel(("c",), {"minus_one": "free", "c": "free"})


# -- property suites -----------------------------------------------------------

MONOS = ["a", "b", "c", "-1", "a*b", "-a", "b*c", "a*b*c", "-a*c", "2"]

entry_lists = st.lists(st.sampled_from(MONOS), min_size=0, max_size=4)


@settings(max_examples=300)
@given(entry_lists, st.randoms())
def test_symbol_order_independent(entries, rng):
    shuffled = list(entries)
    rng.shuffle(shuffled)
    for model in (EUC, CLO, GEN):
        assert symbol(entries, model) == symbol(shuffled, model)


@settings(max_examples=300)
@given(st.sampled_from(MONOS))
def test_steinberg_consequences(m):
    for model in (EUC, CLO, GEN):
        assert symbol([m, m], model) == symbol(["-1", m], model)
        neg = m[1:] if m.startswith("-") else "-" + m
        assert symbol([m, neg], model).is_zero()


def elements(model):
    return st.lists(entry_lists, max_size=3).map(
        lambda rows: sum((symbol(r, model) for r in rows), zero(model))
    )


@settings(max_examples=200)
@given(elements(EUC), elements(EUC), elements(EUC))
def test_mul_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * one(EUC) == x
    assert (x + x).is_zero()


@settings(max_examples=200)
@given(elements(EUC))
def test_residue_product_compatibility(y):
    # y has no c-dependence unless it mentions c; strip the c symbols first
    y = KE_no_c(y)
    assert residue(symbol(["c"], EUC) * y, "c") == y


def KE_no_c(x):
    from ccalc.ksymbols import KElement

    return KElement(x.model, {s for s in x.support if "c" not in s[1]})


@settings(max_examples=200)
@given(elements(EUC))
def test_basis_independence_via_residues(x):
    # iterated residues at a basis symbol's generators extract exactly that
    # symbol's eps power: the free-module reading is consistent
    for m, gens in x.support:
        extracted = iterated_residue(x, sorted(gens))
        assert (m, frozenset()) in extracted.support
    probe = (0, frozenset({"a", "b"}))
    if probe not in x.support:
        extracted = iterated_residue(x, ("a", "b"))
        assert (0, frozenset()) not in extracted.support or (0, probe[1]) in x.support


@settings(max_examples=300)
@given(entry_lists)
def test_closed_model_kills_positive_degree_constants(entries):
    x = symbol(["-1"] + entries, CLO)
    assert x.is_zero() or all(m == 0 for m, _ in x.support)


@settings(max_examples=200)
@given(elements(EUC))
def test_render_parse_round_trip(x):
    assert parse_kelement(x.render(), EUC) == x
