"""Tests for the mod-2 symbol calculus."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ccalc.etale import DependentClasses, EtaleAlgebraExpr, parse_algebra
from ccalc.ksymbols import (
    EPS_POWER_LIMIT,
    FieldModel,
    KError,
    ModelMismatch,
    NotAnIndeterminate,
    QUOTE_LIMIT,
    UnknownGenerator,
    _product,
    closed_model,
    euclidean_model,
    generic_model,
    is_name,
    iterated_residue,
    one,
    parse_kelement,
    residue,
    symbol,
    tokenize,
    zero,
)

EUC = euclidean_model(("a", "b", "c"))
CLO = closed_model(("a", "b", "c"))
GEN = generic_model(("a", "b", "c"))


def bit(name, model):
    """The generator mask of the one basis symbol of {name}."""
    ((m, gens),) = symbol([(name,)], model).support
    assert m == 0
    return gens


def frozenset_product(xs, ys, eps_free):
    """The product rule on (m, frozenset of names) supports, summed mod 2."""
    acc = set()
    for m1, a in xs:
        for m2, b in ys:
            acc ^= {(m1 + m2 + len(a & b), a | b)}
    return acc if eps_free else {s for s in acc if s[0] == 0}


# -- models ------------------------------------------------------------------


def test_model_requires_minus_one():
    with pytest.raises(KError):
        FieldModel(("a",), {"two": "trivial"})


def test_model_flags():
    assert EUC.eps_free and not CLO.eps_free
    assert EUC.class_mask(("two",)) == 0 and GEN.class_mask(("two",)) != 0
    assert symbol([("two",)], EUC).is_zero() and not symbol([("two",)], GEN).is_zero()


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


def test_parse_errors_carry_their_position():
    text = "{a} + {b c}"
    with pytest.raises(SyntaxError) as caught:
        parse_kelement(text, EUC)
    assert str(caught.value) == "expected ',' or '}' at position 9 in '{a} + {b c}'"
    assert (caught.value.offset, caught.value.text) == (10, text)
    with pytest.raises(SyntaxError, match=r"^unbalanced '\{' in '\{a,b'$") as caught:
        parse_kelement("{a,b", EUC)
    assert caught.value.offset == 5  # the end, one past the last column
    pinned = "expected ',' or ')' at position 9 in 'F(sqrt(a)'"
    with pytest.raises(SyntaxError, match="^%s$" % re.escape(pinned)):
        parse_algebra("F(sqrt(a)", EUC)


def test_parse_errors_quote_a_window_of_a_long_input():
    body = " + ".join(["{a,b}"] * 4000)
    text = body + " + {a b} + " + body  # the error sits in the middle
    pos = len(body) + 6
    with pytest.raises(SyntaxError) as caught:
        parse_kelement(text, EUC)
    window = text[pos - QUOTE_LIMIT // 2 : pos + QUOTE_LIMIT // 2]
    assert str(caught.value) == "expected ',' or '}' at position %d in ...%r..." % (pos, window)
    assert (caught.value.offset, caught.value.text) == (pos + 1, text)
    # near either end the window stops at the text and only the other side is cut
    with pytest.raises(SyntaxError) as caught:
        parse_kelement("{a b} + " + body, EUC)
    assert str(caught.value).endswith(" in %r..." % ("{a b} + " + body)[:QUOTE_LIMIT])
    with pytest.raises(SyntaxError) as caught:
        parse_kelement(body + " + {a,b", EUC)
    assert str(caught.value) == "unbalanced '{' in ...%r" % (body + " + {a,b")[-QUOTE_LIMIT:]
    # an input of exactly QUOTE_LIMIT characters is still quoted whole
    text = "{a} " + "x" * (QUOTE_LIMIT - 4)
    with pytest.raises(SyntaxError, match=r" in %s$" % re.escape(repr(text))):
        parse_kelement(text, EUC)


def test_parse_errors_stay_short_for_any_input():
    for text in (
        "{%s}" % ("3" * 3999),  # a long numeral that is not a power of two
        "{a} + {" + "\U000e0001" * 5000,  # characters repr spells with ten
        "F(sqrt(a)" + "*F" * 10000,
    ):
        with pytest.raises(SyntaxError) as caught:
            (parse_algebra if text.startswith("F") else parse_kelement)(text, EUC)
        assert len(str(caught.value)) < 12 * QUOTE_LIMIT + 100, text[:20]


@settings(max_examples=300)
@given(st.text(alphabet="aF_x1\u0663\u00b2\u00e9.{}(),*^+- \t\u00a0", max_size=20))
def test_tokens_cover_the_text_and_its_names_are_its_identifiers(text):
    tokens = tokenize(text)
    assert tokens[-1] == "" and "".join(tokens) == "".join(text.split())
    names = re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text)  # the "name" row
    assert [t for t in tokens if is_name(t)] == names


def test_numerals_outside_ascii_or_too_long_fail_cleanly():
    with pytest.raises(UnknownGenerator):
        parse_kelement("{\u00b2}", EUC)  # a superscript two is not a numeral
    with pytest.raises(SyntaxError):
        parse_kelement("{%s}" % ("4" * 5000), EUC)
    assert parse_kelement("{%d}" % (2 * 4 ** 1000), GEN) == symbol(["2"], GEN)


def test_eps_power_is_bounded():
    top = parse_kelement("eps^%d" % EPS_POWER_LIMIT, EUC)
    assert top.support == {(EPS_POWER_LIMIT, 0)}
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

    c = bit("c", x.model)
    return KElement(x.model, {s for s in x.support if not s[1] & c})


@settings(max_examples=200)
@given(elements(EUC))
def test_basis_independence_via_residues(x):
    # iterated residues at a basis symbol's generators extract exactly that
    # symbol's eps power: the free-module reading is consistent
    for m, gens in x.support:
        extracted = iterated_residue(x, sorted(EUC.gen_names(gens)))
        assert (m, 0) in extracted.support
    probe = (0, bit("a", EUC) | bit("b", EUC))
    if probe not in x.support:
        extracted = iterated_residue(x, ("a", "b"))
        assert (0, 0) not in extracted.support or (0, probe[1]) in x.support


@settings(max_examples=300)
@given(entry_lists)
def test_closed_model_kills_positive_degree_constants(entries):
    x = symbol(["-1"] + entries, CLO)
    assert x.is_zero() or all(m == 0 for m, _ in x.support)


@settings(max_examples=200)
@given(elements(EUC), elements(GEN))
def test_render_parse_round_trip(x, y):
    assert parse_kelement(x.render(), EUC) == x
    assert parse_kelement(y.render(), GEN) == y


# factor lists for the algebra round trip: non-empty, since "F^0" is rejected
FACTOR_LISTS = st.lists(
    st.tuples(
        st.lists(
            st.frozensets(st.sampled_from(["minus_one", "two", "a", "b", "c"]), max_size=3),
            max_size=4,
        ),
        st.integers(min_value=1, max_value=2 ** 70),
    ),
    min_size=1,
    max_size=4,
)


def algebra(model, factors):
    """The algebra of factors over model, a factor whose square classes are
    dependent there being replaced by F."""
    fields = []
    for ext, mult in factors:
        try:
            EtaleAlgebraExpr(model, [(ext, 1)])
        except DependentClasses:
            ext = ()
        fields.append((ext, mult))
    return EtaleAlgebraExpr(model, fields)


@settings(max_examples=200)
@given(FACTOR_LISTS)
def test_algebra_render_parse_round_trip(factors):
    for model in (EUC, CLO, GEN):
        alg = algebra(model, factors)
        parsed = parse_algebra(str(alg), model)
        assert parsed == alg
        assert str(parsed) == str(alg)


# -- the bit-mask normal form against frozensets of names ----------------------


@pytest.mark.parametrize("model", (EUC, CLO, GEN), ids=lambda m: m.name)
def test_mask_product_matches_the_frozenset_rule(model):
    names = [n for n in ("two", "a", "b", "c") if model.class_mask((n,))]
    masks = {n: bit(n, model) for n in names}
    rng = random.Random(19)

    def support():
        return {
            (rng.randrange(3), frozenset(n for n in names if rng.random() < 0.5))
            for _ in range(rng.randrange(7))
        }

    def as_masks(xs):
        return {(m, sum(masks[n] for n in a)) for m, a in xs}

    for _ in range(300):
        xs, ys = support(), support()
        got = _product(model, as_masks(xs), as_masks(ys))
        assert {(m, frozenset(model.gen_names(g))) for m, g in got} == (
            frozenset_product(xs, ys, model.eps_free)
        )


def test_equal_models_give_equal_elements():
    # the same model with its constants inserted in another order
    first = FieldModel(("a", "b"), {"minus_one": "free", "two": "free", "k": "free"})
    second = FieldModel(("a", "b"), {"k": "free", "two": "free", "minus_one": "free"})
    assert first == second and hash(first) == hash(second)
    for entries in (["k", "a"], ["2", "k*b"], ["-1", "2*k", "a*b"], ["k", "2", "k"]):
        x, y = symbol(entries, first), symbol(entries, second)
        assert x == y and hash(x) == hash(y) and str(x) == str(y)
        assert x * y == symbol(entries + entries, first)


# Declaration order x2, x10, b, a differs from the string order of the names,
# and the constant 2 is named "two" inside the library.
DISPLAY = ("two", "x2", "x10", "b", "a")
SCRAMBLED = generic_model(DISPLAY[1:])


def reference_render(support):
    """render() on a frozenset support: basis symbols sorted by degree, eps
    power, then the tuple of internal names in display order, compared as
    strings."""
    if not support:
        return "0"

    def names(gens):
        return tuple(sorted(gens, key=DISPLAY.index))

    chunks = []
    for m, gens in sorted(support, key=lambda s: (s[0] + len(s[1]), s[0], names(s[1]))):
        entries = ["-1"] * m + ["2" if n == "two" else n for n in names(gens)]
        chunks.append("{%s}" % ",".join(entries) if entries else "1")
    return " + ".join(chunks)


def test_render_order_is_by_internal_names():
    x = symbol(["x2"], SCRAMBLED) + symbol(["x10"], SCRAMBLED)
    assert str(x) == "{x10} + {x2}"
    y = symbol(["-1", "a"], SCRAMBLED) + symbol(["-1", "2"], SCRAMBLED)
    assert str(y) == "{-1,a} + {-1,2}"


def test_render_matches_a_reference_sort_of_frozenset_supports():
    names = ("minus_one",) + DISPLAY
    for seed in range(200):
        rng = random.Random(seed)
        x, support = zero(SCRAMBLED), set()
        for _ in range(rng.randrange(4)):
            row = [
                [n for n in names if rng.random() < 0.35]
                for _ in range(rng.randrange(4))
            ]
            term = {(0, frozenset())}
            for entry in row:
                pieces = {
                    (1, frozenset()) if n == "minus_one" else (0, frozenset({n}))
                    for n in entry
                }
                term = frozenset_product(term, pieces, eps_free=True)
            x += symbol(row, SCRAMBLED)
            support ^= term
        assert x.render() == reference_render(support), seed
        assert parse_kelement(x.render(), SCRAMBLED) == x


# -- the name table against the name-set loops it replaced ----------------------

# The three presets and one custom model with an extra trivial constant s and
# an extra free constant k.  POOL holds every name of the custom model and
# two names no model knows.
CUSTOM = FieldModel(
    ("a", "b", "c"), {"minus_one": "free", "two": "trivial", "s": "trivial", "k": "free"}
)
TABLE_MODELS = (CLO, EUC, GEN, CUSTOM)
POOL = ("minus_one", "two", "s", "k", "a", "b", "c", "zz", "q")


def reference_knows(model, name):
    return name == "minus_one" or name in model.constants or name in model.indeterminates


def reference_is_trivial(model, name):
    return model.constants.get(name) == "trivial"


def reference_bits(model):
    """Each non-eps name's bit: the constants by spelling, then the
    indeterminates in declaration order."""
    spelling = {"two": "2"}
    constants = sorted((spelling.get(n, n), n) for n in model.constants if n != "minus_one")
    names = [n for _, n in constants] + list(model.indeterminates)
    return {n: 1 << i for i, n in enumerate(names)}


def reference_degree_one(cls, model):
    """The name-set loop: two model queries per name."""
    pieces = set()
    for n in cls:
        if not reference_knows(model, n):
            raise UnknownGenerator(n)
        if not reference_is_trivial(model, n):
            pieces.add((1, 0) if n == "minus_one" else (0, reference_bits(model)[n]))
    return frozenset(pieces)


def reference_class_support(cls, model):
    """The support of {cls} for a sequence of names: UnknownGenerator for
    the first name the model does not know, else the name-set loop on the
    names that occur an odd number of times."""
    reference_degree_one(cls, model)
    return reference_degree_one({n for n in cls if cls.count(n) % 2}, model)


def reference_mask(cls, model):
    """The mask of the reference support of {cls}: the generator masks of
    its basis symbols, and for (1, 0) the bit after them, minus_one's."""
    neg = 1 << len(reference_bits(model))
    return sum(neg if m else g for m, g in reference_class_support(cls, model))


def reference_residue(x, at):
    if not reference_knows(x.model, at):
        raise UnknownGenerator(at)
    if at not in x.model.indeterminates:
        raise NotAnIndeterminate(
            "residues are taken at indeterminates, not constant classes: %r" % at
        )
    bit = reference_bits(x.model)[at]
    return {(m, g ^ bit) for m, g in x.support if g & bit}


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except KError as e:
        return type(e), str(e)


@pytest.mark.parametrize("model", TABLE_MODELS, ids=lambda m: m.name)
def test_the_name_table_answers_as_the_name_set_loops(model):
    for name in POOL:
        got = outcome(model.class_mask, (name,))
        if reference_knows(model, name):
            assert (got == 0) == reference_is_trivial(model, name), name
        else:
            assert got == (UnknownGenerator, name), name
    rng = random.Random(31)
    for _ in range(2000):
        # a tuple fixes the order, so two unknown names test which one is named
        cls = tuple(rng.choice(POOL) for _ in range(rng.randrange(6)))
        assert outcome(model.class_mask, cls) == outcome(reference_mask, cls, model), cls
        assert outcome(lambda: symbol([cls], model).support) == outcome(
            reference_class_support, cls, model
        ), cls


@pytest.mark.parametrize("model", TABLE_MODELS, ids=lambda m: m.name)
def test_residue_checks_at_by_the_table_in_the_old_order(model):
    rng = random.Random(37)
    known = [n for n in POOL if reference_knows(model, n) and n != "minus_one"]
    for _ in range(100):
        entries = [
            "*".join(rng.sample(known, rng.randrange(1, 3))) for _ in range(rng.randrange(4))
        ]
        x = symbol(entries, model)
        for at in POOL:
            got = outcome(lambda: residue(x, at).support)
            assert got == outcome(reference_residue, x, at), (entries, at)
    # an unknown name is reported before a known name that is no indeterminate
    with pytest.raises(UnknownGenerator, match="zz"):
        residue(one(model), "zz")
    for constant in ("minus_one", "two"):
        with pytest.raises(NotAnIndeterminate, match=repr(constant)):
            residue(one(model), constant)


def test_an_unhashable_name_in_a_class_is_an_unknown_generator():
    with pytest.raises(UnknownGenerator, match=re.escape("['a']")):
        EUC.class_mask([["a"]])


def test_an_unhashable_name_in_a_residue_word_is_an_unknown_generator():
    with pytest.raises(UnknownGenerator, match=re.escape("['a']")):
        iterated_residue(symbol(["a", "b"], EUC), [["a"]])
