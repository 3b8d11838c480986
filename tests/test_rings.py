"""Tests for the graded polynomial towers."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccalc.rings import (
    DEGREE_LIMIT,
    CyclicTower,
    DegreeMismatch,
    DuplicateGenerator,
    NonMonicRelation,
    NonUnique,
    NotDivisible,
    NotSymmetric,
    Poly,
    Ring,
    RingError,
    RingMismatch,
    TruncationExceeded,
    UnknownGenerator,
    exact_divide,
    substitute,
    symmetric_reduce,
)
from ccalc.checks import _independent_reduce
from ccalc.chow import TWOPOINT_RING


def chern_ring(cap=None):
    """Z[c1,c2,c3][t] with t^3 + c1 t^2 + c2 t + c3 = 0."""
    return Ring(
        [("c1", 1), ("c2", 2), ("c3", 3), ("t", 1)],
        relations={
            "t": (3, [[(1, {"c1": 1})], [(1, {"c2": 1})], [(1, {"c3": 1})]])
        },
        cap=cap,
    )


def split_cubic():
    """x^3 = e1 x^2 - e2 x + e3 over the roots l1, l2, l3."""
    return (
        3,
        [
            [(-1, {"l1": 1}), (-1, {"l2": 1}), (-1, {"l3": 1})],
            [(1, {"l1": 1, "l2": 1}), (1, {"l1": 1, "l3": 1}), (1, {"l2": 1, "l3": 1})],
            [(-1, {"l1": 1, "l2": 1, "l3": 1})],
        ],
    )


def root_ring():
    """Z[l1,l2,l3][h][s,t]: h capped-free, s and t both split cubic fibers."""
    return Ring(
        ["l1", "l2", "l3", "h", "s", "t"],
        relations={"s": split_cubic(), "t": split_cubic(), "h": None},
        cap=6,
    )


def sqrt_ring():
    """Square roots ra, rb of degree-2 classes a, b, shaped like cubic's rings."""
    return Ring(
        [("a", 2), ("b", 2), ("ra", 1), ("rb", 1)],
        relations={
            "ra": (2, [[], [(-1, {"a": 1})]]),
            "rb": (2, [[], [(-1, {"b": 1})]]),
        },
    )


def nested_ring():
    """A fiber t whose relation mentions the lower fiber s, unreduced (s^2)."""
    return Ring(
        ["a", "s", "t"],
        relations={
            "s": (2, [[], [(-1, {"a": 2})]]),
            "t": (2, [[(1, {"s": 1})], [(1, {"s": 2})]]),
        },
    )


# -- construction and guards -------------------------------------------------


def test_duplicate_generator_rejected():
    with pytest.raises(DuplicateGenerator):
        Ring(["h", "h"])


def test_unknown_generator_in_relation():
    with pytest.raises(UnknownGenerator):
        Ring(["h"], relations={"t": (2, [[], []])})


def test_relation_referencing_later_generator_rejected():
    # coefficient of the s-relation may not mention t
    with pytest.raises(CyclicTower):
        Ring(
            ["s", "t"],
            relations={"s": (2, [[(1, {"t": 1})], []]), "t": (2, [[], []])},
        )


def test_relation_referencing_itself_rejected():
    with pytest.raises(CyclicTower):
        Ring(["t"], relations={"t": (2, [[(1, {"t": 1})], []])})


def test_inhomogeneous_relation_coefficient_rejected():
    with pytest.raises(DegreeMismatch):
        Ring(
            [("c2", 2), "t"],
            relations={"t": (3, [[(1, {"c2": 1})], [], []])},
        )


def test_omitted_relation_requires_cap():
    with pytest.raises(NonMonicRelation):
        Ring(["h"], relations={"h": None})


def test_mixed_ring_arithmetic_rejected():
    r1, r2 = chern_ring(), chern_ring()
    with pytest.raises(RingMismatch):
        r1.gen("t") + r2.gen("t")


# -- normal form -------------------------------------------------------------


def test_cubic_relation_t3():
    r = chern_ring()
    t, c1, c2, c3 = (r.gen(n) for n in ("t", "c1", "c2", "c3"))
    assert t ** 3 == -(c1 * t ** 2 + c2 * t + c3)


def test_cubic_relation_t4():
    r = chern_ring()
    t, c1, c2, c3 = (r.gen(n) for n in ("t", "c1", "c2", "c3"))
    assert t ** 4 == (c1 ** 2 - c2) * t ** 2 + (c1 * c2 - c3) * t + c1 * c3


def test_split_cubic_kills_product_of_roots():
    r = root_ring()
    s = r.gen("s")
    prod = (s - r.gen("l1")) * (s - r.gen("l2")) * (s - r.gen("l3"))
    assert prod.is_zero()


def test_cap_trips_only_above_working_degree():
    r = root_ring()
    h = r.gen("h")
    assert (h ** 6).homogeneous_degree() == 6  # degree == cap is still exact
    with pytest.raises(TruncationExceeded):
        h ** 7


def test_coefficient_extraction():
    r = chern_ring()
    t, c1 = r.gen("t"), r.gen("c1")
    p = t ** 3
    assert p.coefficient("t", 2) == -c1
    assert p.coefficient("t", 0) == -r.gen("c3")
    assert p.coefficient("t", 1) == -r.gen("c2")


def test_content():
    r = chern_ring()
    t, c1 = r.gen("t"), r.gen("c1")
    assert (6 * t - 15 * c1).content() == 3
    assert r.zero.content() == 0
    assert r.one.content() == 1


def test_str_rendering():
    r = Ring(
        [("c1", 1), "h"],
        display_order=["h", "c1"],
    )
    h, c1 = r.gen("h"), r.gen("c1")
    assert str(27 * h - 36 * c1) == "27*h - 36*c1"
    assert str(r.zero) == "0"
    assert str(-h) == "-h"
    assert str(h ** 2 + h) == "h + h^2"


# -- the power-table normalizer ----------------------------------------------


def stack_normalize(ring, terms):
    """Reference normal form: rewrite one term at a time, merging only at the end."""
    fibers = sorted(ring.rel, reverse=True)
    out = {}
    stack = list(terms.items())
    while stack:
        e, c = stack.pop()
        for i in fibers:
            n, rhs = ring.rel[i]
            if e[i] >= n:
                base = list(e)
                base[i] -= n
                for e2, c2 in rhs.items():
                    stack.append((tuple(a + b for a, b in zip(base, e2)), c * c2))
                break
        else:
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def raw_of(p, extra=None):
    """p's terms as a raw term list, each monomial times the exponents in extra."""
    raw = []
    for e, c in p.terms.items():
        mono = {n: x for n, x in zip(p.ring.names, e) if x}
        for n, x in (extra or {}).items():
            mono[n] = mono.get(n, 0) + x
        raw.append((c, mono))
    return raw


@pytest.fixture(scope="module")
def warm_chern():
    r = chern_ring()
    r.poly([(1, {"t": 40})])
    return r


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-9, max_value=9),
            st.fixed_dictionaries(
                {
                    "c1": st.integers(0, 2),
                    "c2": st.integers(0, 1),
                    "c3": st.integers(0, 1),
                    "t": st.integers(0, 12),
                }
            ),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_one_fiber_fresh_and_warm_rings_agree(warm_chern, raw):
    want = _independent_reduce(raw)
    assert chern_ring().poly(raw).terms == want
    assert warm_chern.poly(raw).terms == want


@pytest.mark.parametrize(
    "make, warm, names, top",
    [
        (root_ring, lambda: TWOPOINT_RING, ("l1", "l3", "h", "s", "t"), 6),
        (sqrt_ring, sqrt_ring, ("a", "b", "ra", "rb"), 9),
        (nested_ring, nested_ring, ("a", "s", "t"), 9),
    ],
    ids=["twopoint", "sqrt", "nested"],
)
def test_two_fiber_fresh_and_warm_rings_agree(make, warm, names, top):
    rnd = random.Random(2)
    warm = warm()
    for name in names:
        warm.poly([(1, {name: top})])
    for _ in range(80):
        raw = []
        for _ in range(rnd.randint(1, 4)):
            mono, left = {}, top
            for name in rnd.sample(names, len(names)):
                mono[name] = x = rnd.randint(0, left)
                left -= x
            raw.append((rnd.randint(-5, 5), mono))
        fresh = make()
        want = stack_normalize(fresh, fresh._terms_from_raw(raw))
        assert fresh.poly(raw).terms == want
        assert warm.poly(raw).terms == want


def test_power_table_entries_never_become_poly_terms():
    r = chern_ring()
    t = r.gen("t")
    for make in (
        lambda: r.poly([(1, {"t": 3})]),
        lambda: r.poly([(1, {"t": 5})]),
        lambda: t ** 2 * t,
        lambda: t ** 4 * t,
    ):
        want = dict(make().terms)
        p = make()
        p.terms.clear()
        p.terms[(9, 9, 9, 2)] = 7
        assert make().terms == want


def test_cap_raises_on_cold_and_warm_rings():
    r = root_ring()
    for _ in range(2):
        with pytest.raises(TruncationExceeded):
            r.poly([(1, {"s": 7})])
        with pytest.raises(TruncationExceeded):
            r.gen("s") ** 4 * r.gen("h") ** 3


def test_terms_above_cap_that_cancel_do_not_raise():
    uncapped = Ring(["l1", "l2", "l3", "s"], relations={"s": split_cubic()})
    nf = uncapped.poly([(1, {"s": 7})])
    raw = [(1, {"s": 7})] + [(-c, mono) for c, mono in raw_of(nf)]
    r = root_ring()
    for _ in range(2):
        assert r.poly(raw).is_zero()


def test_high_fiber_power_is_fast_and_matches_long_division():
    r = chern_ring()
    start = time.perf_counter()
    top = r.poly([(1, {"t": 100})])
    assert time.perf_counter() - start < 2.0
    # The chain of powers, one step at a time: NF(t^(k+1)) = NF(t * NF(t^k)).
    prev = r.one
    for k in range(1, 101):
        cur = r.poly([(1, {"t": k})])
        assert cur.terms == _independent_reduce(raw_of(prev, {"t": 1}))
        prev = cur
    assert prev == top


def test_high_fiber_power_matches_long_division_directly():
    start = time.perf_counter()
    want = _independent_reduce([(1, {"t": 100})])
    assert time.perf_counter() - start < 2.0
    assert len(want) == 2549
    assert chern_ring().poly([(1, {"t": 100})]).terms == want


def test_power_tables_keep_no_entry_above_the_cap():
    r = root_ring()
    with pytest.raises(TruncationExceeded):
        r.poly([(1, {"s": 80})])
    table = r._powers[r.index["s"]]
    assert len(table) == 4  # s^3 .. s^6
    assert all(Poly(r, entry).homogeneous_degree() <= r.cap for entry in table)


# -- packed monomials --------------------------------------------------------


def test_raw_input_above_the_degree_limit_is_rejected():
    r = Ring(["x"])
    assert r.poly([(1, {"x": DEGREE_LIMIT})]).homogeneous_degree() == DEGREE_LIMIT
    with pytest.raises(RingError):
        r.poly([(1, {"x": 2 ** 31})])


def test_product_above_the_degree_limit_raises_instead_of_carrying():
    r = Ring(["x", "y"])
    x, y = r.gen("x"), r.gen("y")
    big = r.poly([(1, {"x": 2 ** 30})])
    with pytest.raises(RingError):
        big * big
    with pytest.raises(RingError):
        r.poly([(1, {"x": DEGREE_LIMIT})]) * x
    with pytest.raises(RingError):
        r.poly([(1, {"x": DEGREE_LIMIT - 1})]) * (x + y) * y


def test_exponents_near_the_limit_read_back_exactly():
    r = Ring(["x", "y"])
    p = r.poly([(1, {"x": 2 ** 31 - 2})]) * r.gen("y")
    assert p.terms == {(2 ** 31 - 2, 1): 1}
    assert p.homogeneous_degree() == DEGREE_LIMIT
    assert str(p) == "x^%d*y" % (2 ** 31 - 2)


def tower12():
    """Twelve generators of mixed degrees with four stacked fibers."""
    return Ring(
        [("c1", 1), ("c2", 2), ("c3", 3), "a", "b", ("d", 2),
         "t", "u", "v", ("w", 2), "y", "z"],
        relations={
            "t": (3, [[(1, {"c1": 1})], [(1, {"c2": 1})], [(1, {"c3": 1})]]),
            "u": (2, [[(1, {"t": 1}), (1, {"a": 1})], [(1, {"c2": 1})]]),
            "v": (2, [[(-1, {"u": 1})], [(1, {"t": 1, "u": 1}), (2, {"d": 1})]]),
            "z": (3, [[(1, {"y": 1})], [(1, {"w": 1})], [(1, {"v": 1, "w": 1})]]),
        },
        display_order=["z", "y", "w", "v", "u", "t", "d", "b", "a", "c3", "c2", "c1"],
    )


def ref_str(ring, terms):
    """Printing rule on exponent tuples: by degree, then display-order exponents."""
    if not terms:
        return "0"
    grade = lambda e: sum(x * d for x, d in zip(e, ring.degrees))
    items = sorted(
        terms.items(),
        key=lambda it: (grade(it[0]), tuple(-it[0][i] for i in ring._disp)),
    )
    chunks = []
    for e, c in items:
        factors = [
            ring.names[i] if e[i] == 1 else "%s^%d" % (ring.names[i], e[i])
            for i in ring._disp
            if e[i]
        ]
        body = "*".join(factors)
        if not factors:
            body = str(abs(c))
        elif abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        chunks.append(("-" if c < 0 else "+", body))
    text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    return text + "".join(" %s %s" % chunk for chunk in chunks[1:])


@pytest.mark.parametrize("make, top", [(lambda: TWOPOINT_RING, 6), (tower12, 5)],
                         ids=["twopoint", "tower12"])
def test_packed_queries_agree_with_tuple_reference(make, top):
    r = make()
    rnd = random.Random(5)

    def random_poly(top):
        raw = []
        for _ in range(rnd.randint(0, 4)):
            mono, left = {}, rnd.randint(0, top)
            for i in rnd.sample(range(r.ngens), r.ngens):
                x = rnd.randint(0, left // r.degrees[i])
                if x:
                    mono[r.names[i]] = x
                    left -= x * r.degrees[i]
            raw.append((rnd.randint(-4, 4), mono))
        return r.poly(raw)

    for _ in range(60):
        p = random_poly(top - 1) * random_poly(1) + random_poly(top)
        terms = p.terms
        for i, name in enumerate(r.names):
            assert p.contains(name) == any(e[i] for e in terms)
            for power in range(3):
                want = {
                    e[:i] + (0,) + e[i + 1:]: c for e, c in terms.items() if e[i] == power
                }
                assert p.coefficient(name, power).terms == want
        assert str(p) == ref_str(r, terms)


def test_terms_is_a_fresh_view():
    r = chern_ring()
    p = (r.gen("t") + r.gen("c1")) ** 2
    q = (r.gen("t") + r.gen("c1")) ** 2
    before = (dict(p.terms), hash(p))
    view = p.terms
    view.clear()
    view[(9, 9, 9, 2)] = 7
    assert p.terms == before[0]
    assert p == q
    assert hash(p) == before[1] == hash(q)
    with pytest.raises(AttributeError):
        p.terms = {}


def test_slots_cannot_be_reassigned():
    r = chern_ring()
    p = r.gen("t") + r.gen("c1")
    for name in ("ring", "_terms"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, None)
    assert p.ring is r and p == r.gen("t") + r.gen("c1")


# -- exact division ----------------------------------------------------------


def test_exact_divide_recovers_factor():
    r = chern_ring()
    t, c1, c2 = r.gen("t"), r.gen("c1"), r.gen("c2")
    num = (t + c1) * (t ** 2 + c2)
    assert exact_divide(num, t + c1) == t ** 2 + c2
    assert exact_divide(num, t ** 2 + c2) == t + c1


def test_exact_divide_not_divisible():
    r = root_ring()
    with pytest.raises(NotDivisible):
        exact_divide(r.gen("h") ** 2, r.gen("t"))


def test_exact_divide_fractional_quotient_rejected():
    r = chern_ring()
    with pytest.raises(NotDivisible):
        exact_divide(r.gen("c1"), r.const(2))


def test_exact_divide_reports_nonunique():
    # (s-l1)(s-l2) times anything kills (s-l3)-multiples, so the quotient of
    # den*h by den is only determined up to that kernel.
    r = root_ring()
    s, l1, l2 = r.gen("s"), r.gen("l1"), r.gen("l2")
    den = (s - l1) * (s - l2)
    with pytest.raises(NonUnique):
        exact_divide(den * r.gen("h"), den)


def test_exact_divide_zero_numerator():
    r = chern_ring()
    assert exact_divide(r.zero, r.gen("t")) == r.zero


def fraction_divide(num, den):
    """Reference for exact_divide: Gauss-Jordan elimination over Fraction on
    the same system, with the same checks, in the same order and with the
    same messages.  It shares no solver code with exact_divide."""
    ring = num.ring
    if den.ring is not ring:
        raise RingMismatch("operands live in different rings")
    if den.is_zero():
        raise NotDivisible("division by the zero element")
    if num.is_zero():
        return ring.zero
    ndeg = num.homogeneous_degree()
    ddeg = den.homogeneous_degree()
    qdeg = ndeg - ddeg
    if qdeg < 0:
        raise NotDivisible("numerator degree below denominator degree")
    basis = [ring._pack_mono(e) for e in ring.monomials_of_degree(qdeg)]
    if not basis:
        raise NotDivisible("no monomials of degree %d" % qdeg)

    # columns: basis monomial * den, expressed over the degree-ndeg monomials
    cols = []
    row_index = {}
    for e in basis:
        prod = Poly(ring, {e: 1}) * den
        col = {}
        for e2, c in prod._terms.items():
            if e2 not in row_index:
                row_index[e2] = len(row_index)
            col[row_index[e2]] = c
        cols.append(col)
    b = [0] * len(row_index)
    for e2, c in num._terms.items():
        if e2 not in row_index:
            raise NotDivisible("numerator outside the column space")
        b[row_index[e2]] = c

    nrows, ncols = len(row_index), len(basis)
    mat = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            mat[i][j] = Fraction(c)
    for i, c in enumerate(b):
        mat[i][ncols] = Fraction(c)

    pivot_cols = []
    r = 0
    for j in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][j]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][j] != 0:
                f = mat[i][j]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(j)
        r += 1
    for i in range(r, nrows):
        if mat[i][ncols] != 0:
            raise NotDivisible("inconsistent system: nonzero remainder")
    if len(pivot_cols) < ncols:
        raise NonUnique(
            "multiplication by the denominator has a %d-dimensional kernel in degree %d"
            % (ncols - len(pivot_cols), qdeg)
        )
    x = [Fraction(0)] * ncols
    for i, j in enumerate(pivot_cols):
        x[j] = mat[i][ncols]
    if any(v.denominator != 1 for v in x):
        raise NotDivisible("quotient exists only with fractional coefficients")
    q = Poly(ring, {e: int(v) for e, v in zip(basis, x) if v})
    if q * den != num:
        raise NotDivisible("solved quotient does not reproduce the numerator")
    return q


def divide_outcome(divide, num, den):
    """The quotient, or the exception's class and message."""
    try:
        return divide(num, den)
    except RingError as e:
        return type(e), str(e)


def random_form(rng, ring, degree, nterms):
    """A random homogeneous Poly of the given degree (possibly zero)."""
    monos = ring.monomials_of_degree(degree)
    return ring.poly(
        [
            (rng.randint(-3, 3), dict(zip(ring.names, rng.choice(monos))))
            for _ in range(nterms)
        ]
    )


def test_exact_divide_agrees_with_the_fraction_oracle():
    """Same quotient, or same exception class and message, as fraction_divide
    on planted quotients, a num with one extra term, a scaled den (fractional
    quotients) and dens with a kernel like (s-l1)(s-l2)."""
    rng = random.Random(20261018)
    seen = set()

    def compare(num, den):
        got = divide_outcome(exact_divide, num, den)
        assert got == divide_outcome(fraction_divide, num, den), (num, den)
        seen.add(got[1] if isinstance(got, tuple) else "quotient")

    for make, dtop, qtop in ((chern_ring, 3, 3), (root_ring, 3, 1), (sqrt_ring, 3, 3)):
        r = make()
        for _ in range(40):
            ddeg = rng.randint(1, dtop)
            den = random_form(rng, r, ddeg, rng.randint(1, 3))
            if den.is_zero():
                continue
            qdeg = rng.randint(0, qtop)
            num = random_form(rng, r, qdeg, rng.randint(1, 3)) * den
            compare(num, den)
            compare(num + random_form(rng, r, ddeg + qdeg, 1), den)
            compare(num, rng.choice((2, 3, -2)) * den)
    r = root_ring()
    s, l1, l2 = r.gen("s"), r.gen("l1"), r.gen("l2")
    for _ in range(20):
        den = (s - l1) * (s - l2) * random_form(rng, r, rng.randint(0, 1), 2)
        if den.is_zero():
            continue
        qdeg = rng.randint(1, 2)
        num = random_form(rng, r, qdeg, 3) * den
        compare(num, den)
        top = den.homogeneous_degree() + qdeg
        compare(num + random_form(rng, r, top, 1), den)
    assert seen >= {
        "quotient",
        "numerator outside the column space",
        "inconsistent system: nonzero remainder",
        "quotient exists only with fractional coefficients",
    }
    assert any("dimensional kernel" in m for m in seen), seen


# -- substitution ------------------------------------------------------------


def test_substitute_renames_and_maps():
    src = Ring([("c1", 1), "h", "s"], display_order=["h", "c1", "s"])
    dst = Ring([("c1", 1), "hz", "u"], display_order=["hz", "c1", "u"])
    p = 3 * src.gen("h") - 2 * src.gen("c1") - src.gen("s")
    q = substitute(p, {"h": "hz", "s": "u"}, target=dst)
    assert str(q) == "3*hz - 2*c1 - u"


def test_substitute_degree_checked():
    src = Ring(["h"])
    dst = Ring([("c2", 2)])
    with pytest.raises(DegreeMismatch):
        substitute(src.gen("h"), {"h": dst.gen("c2")}, target=dst)


def test_substitute_zero_image():
    r = chern_ring()
    p = r.gen("t") ** 2 + r.gen("c2")
    assert substitute(p, {"t": r.zero}) == r.gen("c2")


# -- symmetric reduction -----------------------------------------------------


def l_ring():
    return Ring(["l1", "l2", "l3", "h"])


def c_ring():
    return Ring([("c1", 1), ("c2", 2), ("c3", 3), "h"], display_order=["h", "c1", "c2", "c3"])


def expand_roots(reduced, src):
    """Map c1, c2, c3 back into src through c1 = -e1, c2 = e2, c3 = -e3."""
    e1 = src.poly([(1, {"l1": 1}), (1, {"l2": 1}), (1, {"l3": 1})])
    e2 = src.poly([(1, {"l1": 1, "l2": 1}), (1, {"l1": 1, "l3": 1}), (1, {"l2": 1, "l3": 1})])
    e3 = src.poly([(1, {"l1": 1, "l2": 1, "l3": 1})])
    return substitute(reduced, {"c1": -e1, "c2": e2, "c3": -e3}, target=src)


def test_symmetric_reduce_elementary():
    src, dst = l_ring(), c_ring()
    l1, l2, l3 = (src.gen(n) for n in ("l1", "l2", "l3"))
    assert symmetric_reduce(l1 + l2 + l3, dst) == -dst.gen("c1")
    assert symmetric_reduce(l1 * l2 + l1 * l3 + l2 * l3, dst) == dst.gen("c2")
    assert symmetric_reduce(l1 * l2 * l3, dst) == -dst.gen("c3")


def test_symmetric_reduce_power_sum():
    src, dst = l_ring(), c_ring()
    l1, l2, l3 = (src.gen(n) for n in ("l1", "l2", "l3"))
    c1, c2 = dst.gen("c1"), dst.gen("c2")
    # p2 = e1^2 - 2 e2 = c1^2 - 2 c2
    assert symmetric_reduce(l1 ** 2 + l2 ** 2 + l3 ** 2, dst) == c1 ** 2 - 2 * c2


def test_symmetric_reduce_carries_other_generators():
    src, dst = l_ring(), c_ring()
    p = src.gen("h") * (src.gen("l1") + src.gen("l2") + src.gen("l3"))
    assert symmetric_reduce(p, dst) == -dst.gen("h") * dst.gen("c1")


def test_symmetric_reduce_rejects_asymmetric():
    src, dst = l_ring(), c_ring()
    with pytest.raises(NotSymmetric):
        symmetric_reduce(src.gen("l1"), dst)
    with pytest.raises(NotSymmetric):
        symmetric_reduce(src.gen("l1") * src.gen("l2"), dst)


# -- property suites ---------------------------------------------------------

CHERN = chern_ring()

MONOS = [
    {},
    {"t": 1},
    {"t": 2},
    {"c1": 1},
    {"c2": 1},
    {"c1": 1, "t": 1},
    {"c1": 2},
    {"c3": 1},
    {"t": 3},
    {"t": 4},
    {"c1": 1, "t": 2},
]

raw_terms = st.lists(
    st.tuples(st.integers(min_value=-9, max_value=9), st.sampled_from(MONOS)),
    max_size=6,
)

chern_polys = raw_terms.map(CHERN.poly)

# the relation t^3 + c1 t^2 + c2 t + c3 is homogeneous, so a sum of MONOS of
# one degree stays homogeneous in normal form
homogeneous_chern_polys = st.integers(0, 4).flatmap(
    lambda deg: st.lists(
        st.tuples(
            st.integers(min_value=-9, max_value=9),
            st.sampled_from(
                [m for m in MONOS if CHERN.poly([(1, m)]).homogeneous_degree() == deg]
            ),
        ),
        max_size=6,
    )
).map(CHERN.poly)


@settings(max_examples=300)
@given(raw_terms)
def test_normal_form_idempotent(raw):
    p = CHERN.poly(raw)
    raw_again = [
        (c, {CHERN.names[i]: e[i] for i in range(len(e)) if e[i]})
        for e, c in p.terms.items()
    ]
    assert CHERN.poly(raw_again) == p


@settings(max_examples=300)
@given(raw_terms, st.randoms())
def test_normal_form_order_independent(raw, rng):
    shuffled = list(raw)
    rng.shuffle(shuffled)
    assert CHERN.poly(raw) == CHERN.poly(shuffled)


@settings(max_examples=200)
@given(chern_polys, chern_polys, chern_polys)
def test_ring_axioms(a, b, c):
    r = CHERN
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + r.zero == a
    assert a * r.one == a
    assert a - a == r.zero


@settings(max_examples=200)
@given(homogeneous_chern_polys, homogeneous_chern_polys)
def test_exact_divide_inverts_multiplication(a, b):
    if b.is_zero():
        return
    try:
        q = exact_divide(a * b, b)
    except NonUnique:
        return
    assert q * b == a * b


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            ),
        ),
        max_size=5,
    )
)
def test_symmetric_reduce_round_trip(spec):
    """Symmetrize a random polynomial, reduce, expand back: must agree."""
    from itertools import permutations

    src, dst = l_ring(), c_ring()
    sym = src.zero
    for c, (a1, a2, a3) in spec:
        for p in set(permutations((a1, a2, a3))):
            sym = sym + src.poly([(c, {"l1": p[0], "l2": p[1], "l3": p[2]})])
    assert expand_roots(symmetric_reduce(sym, dst), src) == sym


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.fixed_dictionaries(
                {name: st.integers(0, 2) for name in ("l1", "l2", "l3", "h")}
            ),
        ),
        max_size=5,
    )
)
def test_symmetric_reduce_decides_symmetry(raw):
    """NotSymmetric exactly when a transposition moves p; else a round trip."""
    src, dst = l_ring(), c_ring()
    p = src.poly(raw)
    symmetric = p == substitute(p, {"l1": "l2", "l2": "l1"}) == substitute(
        p, {"l2": "l3", "l3": "l2"}
    )
    if not symmetric:
        with pytest.raises(NotSymmetric):
            symmetric_reduce(p, dst)
        return
    assert expand_roots(symmetric_reduce(p, dst), src) == p
