"""Tests for the singular-locus class worksheets."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ccalc import chow
from ccalc.chow import (
    CURVE_BASE,
    POINT_RING,
    SINGULAR_BASE,
    TWOPOINT_RING,
    DegreeTooSmall,
    class_bin,
    class_z,
    class_ztilde,
    fiber_pushforward,
    r_value,
)
from ccalc.rings import NotAFiberGenerator, exact_divide, substitute


# -- class_ztilde ------------------------------------------------------------


def test_ztilde_guard():
    with pytest.raises(DegreeTooSmall):
        class_ztilde(2)


def test_ztilde_symmetric_in_roots():
    p = class_ztilde(4)
    assert substitute(p, {"l1": "l2", "l2": "l1"}) == p
    assert substitute(p, {"l1": "l3", "l3": "l1"}) == p


def test_ztilde_t2_coefficient():
    # expanding prod(h+3t+l_i) by hand: the t^2 part before reduction is
    # 9*(3h+l1+l2+l3)*t^2, and reducing t^3 = e1 t^2 - ... adds 27*e1*t^2,
    # i.e. the coefficient is 9*(3h+l1+l2+l3) + 27*(l1+l2+l3)... checked by
    # evaluating the product directly here instead of trusting the note.
    r = POINT_RING
    h = r.gen("h")
    e1 = r.gen("l1") + r.gen("l2") + r.gen("l3")
    got = class_ztilde(4).coefficient("t", 2)
    # independent expansion: prod(h+3t+l_i) = sum over subsets
    # t^3-coefficient 27 rewrites through the relation as 27*e1*t^2 + ...
    assert got == 9 * (3 * h + e1) + 27 * e1


# -- fiber_pushforward -------------------------------------------------------


def test_pushforward_basis_values():
    r = POINT_RING
    t = r.gen("t")
    assert fiber_pushforward(r.one, "t") == r.zero
    assert fiber_pushforward(t, "t") == r.zero
    assert fiber_pushforward(t ** 2, "t") == r.one
    # t^3 reduces first; its t^2 coefficient is e1 = l1+l2+l3
    e1 = r.gen("l1") + r.gen("l2") + r.gen("l3")
    assert fiber_pushforward(t ** 3, "t") == e1


def test_pushforward_linearity_mixed_terms():
    r = POINT_RING
    h, t = r.gen("h"), r.gen("t")
    assert fiber_pushforward(h * t ** 2 + h ** 2 * t, "t") == h


def test_pushforward_rejects_non_fiber():
    with pytest.raises(NotAFiberGenerator):
        fiber_pushforward(POINT_RING.gen("t"), "h")
    with pytest.raises(NotAFiberGenerator):
        fiber_pushforward(POINT_RING.gen("t"), "l1")


# -- class_z -----------------------------------------------------------------


def expected_z(d):
    h, c1 = CURVE_BASE.gen("h"), CURVE_BASE.gen("c1")
    return (d - 1) ** 2 * (3 * h - d * c1)


def test_class_z_small_degrees():
    r4 = class_z(4)
    assert str(r4.poly) == "27*h - 36*c1"
    assert r4.basis_coefficients == {"h": 27, "c1": -36}
    assert r4.content == 9 and r4.expected_divisor == 9 and r4.divisibility_ok

    r3 = class_z(3)
    assert r3.poly == expected_z(3)
    assert r3.content == 12 and r3.expected_divisor == 12

    r6 = class_z(6)
    assert r6.poly == expected_z(6)
    assert r6.content == 75 and r6.expected_divisor == 75


@pytest.mark.parametrize("d", [*range(3, 13), 25, 38, 60])
def test_class_z_matches_closed_form(d):
    rep = class_z(d)
    assert rep.poly == expected_z(d)
    assert rep.content == 3 ** (1 if d % 3 == 0 else 0) * (d - 1) ** 2
    assert rep.divisibility_ok


def test_class_z_guard():
    with pytest.raises(DegreeTooSmall):
        class_z(2)


# -- class_bin ---------------------------------------------------------------


def expected_bin(d):
    hz, u, c1 = (SINGULAR_BASE.gen(n) for n in ("hz", "u", "c1"))
    return 3 * d * (d - 2) * hz - d * (d - 1) ** 2 * c1 - 3 * (d - 2) * u


def test_class_bin_small_degrees():
    r4 = class_bin(4)
    assert str(r4.poly) == "24*hz - 36*c1 - 6*u"
    assert r4.basis_coefficients == {"hz": 24, "u": -6, "c1": -36}
    assert r4.content == 6 and r4.expected_divisor == 6

    r5 = class_bin(5)
    assert str(r5.poly) == "45*hz - 80*c1 - 9*u"
    assert r5.content == 1

    r6 = class_bin(6)
    assert str(r6.poly) == "72*hz - 150*c1 - 12*u"
    assert r6.content == 6


@pytest.mark.parametrize("d", [*range(4, 13), 25, 38, 60])
def test_class_bin_matches_closed_form(d):
    rep = class_bin(d)
    assert rep.poly == expected_bin(d)
    assert rep.content == r_value(d)
    assert rep.divisibility_ok


@pytest.mark.parametrize("d", [*range(4, 13), 25, 38, 60])
def test_class_bin_fiber_swap(d):
    assert class_bin(d, push_fiber="s").poly == class_bin(d, push_fiber="t").poly


def test_class_bin_guard():
    with pytest.raises(DegreeTooSmall):
        class_bin(3)


def test_exact_divide_recovers_planted_quotient():
    # plant a known degree-1 quotient against the three-plane class
    r = TWOPOINT_RING
    h, s = r.gen("h"), r.gen("s")
    planted = 3 * h + 2 * s
    a = r.one
    for i in (1, 2, 3):
        a = a * (h + 3 * r.gen("t") + r.gen("l%d" % i))
    assert exact_divide(planted * a, a, monic_in="h") == planted


# -- closed forms for every d ---------------------------------------------------


def _coefficient_sequences(polys):
    """Each monomial's coefficients across polys, one list per monomial."""
    monomials = set().union(*(p.terms for p in polys))
    return [[p.terms.get(e, 0) for p in polys] for e in monomials]


def _differences_vanish(values, order):
    """The order-th finite differences of values exist and are all zero, so
    the values lie on a polynomial of degree < order."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return bool(values) and not any(values)


def test_class_z_closed_form_holds_for_every_degree():
    # the coefficients are cubic in d (class_z docstring): the fourth
    # differences vanish over eight degrees, and four degrees fix a cubic
    polys = [class_z(d).poly for d in range(3, 11)]
    assert all(_differences_vanish(v, 4) for v in _coefficient_sequences(polys))
    assert all(class_z(d).poly == expected_z(d) for d in range(3, 7))


def test_class_bin_quotient_holds_for_every_degree(monkeypatch):
    # the numerator and Q*a have coefficients of degree <= 6 in d (class_bin
    # docstring): the seventh differences vanish over ten degrees, and seven
    # degrees fix numerator = Q*a as an identity in d
    divisions = []

    def recording_divide(num, den, *, monic_in):
        divisions.append((num, den))
        return exact_divide(num, den, monic_in=monic_in)

    monkeypatch.setattr(chow, "exact_divide", recording_divide)
    for d in range(4, 14):
        class_bin(d)
    assert len(divisions) == 10
    nums = [num for num, _ in divisions]
    assert all(_differences_vanish(v, 7) for v in _coefficient_sequences(nums))
    r = TWOPOINT_RING
    h, kept = r.gen("h"), r.gen("s")
    l_sum = r.gen("l1") + r.gen("l2") + r.gen("l3")
    for d, (num, a) in zip(range(4, 11), divisions):
        q = 3 * d * (d - 2) * h - 3 * (d - 2) * kept + d * (d - 1) ** 2 * l_sum
        assert q * a == num


# -- r_value -----------------------------------------------------------------


def test_r_value_table():
    assert r_value(4) == 6
    assert r_value(5) == 1
    assert r_value(7) == 3
    with pytest.raises(DegreeTooSmall):
        r_value(3)


@pytest.mark.parametrize("d", range(4, 13))
def test_r_parity_law(d):
    assert (r_value(d) % 2 == 0) == (d % 2 == 0)


def test_r_value_closed_form_holds_far_past_the_samples():
    # the argument in the r_value docstring: r(d) depends on d mod 6 only
    for d in range(4, 200_001):
        assert r_value(d) == gcd(2, d) * gcd(3, d * (d - 1)), d


# -- projection formula (property) --------------------------------------------


def degree_one_no_t(rng):
    r = POINT_RING
    coeffs = [rng.randint(-4, 4) for _ in range(4)]
    gens = [r.gen("l1"), r.gen("l2"), r.gen("l3"), r.gen("h")]
    p = r.zero
    for c, g in zip(coeffs, gens):
        p = p + c * g
    return p


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_projection_formula(seed):
    rng = random.Random(seed)
    r = POINT_RING
    x = degree_one_no_t(rng)
    # random p of modest degree in l's, h, t
    p = r.zero
    for _ in range(rng.randint(1, 5)):
        term = r.const(rng.randint(-3, 3))
        for name in ("l1", "l2", "l3", "h", "t"):
            term = term * r.gen(name) ** rng.randint(0, 1)
        p = p + term
    assert fiber_pushforward(x * p, "t") == x * fiber_pushforward(p, "t")
