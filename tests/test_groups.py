"""Group-descriptor evaluators: torsion orders, Brauer-group shapes, and the
cross-checks tying them to the intersection layer."""

import re
import time
from math import gcd

import pytest

from ccalc.chow import DegreeTooSmall, class_bin, class_z, class_ztilde, r_value
from ccalc.groups import (
    GroupDescriptor,
    GroupsError,
    UndeterminedTorsion,
    UnsupportedCharacteristic,
    beta1_order,
    brauer_stack,
    brauer_xd,
    consistency_report,
    hyperelliptic_divisibility,
    n_torsion,
)
from ccalc.groups import _MR_BOUND, _is_prime


# -- descriptors ----------------------------------------------------------------


def test_descriptor_drops_order_one_and_ignores_ordering():
    a = GroupDescriptor(cyclic=[1, 2], field_summands=["Br(k)"])
    b = GroupDescriptor(cyclic=[2], field_summands=["Br(k)"])
    assert a == b
    assert str(a) == "Br(k) ⊕ Z/2"
    c = GroupDescriptor(cyclic=[2, 9])
    d = GroupDescriptor(cyclic=[9, 2])
    assert c == d and hash(c) == hash(d)


def test_descriptor_validation_and_rendering():
    with pytest.raises(GroupsError):
        GroupDescriptor(cyclic=[0])
    assert str(GroupDescriptor()) == "trivial group"
    assert GroupDescriptor().to_json() == {"summands": [], "placeholder": False}
    full = GroupDescriptor(
        cyclic=[2],
        field_summands=["Br(k)", "H^1(k, Z/9)"],
        placeholder_label="B_5",
    )
    assert str(full) == "Br(k) ⊕ H^1(k, Z/9) ⊕ Z/2 ⊕ B_5"
    data = full.to_json()
    assert data["placeholder"] is True
    assert data["summands"][-1] == "B_5"


# -- torsion orders -------------------------------------------------------------


def test_beta1_order_values():
    assert beta1_order(4) == 9
    assert beta1_order(5) == 16
    assert beta1_order(6) == 75
    with pytest.raises(DegreeTooSmall):
        beta1_order(2)


@pytest.mark.parametrize("d", range(3, 13))
def test_beta1_order_matches_locus_class_content(d):
    assert beta1_order(d) == class_z(d).content


def test_n_torsion_values():
    assert n_torsion(4) == 2
    assert n_torsion(5) == 1
    assert n_torsion(8) == 2 and r_value(8) == 2
    with pytest.raises(DegreeTooSmall):
        n_torsion(3)


def _xdfr(d):
    return brauer_stack("xdfr", d=d)


# Every curve-degree entry point of chow and groups, with its minimum degree.
DEGREE_ENTRY_POINTS = (
    (class_ztilde, 3), (class_z, 3), (beta1_order, 3), (r_value, 4), (class_bin, 4),
    (n_torsion, 4), (brauer_xd, 3), (_xdfr, 3),
)


@pytest.mark.parametrize("bad", [4.0, 5.5, "5", None, True])
def test_a_degree_that_is_not_an_int_raises_degree_too_small(bad):
    for entry, minimum in DEGREE_ENTRY_POINTS:
        if entry is _xdfr and bad is None:  # "xdfr needs the degree d", a GroupsError
            continue
        pinned = "need curve degree >= %d, got %r" % (minimum, bad)
        with pytest.raises(DegreeTooSmall, match="^%s$" % re.escape(pinned)):
            entry(bad)


def test_a_degree_below_the_minimum_keeps_its_message():
    for entry, minimum in DEGREE_ENTRY_POINTS:
        pinned = "need curve degree >= %d, got %d" % (minimum, minimum - 1)
        with pytest.raises(DegreeTooSmall, match="^%s$" % re.escape(pinned)):
            entry(minimum - 1)


@pytest.mark.parametrize("d", range(4, 13))
def test_n_torsion_matches_parity_of_r(d):
    assert n_torsion(d) == gcd(2, r_value(d))


# -- Brauer group of the plane-curve stack --------------------------------------


def test_brauer_xd_table():
    orders = {3: 3, 4: 2, 5: 1, 6: 6, 7: 1, 8: 2, 9: 3, 10: 2}
    for d, n in orders.items():
        desc = brauer_xd(d)
        if n == 1:
            assert str(desc) == "trivial group"
        else:
            assert str(desc) == "Z/%d" % n


def test_brauer_xd_positive_characteristic():
    desc = brauer_xd(4, char=7)
    assert str(desc) == "Z/2 ⊕ B'_{7,4}"
    assert desc.p_primary_placeholder
    with pytest.raises(UnsupportedCharacteristic):
        brauer_xd(4, char=2)
    with pytest.raises(UnsupportedCharacteristic):
        brauer_xd(4, char=3)
    with pytest.raises(UnsupportedCharacteristic):
        brauer_xd(10, char=5)
    with pytest.raises(UnsupportedCharacteristic):
        brauer_xd(4, char=9)
    with pytest.raises(DegreeTooSmall):
        brauer_xd(2)


@pytest.mark.parametrize("d", range(3, 31))
def test_brauer_xd_order_splits_into_primary_parts(d):
    assert gcd(d, 6) == gcd(d, 2) * gcd(d, 3)


# -- Brauer groups of the framed and genus-3 stacks -------------------------------


def test_xdfr_closed_field():
    assert str(brauer_stack("xdfr", d=5, closed=True)) == "trivial group"
    assert str(brauer_stack("xdfr", d=4, closed=True)) == "Z/2"
    withp = brauer_stack("xdfr", d=4, char=7, closed=True)
    assert str(withp) == "Z/2 ⊕ B_{4,7}"


def test_xdfr_odd_degree_any_field():
    assert str(brauer_stack("xdfr", d=5)) == "Br(k) ⊕ H^1(k, Z/16)"
    assert str(brauer_stack("xdfr", d=9)) == "Br(k) ⊕ H^1(k, Z/192)"
    # positive characteristic keeps the same shape (no placeholder recorded)
    assert brauer_stack("xdfr", d=5, char=3) == brauer_stack("xdfr", d=5)


def test_xdfr_quartic_matches_the_genus3_open_locus():
    quartic = brauer_stack("xdfr", d=4)
    assert str(quartic) == "Br(k) ⊕ H^1(k, Z/9) ⊕ Z/2"
    assert quartic == brauer_stack("m3_minus_h3")
    assert quartic == brauer_stack("x4fr")
    # M_3 minus H_3 is the framed quartic stack in every allowed characteristic
    for p in (0, 3, 5, 7, 11, 10 ** 18 + 3):
        open_locus = brauer_stack("m3_minus_h3", char=p)
        framed = brauer_stack("x4fr", char=p)
        assert str(open_locus) == str(framed) == str(quartic)
        assert open_locus.to_json() == framed.to_json() == quartic.to_json()


def test_xdfr_even_degree_refuses_over_general_fields():
    with pytest.raises(UndeterminedTorsion):
        brauer_stack("xdfr", d=6)
    with pytest.raises(UndeterminedTorsion):
        brauer_stack("xdfr", d=8)


def test_xdfr_parameter_errors():
    with pytest.raises(GroupsError):
        brauer_stack("xdfr")
    with pytest.raises(UnsupportedCharacteristic):
        brauer_stack("xdfr", d=4, char=2)
    with pytest.raises(UnsupportedCharacteristic):
        brauer_stack("xdfr", d=9, char=3)
    with pytest.raises(GroupsError):
        brauer_stack("x5fr")


def test_genus3_stacks():
    assert str(brauer_stack("m3")) == "Br(k) ⊕ Z/2"
    assert str(brauer_stack("m3", char=5)) == "Br(k) ⊕ Z/2 ⊕ B_5"
    assert str(brauer_stack("a3")) == "Br(k) ⊕ Z/2"
    assert str(brauer_stack("a3", char=5)) == "Br(k) ⊕ Z/2 ⊕ B''_5"
    assert brauer_stack("m3") == brauer_stack("a3")
    assert brauer_stack("m3", char=5) != brauer_stack("a3", char=5)
    for stack in ("m3", "m3_minus_h3", "a3"):
        with pytest.raises(UnsupportedCharacteristic):
            brauer_stack(stack, char=2)


# -- primality of the characteristic -----------------------------------------------


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == [
        n for n in range(10 ** 5) if _trial_division(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1)


def test_large_prime_characteristic_is_fast():
    start = time.perf_counter()
    desc = brauer_stack("m3", char=10 ** 18 + 3)
    assert time.perf_counter() - start < 1.0
    assert str(desc) == "Br(k) ⊕ Z/2 ⊕ B_%d" % (10 ** 18 + 3)
    assert str(brauer_stack("m3", char=5)) == "Br(k) ⊕ Z/2 ⊕ B_5"


def test_characteristic_beyond_the_primality_bound_is_unsupported():
    with pytest.raises(UnsupportedCharacteristic):
        brauer_stack("m3", char=_MR_BOUND)
    with pytest.raises(UnsupportedCharacteristic):
        brauer_xd(4, char=_MR_BOUND + 2)


# -- hyperelliptic divisibility ----------------------------------------------------


def test_hyperelliptic_divisibility():
    result = hyperelliptic_divisibility()
    assert result.value == 18
    assert result.factors == (9, 2)
    # the coefficient of [H_3] is the order of Pic(M_3 - H_3), i.e. beta_1(4)
    assert result.factors[0] == beta1_order(4)
    assert result.factors[0] * result.factors[1] == result.value
    # the 2-part of 18 is the Z/2 used in the genus-3 descriptors
    assert result.value & -result.value == 2


# -- cross-module consistency -------------------------------------------------------


def test_consistency_report_all_green():
    report = consistency_report()
    assert len(report) > 30
    bad = [name for name, ok in report if not ok]
    assert bad == []
