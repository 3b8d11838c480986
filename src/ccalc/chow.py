"""
Worksheets for the equivariant classes of singular plane-curve loci.

The setting: plane curves of degree d, acted on by the torus of GL3 with
weights l1, l2, l3.  A curve singular at an assigned point lies in the
intersection of three hyperplanes H_i with torus-equivariant classes
h + (d-1)t + l_i, where h is the hyperplane class of the curve space and t
the hyperplane class of the point's P^2.  Everything here is exact integer
arithmetic in the graded towers of `rings`; the payoff is the gcd ("content")
of each locus class in a fixed degree-1 basis, which controls the torsion
bookkeeping downstream.

Two loci are computed:

* the locus of curves singular somewhere (class over the full curve space,
  basis {h, c1}), and
* the residual two-singular-point locus: an excess-intersection computation
  on the incidence space with two point factors s and t, pushed forward,
  divided exactly by the one-point class, and reduced symmetrically to the
  basis {hz, u, c1} of the universal singular-point space.
"""

from math import gcd

from . import CcalcError
from .rings import (
    NotAFiberGenerator,
    NotDivisible,
    Ring,
    exact_divide,
    symmetric_reduce,
)


class DegreeTooSmall(CcalcError, ValueError):
    pass


def require_degree(d, minimum):
    """The one curve-degree guard: DegreeTooSmall unless d is an int >= minimum."""
    if not (isinstance(d, int) and d >= minimum):
        raise DegreeTooSmall("need curve degree >= %d, got %r" % (minimum, d))


def _split_cubic():
    """Relation list for x^3 = e1 x^2 - e2 x + e3 over the roots l1,l2,l3."""
    return (
        3,
        [
            [(-1, {"l1": 1}), (-1, {"l2": 1}), (-1, {"l3": 1})],
            [
                (1, {"l1": 1, "l2": 1}),
                (1, {"l1": 1, "l3": 1}),
                (1, {"l2": 1, "l3": 1}),
            ],
            [(-1, {"l1": 1, "l2": 1, "l3": 1})],
        ],
    )


# One-point incidence ring: P^2 fiber t over base Z[l1,l2,l3], curve-space
# hyperplane h left relation-free below the working degree.
POINT_RING = Ring(
    ["l1", "l2", "l3", "h", "t"],
    relations={"t": _split_cubic(), "h": None},
    cap=6,
)

# Two-point incidence ring: independent P^2 fibers s and t.
TWOPOINT_RING = Ring(
    ["l1", "l2", "l3", "h", "s", "t"],
    relations={"s": _split_cubic(), "t": _split_cubic(), "h": None},
    cap=6,
)

# Chern-class target for the one-point computation, basis {h, c1} in degree 1.
CURVE_BASE = Ring(["h", ("c1", 1), ("c2", 2), ("c3", 3)])

# Chern-class target for the two-point computation: hz is the hyperplane
# class of the universal singular-point space, u the class pulled back from
# its point factor.
SINGULAR_BASE = Ring(["hz", ("c1", 1), "u", ("c2", 2), ("c3", 3)])


class LocusClassReport:
    """A degree-1 locus class with its divisibility bookkeeping.

    Fields: degree (the curve degree d), poly (the class), basis_coefficients
    (integers on the declared degree-1 basis), content (gcd of those),
    expected_divisor (always >= 1) and divisibility_ok.
    """

    def __init__(self, degree, poly, basis, expected_divisor):
        self.degree = degree
        self.poly = poly
        self.basis_coefficients = {name: _unit_coeff(poly, name) for name in basis}
        self.content = poly.content()
        self.expected_divisor = expected_divisor
        self.divisibility_ok = self.content % expected_divisor == 0

    def to_json(self):
        return {
            "d": self.degree,
            "class": str(self.poly),
            "coefficients": dict(self.basis_coefficients),
            "content": self.content,
            "expected_divisor": self.expected_divisor,
            "ok": self.divisibility_ok,
        }

    def __repr__(self):
        return "LocusClassReport(d=%d, %s)" % (self.degree, self.poly)


def _unit_coeff(poly, name):
    i = poly.ring.index[name]
    e = tuple(1 if j == i else 0 for j in range(poly.ring.ngens))
    return poly.terms.get(e, 0)


def fiber_pushforward(p, fiber):
    """Integration along a fiber generator with a monic relation of degree n:
    extracts the coefficient of fiber^(n-1).  Sends fiber^(n-1) to 1 and all
    lower powers to 0, and drops total degree by n-1.
    """
    ring = p.ring
    if fiber not in ring.index or ring.index[fiber] not in ring.rel:
        raise NotAFiberGenerator(fiber)
    n = ring.rel[ring.index[fiber]][0]
    return p.coefficient(fiber, n - 1)


def class_ztilde(d):
    """Product of the three hyperplane classes h + (d-1)t + l_i cutting out
    a curve singular at the universal point of the t-fiber."""
    require_degree(d, 3)
    r = POINT_RING
    h, t = r.gen("h"), r.gen("t")
    cls = r.one
    for i in (1, 2, 3):
        cls = cls * (h + (d - 1) * t + r.gen("l%d" % i))
    return cls


def beta1_order(d):
    """Order of the degree-1 invariant attached to the singular locus:
    3^{i_d}(d-1)^2 with i_d = 1 exactly when 3 | d.

    It is the content of class_z(d) = 3(d-1)^2 h - d(d-1)^2 c1, which is
    gcd(3(d-1)^2, d(d-1)^2) = (d-1)^2 gcd(3, d), and gcd(3, d) is 3 when
    3 | d and 1 otherwise.
    """
    require_degree(d, 3)
    return (3 if d % 3 == 0 else 1) * (d - 1) ** 2


def class_z(d):
    """Class of the singular-curve locus: push the three-plane product down
    the point fiber and rewrite symmetrically over the basis {h, c1}.

    The result is 3(d-1)^2 h - d(d-1)^2 c1 for every d >= 3.  Each of the
    three planes is linear in d, and the pushforward and the symmetric
    reduction are Z-linear maps that do not depend on d, so both coefficients
    are polynomials of degree <= 3 in d.  Two such polynomials that agree at
    four values of d agree everywhere, and tests/test_chow.py checks four.
    """
    pushed = fiber_pushforward(class_ztilde(d), "t")
    cls = symmetric_reduce(pushed, CURVE_BASE)
    return LocusClassReport(d, cls, ("h", "c1"), beta1_order(d))


def r_value(d):
    """gcd(d(d-1)^2, 3(d-2)): the content of the two-singular-point class.

    For every d >= 4, r(d) = gcd(2, d) * gcd(3, d(d-1)), so r depends on d
    mod 6 only, and the samples d = 4..12 of
    checks.check_torsion_bookkeeping meet every residue.  Write A = d(d-1)^2
    and B = d - 2.  Since d = 2 (mod B), A = 2 (mod B), so gcd(A, B) divides
    2, and r = gcd(A, 3B) divides 3*gcd(A, B), hence 6.  A is always even,
    so 2 | r exactly when B is even, that is when d is even.  3 divides 3B,
    so 3 | r exactly when 3 | A, that is when d = 0 or 1 (mod 3).
    """
    require_degree(d, 4)
    return gcd(d * (d - 1) ** 2, 3 * (d - 2))


def class_bin(d, push_fiber="t"):
    """Residual class of curves with a second singular point.

    Pipeline on the two-point incidence ring: form the product xi of both
    three-plane classes, push forward along one point fiber, subtract the
    excess contribution supported on the diagonal (degree-1 part
    2*sum_i(class of H_i) - c1 of the embedding's normal bundle, multiplied
    by the surviving three-plane class), divide exactly by that class, and
    reduce symmetrically to the singular-point-space basis {hz, u, c1}, with
    h renamed to hz and the kept fiber to u on the way into the splitting
    tower.  Either fiber may be the pushforward direction; the result is
    identical.

    The quotient is unique, for any d: the ring is A[h] with A =
    Z[l1,l2,l3][s,t] modulo the two cubic relations, since h has no
    relation and occurs in none, and a = prod(h + (d-1)*kept + l_i) is monic
    of degree 3 in h.  In A[h] multiplication by a monic element is
    injective (the top h-coefficient of x*a is that of x), so long division
    by a in h (``exact_divide``) finds the one quotient there is.  Its
    products have the numerator's degree 4, below the cap of 6.

    The quotient is Q = 3d(d-2) h - 3(d-2)*kept + d(d-1)^2 (l1 + l2 + l3)
    for every d >= 4, renamed to 3d(d-2) hz - 3(d-2) u - d(d-1)^2 c1.  The
    planes are linear in d, so a and b have coefficients of degree <= 3 in
    d, the excess of degree <= 1, and both the numerator and Q*a of degree
    <= 6.  Agreement at seven values of d, which tests/test_chow.py checks,
    makes numerator = Q*a an identity in d, and uniqueness makes Q the
    quotient.  The content of the class is then
    gcd(3d(d-2), 3(d-2), d(d-1)^2) = gcd(d(d-1)^2, 3(d-2)) = r_value(d),
    since 3(d-2) divides 3d(d-2).
    """
    require_degree(d, 4)
    if push_fiber not in ("s", "t"):
        raise NotAFiberGenerator(push_fiber)
    kept = "s" if push_fiber == "t" else "t"
    r = TWOPOINT_RING
    h = r.gen("h")
    ls = [r.gen("l%d" % i) for i in (1, 2, 3)]

    planes_kept = [h + (d - 1) * r.gen(kept) + l for l in ls]
    planes_pushed = [h + (d - 1) * r.gen(push_fiber) + l for l in ls]
    a = planes_kept[0] * planes_kept[1] * planes_kept[2]
    b = planes_pushed[0] * planes_pushed[1] * planes_pushed[2]
    xi = a * b

    # Excess term along the diagonal: twice the sum of the plane classes
    # minus the first Chern class of the diagonal's normal bundle (the
    # tangent directions of the point plane), all restricted to the diagonal
    # where both point fibers agree with the kept one.
    sum_planes = planes_kept[0] + planes_kept[1] + planes_kept[2]
    c1_normal = sum_planes + 3 * r.gen(kept) + ls[0] + ls[1] + ls[2]
    excess = 2 * sum_planes - c1_normal

    num = fiber_pushforward(xi, push_fiber) - excess * a
    quotient = exact_divide(num, a, monic_in="h")
    if quotient.contains(push_fiber):
        raise NotDivisible("quotient still involves the pushed fiber %r" % push_fiber)

    cls = symmetric_reduce(quotient, SINGULAR_BASE, {"h": "hz", kept: "u"})
    return LocusClassReport(d, cls, ("hz", "u", "c1"), r_value(d))
