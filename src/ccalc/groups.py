"""
Abstract abelian-group descriptors for the Brauer-group and torsion-order
bookkeeping attached to the moduli stacks of plane curves and genus-3 curves.

Two numbers are computed by the intersection layer: beta_1's order
3^{i_d}(d-1)^2, the content of the singular-locus class (`chow.beta1_order`),
and the kernel-of-doubling order gcd(2, r(d)) = gcd(2, d), with r(d) the
content of the two-singular-point class (`n_torsion`).  `consistency_report`
ties both back to `chow`.  The framed descriptors and M_3 - H_3 read their
H^1 order from beta1_order and their 2-torsion from gcd(2, d) (which is
n_torsion(d) from d = 4 on), and `hyperelliptic_divisibility` reads its 9
as beta1_order(4).

The rest is input taken from the paper: Br(X_d) = Z/gcd(d, 6) over a closed
field; the shape Br(k) + H^1(k, Z/beta_1(d)) + Z/gcd(2, d) of the framed
stacks where their 2-torsion is determined; the identification of
M_3 - H_3 with the framed quartic stack; Br(k) + Z/2 for M_3 and A_3; and
the Torelli degree 2.  Galois cohomology of the base field is never
computed: Br(k) and H^1(k, Z/n) enter as opaque named summands, and the
undetermined p-primary torsion parts are carried as labelled placeholders,
never expanded.  A descriptor's cyclic summands are plain orders.
"""

from collections import namedtuple
from math import gcd

from .chow import DegreeTooSmall, beta1_order, class_z, r_value


class GroupsError(Exception):
    pass


class UnsupportedCharacteristic(GroupsError):
    pass


class UndeterminedTorsion(GroupsError):
    pass


class GroupDescriptor:
    """A finite direct sum: opaque field summands, cyclic pieces, and an
    optional p-primary placeholder.

    cyclic entries are the plain orders of the cyclic summands; order-1
    entries are dropped on construction so equality and rendering agree.
    Equality is multiset equality of the remaining summands.
    """

    def __init__(self, cyclic=(), field_summands=(), placeholder_label=None):
        kept = []
        for order in cyclic:
            if not (isinstance(order, int) and order >= 1):
                raise GroupsError("cyclic order must be a positive integer")
            if order > 1:
                kept.append(order)
        self.cyclic = tuple(kept)
        self.field_summands = tuple(field_summands)
        self.placeholder_label = placeholder_label

    @property
    def p_primary_placeholder(self):
        return self.placeholder_label is not None

    def _key(self):
        # placeholder labels are structure: differently-named unknown groups
        # need not agree
        return (
            tuple(sorted(self.cyclic)),
            tuple(sorted(self.field_summands)),
            self.placeholder_label,
        )

    def __eq__(self, other):
        return isinstance(other, GroupDescriptor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def summands(self):
        out = list(self.field_summands)
        out.extend("Z/%d" % order for order in self.cyclic)
        if self.placeholder_label is not None:
            out.append(self.placeholder_label)
        return out

    def __str__(self):
        parts = self.summands()
        return " ⊕ ".join(parts) if parts else "trivial group"

    __repr__ = __str__

    def to_json(self):
        data = {"summands": self.summands(), "placeholder": self.p_primary_placeholder}
        if self.placeholder_label is not None:
            data["placeholder_label"] = self.placeholder_label
        return data


def _require_degree(d, minimum):
    if not (isinstance(d, int) and d >= minimum):
        raise DegreeTooSmall("need an integer degree d >= %d, got %r" % (minimum, d))


# Strong-probable-prime tests to the first thirteen prime bases decide
# primality exactly for every n below this bound (Sorenson and Webster, 2017;
# the first twelve bases, 2..37, stop at 3.18e23).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; UnsupportedCharacteristic from _MR_BOUND up."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise UnsupportedCharacteristic(
            "characteristic %d is too large to certify as a prime (limit %d)"
            % (n, _MR_BOUND - 1)
        )
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_char(char, excluded, d=None):
    """char is 0 or a prime outside `excluded` (and coprime to d if given)."""
    if char == 0:
        return
    if not _is_prime(char):
        raise UnsupportedCharacteristic("characteristic must be 0 or a prime")
    if char in excluded:
        raise UnsupportedCharacteristic(
            "characteristic %d is excluded here" % char
        )
    if d is not None and d % char == 0:
        raise UnsupportedCharacteristic(
            "characteristic %d divides the degree %d" % (char, d)
        )


def n_torsion(d):
    """Order of the kernel of doubling on Z/r, r = gcd(d(d-1)^2, 3(d-2)):
    2 for even d, 1 for odd d.

    For even d both d(d-1)^2 and 3(d-2) are even, so 2 | r.  For odd d,
    3(d-2) is odd, so r is odd.  Hence gcd(2, r) = gcd(2, d) for every d >= 4.
    """
    _require_degree(d, 4)
    return 2 if d % 2 == 0 else 1


def brauer_xd(d, char=0):
    """Brauer group of the stack of smooth plane degree-d curves over an
    algebraically closed field: Z/gcd(d,6), plus a p-primary placeholder in
    positive characteristic."""
    _require_degree(d, 3)
    _require_char(char, excluded=(2, 3), d=d)
    placeholder = "B'_{%d,%d}" % (char, d) if char else None
    return GroupDescriptor(cyclic=[gcd(d, 6)], placeholder_label=placeholder)


# The p-primary placeholders of the genus-3 stacks M_3 and A_3, formatted with
# a positive characteristic: the rest of both groups is Br(k) + Z/2.
_GENUS3 = {"m3": "B_%d", "a3": "B''_%d"}


def brauer_stack(stack, d=None, char=0, closed=False):
    """Brauer-group descriptors for every stack: the plane-curve stack X_d,
    the framed plane-curve stacks and the genus-3 stacks.

    stack: one of "xd", "xdfr", "x4fr", "m3", "m3_minus_h3", "a3".  "xd" is
    `brauer_xd(d, char)`.  For "xdfr" pass d and whether the base field is
    algebraically closed.  The framed stack's group is
    Br(k) + H^1(k, Z/beta_1(d)) + Z/gcd(2, d) wherever its 2-torsion summand
    is determined: for odd d, for d = 4, and over a closed field, where the
    field summands vanish (and a p-primary placeholder joins in positive
    characteristic).  For even d > 4 over a non-closed field that summand is
    only bounded and UndeterminedTorsion is raised.  "x4fr" is "xdfr" at
    d = 4, and so is "m3_minus_h3": the non-hyperelliptic locus of M_3 is the
    framed plane-quartic stack.  "m3" and "a3" are Br(k) + Z/2 (the class
    alpha_2) with a p-primary placeholder in positive characteristic.
    """
    if stack == "xd":
        return brauer_xd(d, char=char)
    if stack == "x4fr":
        return brauer_stack("xdfr", d=4, char=char, closed=closed)
    if stack == "m3_minus_h3":
        return brauer_stack("xdfr", d=4, char=char)
    if stack == "xdfr":
        if d is None:
            raise GroupsError("xdfr needs the degree d")
        _require_degree(d, 3)
        _require_char(char, excluded=(2,), d=d)
        if closed:
            placeholder = "B_{%d,%d}" % (d, char) if char else None
            return GroupDescriptor(cyclic=[gcd(2, d)], placeholder_label=placeholder)
        if d % 2 == 0 and d > 4:
            raise UndeterminedTorsion(
                "for even d > 4 over a non-closed field the 2-torsion summand N "
                "is only bounded (N <= Z/2); pass closed=True or d=4"
            )
        summands = ["Br(k)", "H^1(k, Z/%d)" % beta1_order(d)]
        return GroupDescriptor(cyclic=[gcd(2, d)], field_summands=summands)
    if stack not in _GENUS3:
        raise GroupsError("unknown stack %r" % (stack,))
    _require_char(char, excluded=(2,))
    label = _GENUS3[stack] % char if char else None
    return GroupDescriptor(cyclic=[2], field_summands=["Br(k)"], placeholder_label=label)


DivisibilityResult = namedtuple("DivisibilityResult", ["value", "factors"])


def hyperelliptic_divisibility():
    """Divisibility of the image of the hyperelliptic divisor class under the
    degree-2 Torelli map: 9 * 2 = 18.

    Pic(M_3) = Z lambda and the hyperelliptic divisor has class
    [H_3] = 9 lambda, so the localisation sequence
    Z[H_3] -> Pic(M_3) -> Pic(M_3 - H_3) -> 0 makes the coefficient of [H_3]
    the order of Pic(M_3 - H_3).  That complement is the framed plane-quartic
    stack, whose degree-1 invariant has order beta_1(4) = 9, the content of
    class_z(4) = 27h - 36c1; so the coefficient is read as beta1_order(4).
    The Torelli degree 2 is an input from the paper.
    """
    hyperelliptic_coefficient = beta1_order(4)
    torelli_degree = 2
    return DivisibilityResult(
        value=hyperelliptic_coefficient * torelli_degree,
        factors=(hyperelliptic_coefficient, torelli_degree),
    )


def consistency_report():
    """Cross-module checks tying the group orders back to the intersection
    layer for curve degrees up to 12; returns a list of (name, ok) pairs,
    all expected True."""
    checks = []
    for d in range(3, 13):
        checks.append(
            ("beta1_order(%d) == content of the degree-%d locus class" % (d, d),
             beta1_order(d) == class_z(d).content)
        )
    for d in range(4, 13):
        checks.append(
            ("n_torsion(%d) == gcd(2, r_value(%d))" % (d, d),
             n_torsion(d) == gcd(2, r_value(d)))
        )
    for d in range(3, 31):
        checks.append(
            ("gcd(%d,6) splits into its 2-part and 3-part" % d,
             gcd(d, 6) == gcd(d, 2) * gcd(d, 3))
        )
    return checks
