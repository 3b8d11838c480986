"""
Exact arithmetic in graded polynomial towers over the integers.

A ring here is an ordered tower of generators, each carrying a positive
integer degree.  A generator is either *free* or a *fiber* generator with one
monic relation

    g^n = -(r_1*g^(n-1) + ... + r_n),

whose coefficients r_k are polynomials in strictly earlier generators (so the
tower is acyclic and normal forms exist: every fiber exponent stays below its
relation degree).  This is exactly the presentation shape of a projective
bundle's Chow ring over its base, which is all we need.

Some of the rings we care about also have a relation far above any degree we
ever touch (the hyperplane class of a huge projective space).  Rather than
computing those relations, a ring may declare such a generator with relation
``None`` together with a working-degree ``cap``; any operation that would
produce a term of degree > cap raises TruncationExceeded instead of silently
working in the wrong quotient.  Degrees <= cap are exact.

Coefficients are arbitrary-precision ints throughout, the long division of
``exact_divide`` included: the divisibility bookkeeping downstream (gcds of
class coefficients) has zero tolerance.

A monomial is stored as one packed int.  With G = 32 * ngens, the exponent
of generator j takes bits [32j, 32j + 32) and the graded degree
sum(e_j * deg(g_j)) takes the top field, from bit G up.  Multiplying two
monomials is then one integer addition, a monomial's degree is ``e >> G``,
and since the degree field is the most significant, the largest key of a
polynomial carries its top degree.  Every stored polynomial has degree at
most DEGREE_LIMIT = 2^31 - 1, so an exponent (never more than its
monomial's degree) fits in 31 bits, the fields of a product stay below 2^32
and no field carries into the next; a result above the limit raises
RingError.  Every monomial inside the ring is packed, the relations in
``Ring.rel`` and the output of ``Ring.monomials_of_degree`` included;
``Poly.terms`` is the one view keyed by exponent tuples.  Terms print in
tower order: by degree, then by the exponent of the first generator, the
second and so on, the larger exponent first.

Normal forms are reached by one rewrite, ``Ring._rewrite``: a monomial
m*g^k of a fiber g with relation degree n <= k becomes m times the normal
form of g^k, read from g's power table.  Its input is grouped by k, one dict
per exponent, so each group reads its table entry once.  A product of two
normal forms is multiplied out grouped the same way: its terms are split by
their exponent k of the top fiber, the groups with k below the relation
degree go straight into the result, and those at or above it are merged and
then rewritten.  The lower fibers then get the passes of any other input:
each pass keeps the terms of its fiber below n and rewrites the others.  A
relation-free ring only multiplies out and checks degrees.

A map between towers is a renaming of generators of equal degree
(``substitute``), done on packed monomials: each exponent field moves to its
image's field, and the merged terms get the target's fiber passes and degree
check like any product, so its relations and cap reduce them.  The one map
that is not a renaming, l3 = -(c1 + l1 + l2) in ``symmetric_reduce``, is a
degree-1 relation of its splitting tower; a renaming can be applied on the
way into that tower.
"""

from functools import reduce
from math import gcd
from operator import or_

from . import CcalcError

_FIELD = 32
_MASK = (1 << _FIELD) - 1
DEGREE_LIMIT = 2 ** 31 - 1


class RingError(CcalcError):
    pass


class DuplicateGenerator(RingError):
    pass


class CyclicTower(RingError):
    pass


class NonMonicRelation(RingError):
    pass


class UnknownGenerator(RingError):
    pass


class RingMismatch(RingError):
    pass


class DegreeMismatch(RingError):
    pass


class NotHomogeneous(RingError):
    pass


class NotSymmetric(RingError):
    pass


class NotDivisible(RingError):
    pass


class TruncationExceeded(RingError):
    pass


class NotAFiberGenerator(RingError):
    pass


class Ring:
    """A graded polynomial tower.

    gens: iterable of names or (name, degree) pairs, in tower order.
    relations: map from fiber-generator name to either
        (n, [r_1, ..., r_n])  -- monic relation g^n = -(r_1 g^(n-1)+...+r_n),
                                 each r_k a raw term list (see Ring.poly)
                                 in strictly earlier generators;
        None                  -- relation omitted above the working degree
                                 (requires cap).
    cap: working degree; terms of degree > cap raise TruncationExceeded.

    Monomials are packed ints (see the module docstring): the exponent of
    generator j sits in bits [32j, 32j + 32), the graded degree above bit
    32 * ngens, and no polynomial of the ring may exceed degree
    DEGREE_LIMIT = 2^31 - 1 (RingError).  ``rel[i]`` is (n, rhs) for fiber
    generator i, rhs the packed normal-form term dict of
    -(r_1 g^(n-1) + ... + r_n), and ``monomials_of_degree`` lists packed
    monomials.  ``Poly.terms`` is a fresh tuple-keyed dict on every access.
    Terms print in tower order (see the module docstring), so the order of
    ``gens`` is also the print order.

    Normal forms are read from a power table per fiber generator g with
    relation degree n: entry k - n holds the normal form of g^k for k >= n.
    A table is filled lazily, one power at a time, up to the largest exponent
    of g that a normalization has met, so its size is set by the inputs seen
    and not by any fixed bound; nothing is built until the first rewrite.
    On a capped ring only the entries of degree <= cap are kept; those above
    are built for the normalization that needs them and then dropped.  The
    tables live as long as the ring, and their entries are never handed out
    as a Poly's terms.

    A product of two Polys on a ring with fibers is normalized as it is
    formed (``_product``; see the module docstring).  No product is cached.
    """

    def __init__(self, gens, relations=None, cap=None):
        names = []
        degrees = []
        for g in gens:
            if isinstance(g, str):
                name, deg = g, 1
            else:
                name, deg = g
            if name in names:
                raise DuplicateGenerator(name)
            if not (isinstance(deg, int) and deg > 0):
                raise DegreeMismatch("generator %r needs a positive integer degree" % name)
            names.append(name)
            degrees.append(deg)
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.ngens = len(self.names)
        self.cap = cap
        # Packed layout: _unit[j] is generator j (exponent field and degree).
        self._G = _FIELD * self.ngens
        self._shifts = tuple(_FIELD * j for j in range(self.ngens))
        self._unit = tuple((1 << s) + (d << self._G) for s, d in zip(self._shifts, degrees))
        self._bound = DEGREE_LIMIT if cap is None else min(cap, DEGREE_LIMIT)

        # self.rel[i] = (n, packed rhs); omitted relations get no entry.
        self.rel = {}
        relations = relations or {}
        for name in relations:
            self._at(name)
        for name, relspec in relations.items():
            if relspec is None:
                if cap is None:
                    raise NonMonicRelation(
                        "omitted relation for %r requires a working-degree cap" % name
                    )
                continue
            i = self.index[name]
            n, coeffs = relspec
            if not (isinstance(n, int) and n >= 1 and len(coeffs) == n):
                raise NonMonicRelation(
                    "relation for %r must give degree n >= 1 and exactly n coefficients" % name
                )
            rhs = {}
            for k, raw in enumerate(coeffs, start=1):
                for e, c in self._terms_from_raw(raw).items():
                    d, exps = e if type(e) is tuple else (e >> self._G, self._unpack(e))
                    for j in range(i, self.ngens):
                        if exps[j]:
                            raise CyclicTower(
                                "relation coefficient for %r references %r"
                                % (name, self.names[j])
                            )
                    if d != k * self.degrees[i]:
                        raise DegreeMismatch(
                            "coefficient r_%d of %r is not homogeneous of degree %d"
                            % (k, name, k * self.degrees[i])
                        )
                    # fold -r_k * g^(n-k) into the reduction polynomial; a
                    # tuple key lies above the limit, so the loop below raises
                    if type(e) is int:
                        e += (n - k) * self._unit[i]
                    rhs[e] = rhs.get(e, 0) - c
            self.rel[i] = (n, _nonzero(rhs))
        # Every relation is checked before any is found to lie above the limit.
        for i, (n, rhs) in self.rel.items():
            if rhs and n * self.degrees[i] > DEGREE_LIMIT:
                raise RingError(
                    "monomial of degree %d exceeds the degree limit %d"
                    % (n * self.degrees[i], DEGREE_LIMIT)
                )

        # Fibers in rewrite order and their lazy power tables.
        self._fiber_desc = tuple(sorted(self.rel, reverse=True))
        self._powers = {}

        self.zero = Poly(self, {})
        self.one = Poly(self, {0: 1})

    # -- construction -----------------------------------------------------

    def _at(self, name):
        """The tower index of a generator (UnknownGenerator if there is none)."""
        if name not in self.index:
            raise UnknownGenerator(name)
        return self.index[name]

    def gen(self, name):
        return Poly(self, {self._unit[self._at(name)]: 1})

    def const(self, c):
        c = int(c)
        if c == 0:
            return self.zero
        return Poly(self, {0: c})

    def poly(self, raw):
        """Build a Poly from a raw term list [(coeff, {name: exp}), ...]."""
        terms = self._terms_from_raw(raw)
        for e in terms:
            if type(e) is tuple:
                raise RingError(
                    "monomial of degree %d exceeds the degree limit %d" % (e[0], DEGREE_LIMIT)
                )
        return Poly(self, self._checked(self._reduce(terms, 0)))

    def _terms_from_raw(self, raw):
        """The packed term dict of a raw term list, merged, zeros dropped.

        A monomial above DEGREE_LIMIT, whose exponents may overflow their
        fields, is keyed by (degree, exponent tuple) instead.  Terms are
        merged first, so such a monomial makes ``poly`` raise RingError only
        if it survives; a relation coefficient is checked for a cyclic tower
        and its degree before the limit.
        """
        index, unit, degrees = self.index, self._unit, self.degrees
        terms = {}
        for c, mono in raw:
            e = d = 0
            for name, exp in mono.items():
                i = index.get(name)
                if i is None:
                    raise UnknownGenerator(name)
                if not (isinstance(exp, int) and exp >= 0):
                    raise RingError("bad exponent %r for %r" % (exp, name))
                e += exp * unit[i]
                d += exp * degrees[i]
            if d > DEGREE_LIMIT:
                e = (d, tuple(mono.get(name, 0) for name in self.names))
            terms[e] = terms.get(e, 0) + int(c)
        return _nonzero(terms)

    def _unpack(self, e):
        """The exponent tuple of a packed monomial."""
        return tuple((e >> s) & _MASK for s in self._shifts)

    # -- normal form -------------------------------------------------------

    def _checked(self, terms):
        """terms without zero coefficients, checked against the cap and the limit.

        terms is a dict the caller owns; it is returned itself when it holds
        no zero.  This is the one degree check of every normal form and
        product.  The top degree is the largest key shifted down to the
        degree field.  Terms above the cap raise TruncationExceeded only if
        they survive cancellation; a term above DEGREE_LIMIT raises
        RingError, which keeps every exponent field of a later product
        below 2^32.
        """
        out = _nonzero(terms) if 0 in terms.values() else terms
        if out:
            top = max(out) >> self._G
            if top > self._bound:
                if self.cap is not None and top > self.cap:
                    raise TruncationExceeded(
                        "term of degree %d exceeds working degree %d" % (top, self.cap)
                    )
                raise RingError(
                    "term of degree %d exceeds the degree limit %d" % (top, DEGREE_LIMIT)
                )
        return out

    def _product(self, left, right):
        """Normal form of the product of two packed term dicts (a ring with fibers).

        Grouped by the exponent of the top fiber, as the module docstring
        describes.
        """
        i = self._fiber_desc[0]
        n = self.rel[i][0]
        sh = self._shifts[i]
        groups = ({}, {})
        for split, terms in zip(groups, (left, right)):
            for e, c in terms.items():
                split.setdefault((e >> sh) & _MASK, []).append((e, c))
        out = {}
        high = {}
        for a, lterms in groups[0].items():
            for b, rterms in groups[1].items():
                k = a + b
                acc = out if k < n else high.setdefault(k, {})
                get = acc.get
                for e1, c1 in lterms:
                    for e2, c2 in rterms:
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2
        # A group of high may cancel, and _rewrite still extends the table up
        # to it.  That builds no extra entry: the top group k = A + B (A, B
        # the largest exponents in left and right) is the product of two
        # nonzero polynomials in free monomials, so it never cancels, and the
        # table reaches k for it anyway.
        self._rewrite(out, high, 0)
        return self._checked(self._reduce(out, 1))

    def _reduce(self, terms, start):
        """Run the fiber passes for self._fiber_desc[start:] over terms.

        One pass per fiber g (relation degree n), highest tower index first:
        the terms with g-exponent below n are kept, the nonzero ones at or
        above it are grouped by that exponent and rewritten (``_rewrite``).
        The normal form of g^k involves no generator above g, so the passes
        already made stay reduced, and lower fibers that overflow are left to
        their own later passes.  Normal forms are unique (monic division in a
        tower), so the result is independent of the order raw terms are fed
        in.  A pass extends the power table of g up to the largest exponent
        of g it meets with a nonzero coefficient (see Ring).  Each pass builds
        a fresh dict; zero coefficients may remain and are dropped by the
        caller (``_checked``).  With no passes to run, terms itself is
        returned.
        """
        fibers = self._fiber_desc
        for pos in range(start, len(fibers)):
            i = fibers[pos]
            n = self.rel[i][0]
            sh = self._shifts[i]
            out = {}
            high = {}
            for e, c in terms.items():
                k = (e >> sh) & _MASK
                if k < n:
                    out[e] = c
                elif c:
                    high.setdefault(k, {})[e] = c
            terms = self._rewrite(out, high, pos)
        return terms

    def _rewrite(self, out, high, pos):
        """Add each monomial m*g^k of high to out as m times table entry k - n.

        g is fiber self._fiber_desc[pos] with relation degree n, and high
        maps each k >= n to a dict of monomials of g-exponent k.  Zero
        coefficients are skipped, but the table of g is extended up to every
        k in high (``_fiber_powers``).  Returns out.
        """
        i = self._fiber_desc[pos]
        n = self.rel[i][0]
        table = self._powers.get(i, ())
        get = out.get
        for k, terms in high.items():
            if k - n >= len(table):
                table = self._fiber_powers(pos, k)
            row = table[k - n].items()
            strip = k * self._unit[i]
            for e, c in terms.items():
                if c:
                    base = e - strip
                    for e2, c2 in row:
                        key = base + e2
                        out[key] = get(key, 0) + c * c2
        return out

    def _fiber_powers(self, pos, top):
        """The power table of fiber self._fiber_desc[pos], filled up to g^top.

        Entry k - n holds the normal form of g^k (n the relation degree);
        entry k + 1 is g times entry k, rewritten once at g^n and then run
        through the lower-fiber passes.  On a capped ring only the entries of
        degree <= cap are kept: the others go to a copy that only the caller
        sees.
        """
        i = self._fiber_desc[pos]
        n, rhs = self.rel[i]
        step = self._unit[i]
        keep = None if self.cap is None else max(0, self.cap // self.degrees[i] - n + 1)
        table = self._powers.setdefault(i, [])
        while len(table) <= top - n:
            if len(table) == keep:
                table = list(table)
            if table:
                entry = self._reduce({e + step: c for e, c in table[-1].items()}, pos)
            else:
                entry = self._reduce(rhs, pos + 1)
            table.append(_nonzero(entry))
        return table

    def monomials_of_degree(self, d):
        """All packed normal-form monomials of graded degree d, in ascending
        order of their exponent tuples."""
        partial = [(0, d)] if d >= 0 else []
        for i, (step, unit) in enumerate(zip(self.degrees, self._unit)):
            n = self.rel[i][0] if i in self.rel else d + 1
            partial = [
                (e + k * unit, left - k * step)
                for e, left in partial
                for k in range(min(left // step, n - 1) + 1)
            ]
        return [e for e, left in partial if not left]

    def __repr__(self):
        return "Ring(%s)" % ", ".join(self.names)


class Poly:
    """Immutable element of a Ring, stored in normal form.

    The terms are kept privately with packed monomials as keys (see Ring);
    ``terms`` is a fresh dict keyed by exponent tuples on every access.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring, terms):
        _set_ring(self, ring)
        _set_terms(self, terms)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self):
        """{exponent tuple: coefficient}, a new dict on each access."""
        unpack = self.ring._unpack
        return {unpack(e): c for e, c in self._terms.items()}

    def _check(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.ring is not self.ring:
            raise RingMismatch("operands live in different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.ring, {e: c for e, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero
            return Poly(self.ring, {e: c * other for e, c in self._terms.items()})
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        # Packed monomials multiply by addition; both operands have degree
        # <= DEGREE_LIMIT, so no exponent field carries.
        ring = self.ring
        if ring._fiber_desc:
            return Poly(ring, ring._product(self._terms, other._terms))
        terms = {}
        get = terms.get
        other_items = other._terms.items()
        for e1, c1 in self._terms.items():
            for e2, c2 in other_items:
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
        return Poly(ring, ring._checked(terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        """self^k by square-and-multiply: O(log k) products."""
        if not (isinstance(k, int) and k >= 0):
            raise RingError("exponent must be a nonnegative integer")
        result, square = self.ring.one, self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        # a constant compares by value across rings, as it does with an int
        same = self.ring is other.ring or self._terms.keys() <= {0}
        return same and self._terms == other._terms

    def __hash__(self):
        # a constant (zero included) equals its int, so it hashes as one
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash((id(self.ring), frozenset(self._terms.items())))

    def is_zero(self):
        return not self._terms

    def homogeneous_degree(self):
        G = self.ring._G
        degs = {e >> G for e in self._terms}
        if len(degs) != 1:
            raise NotHomogeneous(str(self))
        return degs.pop()

    def contains(self, name):
        sh = self.ring._shifts[self.ring._at(name)]
        return any((e >> sh) & _MASK for e in self._terms)

    def coefficient(self, name, power):
        """The coefficient of name^power, with that generator stripped out."""
        i = self.ring._at(name)
        sh = self.ring._shifts[i]
        strip = power * self.ring._unit[i]
        return Poly(
            self.ring,
            {e - strip: c for e, c in self._terms.items() if (e >> sh) & _MASK == power},
        )

    def content(self):
        """gcd of the integer coefficients (0 for the zero Poly)."""
        return gcd(*self._terms.values())

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        ring = self.ring
        # Tower order: ascending degree, then descending exponent tuples; no
        # two keys tie, so the coefficients are never compared.
        items = sorted(
            (((-(e >> ring._G), ring._unpack(e)), c) for e, c in self._terms.items()),
            reverse=True,
        )
        chunks = []
        for (_, e), c in items:
            factors = [
                name if x == 1 else "%s^%d" % (name, x)
                for name, x in zip(ring.names, e)
                if x
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "%d*%s" % (abs(c), "*".join(factors))
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += " %s %s" % (sign, body)
        return text

    __repr__ = __str__


# The slot setters, bound once: __init__ sets through them, since
# Poly.__setattr__ raises.
_set_ring = Poly.ring.__set__
_set_terms = Poly._terms.__set__


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


# -- the ring-level operations the worksheets need --------------------------


def exact_divide(num, den, *, monic_in):
    """q with q*den == num, by long division in the generator monic_in.

    monic_in must be a generator h with no relation of its own that occurs
    in no relation, so the ring is A[h] over the ring A of the other
    generators, and den must be monic in h: its h^n coefficient is 1, n the
    top exponent of h in den.  While the remainder, num at first, has terms
    at h-exponent k >= n, the group of its terms at the top k, divided by
    h^n, joins the quotient, and that group times den is subtracted.  The
    product of a group with den has top h-exponent k and top coefficient the
    group's own, so each step clears exponent k.  Multiplication by a monic
    element of A[h] is injective, so the quotient is unique; a nonzero
    remainder of h-exponent below n raises NotDivisible, as do a divisor not
    monic in h and a generator h with a relation or in one.
    """
    ring = num.ring
    if den.ring is not ring:
        raise RingMismatch("operands live in different rings")
    if den.is_zero():
        raise NotDivisible("division by the zero element")
    i = ring._at(monic_in)
    sh = ring._shifts[i]
    if i in ring.rel:
        raise NotDivisible("%r has a relation" % monic_in)
    if any((e >> sh) & _MASK for _, rhs in ring.rel.values() for e in rhs):
        raise NotDivisible("%r occurs in a relation" % monic_in)
    n = max((e >> sh) & _MASK for e in den._terms)
    strip = n * ring._unit[i]
    if {e: c for e, c in den._terms.items() if (e >> sh) & _MASK == n} != {strip: 1}:
        raise NotDivisible("the divisor is not monic in %r" % monic_in)
    quotient = {}
    rem = num
    while rem._terms:
        k = max((e >> sh) & _MASK for e in rem._terms)
        if k < n:
            raise NotDivisible("nonzero remainder")
        group = {e - strip: c for e, c in rem._terms.items() if (e >> sh) & _MASK == k}
        quotient.update(group)
        rem = rem - Poly(ring, group) * den
    return Poly(ring, quotient)


def substitute(p, mapping, target=None):
    """The image of p under a renaming of generators.

    Each generator of p's ring that occurs in p goes to the target generator
    mapping.get(name, name) (target defaults to p's ring), which must have
    the same degree (DegreeMismatch otherwise).  An image that is not a name
    raises RingError, and one the target lacks UnknownGenerator.  The
    generators that occur are read off the OR of p's packed monomials and
    their images are checked once, in tower order, so of several bad images
    the first generator's is reported.  Each packed monomial then becomes
    the sum of its exponents times the target units of their images: the
    generators that land on one name add their exponents, and the degree is
    kept, so no field can overflow.  The merged terms go through the target's
    fiber passes and degree check, so terms cancel before the cap applies.
    """
    ring = p.ring
    target = ring if target is None else target
    occurs = reduce(or_, p._terms, 0)
    images = []
    for i, (name, sh) in enumerate(zip(ring.names, ring._shifts)):
        if (occurs >> sh) & _MASK:
            img = mapping.get(name, name)
            if not isinstance(img, str):
                raise RingError("image of %r must be a generator name" % name)
            j = target._at(img)
            if target.degrees[j] != ring.degrees[i]:
                raise DegreeMismatch(
                    "image of %r has degree %d, expected %d"
                    % (name, target.degrees[j], ring.degrees[i])
                )
            images.append((sh, target._unit[j]))
    terms = {}
    for e, c in p._terms.items():
        key = sum(((e >> sh) & _MASK) * unit for sh, unit in images)
        terms[key] = terms.get(key, 0) + c
    return Poly(target, target._checked(target._reduce(terms, 0)))


def symmetric_reduce(p, target, mapping=None):
    """Rewrite the symmetric dependence of p on the generators l1, l2, l3.

    The l's are the roots of x^3 + c1*x^2 + c2*x + c3 (c1 = -e1, c2 = e2,
    c3 = -e3); other generators are carried to target by the renaming
    mapping (by name where it has no entry; see ``substitute``, whose
    errors a bad image raises).  p is renamed into the splitting tower T =
    Z[target generators][l1][l2][l3] with l1^3 = -(c1*l1^2 + c2*l1 + c3),
    l2^2 = -((c1 + l1)*l2 + c2 + c1*l1 + l1^2) and l3 = -(c1 + l1 + l2), and
    from there into target by name.
    The degree-1 relation makes l3 a polynomial in the others, so T is
    Z[c][l1][l2] with those two relations: free over Z[c] with basis
    l1^a*l2^b (a < 3, b < 2), as Z[l1,l2,l3] is over Z[e].  So c_k ->
    (-1)^k e_k makes T isomorphic to Z[l1,l2,l3] (Fulton, Intersection
    Theory, 3.2; by Edidin-Graham the GL3-equivariant ring is the
    S3-invariant part of the torus-equivariant one).  Hence the image of p
    lies in Z[c] exactly when p is symmetric, and a surviving l1 or l2 raises
    NotSymmetric.
    """
    ring = p.ring
    if any(ring.degrees[ring._at(n)] != 1 for n in ("l1", "l2", "l3")):
        raise DegreeMismatch("symmetric reduction expects a degree-1 triple")
    if tuple(target.gen(n).homogeneous_degree() for n in ("c1", "c2", "c3")) != (1, 2, 3):
        raise DegreeMismatch("target images must have degrees 1, 2, 3")
    tower = Ring(
        list(zip(target.names, target.degrees)) + ["l1", "l2", "l3"],
        relations={
            "l1": (3, [[(1, {"c1": 1})], [(1, {"c2": 1})], [(1, {"c3": 1})]]),
            "l2": (2, [[(1, {"c1": 1}), (1, {"l1": 1})],
                       [(1, {"c2": 1}), (1, {"c1": 1, "l1": 1}), (1, {"l1": 2})]]),
            "l3": (1, [[(1, {"c1": 1}), (1, {"l1": 1}), (1, {"l2": 1})]]),
        },
    )
    split = substitute(p, mapping or {}, target=tower)
    if split.contains("l1") or split.contains("l2"):
        raise NotSymmetric("the dependence on l1, l2, l3 is not symmetric")
    return substitute(split, {}, target=target)
