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

Coefficients are arbitrary-precision ints throughout: the divisibility
bookkeeping downstream (gcds of class coefficients) has zero tolerance.
"""

from fractions import Fraction
from itertools import permutations
from operator import add


class RingError(Exception):
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


class NonUnique(RingError):
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
    display_order: generator names most-significant-first, used only for
        printing (defaults to declaration order).

    Normal forms are read from a power table per fiber generator g with
    relation degree n: entry k - n holds the normal form of g^k for k >= n.
    A table is filled lazily, one power at a time, up to the largest exponent
    of g that a normalization has met, so its size is set by the inputs seen
    and not by any fixed bound; nothing is built until the first rewrite.
    The tables live as long as the ring, and their entries are never handed
    out as a Poly's terms.
    """

    def __init__(self, gens, relations=None, cap=None, display_order=None):
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

        # self.rel[i] = (n, rhs) where rhs is the normal-form term dict of
        # -(r_1 g^(n-1) + ... + r_n); None entries mark omitted relations.
        self.rel = {}
        self.omitted = frozenset(
            name for name, r in (relations or {}).items() if r is None
        )
        relations = relations or {}
        for name in relations:
            if name not in self.index:
                raise UnknownGenerator(name)
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
                rk = self._terms_from_raw(raw)
                for e in rk:
                    for j in range(i, self.ngens):
                        if e[j]:
                            raise CyclicTower(
                                "relation coefficient for %r references %r"
                                % (name, self.names[j])
                            )
                    if self._grade(e) != k * self.degrees[i]:
                        raise DegreeMismatch(
                            "coefficient r_%d of %r is not homogeneous of degree %d"
                            % (k, name, k * self.degrees[i])
                        )
                # fold -r_k * g^(n-k) into the reduction polynomial
                for e, c in rk.items():
                    e2 = list(e)
                    e2[i] += n - k
                    e2 = tuple(e2)
                    rhs[e2] = rhs.get(e2, 0) - c
            self.rel[i] = (n, {e: c for e, c in rhs.items() if c})

        # Fibers in rewrite order, and their lazily filled power tables.
        self._fiber_desc = tuple(sorted(self.rel, reverse=True))
        self._powers = {}

        if display_order is None:
            self._disp = tuple(range(self.ngens))
        else:
            if sorted(display_order) != sorted(self.names):
                raise UnknownGenerator("display_order must list every generator once")
            self._disp = tuple(self.index[n] for n in display_order)

        self.zero = Poly(self, {})
        self.one = Poly(self, {(0,) * self.ngens: 1})

    # -- construction -----------------------------------------------------

    def gen(self, name):
        if name not in self.index:
            raise UnknownGenerator(name)
        e = [0] * self.ngens
        e[self.index[name]] = 1
        return Poly(self, {tuple(e): 1})

    def const(self, c):
        c = int(c)
        if c == 0:
            return self.zero
        return Poly(self, {(0,) * self.ngens: c})

    def poly(self, raw):
        """Build a Poly from a raw term list [(coeff, {name: exp}), ...]."""
        return Poly(self, self._normalize(self._terms_from_raw(raw)))

    def _terms_from_raw(self, raw):
        terms = {}
        for c, mono in raw:
            e = [0] * self.ngens
            for name, exp in mono.items():
                if name not in self.index:
                    raise UnknownGenerator(name)
                if not (isinstance(exp, int) and exp >= 0):
                    raise RingError("bad exponent %r for %r" % (exp, name))
                e[self.index[name]] += exp
            e = tuple(e)
            terms[e] = terms.get(e, 0) + int(c)
        return {e: c for e, c in terms.items() if c}

    # -- normal form -------------------------------------------------------

    def _grade(self, e):
        return sum(x * d for x, d in zip(e, self.degrees))

    def _normalize(self, terms):
        """Reduce fiber exponents below their relation degrees.

        One merging pass per fiber generator, highest tower index first: the
        pass for fiber i replaces each term m*g_i^k with k >= n_i by m times
        the normal form of g_i^k, read from the ring's power table, and merges
        coefficients as it goes.  That normal form involves no generator
        above i, so the passes already made stay reduced, and lower fibers
        that overflow are left to their own later passes.  Normal forms are
        unique (monic division in a tower), so the result is independent of
        the order raw terms are fed in.  A relation-free ring skips the
        passes and only checks the cap.

        The power table of g_i holds the normal forms of g_i^k for n_i <= k
        <= the largest exponent of g_i met so far, so it grows with the
        inputs, one entry per new power, and is kept for the life of the ring.
        Terms above the cap raise only if they survive cancellation.
        """
        if self._fiber_desc:
            terms = self._reduce(terms, 0)
        out = _nonzero(terms)
        if self.cap is not None:
            for e in out:
                if self._grade(e) > self.cap:
                    raise TruncationExceeded(
                        "term of degree %d exceeds working degree %d"
                        % (self._grade(e), self.cap)
                    )
        return out

    def _reduce(self, terms, start):
        """Run the fiber passes for self._fiber_desc[start:] over terms.

        Each pass builds a fresh dict; zero coefficients may remain and are
        dropped by the caller.
        """
        fibers = self._fiber_desc
        for pos in range(start, len(fibers)):
            i = fibers[pos]
            n = self.rel[i][0]
            table = self._powers.get(i, ())
            out = {}
            get = out.get
            for e, c in terms.items():
                k = e[i]
                if k < n:
                    out[e] = get(e, 0) + c
                    continue
                if not c:
                    continue
                if k - n >= len(table):
                    table = self._fiber_powers(pos, k)
                base = e[:i] + (0,) + e[i + 1:]
                for e2, c2 in table[k - n].items():
                    key = tuple(map(add, base, e2))
                    out[key] = get(key, 0) + c * c2
            terms = out
        return terms

    def _fiber_powers(self, pos, top):
        """The power table of fiber self._fiber_desc[pos], filled up to g^top.

        Entry k - n holds the normal form of g^k (n the relation degree);
        entry k + 1 is g times entry k, rewritten once at g^n and then run
        through the lower-fiber passes.
        """
        i = self._fiber_desc[pos]
        n, rhs = self.rel[i]
        table = self._powers.get(i)
        if table is None:
            table = self._powers[i] = [_nonzero(self._reduce(rhs, pos + 1))]
        while len(table) <= top - n:
            shifted = {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in table[-1].items()}
            table.append(_nonzero(self._reduce(shifted, pos)))
        return table

    def monomials_of_degree(self, d):
        """All normal-form exponent vectors of graded degree d."""
        result = []

        def rec(i, left, acc):
            if i == self.ngens:
                if left == 0:
                    result.append(tuple(acc))
                return
            step = self.degrees[i]
            top = left // step
            if i in self.rel:
                top = min(top, self.rel[i][0] - 1)
            for k in range(top + 1):
                rec(i + 1, left - k * step, acc + [k])

        if d >= 0:
            rec(0, d, [])
        return result

    def __repr__(self):
        return "Ring(%s)" % ", ".join(self.names)


class Poly:
    """Immutable element of a Ring, stored in normal form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.ring, {e: c for e, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

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
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        get = terms.get
        other_items = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in other_items:
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        return Poly(self.ring, self.ring._normalize(terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not (isinstance(k, int) and k >= 0):
            raise RingError("exponent must be a nonnegative integer")
        result = self.ring.one
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Maximal graded degree of a term (None for the zero Poly)."""
        if not self.terms:
            return None
        return max(self.ring._grade(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {self.ring._grade(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        degs = {self.ring._grade(e) for e in self.terms}
        if len(degs) != 1:
            raise NotHomogeneous(str(self))
        return degs.pop()

    def homogeneous_part(self, d):
        return Poly(
            self.ring,
            {e: c for e, c in self.terms.items() if self.ring._grade(e) == d},
        )

    def contains(self, name):
        i = self.ring.index[name]
        return any(e[i] for e in self.terms)

    def coefficient(self, name, power):
        """The coefficient of name^power, with that generator stripped out."""
        if name not in self.ring.index:
            raise UnknownGenerator(name)
        i = self.ring.index[name]
        out = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return Poly(self.ring, out)

    def content(self):
        """gcd of the integer coefficients (0 for the zero Poly)."""
        g = 0
        for c in self.terms.values():
            g = _gcd(g, abs(c))
        return g

    # -- printing ----------------------------------------------------------

    def _sorted_terms(self):
        disp = self.ring._disp

        def key(item):
            e = item[0]
            return (self.ring._grade(e), tuple(-e[i] for i in disp))

        return sorted(self.terms.items(), key=key)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self._sorted_terms():
            factors = []
            for i in self.ring._disp:
                if e[i] == 1:
                    factors.append(self.ring.names[i])
                elif e[i] > 1:
                    factors.append("%s^%d" % (self.ring.names[i], e[i]))
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


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


# -- the four ring-level operations the worksheets need ---------------------


def exact_divide(num, den):
    """q with q*den == num, found by an exact linear solve.

    Both arguments must be homogeneous.  The candidate quotient degree is
    deg(num)-deg(den); q is expanded over the full monomial basis of that
    degree and the resulting integer linear system solved exactly.  Raises
    NotDivisible when no quotient exists (or none with integer coefficients)
    and NonUnique when the solution is not unique -- a nontrivial kernel of
    multiplication by den is reported, never silently resolved.
    """
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
    basis = ring.monomials_of_degree(qdeg)
    if not basis:
        raise NotDivisible("no monomials of degree %d" % qdeg)

    # columns: basis monomial * den, expressed over the degree-ndeg monomials
    cols = []
    row_index = {}
    for e in basis:
        prod = Poly(ring, {e: 1}) * den
        col = {}
        for e2, c in prod.terms.items():
            if e2 not in row_index:
                row_index[e2] = len(row_index)
            col[row_index[e2]] = c
        cols.append(col)
    b = [0] * len(row_index)
    for e2, c in num.terms.items():
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


def substitute(p, mapping, target=None):
    """Homomorphic image of p under a generator map.

    mapping sends generator names of p's ring to generator names of the
    target ring or to homogeneous Poly values in it; unmapped generators go to
    the target generator of the same name.  Images must match the source
    generator's degree (DegreeMismatch otherwise).
    """
    ring = p.ring
    if target is None:
        target = ring
    images = {}
    for e in p.terms:
        for i, exp in enumerate(e):
            if exp and i not in images:
                name = ring.names[i]
                img = mapping.get(name, name)
                if isinstance(img, str):
                    img = target.gen(img)
                if img.ring is not target:
                    raise RingMismatch("image of %r lives in the wrong ring" % name)
                if img.is_zero():
                    pass  # degree-free; kills every term containing the generator
                elif img.homogeneous_degree() != ring.degrees[i]:
                    raise DegreeMismatch(
                        "image of %r has degree %d, expected %d"
                        % (name, img.homogeneous_degree(), ring.degrees[i])
                    )
                images[i] = img
    result = target.zero
    for e, c in p.terms.items():
        term = target.const(c)
        for i, exp in enumerate(e):
            if exp:
                term = term * images[i] ** exp
        result = result + term
    return result


def _expand_elementary(k1, k2, k3):
    """Expand e1^k1 * e2^k2 * e3^k3 in three variables as {exponent triple: coeff}."""
    e1 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    e2 = {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    e3 = {(1, 1, 1): 1}

    def mul(f, g):
        out = {}
        for a, ca in f.items():
            for b, cb in g.items():
                key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                out[key] = out.get(key, 0) + ca * cb
        return out

    result = {(0, 0, 0): 1}
    for base, k in ((e1, k1), (e2, k2), (e3, k3)):
        for _ in range(k):
            result = mul(result, base)
    return result


def symmetric_reduce(p, target, triple=("l1", "l2", "l3"), images=("c1", "c2", "c3")):
    """Rewrite the symmetric dependence of p on a generator triple.

    Every term group symmetric in the triple (l1,l2,l3) is expressed through
    the elementary symmetric polynomials and mapped to the target ring via
    c1 = -e1, c2 = e2, c3 = -e3 (NotSymmetric if the dependence is not
    symmetric).  Other generators are carried over by name.
    """
    ring = p.ring
    tri = tuple(ring.index[n] for n in triple)
    if any(ring.degrees[i] != 1 for i in tri):
        raise DegreeMismatch("symmetric reduction expects a degree-1 triple")
    c_img = [target.gen(n) for n in images]
    if tuple(im.homogeneous_degree() for im in c_img) != (1, 2, 3):
        raise DegreeMismatch("target images must have degrees 1, 2, 3")

    other = [i for i in range(ring.ngens) if i not in tri]
    groups = {}
    for e, c in p.terms.items():
        rest = tuple(e[i] for i in other)
        lpart = (e[tri[0]], e[tri[1]], e[tri[2]])
        groups.setdefault(rest, {})[lpart] = c

    carried = {}
    for i in other:
        name = ring.names[i]
        if any(rest[other.index(i)] for rest in groups):
            if name not in target.index:
                raise UnknownGenerator("target ring lacks generator %r" % name)
            if target.degrees[target.index[name]] != ring.degrees[i]:
                raise DegreeMismatch(name)
            carried[i] = target.gen(name)

    result = target.zero
    for rest, f in groups.items():
        for lpart, c in f.items():
            for perm in permutations(lpart):
                if f.get(perm, 0) != c:
                    raise NotSymmetric(
                        "coefficient of l-exponents %s varies under permutation" % (lpart,)
                    )
        # peel lex-leading terms against products of elementary symmetrics
        f = dict(f)
        epart = {}
        while f:
            lead = max(f)
            a1, a2, a3 = lead
            if not (a1 >= a2 >= a3):
                raise NotSymmetric("lex-leading exponent %s not sorted" % (lead,))
            c = f[lead]
            k = (a1 - a2, a2 - a3, a3)
            epart[k] = epart.get(k, 0) + c
            for mono, cc in _expand_elementary(*k).items():
                f[mono] = f.get(mono, 0) - c * cc
            f = {m: cc for m, cc in f.items() if cc}
        # assemble: sign (-1)^(k1+k3) accounts for c1=-e1, c3=-e3
        base = target.one
        for i, exp in zip(other, rest):
            if exp:
                base = base * carried[i] ** exp
        for (k1, k2, k3), c in epart.items():
            sign = -1 if (k1 + k3) % 2 else 1
            result = result + base * (
                c_img[0] ** k1 * c_img[1] ** k2 * c_img[2] ** k3
            ) * (c * sign)
    return result
