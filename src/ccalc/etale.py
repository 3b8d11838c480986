"""
Etale algebras as formal products of multiquadratic extensions, their trace
forms, and their (Galois-)Stiefel-Whitney classes.

An algebra is a product of factors F(sqrt(m1),...,sqrt(ms))^multiplicity,
each m_j a square class of the base function field.  The trace form of a
factor is its 2^s x 2^s Gram matrix on the basis of square roots of
subproducts, read off the multiplication rule e_S * e_T = m_(S&T) * e_(S^T)
in O(4^s) ring products — diagonality is checked, not assumed — and its
diagonal entries, read as square classes (d_1,...,d_n) across the whole
algebra, feed the symbol calculus:

    alpha_i^SW = sigma_i({d_1},...,{d_n})        (elementary symmetric),
    alpha_i    = alpha_i^SW                       for odd i,
    alpha_i    = alpha_i^SW + {2}*alpha_(i-1)^SW  for even i,

with the total class alpha_tot = sum alpha_i multiplicative in the algebra.
The total plain class is the product of the (1 + {d_j}).  A symbol c that
occurs n times on the diagonal contributes, mod 2 and with 2^b running over
the binary digits of n,

    (1 + c)^n = prod_b (1 + c^(2^b)) = 1 + sum over k >= 1 with k & n == k of c^k,

since C(n,k) is odd exactly when the binary digits of k are among those of n
(Lucas).  In K^M/2, {c,c} = {-1,c} (Milnor 1970), so c^k = {-1}^(k-1)*c.  The
cost is a few truncated steps per distinct symbol, whatever the factor count
and the multiplicities.
"""

from math import isqrt

from .rings import Ring
from .ksymbols import (
    ModelMismatch,
    UnknownGenerator,
    _parse_monomial,
    one,
    symbol,
    zero,
)


# Longest multiplicity the parser accepts; Stiefel-Whitney classes read only
# its residue mod a power of two, and the rank is printed in full.
MULTIPLICITY_DIGITS = 1000

# Highest degree sw_total materializes.  Each distinct diagonal symbol costs
# up to cap symbol products per binary digit of the cap, so the cap is
# bounded.  At cap 128 (`ccalc sw`, interpreter start included, Python 3.11
# on a 2-vCPU Xeon), 20 factors F(sqrt(a),sqrt(b))^(2^40 - 1) take 0.1 s, and
# eight four-root factors of that multiplicity whose diagonals meet all 63
# nonzero symbols over a, b, c, d in the generic model take 1.4 s.
SW_CAP_LIMIT = 128

# Most square roots one factor may have: trace_form is O(4^s) in the number s
# of roots.  `ccalc sw --model generic` on one factor (interpreter start
# included, Python 3.11 on a 2-vCPU Xeon) takes 0.27-0.32 s at 8 roots,
# 0.61-0.78 s at 9 and 1.6-2.4 s at 10, so a dozen roots would run for tens of
# seconds.
ROOTS_LIMIT = 8


class EtaleError(Exception):
    pass


class DependentClasses(EtaleError):
    pass


class UnknownName(EtaleError):
    pass


class NonDiagonalGram(EtaleError):
    pass


def monomial_str(mono, model):
    """Render a square class: sorted generator names, '-' for the class of -1."""
    neg = "minus_one" in mono
    names = [model.spell(n) for n in model.sort_gens(set(mono) - {"minus_one"})]
    body = "*".join(names) if names else "1"
    return ("-" + body) if neg else body


def gf2_eliminate(classes):
    """GF(2) elimination on square classes, each a frozenset of names with
    symmetric difference as the product; a row's pivot is its largest name.

    Returns (basis, deps).  basis is the reduced-echelon basis of the span,
    sorted by names, so it depends on the span alone.  deps[i] is None when
    classes[i] is independent of classes[:i], and otherwise the frozenset of
    the indices j < i of independent classes whose classes multiply to
    classes[i] (unique, since those classes are independent).
    """
    rows, deps = [], []  # rows: (class, inputs multiplying to it), reduced
    for i, m in enumerate(classes):
        combo = frozenset({i})
        for row, used in rows:
            if max(row) in m:
                m, combo = m ^ row, combo ^ used
        deps.append(None if m else combo - {i})
        if m:
            # clear the new pivot from the other rows; their pivots stay
            rows = [(r ^ m, u ^ combo) if max(m) in r else (r, u) for r, u in rows]
            rows.append((m, combo))
    return tuple(sorted((r for r, _ in rows), key=sorted)), deps


class EtaleAlgebraExpr:
    """A product of multiquadratic extensions over a field model.

    factors: list of (extension, multiplicity) where extension is a tuple of
    square classes (frozensets of names) generating F(sqrt m1, ..., sqrt ms),
    and the multiplicity is any positive integer.  An extension has at most
    ROOTS_LIMIT classes.  Within each extension no nonempty subproduct of the
    classes may be trivial in the model, otherwise the factor would not be a
    field: gf2_eliminate checks this in O(s^2) steps, and DependentClasses
    names the first dependent class together with the earlier ones that
    multiply with it to a square.
    """

    def __init__(self, model, factors):
        self.model = model
        self.factors = []
        for ext, mult in factors:
            ext = tuple(frozenset(m) for m in ext)
            if not (isinstance(mult, int) and mult >= 1):
                raise EtaleError("multiplicity must be a positive integer")
            if len(ext) > ROOTS_LIMIT:
                raise EtaleError(
                    "factor with %d square roots; the limit is %d"
                    % (len(ext), ROOTS_LIMIT)
                )
            for mono in ext:
                for name in mono:
                    if not model.knows(name):
                        raise UnknownName(name)
            _, deps = gf2_eliminate(
                [frozenset(n for n in m if not model.is_trivial(n)) for m in ext]
            )
            for i, dep in enumerate(deps):
                if dep is not None:
                    raise DependentClasses(
                        "subproduct of sqrt arguments %s is a square"
                        % (sorted(dep | {i}),)
                    )
            self.factors.append((ext, mult))
        self.rank = sum(mult * 2 ** len(ext) for ext, mult in self.factors)

    def times(self, other):
        if other.model != self.model:
            raise ModelMismatch("algebras live over different field models")
        return EtaleAlgebraExpr(self.model, self.factors + other.factors)

    def __eq__(self, other):
        return (
            isinstance(other, EtaleAlgebraExpr)
            and self.model == other.model
            and self._factor_key() == other._factor_key()
        )

    def _factor_key(self):
        """Total multiplicity of each extension, keyed by its sorted classes."""
        out = {}
        for ext, mult in self.factors:
            key = tuple(sorted(tuple(sorted(m)) for m in ext))
            out[key] = out.get(key, 0) + mult
        return out

    def __str__(self):
        chunks = []
        for ext, mult in self.factors:
            if ext:
                inner = ",".join("sqrt(%s)" % monomial_str(m, self.model) for m in ext)
                body = "F(%s)" % inner
            else:
                body = "F"
            chunks.append(body + ("^%d" % mult if mult > 1 else ""))
        return " * ".join(chunks) if chunks else "F^0"

    __repr__ = __str__


def parse_algebra(text, model):
    """Parse `F(sqrt(a),sqrt(b))^2 * F` style algebra expressions."""
    s = text
    pos = 0

    def err(msg):
        raise SyntaxError("%s at position %d in %r" % (msg, pos, text))

    def ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    factors = []
    while True:
        ws()
        if pos >= len(s) or s[pos] != "F":
            err("expected 'F'")
        pos += 1
        ext = []
        ws()
        if pos < len(s) and s[pos] == "(":
            pos += 1
            while True:
                ws()
                if not s.startswith("sqrt", pos):
                    err("expected 'sqrt'")
                pos += 4
                ws()
                if pos >= len(s) or s[pos] != "(":
                    err("expected '(' after sqrt")
                pos += 1
                start = pos
                while pos < len(s) and s[pos] != ")":
                    pos += 1
                if pos >= len(s):
                    err("unclosed sqrt(")
                try:
                    ext.append(_parse_monomial(s[start:pos], model))
                except UnknownGenerator as e:
                    raise UnknownName(str(e)) from None
                pos += 1
                ws()
                if pos < len(s) and s[pos] == ",":
                    pos += 1
                    continue
                if pos < len(s) and s[pos] == ")":
                    pos += 1
                    break
                err("expected ',' or ')'")
        ws()
        mult = 1
        if pos < len(s) and s[pos] == "^":
            pos += 1
            ws()
            start = pos
            while pos < len(s) and s[pos].isdecimal():
                pos += 1
            if start == pos:
                err("expected an integer after '^'")
            if pos - start > MULTIPLICITY_DIGITS:
                err("multiplicity has more than %d digits" % MULTIPLICITY_DIGITS)
            mult = int(s[start:pos])
            if mult < 1:
                err("multiplicity must be >= 1")
        factors.append((tuple(ext), mult))
        ws()
        if pos >= len(s):
            break
        if s[pos] != "*":
            err("expected '*' between factors")
        pos += 1
    return EtaleAlgebraExpr(model, factors)


# -- trace forms ---------------------------------------------------------------


def trace_form(ext, model):
    """Diagonal square classes of the trace form of F(sqrt m1,...,sqrt ms).

    Works in the polynomial ring on placeholders q0..q(s-1) for the m_j.  On
    the basis e_U (U a subset of the roots, e_U the product of their square
    roots) multiplication is e_U * e_V = q[U & V] * e_(U ^ V), with q[U] the
    product of the q_j over U.  So tr(e_U) is the sum of the e_V-coefficients
    of e_U * e_V over all V, read once per U, and every Gram entry is
    tr(e_S * e_T) = q[S & T] * tr(e_(S ^ T)).  Every off-diagonal entry must
    vanish, and each diagonal entry (an integer times a q-monomial) becomes
    a square class; NonDiagonalGram is raised otherwise.
    """
    s = len(ext)
    ring = Ring([("q%d" % j, 1) for j in range(s)]) if s else Ring([])
    size = 2 ** s
    q = [ring.one]
    for j in range(s):
        gen = ring.gen("q%d" % j)
        q += [gen * x for x in q]  # q[U | 1 << j] = q_j * q[U]
    tr = [
        sum((q[u & v] for v in range(size) if u ^ v == v), ring.zero)
        for u in range(size)
    ]
    diag = []
    for a in range(size):
        for b in range(a, size):
            entry = q[a & b] * tr[a ^ b]
            if a == b:
                diag.append(entry)
            elif not entry.is_zero():
                raise NonDiagonalGram(
                    "trace pairing of basis elements %d and %d is %s" % (a, b, entry)
                )
    classes = []
    for a, entry in enumerate(diag):
        if len(entry.terms) != 1:
            raise NonDiagonalGram("diagonal entry %d is not a monomial: %s" % (a, entry))
        (exps, coeff), = entry.terms.items()
        if coeff <= 0:
            raise NonDiagonalGram("diagonal entry %d has coefficient %d" % (a, coeff))
        cls = frozenset()
        two_power = 0
        while coeff % 2 == 0:
            coeff //= 2
            two_power += 1
        if isqrt(coeff) ** 2 != coeff:
            raise NonDiagonalGram(
                "diagonal entry %d is not a square times a power of two" % a
            )
        if two_power % 2:
            cls ^= {"two"}
        for j, e in enumerate(exps):
            if e % 2:
                cls ^= ext[j]
        classes.append(cls)
    return classes


# -- Stiefel-Whitney vectors -----------------------------------------------------


class SWClassVector:
    """alpha_0..alpha_cap of an algebra: the plain classes from sw_total or
    the Galois-corrected ones from galois_sw_total."""

    def __init__(self, model, rank, classes):
        if not classes[0].is_one():
            raise EtaleError("alpha_0 must be 1, got %s" % classes[0])
        for i, c in enumerate(classes):
            if not (c.is_zero() or c.degrees() == [i]):
                raise EtaleError("alpha_%d is not homogeneous of degree %d" % (i, i))
        self.model = model
        self.rank = rank
        self.classes = list(classes)

    @property
    def cap(self):
        return len(self.classes) - 1

    def alpha(self, i):
        if not 0 <= i <= self.cap:
            raise IndexError("alpha_%d not materialized (cap %d)" % (i, self.cap))
        return self.classes[i]

    def alpha_tot(self):
        return sum(self.classes, zero(self.model))


def sw_total(alg, max_degree=None):
    """Plain Stiefel-Whitney classes: elementary symmetric polynomials of the
    degree-1 classes of the trace-form diagonal, by the power formula.

    Reads each factor's trace form once, in factor order, and counts every
    nonzero diagonal symbol c with its multiplicity n over the algebra.  Then
    it multiplies in (1 + c)^n truncated at the cap, as the product of the
    1 + c^(2^b) over the bits 2^b <= cap of n (module docstring): one pass of
    at most cap symbol products per bit.  The cap is min(rank, max_degree),
    with max_degree 7 by default; a cap above SW_CAP_LIMIT raises EtaleError.
    """
    model = alg.model
    cap = min(alg.rank, 7 if max_degree is None else max_degree)
    if cap > SW_CAP_LIMIT:
        raise EtaleError(
            "classes up to degree %d requested; the limit is %d" % (cap, SW_CAP_LIMIT)
        )
    counts = {}
    for ext, mult in alg.factors:
        for d in trace_form(ext, model):
            sym = symbol([d], model)
            if not sym.is_zero():
                counts[sym] = counts.get(sym, 0) + mult
    e = [one(model)] + [zero(model)] * cap
    for c, n in counts.items():
        power, step = c, 1  # power = c^step
        while step <= cap:
            if n & step:
                for i in range(cap, step - 1, -1):
                    e[i] = e[i] + power * e[i - step]
            power, step = power * power, 2 * step
    return SWClassVector(model, alg.rank, e)


def galois_sw_total(alg, max_degree=None):
    """Galois-corrected classes: {2}*previous added in even degrees."""
    sw = sw_total(alg, max_degree)
    two = symbol(["2"], alg.model)
    classes = [sw.classes[0]]
    for i in range(1, len(sw.classes)):
        c = sw.classes[i]
        if i % 2 == 0:
            c = c + two * sw.classes[i - 1]
        classes.append(c)
    return SWClassVector(alg.model, sw.rank, classes)


def alpha_tot_product_check(a, b):
    """Does alpha_tot of the product equal the product of the alpha_tots?
    Computed with full caps on both sides, all three through galois_sw_total,
    so it tests multiplicativity of this implementation only; the
    independent comparison is `checks.property_multiplicativity`."""
    if a.model != b.model:
        raise ModelMismatch("algebras live over different field models")
    prod = a.times(b)
    lhs = galois_sw_total(prod, max_degree=prod.rank).alpha_tot()
    fa = galois_sw_total(a, max_degree=a.rank).alpha_tot()
    fb = galois_sw_total(b, max_degree=b.rank).alpha_tot()
    return lhs == fa * fb
