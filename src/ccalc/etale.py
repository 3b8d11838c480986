"""
Etale algebras as formal products of multiquadratic extensions, their trace
forms, and their (Galois-)Stiefel-Whitney classes.

An algebra is a product of factors F(sqrt(m1),...,sqrt(ms))^multiplicity,
each m_j a square class of the base function field.  The trace form of a
factor is its 2^s x 2^s Gram matrix on the basis of square roots of
subproducts, read off the multiplication rule e_S * e_T = m_(S&T) * e_(S^T).
It is diag(2^s * m_S) over the subsets S of the roots (Conner-Perlis 1984),
and `trace_form` reads it so, by doubling: O(2^s) set work per factor.
With placeholders q_j for the m_j the Gram matrix depends on s alone, so
the first factor with s roots also pays its O(4^s) ring products once, as a
certificate: diagonality is checked, not assumed, and so is entry S being
2^s * q_S up to squares.  Those diagonal entries, square classes
(d_1,...,d_n) across the whole algebra, feed the symbol calculus:

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
same relation makes the symbols an OR-convolution algebra over the subsets
of the names, and the zeta transform over GF(2) turns that product into a
pointwise one: at each subset S of the names in use the whole product is
(1 + t)^N_S, N_S the sum of the multiplicities of the symbols whose
transform is 1 at S.  `ksymbols.power_product` computes it so, in closed form: a few bit
operations on ints of 2^n bits (n names in use) per distinct symbol and per
degree, whatever the factor count and the multiplicities.

Square classes are frozensets of names at the edge of this module: in an
algebra's `factors`, in `trace_form`'s output and in every rendering.
Inside, each class is its model mask (`ksymbols.FieldModel.class_mask`),
the one reader from a class to the model, which `ksymbols.symbol` uses too:
`EtaleAlgebraExpr` spans the masks with `gf2_span`, a list in doubling
order, and keys the fields by them, and `sw_total` counts each diagonal
class by its mask, which `ksymbols.power_product` reads bit by bit as the
degree-1 symbol of the class: no support of a symbol is formed before the
classes are read off.
"""

from math import isqrt

from . import CcalcError
from .rings import Ring
from .ksymbols import (
    ModelMismatch,
    UnknownGenerator,
    _Reader,
    _parse_monomial,
    _quote,
    power_product,
    symbol,
    zero,
)


# Most digits of a multiplicity, leading zeros aside; Stiefel-Whitney classes
# read only its residue mod a power of two, and the rank is printed in full.
MULTIPLICITY_DIGITS = 1000

# Highest degree sw_total materializes.  The power formula costs a few bit
# operations per degree, but `ccalc sw` prints every class, spelling eps^m as
# m copies of -1, so its output grows with the cap.  At cap 128 (`ccalc sw`,
# interpreter start included, Python 3.11 on a 2-vCPU Xeon, five runs), 20
# factors F(sqrt(a),sqrt(b))^(2^40 - 1) take 0.14-0.20 s, and eight four-root
# factors of that multiplicity whose diagonals meet all 63 nonzero symbols
# over a, b, c, d in the generic model take 0.12-0.17 s.
SW_CAP_LIMIT = 128

# Most square roots one factor may have: the first factor with s roots pays
# trace_form's O(4^s) Gram pass, and later ones O(2^s) set work.  One
# factor in the generic model (a process run, interpreter start included, so
# the first call; Python 3.11 on a 2-vCPU Xeon) takes 0.27-0.32 s at 8 roots,
# 0.61-0.78 s at 9 and 1.6-2.4 s at 10, so a dozen roots would run for tens of
# seconds.
ROOTS_LIMIT = 8

# Most indeterminates `ccalc sw` takes.  The diagonal classes lie in the group
# generated by the names, -1 and 2, so each name doubles the basis symbols a
# class may hold, and `ccalc sw` prints every one: rendering, not the power
# formula, sets its cost.  At cap 128 (`ccalc sw --model generic`, interpreter
# start included, Python 3.11 on a 2-vCPU Xeon; over 6 and 7 names with this
# check lifted), one factor F(sqrt(m1),...)^(2^40 - 1) whose roots are a
# random basis of the group of the names, -1 and 2, alone or with seven more
# such factors, takes 0.11-0.18 s over 4 names, 0.17-0.21 s over 5 and
# 0.27-0.29 s over 6 (five seeds each); eight such factors of 8 roots over 7
# names take 0.28-0.34 s.  Over 5 names a factor has at most 7 independent
# roots, below ROOTS_LIMIT.  Library callers are held instead to
# ksymbols.POWER_NAMES_LIMIT names in use.
SW_NAMES_LIMIT = 5


class EtaleError(CcalcError):
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


def field_str(ext, model):
    """Render F(sqrt(m1),...,sqrt(ms)), or F for the empty extension."""
    if not ext:
        return "F"
    return "F(%s)" % ",".join("sqrt(%s)" % monomial_str(m, model) for m in ext)


def gf2_span(classes):
    """The GF(2) span of square classes, each an int mask with XOR as the
    product (`FieldModel.class_mask`), as a list in doubling order.

    span[g] is the product of the classes whose coordinate bits are g: bit j
    stands for the j-th class that lies outside the span of the classes
    before it, and reading that class doubles the list, span[g | 2^j] =
    span[g] * class for g < 2^j.  A class is independent of the classes
    before it exactly when it is not in the list so far, and a class's
    coordinate mask is its index in the list, span.index(class).  The points
    of `ksymbols.power_product` and the entries of `trace_form` are in the
    same order.
    """
    span = [0]
    for m in classes:
        if m not in span:
            span += [c ^ m for c in span]
    return span


class EtaleAlgebraExpr:
    """A product of multiquadratic extensions over a field model.

    factors: list of (extension, multiplicity) where extension is a tuple of
    square classes (frozensets of names) generating F(sqrt m1, ..., sqrt ms),
    and the multiplicity is any positive integer.  An extension that is not
    iterable, or a class given as a string, raises EtaleError; a string
    would read as the set of its letters.  An extension has at most
    ROOTS_LIMIT classes.  The constructor maps each class once to its model
    mask (`FieldModel.class_mask`, which drops the trivial names), and that
    step raises UnknownName on the first name the model does not know, an
    unhashable one included, and KError on a class that is not iterable.
    Within each extension no nonempty subproduct of the classes may be
    trivial in the model, otherwise the factor would not be a field:
    gf2_span lists the span of the masks, which must have 2^s entries.
    Otherwise DependentClasses names the first class whose coordinate mask,
    its index in the list, is not a new bit, together with the earlier ones
    that multiply with it to a square.  Two algebras are equal when every
    field has the same total multiplicity in both, a field being the span of
    its classes in the model (so F(sqrt(a),sqrt(b)) = F(sqrt(a),sqrt(a*b))).

    The masks live only inside: `_fields` is keyed by the frozenset of a
    field's span masks.  `factors`, `str` and the classes that `trace_form`
    reads keep the names as given.
    """

    def __init__(self, model, factors):
        self.model = model
        self.factors = []
        self._fields = {}  # total multiplicity of each field
        class_mask = model.class_mask
        for ext, mult in factors:
            try:
                ext = tuple(ext)
            except TypeError:
                raise EtaleError("extension %r is not a sequence of square classes" % (ext,)) from None
            for m in ext:
                if isinstance(m, str):
                    raise EtaleError(
                        "square class %s is a string; give a set of names" % _quote(m)
                    )
            if not (isinstance(mult, int) and mult >= 1):
                raise EtaleError("multiplicity must be a positive integer")
            if len(ext) > ROOTS_LIMIT:
                raise EtaleError(
                    "factor with %d square roots; the limit is %d"
                    % (len(ext), ROOTS_LIMIT)
                )
            try:
                masks = [class_mask(m) for m in ext]
            except UnknownGenerator as e:
                raise UnknownName(*e.args) from None
            # every name is known, so hashable
            ext = tuple(frozenset(m) for m in ext)
            span = gf2_span(masks)
            if len(span) != 1 << len(masks):
                # the classes before the first dependent one are independent,
                # so class j's coordinate mask, its index, is bit j, and bit j
                # of the first other mask is input j
                i, c = next((i, c) for i, c in enumerate(map(span.index, masks)) if c != 1 << i)
                raise DependentClasses(
                    "subproduct of sqrt arguments %s is a square"
                    % ([j for j in range(i) if c >> j & 1] + [i],)
                )
            self.factors.append((ext, mult))
            field = frozenset(span)  # the field's whole square-class group
            self._fields[field] = self._fields.get(field, 0) + mult
        self.rank = sum(mult << len(ext) for ext, mult in self.factors)

    def times(self, other):
        if other.model != self.model:
            raise ModelMismatch("algebras live over different field models")
        return EtaleAlgebraExpr(self.model, self.factors + other.factors)

    def __eq__(self, other):
        return (
            isinstance(other, EtaleAlgebraExpr)
            and self.model == other.model
            and self._fields == other._fields
        )

    def __str__(self):
        chunks = [
            field_str(ext, self.model) + ("^%d" % mult if mult > 1 else "")
            for ext, mult in self.factors
        ]
        return " * ".join(chunks) if chunks else "F^0"

    __repr__ = __str__


def parse_algebra(text, model):
    """Parse `F(sqrt(a),sqrt(b))^2 * F` style algebra expressions (the grammar
    is in the ksymbols docstring); each square class is read by
    `_parse_monomial`, and a multiplicity has at most MULTIPLICITY_DIGITS
    digits."""
    reader = _Reader(text)
    factors = []
    while True:
        reader.expect("F", "expected 'F'")
        ext = []
        if reader.accept("("):
            while True:
                reader.expect("sqrt", "expected 'sqrt'")
                reader.expect("(", "expected '(' after sqrt")
                try:
                    ext.append(_parse_monomial(reader, model))
                except UnknownGenerator as e:
                    raise UnknownName(str(e)) from None
                reader.expect(")", "unclosed sqrt(")
                if not reader.accept(","):
                    break
            reader.expect(")", "expected ',' or ')'")
        mult = 1
        if reader.accept("^"):
            mult = reader.integer("multiplicity", MULTIPLICITY_DIGITS)
            if mult < 1:
                reader.fail("multiplicity must be >= 1", reader.i - 1)
        factors.append((tuple(ext), mult))
        if reader.accept(""):
            return EtaleAlgebraExpr(model, factors)
        reader.expect("*", "expected '*' between factors")


# -- trace forms ---------------------------------------------------------------


# the square class of 2
_TWO = frozenset({"two"})

# Root count s -> the trace-form diagonal over Z[q0..q(s-1)], filled on first
# use: one (odd power of two, q-exponent tuple) per basis element.
_DIAGONALS = {}


def _gram_diagonal(s):
    """The diagonal of the trace form of F(sqrt q0,...,sqrt q(s-1)), computed
    once per root count s and cached.

    Works in the polynomial ring on placeholders q0..q(s-1) for the m_j.  On
    the basis e_U (U a subset of the roots, e_U the product of their square
    roots) multiplication is e_U * e_V = q[U & V] * e_(U ^ V), with q[U] the
    product of the q_j over U.  So tr(e_U) is the sum of the e_V-coefficients
    of e_U * e_V over all V, read once per U, and every Gram entry is
    tr(e_S * e_T) = q[S & T] * tr(e_(S ^ T)): O(4^s) ring products.  Every
    off-diagonal entry must vanish, and each diagonal entry must be a
    positive 2^k * square times a q-monomial that `_certify` finds to be the
    closed form `trace_form` reads; NonDiagonalGram is raised otherwise.
    Returns a tuple of (k is odd, q-exponent tuple).
    """
    cached = _DIAGONALS.get(s)
    if cached is not None:
        return cached
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
    out = []
    for a, entry in enumerate(diag):
        if len(entry.terms) != 1:
            raise NonDiagonalGram("diagonal entry %d is not a monomial: %s" % (a, entry))
        (exps, coeff), = entry.terms.items()
        if coeff <= 0:
            raise NonDiagonalGram("diagonal entry %d has coefficient %d" % (a, coeff))
        two_power = 0
        while coeff % 2 == 0:
            coeff //= 2
            two_power += 1
        if isqrt(coeff) ** 2 != coeff:
            raise NonDiagonalGram(
                "diagonal entry %d is not a square times a power of two" % a
            )
        out.append((two_power % 2 == 1, exps))
    _certify(s, out)
    _DIAGONALS[s] = cached = tuple(out)
    return cached


def _certify(s, diagonal):
    """Check a Gram diagonal for s roots, as `_gram_diagonal` returns it,
    against the closed form: entry U is 2^s * q[U] up to squares, so its
    power of two has the parity of s and its q_j-exponent is odd exactly for
    the j in U.  Raises NonDiagonalGram otherwise."""
    for u, (odd_two, exps) in enumerate(diagonal):
        if odd_two != (s % 2 == 1) or any(e % 2 != u >> j & 1 for j, e in enumerate(exps)):
            raise NonDiagonalGram(
                "diagonal entry %d is not 2^%d * q[%d] up to squares" % (u, s, u)
            )


def trace_form(ext, model):
    """Diagonal square classes of the trace form of F(sqrt m1,...,sqrt ms).

    Entry U, bit j of U standing for root j, is the class of 2^s * m_U, m_U
    the product of the m_j over U (Conner-Perlis 1984): {2} when s is odd
    times those m_j.  The classes are read by doubling, O(2^s) set work:
    start from {2} or the empty class, then for each root m append c * m for
    every class c so far.  The first call with s roots runs the checked
    O(4^s) Gram pass (_gram_diagonal), which certifies this closed form for
    that s, and later ones reuse it.  Returns a new list.
    """
    _gram_diagonal(len(ext))
    classes = [_TWO if len(ext) % 2 else frozenset()]
    for m in ext:
        classes += [c ^ m for c in classes]
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
            raise EtaleError("alpha_%d not materialized (cap %d)" % (i, self.cap))
        return self.classes[i]

    def alpha_tot(self):
        return sum(self.classes, zero(self.model))


def sw_total(alg, max_degree=None):
    """Plain Stiefel-Whitney classes: elementary symmetric polynomials of the
    degree-1 classes of the trace-form diagonal, by the power formula.

    Reads each factor's trace form once, in factor order, and counts every
    diagonal class that is not trivial in the model, as its model mask
    (`ksymbols.FieldModel.class_mask`), with its multiplicity over the
    algebra.  `ksymbols.power_product` then gives the product of the
    (1 + c)^n up to the cap in closed form (see the module docstring),
    without multiplying two supports; past ksymbols.POWER_NAMES_LIMIT names
    in use it raises KError.  The cap is min(rank, max_degree), with
    max_degree 7 by default; a max_degree that is not a nonnegative integer
    or a cap above SW_CAP_LIMIT raises EtaleError.
    """
    if not (max_degree is None or isinstance(max_degree, int) and max_degree >= 0):
        raise EtaleError("max_degree must be a nonnegative integer, got %r" % (max_degree,))
    model = alg.model
    cap = min(alg.rank, 7 if max_degree is None else max_degree)
    if cap > SW_CAP_LIMIT:
        raise EtaleError(
            "classes up to degree %d requested; the limit is %d" % (cap, SW_CAP_LIMIT)
        )
    class_mask, counts = model.class_mask, {}
    for ext, mult in alg.factors:
        for d in trace_form(ext, model):
            c = class_mask(d)
            if c:
                counts[c] = counts.get(c, 0) + mult
    return SWClassVector(model, alg.rank, power_product(counts, cap, model))


def galois_sw_total(alg, max_degree=None):
    """Galois-corrected classes: alpha_i = w_i + {2}*w_(i-1) in even degrees
    i, alpha_i = w_i in odd ones, w the plain classes of `sw_total` (the cap
    and the errors are its).

    In degree 2 this is Serre's formula w2(q_E) = w2(rho_E) + {2}*{d_E}
    (Serre, Comment. Math. Helv. 59, 1984; GMS 2003, Ch. VII).  Where 2 is a
    square in the model, its mask (`FieldModel.class_mask`) is 0, {2} = 0 and
    every correction vanishes, so the plain vector itself is returned: the
    closed and euclidean models build no symbol {2} and never form a product
    with the zero class.
    """
    sw = sw_total(alg, max_degree)
    if not alg.model.class_mask(_TWO):
        return sw
    two = symbol([_TWO], alg.model)
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
