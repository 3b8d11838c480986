"""
The 27 lines of a cubic surface blown up from three conjugate point-pairs,
as pure Galois bookkeeping.

Six points in the plane come in three conjugate pairs, pair i defined over
the quadratic extension of square class m_i (defaults a, b, a*b).  The Galois
group is the character group of the subgroup M generated by the m_i: an
element is a bitmask g whose bit j is set when it negates the square root of
the j-th pair class outside the span of the ones before it, elements compose
by XOR, and g swaps the i-th point pair exactly when g meets the coordinate
mask of m_i over those classes in an odd number of bits.  M is built once, by
`etale.gf2_span`, as a list in which each class's index is its coordinate
mask; `build_action` turns it into a dict from each class to that mask, and
the fixed field of each stabilizer is read off it.  The mask is the element:
the action, the point permutations and the stabilizers are computed on
masks, and names such as sigma*tau exist only to render the group and the
stabilizers.
The 27 labels — six exceptional divisors E_i, fifteen lines L_ij through
point pairs, six conics C_i through five points — inherit the permutation,
and each orbit is defined over the fixed field of its stabilizer.  Summing
over orbits yields an etale algebra; its Galois-Stiefel-Whitney class alpha_2
is computed by the caller, and `nontriviality_certificate` shows a class
nonzero by an iterated residue whose word it reads off the class (for that
alpha_2, a double residue ending at 1).

The one honest geometric input — that the six default points really are in
general position (Dolgachev, Classical Algebraic Geometry, 2012, ch. 9) —
is verified by 21 exact polynomials in the brackets [ijk] = p_i . (p_j x p_k),
the 3x3 determinants of the points.  No three points lie on a line when the
20 brackets are nonzero.  The six points lie on no conic when the 6x6
determinant of their Veronese rows (u^2, uv, v^2, uw, vw, w^2) is nonzero,
and that determinant is -C for the bracket form of the conic condition
(Sturmfels, Algorithms in Invariant Theory, 1993)

    C = [123][145][246][356] - [124][135][236][456].

Both sides are polynomials with integer coefficients in the 18 coordinates,
and they are equal as polynomials (`tests/test_cubic.py::
test_brackets_give_the_veronese_determinant` expands both in 18 free
generators), so they stay equal under every substitution of coordinates:
C is zero exactly when the conic determinant is.

The brackets are taken in the polynomial ring Z[r_1..r_k] of the square
roots, one free degree-1 generator r_i, named sqrt(n_i), per indeterminate
n_i.  The coordinates are defined over the tower
T = Z[n_1..n_k][r_1..r_k]/(r_i^2 - n_i), with n_i of degree 2, and T is that
polynomial ring: r_i -> r_i is a graded map Z[r] -> T, onto because
n_i = r_i^2 in T, and n_i -> r_i^2, r_i -> r_i is a graded map T -> Z[r],
well defined because it kills every r_i^2 - n_i; the two composites fix
every generator, so they are inverse isomorphisms.  A ring isomorphism
carries a polynomial in the coordinates to the same polynomial in their
images, so each check is zero in T exactly when it is zero in Z[r], and
there it is a plain polynomial product with no relation to rewrite.
"""

from collections import Counter, namedtuple
from itertools import combinations

from . import CcalcError
from .etale import EtaleAlgebraExpr, gf2_span
from .ksymbols import UnknownGenerator, _quote, euclidean_model, residue
from .rings import Poly, Ring


class CubicError(CcalcError):
    pass


class ActionNotHomomorphism(CubicError):
    pass


class DeterminantZero(CubicError):
    def __init__(self, report):
        self.failures = [label for label, ok in report.checks if not ok]
        self.report = report
        super().__init__("degenerate configuration: %s" % ", ".join(self.failures))


class CertificateFails(CubicError):
    pass


class PointConfig:
    """Three conjugate point-pairs with square classes and coordinates.

    pair_classes (required): two or three square classes (m1, m2[, m3]);
    m3 defaults to m1*m2.  Each class is reduced by its model mask
    (`FieldModel.class_mask`), m3 by default the XOR of the first two, and
    kept as the set of the names of its mask.  When every class is a
    monomial in the model's indeterminates the explicit coordinates
    (+-sqrt(m1):1:0), (+-sqrt(m2):0:1), (0:+-sqrt(m3):1) are materialized
    in the polynomial ring of the square roots: one free generator per
    indeterminate n of the classes, named after its class as sqrt(n), for
    any number of indeterminates, and sqrt(m) the product of the generators
    of m's names.
    The ring has no relation and no generator for the indeterminates
    themselves: the tower Z[n][r]/(r_i^2 - n_i) over them is isomorphic to
    it by n_i -> r_i^2 (see the module docstring), so every check has the
    same zero/nonzero verdict in both.  Pass `coordinates`, six triples of
    Polys over one ring, to override them.  A pair class given as a string
    raises CubicError, since it would read as the set of its letters.
    """

    def __init__(self, model, pair_classes, coordinates=None):
        self.model = model
        pair_classes = list(pair_classes)
        for m in pair_classes:
            if isinstance(m, str):
                raise CubicError("pair class %s is a string; give a set of names" % _quote(m))
        if len(pair_classes) not in (2, 3):
            raise CubicError("expected two or three pair classes")
        masks = []
        for m in pair_classes:
            try:
                c = model.class_mask(m)
            except UnknownGenerator as e:
                raise CubicError("unknown square class name %r" % e.args[0]) from None
            if not c:
                raise CubicError("pair class %s is trivial in the model" % sorted(set(m)))
            masks.append(c)
        if masks[0] == masks[1]:
            raise CubicError("the first two pair classes must be independent")
        if len(masks) == 2:
            masks.append(masks[0] ^ masks[1])
        self.pair_classes = tuple(frozenset(model.gen_names(c)) for c in masks)

        self.coordinates = None
        names = sorted(set().union(*self.pair_classes))
        if coordinates is not None:
            self.coordinates = list(coordinates)
            if len(self.coordinates) != 6:
                raise CubicError("expected six coordinate triples")
            if not all(isinstance(p, tuple) and len(p) == 3 for p in self.coordinates):
                raise CubicError("each point must be a triple of coordinates")
            entries = [c for p in self.coordinates for c in p]
            if not all(isinstance(c, Poly) for c in entries):
                raise CubicError("each coordinate must be a Poly")
            if len({c.ring for c in entries}) != 1:
                raise CubicError("the coordinates live in different rings")
        elif all(n in model.indeterminates for n in names):
            ring = Ring(["sqrt(%s)" % n for n in names])
            roots = [
                ring.poly([(1, {"sqrt(%s)" % n: 1 for n in m})])
                for m in self.pair_classes
            ]
            zero, unit = ring.zero, ring.one
            self.coordinates = [
                (roots[0], unit, zero),
                (-roots[0], unit, zero),
                (roots[1], zero, unit),
                (-roots[1], zero, unit),
                (zero, roots[2], unit),
                (zero, -roots[2], unit),
            ]


def default_config():
    """The standard two-parameter configuration over square classes a, b, ab
    in the euclidean model on (a, b)."""
    return PointConfig(
        euclidean_model(("a", "b")), (frozenset({"a"}), frozenset({"b"}))
    )


def three_class_config():
    """Three independent square classes a, b, c (group (Z/2)^3) in the
    euclidean model on (a, b, c)."""
    return PointConfig(
        euclidean_model(("a", "b", "c")),
        (frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
    )


# -- the Galois action on the 27 labels ----------------------------------------


LABELS = (
    tuple("E%d" % i for i in range(1, 7))
    + tuple("L%d%d" % (i, j) for i, j in combinations(range(1, 7), 2))
    + tuple("C%d" % i for i in range(1, 7))
)
_LABEL_POS = {lab: i for i, lab in enumerate(LABELS)}


class LineSet:
    """The 27 labels with the Galois permutations and the group structure.

    A group element is its mask: an int g < 2^k whose bit j is set when g
    negates the square root of the j-th pair class outside the span of the
    ones before it, so elements compose by XOR.
    `action` and `point_perms` are keyed by mask, in display order; `names`
    maps each mask to its name (1, sigma, tau, sigma*tau, ...) and is read
    only to render the group."""

    def __init__(self, config, span, names, point_perms):
        self.config = config
        self.span = span  # each class of M to its coordinate mask
        self.names = names
        self.point_perms = point_perms
        self.action = {g: _induced(pp) for g, pp in point_perms.items()}


def _induced(pp):
    """The permutation of the 27 labels induced by a point permutation."""
    out = {}
    for i in range(1, 7):
        out["E%d" % i] = "E%d" % pp[i]
        out["C%d" % i] = "C%d" % pp[i]
    for i, j in combinations(range(1, 7), 2):
        a, b = sorted((pp[i], pp[j]))
        out["L%d%d" % (i, j)] = "L%d%d" % (a, b)
    return out


def build_action(cfg):
    """Derive the group, the point permutations, the 27-label permutations,
    and verify the homomorphism property A[g] o A[h] = A[g ^ h].

    The span of M is one dict from each class to its coordinate mask, read
    off the list `etale.gf2_span` makes of the model masks of the pair
    classes: a class's index in it is its coordinate mask, and its mask is
    turned back into a class of names.  M has 2^k classes.

    The property is checked for g = h = 0 and for each generator g = e_j
    against every h: 1 + k*2^k checks, which imply it for every pair, by
    induction on the number of bits of g.  A[0] o A[0] = A[0] makes the
    permutation A[0] the identity: that is the case g = 0.  For g != 0 take
    a bit j of g.  The generator checks give A[g] = A[e_j] o A[g ^ e_j], so
    A[g] o A[h] = A[e_j] o A[g ^ e_j] o A[h] = A[e_j] o A[g ^ e_j ^ h]
    (induction) = A[g ^ h] (a generator check again)."""
    model = cfg.model
    masks = [model.class_mask(m) for m in cfg.pair_classes]
    span = gf2_span(masks)
    coords = [span.index(m) for m in masks]
    span = {frozenset(model.gen_names(m)): g for g, m in enumerate(span)}
    k = len(span).bit_length() - 1
    gen_names = ["sigma", "tau"] if k <= 2 else ["sigma%d" % j for j in range(1, k + 1)]

    names, point_perms = {}, {}
    # display order: by the number of negated roots, then by which ones
    for neg in (c for r in range(k + 1) for c in combinations(range(k), r)):
        g = sum(1 << j for j in neg)
        names[g] = "*".join(gen_names[j] for j in neg) or "1"
        pp = point_perms[g] = {}
        for i, c in enumerate(coords, start=1):
            p, q = 2 * i - 1, 2 * i
            pp[p], pp[q] = (q, p) if (c & g).bit_count() % 2 else (p, q)

    ls = LineSet(cfg, span, names, point_perms)
    # homomorphism check on the identity and the generators, through the
    # label action itself
    action = ls.action
    pairs = [(0, 0)] + [(1 << j, h) for j in range(k) for h in action]
    for g, h in pairs:
        for lab in LABELS:
            if action[g][action[h][lab]] != action[g ^ h][lab]:
                raise ActionNotHomomorphism(
                    "action of %s after %s differs from %s on %s"
                    % (names[g], names[h], names[g ^ h], lab)
                )
    return ls


Orbit = namedtuple("Orbit", "labels stabilizer extension")


class OrbitReport:
    def __init__(self, orbits, algebra):
        self.orbits = orbits
        self.algebra = algebra

    def orbit_sizes(self):
        return sorted(len(o.labels) for o in self.orbits)


def _echelon_basis(group):
    """The reduced-echelon basis of a group of square classes, sorted by
    names, read off the whole group.  A row's pivot is its largest name, and
    no other row holds it, so every class is the sum of the rows whose pivots
    it holds: the pivots are the largest names of the nonzero classes, and
    the rows are the classes that hold exactly one pivot."""
    pivots = {max(m) for m in group if m}
    return tuple(sorted((m for m in group if len(m & pivots) == 1), key=sorted))


def orbit_decomposition(ls):
    """Orbits, stabilizers, fixed fields, and the assembled etale algebra."""
    seen = set()
    orbits = []
    for lab in LABELS:
        if lab in seen:
            continue
        # the action covers the whole group, so the orbit is the set of images
        orbit = {perm[lab] for perm in ls.action.values()}
        seen |= orbit
        stab = [g for g, perm in ls.action.items() if perm[lab] == lab]
        if len(orbit) * len(stab) != len(ls.action):
            raise ActionNotHomomorphism(
                "orbit of %s breaks the orbit-stabilizer count" % lab
            )
        fixed = [
            m
            for m, c in ls.span.items()
            if all((c & g).bit_count() % 2 == 0 for g in stab)
        ]
        orbits.append(
            Orbit(
                tuple(sorted(orbit, key=_LABEL_POS.__getitem__)),
                tuple(ls.names[g] for g in stab),
                _echelon_basis(fixed),
            )
        )
    orbits.sort(key=lambda o: (len(o.labels), _LABEL_POS[o.labels[0]]))

    # the echelon basis depends on the fixed group alone, so equal fixed
    # fields have equal extension tuples
    counts = Counter(o.extension for o in orbits)
    order = sorted(
        counts, key=lambda e: (len(e), sorted((len(m), sorted(m)) for m in e))
    )
    algebra = EtaleAlgebraExpr(ls.config.model, [(e, counts[e]) for e in order])
    return OrbitReport(orbits, algebra)


def bitangent_algebra(lines):
    """The 27-line algebra `lines` (an `OrbitReport.algebra`) times one
    extra rank-1 factor F: the rank-28 algebra of the 28 bitangents."""
    return lines.times(EtaleAlgebraExpr(lines.model, [((), 1)]))


# -- general position ------------------------------------------------------------


class PositionReport:
    """Exact zero/nonzero verdicts for the 20 collinearity brackets and the
    conic condition."""

    def __init__(self, checks):
        self.checks = checks  # list of (label, nonzero boolean)

    @property
    def all_nonzero(self):
        return all(ok for _, ok in self.checks)


# (sign, i, j, k) for each permutation (i, j, k) of the three columns
_SIGNED_PERMUTATIONS = (
    (1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1),
    (-1, 0, 2, 1), (-1, 2, 1, 0), (-1, 1, 0, 2),
)


def _bracket(p, q, r):
    """The bracket [pqr] = p . (q x r), the determinant of the rows p, q, r,
    as the sum of sign * p[i] * q[j] * r[k] over the six permutations; a
    term with a zero entry is skipped (two of the six survive in each bracket
    of the default configuration)."""
    out = p[0].ring.zero
    for sign, i, j, k in _SIGNED_PERMUTATIONS:
        a, b, c = p[i], q[j], r[k]
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        out = out + a * b * c if sign > 0 else out - a * b * c
    return out


def verify_general_position(cfg):
    """Evaluate the 20 collinearity brackets and the bracket conic condition
    (see the module docstring) exactly; raises DeterminantZero (listing the
    degeneracies) on failure."""
    if cfg.coordinates is None:
        raise CubicError(
            "no coordinates available for this configuration; pass them explicitly"
        )
    pts = cfg.coordinates
    b = {t: _bracket(*(pts[i - 1] for i in t)) for t in combinations(range(1, 7), 3)}
    checks = [("line(%d,%d,%d)" % t, not d.is_zero()) for t, d in b.items()]
    conic = (
        b[1, 2, 3] * b[1, 4, 5] * b[2, 4, 6] * b[3, 5, 6]
        - b[1, 2, 4] * b[1, 3, 5] * b[2, 3, 6] * b[4, 5, 6]
    )
    checks.append(("conic(1..6)", not conic.is_zero()))
    report = PositionReport(checks)
    if not report.all_nonzero:
        raise DeterminantZero(report)
    return report


# -- the nontriviality certificate -------------------------------------------------


# the residue word and the chain x, its residue at at[0], ..., which ends at a
# nonzero constant
Certificate = namedtuple("Certificate", "at chain")


def nontriviality_certificate(x):
    """Certify the class x nonzero by an iterated residue that ends at a
    nonzero constant.

    The word `at` is the names of g, last name first, where g is the smallest
    (as an int) of the masks with the most names in x's support.  Every other
    mask in the support lacks one of those names, so its basis symbols die
    along the chain, and each (m, g) becomes eps^m: the chain ends at a sum
    of distinct powers of eps, which is not zero.  For alpha_2 of the 27
    lines with the bitangent factor, g is the first two indeterminates, so
    the word is the second and then the first, and the chain ends at 1.
    Raises CertificateFails for the zero class, and when g holds a constant
    class (the 2 of the generic model), where no residue is taken."""
    if x.is_zero():
        raise CertificateFails("the zero class has no residue certificate")
    g = min((-g.bit_count(), g) for _, g in x.support)[1]
    at = x.model.gen_names(g)[::-1]
    chain = [x]
    for name in at:
        if name not in x.model.indeterminates:
            raise CertificateFails(
                "no residue is taken at the constant class %s" % x.model.spell(name)
            )
        chain.append(residue(chain[-1], name))
    return Certificate(at, chain)
