"""
The 27 lines of a cubic surface blown up from three conjugate point-pairs,
as pure Galois bookkeeping.

Six points in the plane come in three conjugate pairs, pair i defined over
the quadratic extension of square class m_i (defaults a, b, a*b).  The Galois
group is the character group of the subgroup M generated by the m_i: an
element acts by a sign on each generator of M, and swaps the i-th point pair
exactly when it is -1 on m_i.  The 27 labels — six exceptional divisors E_i,
fifteen lines L_ij through point pairs, six conics C_i through five points —
inherit the permutation, and each orbit is defined over the fixed field of
its stabilizer.  Summing over orbits yields an etale algebra whose
Galois-Stiefel-Whitney class alpha_2 is certified nontrivial by a double
residue.

The one honest geometric input — that the six default points really are in
general position — is verified by exact determinant evaluation in a
polynomial tower where the square roots are fiber generators.
"""

from collections import namedtuple
from itertools import combinations

from .etale import EtaleAlgebraExpr, galois_sw_total, gf2_eliminate, monomial_str
from .ksymbols import euclidean_model, residue
from .rings import Ring


class CubicError(Exception):
    pass


class ActionNotHomomorphism(CubicError):
    pass


class DeterminantZero(CubicError):
    def __init__(self, failures, report):
        super().__init__("degenerate configuration: %s" % ", ".join(
            label for label, _ in failures
        ))
        self.failures = failures
        self.report = report


class CertificateFails(CubicError):
    pass


_SQRT_GENS = ("x", "y", "z", "v", "w", "x2", "y2", "z2")


class PointConfig:
    """Three conjugate point-pairs with square classes and coordinates.

    pair_classes (required): two or three square classes (m1, m2[, m3]);
    m3 defaults to m1*m2.  When every class is a monomial in the model's
    indeterminates the explicit coordinates (+-sqrt(m1):1:0),
    (+-sqrt(m2):0:1), (0:+-sqrt(m3):1) are materialized over a polynomial
    tower with one square-root fiber generator per indeterminate; pass
    `coordinates` to override them.
    """

    def __init__(self, model, pair_classes, coordinates=None):
        self.model = model
        pair_classes = [frozenset(m) for m in pair_classes]
        if len(pair_classes) not in (2, 3):
            raise CubicError("expected two or three pair classes")
        reduced = []
        for m in pair_classes:
            for name in m:
                if not model.knows(name):
                    raise CubicError("unknown square class name %r" % name)
            r = frozenset(n for n in m if not model.is_trivial(n))
            if not r:
                raise CubicError("pair class %s is trivial in the model" % sorted(m))
            reduced.append(r)
        if reduced[0] == reduced[1]:
            raise CubicError("the first two pair classes must be independent")
        if len(reduced) == 2:
            reduced.append(reduced[0] ^ reduced[1])
        self.pair_classes = tuple(reduced)

        self.position_ring = None
        self.coordinates = None
        names = sorted(set().union(*self.pair_classes))
        pool = [g for g in _SQRT_GENS if g not in names]
        if coordinates is not None:
            self.coordinates = list(coordinates)
            if len(self.coordinates) != 6:
                raise CubicError("expected six coordinate triples")
            self.position_ring = self.coordinates[0][0].ring
        elif all(n in model.indeterminates for n in names) and len(names) <= len(
            pool
        ):
            sqrt_of = {n: pool[i] for i, n in enumerate(names)}
            ring = Ring(
                [(n, 2) for n in names] + [(sqrt_of[n], 1) for n in names],
                relations={
                    sqrt_of[n]: (2, [[], [(-1, {n: 1})]]) for n in names
                },
            )
            self.position_ring = ring
            roots = []
            for m in self.pair_classes:
                r = ring.one
                for n in sorted(m):
                    r = r * ring.gen(sqrt_of[n])
                roots.append(r)
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
    """The 27 labels with the Galois permutations and the group structure."""

    def __init__(self, config, basis, elements, point_perms):
        self.config = config
        self.basis = basis  # basis of M as square classes
        self.elements = tuple(elements)  # name -> negated-basis-subset
        self._elems = dict(elements)
        self.point_perms = point_perms
        self.labels = LABELS
        self.action = {
            name: self._induced(point_perms[name]) for name, _ in elements
        }

    @staticmethod
    def _induced(pp):
        out = {}
        for i in range(1, 7):
            out["E%d" % i] = "E%d" % pp[i]
            out["C%d" % i] = "C%d" % pp[i]
        for i, j in combinations(range(1, 7), 2):
            a, b = sorted((pp[i], pp[j]))
            out["L%d%d" % (i, j)] = "L%d%d" % (a, b)
        return out

    def compose_name(self, g, h):
        prod = self._elems[g] ^ self._elems[h]
        for name, neg in self.elements:
            if neg == prod:
                return name
        raise ActionNotHomomorphism("product of %s and %s missing" % (g, h))


def build_action(cfg):
    """Derive the group, the point permutations, the 27-label permutations,
    and verify the homomorphism property on every pair of elements."""
    classes = list(cfg.pair_classes)
    _, deps = gf2_eliminate(classes)
    free = [i for i, dep in enumerate(deps) if dep is None]
    basis = [classes[i] for i in free]
    # coordinates of each pair class over the basis of independent classes
    coords = [
        frozenset(free.index(j) for j in ({i} if dep is None else dep))
        for i, dep in enumerate(deps)
    ]
    k = len(basis)

    def elem_name(neg):
        if not neg:
            return "1"
        if k <= 2:
            gen_names = {0: "sigma", 1: "tau"}
        else:
            gen_names = {j: "sigma%d" % (j + 1) for j in range(k)}
        return "*".join(gen_names[j] for j in sorted(neg))

    elements = []
    point_perms = {}
    for bits in range(1 << k):
        neg = frozenset(j for j in range(k) if bits >> j & 1)
        name = elem_name(neg)
        pp = {}
        for i, mcoords in enumerate(coords, start=1):
            swap = len(mcoords & neg) % 2 == 1
            p, q = 2 * i - 1, 2 * i
            pp[p], pp[q] = (q, p) if swap else (p, q)
        elements.append((name, neg))
        point_perms[name] = pp
    elements.sort(key=lambda item: (len(item[1]), sorted(item[1])))

    ls = LineSet(cfg, basis, elements, point_perms)
    # homomorphism check on all pairs, through the label action itself
    for g, _ in elements:
        for h, _ in elements:
            gh = ls.compose_name(g, h)
            for lab in LABELS:
                if ls.action[g][ls.action[h][lab]] != ls.action[gh][lab]:
                    raise ActionNotHomomorphism(
                        "action of %s after %s differs from %s on %s"
                        % (g, h, gh, lab)
                    )
    return ls


Orbit = namedtuple("Orbit", "labels stabilizer fixed_field extension")


class OrbitReport:
    def __init__(self, orbits, algebra):
        self.orbits = orbits
        self.algebra = algebra

    def orbit_sizes(self):
        return sorted(len(o.labels) for o in self.orbits)


def orbit_decomposition(ls):
    """Orbits, stabilizers, fixed fields, and the assembled etale algebra."""
    cfg = ls.config
    model = cfg.model
    group_order = len(ls.elements)

    # enumerate M once: all XOR-combinations of the basis
    span = {}
    for bits in range(1 << len(ls.basis)):
        acc = frozenset()
        neg = frozenset(j for j in range(len(ls.basis)) if bits >> j & 1)
        for j in neg:
            acc ^= ls.basis[j]
        span[acc] = neg

    seen = set()
    orbits = []
    for lab in LABELS:
        if lab in seen:
            continue
        orbit = {lab}
        frontier = [lab]
        while frontier:
            cur = frontier.pop()
            for name, _ in ls.elements:
                nxt = ls.action[name][cur]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        rep = lab
        stab = tuple(
            name for name, _ in ls.elements if ls.action[name][rep] == rep
        )
        if len(orbit) * len(stab) != group_order:
            raise ActionNotHomomorphism(
                "orbit of %s breaks the orbit-stabilizer count" % rep
            )
        stab_negs = [ls._elems[name] for name in stab]
        fixed = [
            m
            for m, mcoords in span.items()
            if m and all(len(mcoords & neg) % 2 == 0 for neg in stab_negs)
        ]
        ext, _ = gf2_eliminate(fixed)
        labels = tuple(sorted(orbit, key=_LABEL_POS.__getitem__))
        orbits.append(
            Orbit(
                labels,
                stab,
                tuple(monomial_str(m, model) for m in ext),
                ext,
            )
        )
    orbits.sort(key=lambda o: (len(o.labels), _LABEL_POS[o.labels[0]]))

    grouped = {}
    order = []
    for o in orbits:
        key = (
            len(o.extension),
            tuple(sorted((len(m), tuple(sorted(m))) for m in o.extension)),
        )
        if key not in grouped:
            grouped[key] = [o.extension, 0]
            order.append(key)
        grouped[key][1] += 1
    order.sort()
    algebra = EtaleAlgebraExpr(model, [tuple(grouped[k]) for k in order])
    return OrbitReport(orbits, algebra)


def bitangent_algebra(cfg):
    """The 27-line algebra plus the one extra rank-1 factor; rank 28."""
    report = orbit_decomposition(build_action(cfg))
    extra = EtaleAlgebraExpr(cfg.model, [((), 1)])
    return report.algebra.times(extra)


# -- general position ------------------------------------------------------------


class PositionReport:
    """Exact zero/nonzero verdicts for the 21 degeneracy determinants."""

    def __init__(self, checks):
        self.checks = checks  # list of (label, nonzero boolean)

    @property
    def all_nonzero(self):
        return all(ok for _, ok in self.checks)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    total = ring.zero
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def verify_general_position(cfg):
    """Evaluate all 20 collinearity determinants and the conic determinant
    exactly; raises DeterminantZero (listing the degeneracies) on failure."""
    if cfg.coordinates is None:
        raise CubicError(
            "no coordinates available for this configuration; pass them explicitly"
        )
    pts = cfg.coordinates
    checks = []
    failures = []
    for i, j, k in combinations(range(6), 3):
        det = _det([list(pts[i]), list(pts[j]), list(pts[k])])
        label = "line(%d,%d,%d)" % (i + 1, j + 1, k + 1)
        ok = not det.is_zero()
        checks.append((label, ok))
        if not ok:
            failures.append((label, (i + 1, j + 1, k + 1)))
    conic_rows = []
    for u, v, w in pts:
        conic_rows.append([u * u, u * v, v * v, u * w, v * w, w * w])
    det = _det(conic_rows)
    ok = not det.is_zero()
    checks.append(("conic(1..6)", ok))
    if not ok:
        failures.append(("conic(1..6)", (1, 2, 3, 4, 5, 6)))
    report = PositionReport(checks)
    if failures:
        raise DeterminantZero(failures, report)
    return report


# -- the nontriviality certificate -------------------------------------------------


# alpha_2 and its residues at the names in `at`; valid iff the chain ends at 1
Certificate = namedtuple("Certificate", "at chain")


def nontriviality_certificate(alg):
    """Certify alpha_2 of the algebra nonzero (hence multiplication by it
    injective on constants) by a double residue, at the model's second
    indeterminate and then its first, ending at 1."""
    inds = alg.model.indeterminates
    at = (inds[1], inds[0])
    alpha2 = galois_sw_total(alg, max_degree=2).alpha(2)
    chain = [alpha2]
    cur = alpha2
    for name in at:
        cur = residue(cur, name)
        chain.append(cur)
    if not cur.is_one():
        raise CertificateFails(
            "residue chain at %s ends at %s, not 1" % (list(at), cur)
        )
    return Certificate(tuple(at), chain)
