"""The oracle table and the cross-checks behind `ccalc check-all`.

Every headline computation is recomputed through the library pipeline and
compared against an independently recorded expected value: closed-form
coefficient tables for the locus classes, hand-reduced symbol strings for the
trace-form invariants and the 27-lines bookkeeping, and the gcd table for the
group descriptors.  The expected values live in module-level data, not code,
so the whole mapping is auditable at a glance; parsing the recorded strings
back through the public parsers keeps the comparisons at the element level
rather than the rendering level.

The randomized suites at the bottom re-derive structural laws (normal-form
confluence, the projection formula, the Steinberg consequences, and
multiplicativity/vanishing of the total trace-form class) on seeded cases, so
a failure reproduces exactly.  Three of them compare the library with a
second implementation that shares no code with it: `_independent_reduce`, a
long division, stands against the normal forms of `rings`, and
`_independent_galois_sw`, the one-pass recurrence over the closed-form
trace-form diagonal, against the power formula of `etale`.
"""

import random
from collections import namedtuple
from math import gcd

from .chow import POINT_RING, class_bin, class_z, fiber_pushforward, r_value
from .cubic import (
    CertificateFails,
    DeterminantZero,
    bitangent_algebra,
    build_action,
    default_config,
    nontriviality_certificate,
    orbit_decomposition,
    three_class_config,
    verify_general_position,
)
from .etale import (
    DependentClasses,
    EtaleAlgebraExpr,
    galois_sw_total,
    parse_algebra,
)
from .groups import (
    GroupDescriptor,
    brauer_stack,
    brauer_xd,
    consistency_report,
    hyperelliptic_divisibility,
    n_torsion,
)
from .ksymbols import (
    KElement,
    _product,
    closed_model,
    euclidean_model,
    generic_model,
    iterated_residue,
    one,
    parse_kelement,
    symbol,
    zero,
)
from .rings import Ring

CheckLine = namedtuple("CheckLine", ["name", "ok", "detail"])

DEFAULT_SEED = 20260819
DEFAULT_CASES = 1000
# Largest curve degree the locus-class checks run to; the oracle tables
# below stop there.
D_MAX = 12


# -- the oracle table ---------------------------------------------------------
# Locus classes on the degree-1 basis.  Row d of CLASSZ_EXPECTED is the
# coefficient dict and content of (d-1)^2*(3h - d*c1); row d of
# CLASSD_EXPECTED is 3d(d-2)*hz - d(d-1)^2*c1 - 3(d-2)*u with content
# gcd(d(d-1)^2, 3(d-2)).

CLASSZ_EXPECTED = {
    3: ({"h": 12, "c1": -12}, 12),
    4: ({"h": 27, "c1": -36}, 9),
    5: ({"h": 48, "c1": -80}, 16),
    6: ({"h": 75, "c1": -150}, 75),
    7: ({"h": 108, "c1": -252}, 36),
    8: ({"h": 147, "c1": -392}, 49),
    9: ({"h": 192, "c1": -576}, 192),
    10: ({"h": 243, "c1": -810}, 81),
    11: ({"h": 300, "c1": -1100}, 100),
    12: ({"h": 363, "c1": -1452}, 363),
}

CLASSD_EXPECTED = {
    4: ({"hz": 24, "c1": -36, "u": -6}, 6),
    5: ({"hz": 45, "c1": -80, "u": -9}, 1),
    6: ({"hz": 72, "c1": -150, "u": -12}, 6),
    7: ({"hz": 105, "c1": -252, "u": -15}, 3),
    8: ({"hz": 144, "c1": -392, "u": -18}, 2),
    9: ({"hz": 189, "c1": -576, "u": -21}, 3),
    10: ({"hz": 240, "c1": -810, "u": -24}, 6),
    11: ({"hz": 297, "c1": -1100, "u": -27}, 1),
    12: ({"hz": 360, "c1": -1452, "u": -30}, 6),
}

# Trace-form invariants over the euclidean model on (a, b).
THREE_QUADRATICS = "F(sqrt(a)) * F(sqrt(b)) * F(sqrt(a*b))"
THREE_QUADRATICS_TOTAL = "1 + {a,b} + {-1,a*b}"
BIQUADRATIC = "F(sqrt(a),sqrt(b))"
BIQUADRATIC_ALPHAS = ("0", "{a,b} + {-1,a*b}")

# 27 lines over three conjugate point-pairs with classes a, b, ab.
LINES_ORBIT_SIZES = (1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4)
LINES_ALGEBRA = (
    "F^3 * F(sqrt(a))^2 * F(sqrt(b))^2 * F(sqrt(a*b))^2 * F(sqrt(a),sqrt(b))^3"
)
LINES_ALGEBRA_WITH_BITANGENT = (
    "F^4 * F(sqrt(a))^2 * F(sqrt(b))^2 * F(sqrt(a*b))^2 * F(sqrt(a),sqrt(b))^3"
)
LINES_ALPHA2 = "{a,b} + {-1,a*b}"

# The three-class configuration (a, b, c): graded parts of the total
# trace-form class, and the residue words separating the even-degree
# invariants from 1 and from each other.
THREE_CLASS_DEGREE_PARTS = {
    1: "0",
    2: "{-1,a*b*c} + {a,b} + {a,c} + {b,c}",
    3: "0",
    4: "eps^3*{a*b*c}",
    5: "0",
    6: "eps^3*{a,b,c} + eps^5*{a*b*c}",
    7: "0",
}
THREE_CLASS_RESIDUE_TABLE = {
    ("b", "a"): ("0", "1", "0", "eps^3*{c}"),
    ("b",): ("0", "eps + {a} + {c}", "eps^3", "eps^5 + eps^3*{a,c}"),
    ("b", "a", "c"): ("0", "0", "0", "eps^3"),
}

# Group descriptors: cyclic orders gcd(d, 6) for the smooth-curve stacks, the
# rendered genus-3 descriptors, and the divisor-class divisibility.
XD_EXPECTED = {3: 3, 4: 2, 5: 1, 6: 6, 7: 1, 8: 2, 9: 3, 10: 2}
STACK_EXPECTED = {
    "m3": "Br(k) ⊕ Z/2",
    "m3_minus_h3": "Br(k) ⊕ H^1(k, Z/9) ⊕ Z/2",
    "x4fr": "Br(k) ⊕ H^1(k, Z/9) ⊕ Z/2",
}
HYPERELLIPTIC_EXPECTED = 18


def classz_oracle(d):
    """Closed-form coefficients (d-1)^2 * (3h - d*c1), for any degree."""
    return {"h": 3 * (d - 1) ** 2, "c1": -d * (d - 1) ** 2}


def classd_oracle(d):
    """Closed-form coefficients 3d(d-2)*hz - d(d-1)^2*c1 - 3(d-2)*u."""
    return {"hz": 3 * d * (d - 2), "c1": -d * (d - 1) ** 2, "u": -3 * (d - 2)}


def _poly_from_coefficients(ring, coeffs):
    return ring.poly([(c, {name: 1}) for name, c in coeffs.items()])


# -- locus classes ------------------------------------------------------------


def check_locus_classes():
    out = []
    for d in range(3, D_MAX + 1):
        report = class_z(d)
        coeffs = classz_oracle(d)
        want = _poly_from_coefficients(report.poly.ring, coeffs)
        ok = report.poly == want and report.divisibility_ok
        if d in CLASSZ_EXPECTED:
            ok = ok and CLASSZ_EXPECTED[d] == (coeffs, report.content)
        out.append(
            CheckLine(
                "classz d=%d equals the closed form" % d,
                ok,
                "%s (content %d)" % (report.poly, report.content),
            )
        )
    return out


def check_binary_classes():
    out = []
    for d in range(4, D_MAX + 1):
        rep_t = class_bin(d)
        rep_s = class_bin(d, push_fiber="s")
        coeffs = classd_oracle(d)
        want = _poly_from_coefficients(rep_t.poly.ring, coeffs)
        # pushing along either fiber must produce the same exact quotient
        ok = rep_t.poly == want and rep_s.poly == want and rep_t.divisibility_ok
        if d in CLASSD_EXPECTED:
            ok = ok and CLASSD_EXPECTED[d] == (coeffs, rep_t.content)
        out.append(
            CheckLine(
                "classd d=%d equals the closed form via both fibers" % d,
                ok,
                "%s (content %d)" % (rep_t.poly, rep_t.content),
            )
        )
    return out


def check_torsion_bookkeeping():
    out = []
    for d in range(4, D_MAX + 1):
        i_d = 1 if d % 3 == 0 else 0
        cz = class_z(d).content
        cb = class_bin(d).content
        r = r_value(d)
        ok = (
            cz == 3 ** i_d * (d - 1) ** 2
            and cb == r == gcd(d * (d - 1) ** 2, 3 * (d - 2))
            and (r % 2 == 0) == (d % 2 == 0)
            and n_torsion(d) == gcd(2, r)
        )
        out.append(
            CheckLine(
                "torsion bookkeeping at d=%d" % d,
                ok,
                "content(z)=%d content(bin)=%d r=%d" % (cz, cb, r),
            )
        )
    return out


# -- trace-form invariants ------------------------------------------------------


def check_sw_examples():
    model = euclidean_model(("a", "b"))
    out = []

    alg = parse_algebra(THREE_QUADRATICS, model)
    total = galois_sw_total(alg, max_degree=alg.rank).alpha_tot()
    want = parse_kelement(THREE_QUADRATICS_TOTAL, model)
    out.append(
        CheckLine(
            "total trace-form class of %s" % THREE_QUADRATICS,
            total == want,
            str(total),
        )
    )

    field = parse_algebra(BIQUADRATIC, model)
    sw = galois_sw_total(field, max_degree=field.rank)
    got = (sw.alpha(1), sw.alpha(2))
    want_pair = tuple(parse_kelement(t, model) for t in BIQUADRATIC_ALPHAS)
    out.append(
        CheckLine(
            "alpha1 and alpha2 of %s" % BIQUADRATIC,
            got == want_pair,
            "alpha1 = %s, alpha2 = %s" % got,
        )
    )
    return out


# -- 27 lines -----------------------------------------------------------------


def check_line_orbits():
    cfg = default_config()
    model = cfg.model
    out = []

    report = orbit_decomposition(build_action(cfg))
    want_alg = parse_algebra(LINES_ALGEBRA, model)
    out.append(
        CheckLine(
            "27-line orbit algebra and orbit sizes",
            report.algebra == want_alg
            and report.orbit_sizes() == sorted(LINES_ORBIT_SIZES)
            and report.algebra.rank == 27,
            str(report.algebra),
        )
    )

    with_bitangent = bitangent_algebra(report.algebra)
    hand = parse_algebra(LINES_ALGEBRA_WITH_BITANGENT, model)
    want_a2 = parse_kelement(LINES_ALPHA2, model)
    a2_orbit = galois_sw_total(with_bitangent, max_degree=2).alpha(2)
    a2_hand = galois_sw_total(hand, max_degree=2).alpha(2)
    out.append(
        CheckLine(
            "rank 28 and alpha2 through both routes",
            with_bitangent.rank == 28
            and with_bitangent == hand
            and a2_orbit == want_a2
            and a2_hand == want_a2,
            "alpha2 = %s" % a2_orbit,
        )
    )

    try:
        cert = nontriviality_certificate(a2_orbit)
        ok = cert.chain[-1].is_one()
        detail = " -> ".join(str(x) for x in cert.chain)
    except CertificateFails as e:
        ok, detail = False, str(e)
    out.append(CheckLine("double-residue certificate ends at 1", ok, detail))
    return out


def check_general_position():
    try:
        report = verify_general_position(default_config())
        ok = report.all_nonzero and len(report.checks) == 21
        detail = "%d determinants, all nonzero" % len(report.checks)
    except DeterminantZero as e:
        ok, detail = False, str(e)
    return [CheckLine("default six points in general position", ok, detail)]


def check_three_class_invariants():
    cfg = three_class_config()
    model = cfg.model
    out = []

    sw = galois_sw_total(
        bitangent_algebra(orbit_decomposition(build_action(cfg)).algebra)
    )
    bad = [
        deg
        for deg, text in sorted(THREE_CLASS_DEGREE_PARTS.items())
        if sw.alpha(deg) != parse_kelement(text, model)
    ]
    out.append(
        CheckLine(
            "three-class invariants in degrees 1..7",
            not bad,
            "mismatch in degrees %s" % bad if bad else "all degree parts match",
        )
    )

    invariants = [sw.alpha(0), sw.alpha(2), sw.alpha(4), sw.alpha(6)]
    table_ok = True
    results = {}
    for word, texts in THREE_CLASS_RESIDUE_TABLE.items():
        got = [iterated_residue(x, word) for x in invariants]
        want = [parse_kelement(t, model) for t in texts]
        if got != want:
            table_ok = False
        results[word] = got
    separated = all(
        any(results[w][i] != results[w][j] for w in THREE_CLASS_RESIDUE_TABLE)
        for i in range(4)
        for j in range(i + 1, 4)
    )
    out.append(
        CheckLine(
            "residue words separate 1, alpha2, alpha4, alpha6",
            table_ok and separated,
            "%d words distinguish all %d invariant pairs" % (len(results), 6),
        )
    )
    return out


# -- group descriptors ----------------------------------------------------------


def check_group_evaluators():
    out = []

    table_ok = all(
        brauer_xd(d) == GroupDescriptor(cyclic=[order])
        for d, order in XD_EXPECTED.items()
    )
    out.append(
        CheckLine(
            "smooth-curve stack table d=3..10",
            table_ok,
            " ".join("%d:%s" % (d, brauer_xd(d)) for d in sorted(XD_EXPECTED)),
        )
    )

    stacks_ok = all(
        str(brauer_stack(name)) == want for name, want in STACK_EXPECTED.items()
    )
    stacks_ok = stacks_ok and brauer_stack("a3", char=5).placeholder_label == "B''_5"
    out.append(
        CheckLine(
            "genus-3 stack descriptors",
            stacks_ok,
            "m3: %s; open locus: %s" % (
                brauer_stack("m3"), brauer_stack("m3_minus_h3")),
        )
    )

    div = hyperelliptic_divisibility()
    out.append(
        CheckLine(
            "hyperelliptic divisor-class divisibility",
            div.value == HYPERELLIPTIC_EXPECTED and div.factors == (9, 2),
            "%d = %d * %d" % (div.value, div.factors[0], div.factors[1]),
        )
    )

    rows = consistency_report()
    failed = [name for name, ok in rows if not ok]
    out.append(
        CheckLine(
            "cross-module consistency report",
            not failed,
            "failed: %s" % failed if failed else "%d rows agree" % len(rows),
        )
    )
    return out


# -- randomized property suites -------------------------------------------------

# Dedicated tower for the rewriting laws: a projective-bundle-shaped cubic
# relation t^3 + c1*t^2 + c2*t + c3 = 0 over three free Chern generators.
PROP_RING = Ring(
    [("c1", 1), ("c2", 2), ("c3", 3), "t"],
    relations={"t": (3, [[(1, {"c1": 1})], [(1, {"c2": 1})], [(1, {"c3": 1})]])},
)


def _random_raw(rnd, max_terms=4):
    raw = []
    for _ in range(rnd.randint(1, max_terms)):
        mono = {}
        for name, top in (("c1", 2), ("c2", 1), ("c3", 1), ("t", 7)):
            e = rnd.randint(0, top)
            if e:
                mono[name] = e
        raw.append((rnd.randint(-9, 9), mono))
    return raw


def _independent_reduce(raw):
    """Long division by t^3 + c1*t^2 + c2*t + c3 on plain exponent tuples.

    A second implementation of the normal form, sharing no code with the ring:
    monic division has a unique remainder, so agreement pins both down.  The
    terms are merged into one dict per power of t, and the dicts of t^k with
    k >= 3 are divided out highest k first, each into the three below it, so
    the work is the top power times the number of terms per power.
    """
    rows = {}
    for c, mono in raw:
        row = rows.setdefault(mono.get("t", 0), {})
        key = (mono.get("c1", 0), mono.get("c2", 0), mono.get("c3", 0))
        row[key] = row.get(key, 0) + c
    for k in range(max(rows, default=0), 2, -1):
        for (e1, e2, e3), c in rows.pop(k, {}).items():
            # t^3 = -(c1*t^2 + c2*t + c3)
            for j, key in (
                (1, (e1 + 1, e2, e3)),
                (2, (e1, e2 + 1, e3)),
                (3, (e1, e2, e3 + 1)),
            ):
                row = rows.setdefault(k - j, {})
                row[key] = row.get(key, 0) - c
    return {
        (e1, e2, e3, k): c for k, row in rows.items() for (e1, e2, e3), c in row.items() if c
    }


def property_normal_forms(rnd, cases):
    for i in range(cases):
        raw = _random_raw(rnd)
        p = PROP_RING.poly(raw)
        terms = p.terms  # a new dict on each access
        if terms != _independent_reduce(raw):
            return False, "case %d: normal form differs from long division" % i
        shuffled = raw[:]
        rnd.shuffle(shuffled)
        if PROP_RING.poly(shuffled) != p:
            return False, "case %d: term order changed the normal form" % i
        back = [
            (c, {n: k for n, k in zip(PROP_RING.names, e) if k})
            for e, c in terms.items()
        ]
        if PROP_RING.poly(back) != p:
            return False, "case %d: normal form is not idempotent" % i
        q = PROP_RING.poly(_random_raw(rnd))
        r = PROP_RING.poly(_random_raw(rnd, max_terms=2))
        pq, qr = p * q, q * r
        if (p + q) * r != p * r + qr:
            return False, "case %d: distributivity fails" % i
        if pq != q * p or pq * r != p * qr:
            return False, "case %d: commutativity/associativity fails" % i
        if p - p != PROP_RING.zero or PROP_RING.one * p != p:
            return False, "case %d: unit/negation fails" % i
    return True, "%d cases" % cases


def _random_point_poly(rnd, max_grade, with_fiber):
    names = ["l1", "l2", "l3", "h"] + (["t"] if with_fiber else [])
    raw = []
    for _ in range(rnd.randint(1, 3)):
        mono = {}
        for _ in range(rnd.randint(0, max_grade)):
            n = rnd.choice(names)
            mono[n] = mono.get(n, 0) + 1
        raw.append((rnd.randint(-6, 6), mono))
    return POINT_RING.poly(raw)


def property_projection_formula(rnd, cases):
    for i in range(cases):
        x = _random_point_poly(rnd, 2, with_fiber=False)
        y = _random_point_poly(rnd, 3, with_fiber=True)
        if fiber_pushforward(x * y, "t") != x * fiber_pushforward(y, "t"):
            return False, "case %d: x=%s y=%s" % (i, x, y)
    return True, "%d cases" % cases


def property_steinberg(rnd, cases):
    models = (
        closed_model(("a", "b", "c")),
        euclidean_model(("a", "b", "c")),
        generic_model(("a", "b", "c")),
    )
    for i in range(cases):
        model = rnd.choice(models)
        parts = ["2"] if rnd.random() < 0.3 else []
        parts += [n for n in ("a", "b", "c") if rnd.random() < 0.5]
        x = "*".join(parts) if parts else "1"
        if rnd.random() < 0.5:
            x = "-" + x
        if symbol([x, x], model) != symbol(["-1", x], model):
            return False, "case %d: {x,x} != {-1,x} for x=%s" % (i, x)
        neg = x[1:] if x.startswith("-") else "-" + x
        if not symbol([x, neg], model).is_zero():
            return False, "case %d: {x,-x} != 0 for x=%s" % (i, x)
    return True, "%d cases" % cases


def _random_algebra(rnd, model, max_rank):
    names = model.indeterminates
    while True:
        factors = []
        for _ in range(rnd.randint(1, 2)):
            exts = []
            for _ in range(rnd.randint(0, 2)):
                mono = frozenset(n for n in names if rnd.random() < 0.5)
                if mono:
                    exts.append(mono)
            factors.append((tuple(exts), rnd.randint(1, 2)))
        # the rank needs only the draws, so an algebra too large is never built
        if sum(mult * 2 ** len(exts) for exts, mult in factors) > max_rank:
            continue
        try:
            return EtaleAlgebraExpr(model, factors)
        except DependentClasses:
            continue


def _independent_galois_sw(alg):
    """Galois-corrected classes alpha_0..alpha_rank of alg by the one-pass
    recurrence, every factor repeated its full multiplicity.

    A second implementation of `galois_sw_total`, sharing no code with
    `etale`: it reads the trace form in closed form, diag(2^s*m_S) over the
    subsets S of the s square roots (Conner-Perlis), so entry S has the square
    class prod_(j in S) m_j, times 2 when s is odd.  It accumulates sigma_i of
    their symbols one entry at a time, each pass up to the number of entries
    taken so far, and adds {2}*alpha_(i-1) in even degrees.  The passes work
    on supports, products by `ksymbols._product` and sums by XOR, and the
    KElements are built once at the end.
    """
    model = alg.model
    e = [one(model).support] + [frozenset()] * alg.rank
    top = 0  # a product of top factors 1 + x has no term above degree top
    for ext, mult in alg.factors:
        s = len(ext)
        for mask in range(2 ** s):
            cls = frozenset({"two"}) if s % 2 else frozenset()
            for j, m in enumerate(ext):
                if mask >> j & 1:
                    cls ^= m
            sym = symbol([cls], model).support
            for _ in range(mult):
                top += 1
                for i in range(min(alg.rank, top), 0, -1):
                    e[i] = e[i] ^ _product(model, sym, e[i - 1])
    two = symbol(["2"], model).support
    return [
        KElement(model, c ^ _product(model, two, e[i - 1]) if i and i % 2 == 0 else c)
        for i, c in enumerate(e)
    ]


def property_multiplicativity(rnd, cases):
    models = (closed_model(("a", "b", "c")), euclidean_model(("a", "b", "c")))
    for i in range(cases):
        model = rnd.choice(models)
        a = _random_algebra(rnd, model, max_rank=6)
        b = _random_algebra(rnd, model, max_rank=6)
        prod = a.times(b)
        lhs = galois_sw_total(prod, max_degree=prod.rank).alpha_tot()
        fa, fb = (sum(_independent_galois_sw(x), zero(model)) for x in (a, b))
        if lhs != fa * fb:
            return False, "case %d: %s times %s over %s" % (i, a, b, model.name)
    return True, "%d cases" % cases


def property_vanishing_bound(rnd, cases):
    models = (closed_model(("a", "b", "c")), euclidean_model(("a", "b", "c")))
    for i in range(cases):
        model = rnd.choice(models)
        alg = _random_algebra(rnd, model, max_rank=8)
        sw = galois_sw_total(alg, max_degree=alg.rank)
        if sw.classes != _independent_galois_sw(alg):
            return False, "case %d: %s differs from the recurrence" % (i, alg)
        bound = alg.rank // 2
        for j in range(bound + 1, sw.cap + 1):
            if not sw.alpha(j).is_zero():
                return False, "case %d: %s has nonzero alpha_%d" % (i, alg, j)
    return True, "%d cases" % cases


PROPERTY_SUITES = (
    ("normal forms: confluence, idempotence, ring axioms", property_normal_forms),
    ("projection formula for the fiber pushforward", property_projection_formula),
    ("Steinberg consequences {x,x}={-1,x} and {x,-x}=0", property_steinberg),
    ("total trace-form class is multiplicative", property_multiplicativity),
    ("trace-form classes vanish above half the rank", property_vanishing_bound),
)


def check_properties(seed=DEFAULT_SEED):
    out = []
    for name, suite in PROPERTY_SUITES:
        rnd = random.Random("%s|%s" % (seed, name))
        ok, detail = suite(rnd, DEFAULT_CASES)
        out.append(CheckLine(name, ok, detail))
    return out


# -- the full suite -------------------------------------------------------------


def run_all(seed=DEFAULT_SEED):
    """Every oracle check and property suite, as a flat list of CheckLines."""
    lines = []
    lines.extend(check_locus_classes())
    lines.extend(check_binary_classes())
    lines.extend(check_torsion_bookkeeping())
    lines.extend(check_sw_examples())
    lines.extend(check_line_orbits())
    lines.extend(check_general_position())
    lines.extend(check_three_class_invariants())
    lines.extend(check_group_evaluators())
    lines.extend(check_properties(seed))
    return lines
