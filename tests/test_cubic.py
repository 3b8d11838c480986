"""Orbit bookkeeping, general position, and the residue certificate for the
27 lines attached to three conjugate point-pairs."""

from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ccalc import cubic
from ccalc.cubic import (
    ActionNotHomomorphism,
    CertificateFails,
    CubicError,
    DeterminantZero,
    LABELS,
    PointConfig,
    _bracket,
    bitangent_algebra,
    build_action,
    default_config,
    nontriviality_certificate,
    orbit_decomposition,
    three_class_config,
    verify_general_position,
)
from ccalc.etale import field_str, galois_sw_total, parse_algebra
from ccalc.ksymbols import (
    MODEL_PRESETS,
    euclidean_model,
    generic_model,
    iterated_residue,
    parse_kelement,
    symbol,
    zero,
)
from ccalc.rings import Ring, substitute


# -- the label set itself ------------------------------------------------------


def test_label_inventory():
    assert len(LABELS) == 27
    assert LABELS[:6] == ("E1", "E2", "E3", "E4", "E5", "E6")
    assert LABELS[6] == "L12" and LABELS[20] == "L56"
    assert LABELS[21:] == ("C1", "C2", "C3", "C4", "C5", "C6")


# -- group and action, default configuration -----------------------------------


def _bitangent(cfg):
    return bitangent_algebra(orbit_decomposition(build_action(cfg)).algebra)


def _alpha2(cfg):
    return galois_sw_total(_bitangent(cfg), max_degree=2).alpha(2)


def test_default_group_elements():
    ls = build_action(default_config())
    # the mask is the element; names only render it, in display order
    assert ls.names == {0: "1", 1: "sigma", 2: "tau", 3: "sigma*tau"}
    assert list(ls.action) == list(ls.point_perms) == [0, 1, 2, 3]
    assert ls.action[0] == {lab: lab for lab in LABELS}


def test_default_point_swaps():
    ls = build_action(default_config())
    # sigma (mask 1) negates sqrt(a): swaps pair 1 and pair 3, fixes pair 2
    assert ls.point_perms[1] == {1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 5}
    # tau (mask 2) negates sqrt(b): swaps pair 2 and pair 3
    assert ls.point_perms[2] == {1: 1, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5}
    assert ls.point_perms[1 ^ 2] == {1: 2, 2: 1, 3: 4, 4: 3, 5: 5, 6: 6}


def test_third_class_equal_to_the_first_shares_its_swaps():
    model = euclidean_model(("a", "b"))
    a, b = frozenset({"a"}), frozenset({"b"})
    ls = build_action(PointConfig(model, (a, b, a)))
    assert ls.span[a] == 1 and ls.span[b] == 2 and len(ls.span) == 4
    assert ls.point_perms[1] == {1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 5}
    assert ls.point_perms[2] == {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 6}


def test_action_on_lines():
    ls = build_action(default_config())
    sigma, tau = 1, 2
    assert ls.action[sigma]["E1"] == "E2"
    assert ls.action[sigma]["L13"] == "L23"
    assert ls.action[tau]["L13"] == "L14"
    assert ls.action[sigma ^ tau]["L13"] == "L24"
    assert ls.action[sigma]["L12"] == "L12"
    assert ls.action[tau]["C3"] == "C4"


@pytest.mark.parametrize("make", [default_config, three_class_config])
def test_action_is_group_homomorphism(make):
    ls = build_action(make())
    assert sorted(ls.action) == list(range(len(ls.action)))
    for g in ls.action:
        for h in ls.action:
            for lab in LABELS:
                assert ls.action[g][ls.action[h][lab]] == ls.action[g ^ h][lab]


@pytest.mark.parametrize("make", [default_config, three_class_config])
def test_a_wrong_non_generator_action_is_caught(make, monkeypatch):
    # build_action checks only the identity and the generators; a wrong
    # action of the product of all generators, built last, still breaks one
    # of those checks
    order = len(build_action(make()).action)
    real = cubic._induced
    built = []

    def induced(pp):
        out = real(pp)
        built.append(out)
        if len(built) == order:
            out["E1"], out["E2"] = out["E2"], out["E1"]
        return out

    monkeypatch.setattr(cubic, "_induced", induced)
    with pytest.raises(ActionNotHomomorphism):
        build_action(make())
    assert len(built) == order


@pytest.mark.parametrize("make", [default_config, three_class_config])
def test_orbit_stabilizer_count(make):
    ls = build_action(make())
    report = orbit_decomposition(ls)
    order = len(ls.action)
    assert sum(len(o.labels) for o in report.orbits) == 27
    for o in report.orbits:
        assert len(o.labels) * len(o.stabilizer) == order


# -- orbits and the 27-line algebra --------------------------------------------


def test_default_orbit_sizes():
    report = orbit_decomposition(build_action(default_config()))
    assert report.orbit_sizes() == [1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4]


def test_default_orbit_details():
    cfg = default_config()
    report = orbit_decomposition(build_action(cfg))
    by_first = {o.labels[0]: o for o in report.orbits}

    def fixed_field(label):
        return field_str(by_first[label].extension, cfg.model)

    assert by_first["L12"].labels == ("L12",)
    assert by_first["L12"].stabilizer == ("1", "sigma", "tau", "sigma*tau")
    assert fixed_field("L12") == "F"
    assert by_first["E1"].labels == ("E1", "E2")
    assert by_first["E1"].stabilizer == ("1", "tau")
    assert fixed_field("E1") == "F(sqrt(a))"
    assert fixed_field("E5") == "F(sqrt(a*b))"
    assert by_first["C3"].stabilizer == ("1", "sigma")
    assert by_first["L13"].labels == ("L13", "L14", "L23", "L24")
    assert by_first["L13"].stabilizer == ("1",)
    assert fixed_field("L13") == "F(sqrt(a),sqrt(b))"


def test_default_line_algebra():
    cfg = default_config()
    report = orbit_decomposition(build_action(cfg))
    assert str(report.algebra) == (
        "F^3 * F(sqrt(a))^2 * F(sqrt(b))^2 * F(sqrt(a*b))^2 * "
        "F(sqrt(a),sqrt(b))^3"
    )
    assert report.algebra == parse_algebra(str(report.algebra), cfg.model)
    assert report.algebra.rank == 27


def test_bitangent_algebra():
    cfg = default_config()
    alg = _bitangent(cfg)
    assert alg.rank == 28
    assert alg == parse_algebra(
        "F^3 * F(sqrt(a))^2 * F(sqrt(b))^2 * F(sqrt(a*b))^2 * "
        "F(sqrt(a),sqrt(b))^3 * F",
        cfg.model,
    )
    # grouping the rank-1 factors differently is still the same algebra
    assert alg == parse_algebra(
        "F^4 * F(sqrt(a))^2 * F(sqrt(b))^2 * F(sqrt(a*b))^2 * "
        "F(sqrt(a),sqrt(b))^3",
        cfg.model,
    )


def test_swapping_the_two_classes_gives_the_same_algebra():
    model = euclidean_model(("a", "b"))
    flipped = PointConfig(model, (frozenset({"b"}), frozenset({"a"})))
    assert orbit_decomposition(build_action(flipped)).algebra == orbit_decomposition(
        build_action(default_config())
    ).algebra


def test_alpha2_of_line_algebra_two_routes():
    cfg = default_config()
    alg = _bitangent(cfg)
    a2 = galois_sw_total(alg, max_degree=2).alpha(2)
    assert a2 == symbol(["a", "b"], cfg.model) + symbol(["-1", "a*b"], cfg.model)
    assert str(a2) == "{a,b} + {-1,a} + {-1,b}"


# -- configuration validation ---------------------------------------------------


def test_config_rejects_dependent_or_trivial_classes():
    model = euclidean_model(("a", "b"))
    with pytest.raises(CubicError):
        PointConfig(model, (frozenset({"a"}), frozenset({"a"})))
    with pytest.raises(CubicError):
        PointConfig(model, (frozenset({"two"}), frozenset({"b"})))
    with pytest.raises(CubicError):
        PointConfig(model, (frozenset({"q"}), frozenset({"b"})))
    with pytest.raises(CubicError):
        PointConfig(model, (frozenset({"a"}),))


def test_third_class_defaults_to_the_product():
    cfg = default_config()
    assert cfg.pair_classes == (
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
    )


# -- general position -----------------------------------------------------------


def test_default_coordinates_shape():
    cfg = default_config()
    ring = cfg.coordinates[0][0].ring
    # the polynomial ring of the square roots: no indeterminate, no relation,
    # one generator per indeterminate, named after its class
    assert ring.names == ("sqrt(a)", "sqrt(b)") and ring.degrees == (1, 1)
    assert not ring.rel
    x, y = ring.gen("sqrt(a)"), ring.gen("sqrt(b)")
    assert cfg.coordinates[0][0] == x and cfg.coordinates[1][0] == -x
    assert str(x * x) == "sqrt(a)^2"
    assert cfg.coordinates[4][1] == x * y


def test_general_position_default():
    report = verify_general_position(default_config())
    assert len(report.checks) == 21
    assert report.all_nonzero
    labels = [lab for lab, _ in report.checks]
    assert labels.count("conic(1..6)") == 1
    assert len([lab for lab in labels if lab.startswith("line")]) == 20


def test_general_position_three_class_config():
    assert verify_general_position(three_class_config()).all_nonzero


def test_degenerate_configuration_is_caught():
    cfg = default_config()
    ring = cfg.coordinates[0][0].ring
    bad = list(cfg.coordinates)
    # move the first point of pair 3 onto the line through points 1 and 3
    bad[4] = (ring.gen("sqrt(a)") + ring.gen("sqrt(b)"), ring.one, ring.one)
    cfg2 = PointConfig(cfg.model, cfg.pair_classes, coordinates=bad)
    with pytest.raises(DeterminantZero) as err:
        verify_general_position(cfg2)
    assert err.value.failures == [
        lab for lab, ok in err.value.report.checks if not ok
    ]
    assert "line(1,3,5)" in err.value.failures
    assert str(err.value) == "degenerate configuration: " + ", ".join(
        err.value.failures
    )
    assert len(err.value.report.checks) == 21
    assert not err.value.report.all_nonzero


def _det(rows):
    """The determinant of a square matrix of Polys by Laplace expansion along
    the first row: the long computation that the brackets replace."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero
    for j, entry in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = entry * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _position_matrices(points):
    """The 20 collinearity matrices and the Veronese (conic) matrix of six
    points, in the order of the position report's labels."""
    for i, j, k in combinations(range(6), 3):
        yield [list(points[i]), list(points[j]), list(points[k])]
    yield [[u * u, u * v, v * v, u * w, v * w, w * w] for u, v, w in points]


def test_brackets_give_the_veronese_determinant():
    # the identity behind verify_general_position, in generic coordinates:
    # 18 free generators, so it holds under every substitution
    ring = Ring(["p%d%d" % (i, j) for i in range(1, 7) for j in range(3)])
    pts = [tuple(ring.gen("p%d%d" % (i, j)) for j in range(3)) for i in range(1, 7)]
    b = {}
    for rows, (i, j, k) in zip(_position_matrices(pts), combinations(range(1, 7), 3)):
        b[i, j, k] = _bracket(*rows)
        assert b[i, j, k] == _det(rows) and len(b[i, j, k].terms) == 6
    veronese = _det(list(_position_matrices(pts))[-1])
    assert len(veronese.terms) == 720
    assert veronese == -(
        b[1, 2, 3] * b[1, 4, 5] * b[2, 4, 6] * b[3, 5, 6]
        - b[1, 2, 4] * b[1, 3, 5] * b[2, 3, 6] * b[4, 5, 6]
    )


_ENTRY_RING = Ring(["u", "v"])
_U, _V = _ENTRY_RING.gen("u"), _ENTRY_RING.gen("v")
_ENTRIES = (_ENTRY_RING.zero, _ENTRY_RING.one, -_ENTRY_RING.one, _U, -_V, _U + _V, 2 * _U * _V)


@settings(max_examples=200)
@given(st.lists(st.sampled_from(_ENTRIES), min_size=9, max_size=9))
def test_brackets_with_zero_entries_give_the_determinant(entries):
    # real coordinates hold zeros, whose terms _bracket skips; the free
    # coordinates of the Veronese test never reach that branch
    rows = [entries[0:3], entries[3:6], entries[6:9]]
    assert _bracket(*rows) == _det(rows)


def test_six_points_on_a_conic_fail_only_the_conic_check():
    # (1 : t : t^2) lies on y^2 = xz, and no three such points are collinear
    # (Vandermonde), so the bracket conic condition alone must vanish
    ring = Ring(["s"])
    pts = [(ring.one, ring.const(t), ring.const(t * t)) for t in range(1, 7)]
    cfg = PointConfig(euclidean_model(("a", "b")), (frozenset("a"), frozenset("b")), pts)
    with pytest.raises(DeterminantZero) as err:
        verify_general_position(cfg)
    assert err.value.failures == ["conic(1..6)"]
    oracle = [not _det(rows).is_zero() for rows in _position_matrices(pts)]
    assert [ok for _, ok in err.value.report.checks] == oracle


def _tower(cfg):
    """The fibered tower Z[n][r]/(r_i^2 - n_i) over the config's names, with
    the six points built in it from the pair classes alone."""
    names = sorted(set().union(*cfg.pair_classes))
    root_of = {n: "sqrt(%s)" % n for n in names}
    tower = Ring(
        [(n, 2) for n in names] + [(root_of[n], 1) for n in names],
        relations={root_of[n]: (2, [[], [(-1, {n: 1})]]) for n in names},
    )
    points = []
    for m, (u, v) in zip(cfg.pair_classes, [(0, 1), (0, 2), (1, 2)]):
        root = tower.poly([(1, {root_of[n]: 1 for n in m})])
        for sign in (1, -1):
            p = [tower.zero] * 3
            p[u], p[v] = sign * root, tower.one
            points.append(tuple(p))
    return tower, points


# pair classes as strings of one-letter names: every order of two or three of
# a, b, c, p; two or three of the names that once held the square roots; nine
# names in three classes (more than those names could cover); and the moved
# point of test_degenerate_configuration_is_caught
_ORACLE_CASES = [(g, False) for k in (2, 3) for g in permutations("abcp", k)]
_ORACLE_CASES += [(g, False) for k in (2, 3) for g in combinations("xyzvw", k)]
_ORACLE_CASES += [(("abc", "def", "ghi"), False), (("a", "b"), True)]


@pytest.mark.parametrize(
    "classes, degenerate",
    _ORACLE_CASES,
    ids=[
        ("-" if max(map(len, g)) > 1 else "").join(g) + ("-degenerate" if d else "")
        for g, d in _ORACLE_CASES
    ],
)
def test_square_root_ring_determinants_equal_the_tower(classes, degenerate):
    # each determinant over the square roots, read into the fibered tower by
    # r_i -> r_i (so r_i^2 becomes n_i), is exactly the tower's determinant,
    # and verify_general_position gives each the verdict of the determinant
    cfg = PointConfig(euclidean_model("".join(classes)), [frozenset(m) for m in classes])
    tower, points = _tower(cfg)
    coords = list(cfg.coordinates)
    if degenerate:
        ring = coords[0][0].ring
        coords[4] = (ring.gen("sqrt(a)") + ring.gen("sqrt(b)"), ring.one, ring.one)
        points[4] = (tower.gen("sqrt(a)") + tower.gen("sqrt(b)"), tower.one, tower.one)
    dets = [
        (substitute(_det(free), {}, target=tower), _det(fibered))
        for free, fibered in zip(_position_matrices(coords), _position_matrices(points))
    ]
    assert len(dets) == 21
    for image, expected in dets:
        assert image == expected
    assert any(d.is_zero() for d, _ in dets) == degenerate
    assert [tuple(substitute(c, {}, target=tower) for c in p) for p in coords] == points
    try:
        report = verify_general_position(PointConfig(cfg.model, cfg.pair_classes, coords))
    except DeterminantZero as err:
        report = err.report
    assert [ok for _, ok in report.checks] == [not d.is_zero() for d, _ in dets]


def test_position_needs_coordinates():
    model = euclidean_model(("a",))
    cfg = PointConfig(model, (frozenset({"a"}), frozenset({"minus_one"})))
    assert cfg.coordinates is None
    with pytest.raises(CubicError):
        verify_general_position(cfg)


# -- the nontriviality certificate ------------------------------------------------


def test_certificate_default():
    cfg = default_config()
    cert = nontriviality_certificate(_alpha2(cfg))
    assert cert.at == ("b", "a")
    assert len(cert.chain) == 3
    assert cert.chain[1] == parse_kelement("{a} + eps", cfg.model)
    assert cert.chain[2].is_one()


def test_certificate_fails_for_split_algebra():
    cfg = default_config()
    split = parse_algebra("F^28", cfg.model)
    with pytest.raises(CertificateFails):
        nontriviality_certificate(galois_sw_total(split, max_degree=2).alpha(2))


def test_certificate_over_one_indeterminate():
    model = euclidean_model(("a",))
    x = parse_kelement("{-1,a}", model)
    cert = nontriviality_certificate(x)
    assert cert.at == ("a",)
    assert cert.chain == [x, parse_kelement("eps", model)]


@pytest.mark.parametrize("k", [2, 3])
def test_certificate_word_is_the_second_name_then_the_first(k):
    # the word is read off alpha_2 itself, yet it matches the order in which
    # the names were declared, for every order of every choice of k names
    for gens in permutations("abcp", k):
        cfg = PointConfig(euclidean_model(gens), [frozenset({n}) for n in gens])
        cert = nontriviality_certificate(_alpha2(cfg))
        assert cert.at == (gens[1], gens[0]), gens
        assert cert.chain[-1].is_one(), gens


def test_certificate_fails_where_the_word_holds_the_class_of_two():
    model = generic_model(("a", "b"))
    x = parse_kelement("{2,a} + {a} + {-1,b}", model)
    with pytest.raises(CertificateFails, match="constant class 2"):
        nontriviality_certificate(x)


@pytest.mark.parametrize("preset", sorted(MODEL_PRESETS))
def test_certificate_fails_for_the_zero_class(preset):
    with pytest.raises(CertificateFails, match="zero class"):
        nontriviality_certificate(zero(MODEL_PRESETS[preset](("a", "b"))))


# -- the three-parameter configuration ---------------------------------------------


def test_three_class_orbits_and_algebra():
    cfg = three_class_config()
    ls = build_action(cfg)
    assert list(ls.names) == [0, 1, 2, 4, 3, 5, 6, 7]
    assert ls.names[1] == "sigma1" and ls.names[7] == "sigma1*sigma2*sigma3"
    report = orbit_decomposition(ls)
    assert report.orbit_sizes() == [1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4]
    assert report.algebra == parse_algebra(
        "F^3 * F(sqrt(a))^2 * F(sqrt(b))^2 * F(sqrt(c))^2 * "
        "F(sqrt(a),sqrt(b)) * F(sqrt(a),sqrt(c)) * F(sqrt(b),sqrt(c))",
        cfg.model,
    )


def test_three_class_alpha_degree_parts():
    cfg = three_class_config()
    sw = galois_sw_total(_bitangent(cfg), max_degree=8)
    expect = {
        1: "0",
        2: "{a,b} + {a,c} + {b,c} + {-1,a} + {-1,b} + {-1,c}",
        3: "0",
        4: "eps^3*{a} + eps^3*{b} + eps^3*{c}",
        5: "0",
        6: "eps^3*{a,b,c} + eps^5*{a} + eps^5*{b} + eps^5*{c}",
        7: "0",
        8: "eps^6*{a,b} + eps^6*{a,c} + eps^6*{b,c}",
    }
    for i, text in expect.items():
        assert sw.alpha(i) == parse_kelement(text, cfg.model), "degree %d" % i


def test_three_class_residue_words_distinguish_the_invariants():
    cfg = three_class_config()
    sw = galois_sw_total(_bitangent(cfg))
    invariants = [sw.alpha(0), sw.alpha(2), sw.alpha(4), sw.alpha(6)]
    table = {
        ("b", "a"): ["0", "1", "0", "eps^3*{c}"],
        ("b",): ["0", "eps + {a} + {c}", "eps^3", "eps^5 + eps^3*{a,c}"],
        ("b", "a", "c"): ["0", "0", "0", "eps^3"],
    }
    results = {}
    for word, expected in table.items():
        got = [iterated_residue(x, word) for x in invariants]
        assert got == [parse_kelement(t, cfg.model) for t in expected], word
        results[word] = got
    # every pair of invariants is separated by some residue word
    for i in range(4):
        for j in range(i + 1, 4):
            assert any(results[w][i] != results[w][j] for w in table), (i, j)


def test_three_class_certificate():
    cert = nontriviality_certificate(_alpha2(three_class_config()))
    assert cert.at == ("b", "a")
    assert cert.chain[-1].is_one()


# -- an orbit oracle from the pair classes alone -----------------------------------


def _span(classes):
    out = {frozenset()}
    for m in classes:
        out |= {c ^ m for c in out}
    return out


def _expected_span(label, point_class):
    """The fixed field of a label's stabilizer, as the set of its classes:
    E_p and C_p lie over F(sqrt(m_p)), a line through both points of one pair
    over F, and a line across two pairs over F(sqrt(m_p), sqrt(m_q))."""
    if label[0] in "EC":
        return _span([point_class[int(label[1])]])
    p, q = int(label[1]), int(label[2])
    if (p + 1) // 2 == (q + 1) // 2:
        return {frozenset()}
    return _span([point_class[p], point_class[q]])


def _accepted_configs():
    model = euclidean_model(("a", "b", "c"))
    classes = [
        frozenset(c) for r in (1, 2, 3) for c in combinations(("a", "b", "c"), r)
    ]
    for n in (2, 3):
        for tup in product(classes, repeat=n):
            try:
                yield PointConfig(model, tup)
            except CubicError:
                assert tup[0] == tup[1]


def test_orbits_match_the_pair_class_oracle():
    count = 0
    for cfg in _accepted_configs():
        count += 1
        point_class = {p: cfg.pair_classes[(p - 1) // 2] for p in range(1, 7)}
        report = orbit_decomposition(build_action(cfg))
        assert sorted(lab for o in report.orbits for lab in o.labels) == sorted(LABELS)
        for o in report.orbits:
            span = _span(o.extension)
            assert len(span) == 2 ** len(o.extension) == len(o.labels), o
            for lab in o.labels:
                assert _expected_span(lab, point_class) == span, (cfg.pair_classes, lab)
        assert report.algebra.rank == 27
    # 42 pairs and 294 triples of classes with the first two distinct
    assert count == 42 + 294
