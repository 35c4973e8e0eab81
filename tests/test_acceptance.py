"""Fourteen end-to-end acceptance checks, one test per documented property.

Every test is exact (no tolerances anywhere), seeded, and prints a single
summary line with its runtime; the assert at the end of each test enforces
the documented time budget.  Scales are chosen so the whole file stays at
desk scale while still exercising each claim on the full stated range.
"""

import itertools
import random
import time

import pytest

from incring.errors import HypothesisViolation, NotInvertible
from incring.functor_cat import (
    FccMap,
    coequalizer,
    compose,
    equalizer_check,
    generation_decompose,
    identity_map,
    induced_hom,
    pushout,
    pushout_mediator,
    reassemble,
    surjectivity_report,
    validate_fcc,
)
from incring.glgroup import (
    centrality_generators,
    certify,
    commutator,
    dickson_normal_closure,
    enumerate_invertibles,
    enumerate_matrices,
    invert,
    is_central,
    is_invertible,
    is_scalar_unit,
    iterated_commutator_sample,
    random_invertible,
    transpose_op_iso,
)
from incring.lazy import lazy_mul, qz_window_check
from incring.matrices import (
    ConvexIdeal,
    IncMatrix,
    identity,
    ideal_membership,
    indicator,
    scalar_diag,
    unit,
    zero,
)
from incring.prosets import (
    NFamily,
    NStarDivFamily,
    Proset,
    ZigFamily,
    elem_key,
    two_block,
)
from incring.recovery import (
    BundleAccess,
    b_of,
    class_equiv,
    class_leq,
    erase,
    recover_poset,
    scramble,
)
from incring.rings import QQ, ModRing, PrimeField
from incring.samples import (
    enumerate_posets,
    enumerate_prosets,
    random_fcc_map,
    random_finitary,
    random_matrix,
    random_poset,
    random_proset,
)


def _finish(label, t0, bound):
    took = time.perf_counter() - t0
    print("\n%s: PASS in %.1fs (budget %ds)" % (label, took, bound), flush=True)
    assert took < bound, "%s took %.1fs, over the %ds budget" % (label, took, bound)


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def _draw_fcc_map(rng, nmax, dom=None, cod=None):
    """Random valid map between random prosets, retrying the rare draws
    where the codomain offers no admissible image for some component."""
    while True:
        d = dom
        c = cod
        if d is None:
            n = rng.randint(1, nmax)
            d = random_proset(n, rng) if rng.random() < 0.5 else random_poset(n, rng)
        if c is None:
            n = rng.randint(1, nmax)
            c = random_proset(n, rng) if rng.random() < 0.5 else random_poset(n, rng)
        try:
            return random_fcc_map(d, c, rng)
        except ValueError:
            if dom is not None and cod is not None:
                raise
            continue


def _spanning(pro, ring):
    mats = [identity(pro, ring)]
    for s in sorted(pro.elements, key=elem_key):
        mats.append(indicator(pro, ring, [s]))
    for pq in pro.pairs():
        mats.append(unit(pro, ring, *pq))
    return mats


def _component_collapse(pro):
    comps = sorted(
        (sorted(c, key=elem_key) for c in pro.components()),
        key=lambda c: elem_key(c[0]),
    )
    points = Proset(list(range(len(comps))), [])
    return FccMap(pro, points, {s: i for i, comp in enumerate(comps) for s in comp})


def test_criterion_01_ring_axioms():
    """Associativity, distributivity and identity, 1000 random triples per
    proset and coefficient ring, on 20 random prosets of up to 8 points."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    prosets = []
    for i in range(20):
        n = 3 + (i % 6)
        if i % 2:
            prosets.append(random_proset(n, rng))
        else:
            prosets.append(random_poset(n, rng))
    assert max(len(p.elements) for p in prosets) == 8
    rings = [ModRing(6), PrimeField(5), QQ]
    for pro in prosets:
        for ring in rings:
            one = identity(pro, ring)
            for _ in range(1000):
                a = random_matrix(pro, ring, rng)
                b = random_matrix(pro, ring, rng)
                c = random_matrix(pro, ring, rng)
                ab, ac, bc = a.mul(b), a.mul(c), b.mul(c)
                assert ab.mul(c) == a.mul(bc)
                assert a.mul(b.add(c)) == ab.add(ac)
                assert a.add(b).mul(c) == ac.add(bc)
                assert one.mul(a) == a and a.mul(one) == a
    _finish("criterion 01 ring axioms", t0, 30)


def test_criterion_02_generator_relations():
    """The product table of the generating elements (order-pair units,
    subset indicators, scalar diagonals) holds exhaustively on every proset
    with at most 4 points over F2 and F3, including the coordinate-selection
    laws for one-site indicators against arbitrary matrices."""
    t0 = time.perf_counter()
    prosets = [p for n in (1, 2, 3, 4) for p in enumerate_prosets(n)]
    assert len(prosets) == 46
    for pro in prosets:
        pairs = pro.pairs()
        subsets = list(_subsets(pro.elements))
        for ring in (PrimeField(2), PrimeField(3)):
            zero_m = zero(pro, ring)
            units = {pq: unit(pro, ring, *pq) for pq in pairs}
            inds = {s: indicator(pro, ring, s) for s in subsets}
            scalars = {p: scalar_diag(pro, ring, p) for p in ring.elements()}
            for (s1, s2), e1 in units.items():
                for (t1, t2), e2 in units.items():
                    want = units[(s1, t2)] if s2 == t1 else zero_m
                    assert e1.mul(e2) == want
            for s in pro.elements:
                assert units[(s, s)] == inds[frozenset([s])]
            for sa in subsets:
                for sb in subsets:
                    assert inds[sa].mul(inds[sb]) == inds[sa & sb]
                for (s1, s2), e in units.items():
                    assert inds[sa].mul(e) == (e if s1 in sa else zero_m)
                    assert e.mul(inds[sa]) == (e if s2 in sa else zero_m)
                for pm in scalars.values():
                    assert pm.mul(inds[sa]) == inds[sa].mul(pm)
            for pm in scalars.values():
                for e in units.values():
                    assert pm.mul(e) == e.mul(pm)
            # coordinate selection by one-site indicators, on generators and
            # a few seeded random matrices
            rng = random.Random(202)
            tests = list(units.values()) + list(inds.values())
            tests += list(scalars.values())
            tests += [random_matrix(pro, ring, rng) for _ in range(3)]
            for a in tests:
                for s in pro.elements:
                    row = inds[frozenset([s])].mul(a)
                    col = a.mul(inds[frozenset([s])])
                    sand = col.mul(a)
                    for (t1, t2) in pairs:
                        v = a.entry(t1, t2)
                        assert row.entry(t1, t2) == (v if t1 == s else ring.zero)
                        assert col.entry(t1, t2) == (v if t2 == s else ring.zero)
                        assert sand.entry(t1, t2) == ring.mul(
                            a.entry(t1, s), a.entry(s, t2)
                        )
                for s1 in pro.elements:
                    for s2 in pro.elements:
                        both = inds[frozenset([s1])].mul(a).mul(inds[frozenset([s2])])
                        for (t1, t2) in pairs:
                            want = (
                                a.entry(t1, t2)
                                if (t1, t2) == (s1, s2)
                                else ring.zero
                            )
                            assert both.entry(t1, t2) == want
    _finish("criterion 02 generator relations", t0, 30)


def test_criterion_03_inversion():
    """invert certifies 500 random units per proset/ring pair both ways, and
    is_invertible matches a brute-force unit search on every case whose ring
    is small enough to enumerate outright (at most 2^12 elements)."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    chain7 = Proset(range(7), [(i, i + 1) for i in range(6)])
    prosets = [
        chain7,
        random_poset(7, rng),
        random_proset(6, rng),
        random_poset(6, rng),
        random_proset(5, rng),
        two_block(2, 2),
    ]
    for ring in (PrimeField(5), ModRing(9)):
        for pro in prosets:
            one = identity(pro, ring)
            for _ in range(500):
                a = random_invertible(pro, ring, rng)
                ai = invert(a)
                assert a.mul(ai) == one and ai.mul(a) == one
                assert is_invertible(a) is True
    # brute force: scan all candidates for a right inverse; in a finite ring
    # a one-sided inverse is enough, and a kernel element rules a unit out
    point = Proset([0], [])
    anti2 = Proset([0, 1], [])
    chain2 = Proset([0, 1], [(0, 1)])
    cyc2 = Proset([0, 1], [(0, 1), (1, 0)])
    vee = Proset(["r", "x", "y"], [("r", "x"), ("r", "y")])
    small = [
        (point, PrimeField(5), 4),
        (anti2, PrimeField(5), 16),
        (chain2, PrimeField(5), 80),
        (cyc2, PrimeField(5), 480),
        (vee, PrimeField(5), 1600),
        (chain2, ModRing(9), 324),
    ]
    for pro, ring, known_units in small:
        mats = list(enumerate_matrices(pro, ring))
        assert len(mats) == len(list(ring.elements())) ** len(pro.pairs())
        assert len(mats) <= 2 ** 12
        one = identity(pro, ring)
        found = 0
        for a in mats:
            verdict = None
            for x in mats:
                p = a.mul(x)
                if p == one:
                    verdict = True
                    break
                if p.is_zero() and not x.is_zero():
                    verdict = False
                    break
            if verdict is None:
                verdict = False
            assert is_invertible(a) is verdict
            if verdict:
                found += 1
                ai = invert(a)
                assert a.mul(ai) == one and ai.mul(a) == one
            else:
                with pytest.raises(NotInvertible):
                    invert(a)
        assert found == known_units
    _finish("criterion 03 inversion", t0, 60)


def test_criterion_04_quotient_projection():
    """Restriction to a convex subset is a unital surjective homomorphism
    whose kernel is the matching convex ideal, checked coordinatewise; the
    window {0,1,2} of the natural numbers realizes the three-chain ring."""
    t0 = time.perf_counter()
    ring = ModRing(8)
    rng = random.Random(404)
    fam = NFamily()
    wpro = fam.restrict(fam.window(5))
    sub = [0, 1, 2]
    subpro = wpro.restrict(sub)
    chain3 = Proset(range(3), [(0, 1), (1, 2)])
    assert subpro.poset_isomorphic(chain3) is not None
    # homomorphism on 500 random pairs: half on a finite window, half on
    # genuinely infinite-carrier finitary matrices
    for _ in range(250):
        a = random_matrix(wpro, ring, rng)
        b = random_matrix(wpro, ring, rng)
        assert a.mul(b).project(sub) == a.project(sub).mul(b.project(sub))
    for _ in range(250):
        a = random_finitary(fam, ring, rng, span=3, invertible=False)
        b = random_finitary(fam, ring, rng, span=3, invertible=False)
        assert lazy_mul(a, b).project(sub) == a.project(sub).mul(b.project(sub))
    assert identity(wpro, ring).project(sub) == identity(subpro, ring)
    for pq in subpro.pairs():
        assert unit(wpro, ring, *pq).project(sub) == unit(subpro, ring, *pq)
    ideal = ConvexIdeal(sub)
    region = ideal.region(wpro)
    in_kernel_seen = 0
    for k in range(200):
        m = random_matrix(wpro, ring, rng)
        if k % 3 == 0:
            m = IncMatrix(
                wpro,
                ring,
                {pq: v for pq, v in m.entries.items() if pq not in region},
            )
        by_projection = m.project(sub).is_zero()
        by_scan = all(m.entry(a, b) == ring.zero for (a, b) in region)
        assert by_projection == by_scan == ideal_membership(m, ideal)
        in_kernel_seen += by_projection
    assert 0 < in_kernel_seen < 200
    assert len(region) == len(subpro.pairs()) == 6
    assert len(wpro.pairs()) - len(region) == 15
    _finish("criterion 04 quotient projection", t0, 10)


def test_criterion_05_window_tower():
    """Window projections are compatible: projecting through a bigger window
    equals projecting directly, and projection respects lazy products, on 20
    random finitary matrices per family across 5 nested windows."""
    t0 = time.perf_counter()
    rng = random.Random(505)
    cases = [
        (NFamily(), ModRing(6)),
        (ZigFamily(), PrimeField(5)),
        (NStarDivFamily(), ModRing(4)),
    ]
    for fam, ring in cases:
        wins = fam.windows(5)
        assert len(wins) == 5
        for i in range(4):
            assert set(wins[i]) <= set(wins[i + 1])
        assert set(wins[0]) < set(wins[4])
        mats = [
            random_finitary(fam, ring, rng, span=2, invertible=False)
            for _ in range(20)
        ]
        for a in mats:
            direct = [a.project(w) for w in wins]
            for i in range(5):
                for j in range(i + 1, 5):
                    assert direct[j].project(list(wins[i])) == direct[i]
        for i in range(0, 20, 2):
            a, b = mats[i], mats[i + 1]
            ab = lazy_mul(a, b)
            for w in wins:
                assert ab.project(w) == a.project(w).mul(b.project(w))
    _finish("criterion 05 window tower", t0, 10)


def test_criterion_06_idempotent_suite():
    """Exhaustive idempotent accounting over F2 and Z/4 on all 8 poset types
    with at most 3 points: 0/1 diagonals, zero diagonal forces zero, erase
    is order-independent and strictly shrinking, diagonal supports realize
    all 2^n subsets, and one-site classes multiply exactly along the order."""
    t0 = time.perf_counter()
    posets = [p for n in (1, 2, 3) for p in enumerate_posets(n)]
    assert len(posets) == 8
    for pro in posets:
        n = len(pro.elements)
        for ring in (PrimeField(2), ModRing(4)):
            idems = [m for m in enumerate_matrices(pro, ring) if m.mul(m) == m]
            by_support = {}
            for e in idems:
                assert all(
                    v in (ring.zero, ring.one) for v in e.diagonal().values()
                )
                s = b_of(e)
                by_support.setdefault(s, []).append(e)
                if not s:
                    assert e.is_zero()
                    continue
                sites = sorted(s, key=elem_key)
                finals = set()
                for perm in itertools.permutations(sites):
                    cur = e
                    for site in perm:
                        cur = erase(cur, [site])
                        assert cur.mul(cur) == cur
                    finals.add(cur)
                assert finals == {erase(e, sites)}
                assert next(iter(finals)).is_zero()
                shrunk = erase(e, [sites[0]])
                assert b_of(shrunk) == s - {sites[0]}
                assert class_leq(shrunk, e) and not class_leq(e, shrunk)
            assert set(by_support) == set(_subsets(pro.elements))
            assert len(by_support) == 2 ** n
            # equivalence matches diagonal support, sampled within and
            # across the support classes
            rng = random.Random(606)
            for s, members in by_support.items():
                pool = members if len(members) <= 8 else rng.sample(members, 8)
                for e1, e2 in itertools.combinations(pool, 2):
                    assert class_equiv(e1, e2)
            supports = list(by_support)
            for s1, s2 in itertools.combinations(supports, 2):
                e1 = rng.choice(by_support[s1])
                e2 = rng.choice(by_support[s2])
                assert not class_equiv(e1, e2)
            # one-site classes: some product is non-zero exactly along the
            # order, and every product is non-zero exactly on equal sites
            for s in pro.elements:
                for t in pro.elements:
                    prods = [
                        a.mul(b)
                        for a in by_support[frozenset([s])]
                        for b in by_support[frozenset([t])]
                    ]
                    assert any(not p.is_zero() for p in prods) == pro.leq(s, t)
                    assert all(not p.is_zero() for p in prods) == (s == t)
    _finish("criterion 06 idempotent suite", t0, 120)


def test_criterion_07_recovery_round_trip():
    """Every poset type with at most 4 points survives scramble-and-recover
    for 5 seeds each: exhaustive search through 3 points, witness sampling
    at 4 points with a budget of 10^5 ring operations."""
    t0 = time.perf_counter()
    ring = PrimeField(2)
    small = [p for n in (1, 2, 3) for p in enumerate_posets(n)]
    big = enumerate_posets(4)
    assert len(small) == 8 and len(big) == 16
    for pro in small:
        for seed in range(5):
            bundle, _ = scramble(pro, ring, seed=seed)
            access = BundleAccess(bundle, ring)
            rec = recover_poset(access, mode="exhaustive")
            assert rec.poset_isomorphic(pro) is not None
    for pro in big:
        for seed in range(5):
            bundle, _ = scramble(pro, ring, seed=seed, samples=64)
            access = BundleAccess(bundle, ring)
            rec = recover_poset(
                access, mode="witness", budget=10 ** 5, rng=random.Random(seed + 1)
            )
            assert rec.poset_isomorphic(pro) is not None
    _finish("criterion 07 recovery round trip", t0, 300)


def test_criterion_08_functor_suite():
    """Pulled-back homs are unital and multiplicative on 50 random maps,
    contravariant on 100 composable pairs, and injective on a spanning set
    whenever every order pair downstream is hit."""
    t0 = time.perf_counter()
    ring = PrimeField(5)
    rng = random.Random(808)
    maps = [_draw_fcc_map(rng, 6) for _ in range(50)]
    pair_surjective_seen = 0
    for f in maps:
        validate_fcc(f)
        dom, cod = f.domain, f.codomain
        assert induced_hom(f, identity(cod, ring)) == identity(dom, ring)
        for _ in range(200):
            x = random_matrix(cod, ring, rng)
            y = random_matrix(cod, ring, rng)
            assert induced_hom(f, x.mul(y)) == induced_hom(f, x).mul(
                induced_hom(f, y)
            )
        report = surjectivity_report(f, ring)
        assert report["implication_holds"]
        if report["pair_surjective"]:
            pair_surjective_seen += 1
            span = set(_spanning(cod, ring))
            images = [induced_hom(f, m) for m in span]
            assert len(set(images)) == len(span)
            assert not any(m.is_zero() for m in images)
    assert pair_surjective_seen >= 5
    # coequalizer legs hit every remaining order pair by construction, so
    # they exercise the injectivity branch no matter how the draws went
    legs = 0
    while legs < 10:
        dom = random_proset(rng.randint(1, 3), rng)
        cod = random_poset(rng.randint(2, 5), rng)
        try:
            f1 = random_fcc_map(dom, cod, rng)
            f2 = random_fcc_map(dom, cod, rng)
        except ValueError:
            continue
        legs += 1
        quo, p = coequalizer(f1, f2)
        report = surjectivity_report(p, ring)
        assert report["pair_surjective"] and report["hom_injective"]
    n_pairs = 0
    while n_pairs < 100:
        mid = random_proset(rng.randint(1, 5), rng)
        try:
            f = random_fcc_map(random_proset(rng.randint(1, 5), rng), mid, rng)
            g = random_fcc_map(mid, random_poset(rng.randint(1, 5), rng), rng)
        except ValueError:
            continue
        n_pairs += 1
        gf = compose(f, g)
        probes = _spanning(g.codomain, ring)
        probes += [random_matrix(g.codomain, ring, rng) for _ in range(5)]
        for x in probes:
            assert induced_hom(gf, x) == induced_hom(f, induced_hom(g, x))
    _finish("criterion 08 functor suite", t0, 60)


def test_criterion_09_pushout_coequalizer():
    """100 random spans and parallel pairs: the squares commute exactly,
    known mediating maps are recovered from their leg compositions, and the
    coequalizer leg passes the full equalizer audit."""
    t0 = time.perf_counter()
    rng = random.Random(909)
    for _ in range(100):
        apex = random_proset(rng.randint(1, 3), rng)
        f = _draw_fcc_map(rng, 5, dom=apex)
        g = _draw_fcc_map(rng, 5, dom=apex)
        quo, q1, q2 = pushout(f, g)
        assert compose(f, q1) == compose(g, q2)
        for w in (identity_map(quo), _component_collapse(quo)):
            h1 = compose(q1, w)
            h2 = compose(q2, w)
            assert pushout_mediator(q1, q2, h1, h2) == w
    pairs_done = 0
    while pairs_done < 100:
        dom = random_proset(rng.randint(1, 3), rng)
        cod_n = rng.randint(1, 5)
        cod = (
            random_poset(cod_n, rng)
            if rng.random() < 0.5
            else random_proset(cod_n, rng)
        )
        try:
            f1 = random_fcc_map(dom, cod, rng)
            f2 = random_fcc_map(dom, cod, rng)
        except ValueError:
            continue
        pairs_done += 1
        quo, p = coequalizer(f1, f2)
        assert compose(f1, p) == compose(f2, p)
        report = equalizer_check(f1, f2)
        assert report["equalizes"]
        assert report["injective"]
        assert report["passed"]
    _finish("criterion 09 pushout and coequalizer", t0, 60)


def test_criterion_10_generation_tree():
    """Every irreducible proset with at most 5 points decomposes into a
    pushout tree whose leaves are two-block prosets, and gluing the tree
    back together lands in the same isomorphism type."""
    t0 = time.perf_counter()

    def leaves(tree):
        if tree["leaf"]:
            return [tree]
        return leaves(tree["left"]) + leaves(tree["right"])

    total = 0
    for n in (1, 2, 3, 4, 5):
        for pro in enumerate_prosets(n):
            if not pro.is_irreducible():
                continue
            total += 1
            tree = generation_decompose(pro)
            for leaf in leaves(tree):
                leaf_pro = leaf["proset"]
                cs = leaf_pro.classes()
                assert len(cs) <= 2
                if len(cs) == 1:
                    model = two_block(len(next(iter(cs))))
                else:
                    c1, c2 = cs
                    bottom, top = (c1, c2) if leaf_pro.class_leq(c1, c2) else (c2, c1)
                    assert leaf_pro.class_leq(bottom, top)
                    model = two_block(len(top), len(bottom))
                assert leaf_pro.poset_isomorphic(model) is not None
            rebuilt = reassemble(tree)
            assert rebuilt.poset_isomorphic(pro) is not None
    assert total == 1 + 2 + 6 + 21 + 94
    _finish("criterion 10 generation tree", t0, 60)


def test_criterion_11_dickson_closures():
    """Normal closures at the documented desk scales: a noncentral element
    of the 2-block group over F5 normally generates at least SL2(F5); over
    F2 on the full 3-block every one of the 167 non-identity units normally
    generates the whole group of order 168; small fields are rejected."""
    t0 = time.perf_counter()
    report = dickson_normal_closure(2, 5, random.Random(1111))
    assert report["contains_sl_generators"] is True
    assert report["order_divisible_by_sl"] is True
    assert report["sl_order"] == 120

    pro = two_block(3)
    ring = PrimeField(2)
    units = list(enumerate_invertibles(pro, ring))
    assert len(units) == 168
    one = identity(pro, ring)
    gens = [certify(g) for g in centrality_generators(pro, ring)]

    def closure_is_everything(seed):
        orbit = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g.matrix.mul(x).mul(g.inverse_matrix)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        done = set(orbit)
        done.add(one)
        if 2 * len(done) > 168:
            return True
        frontier = list(done)
        while frontier:
            fresh = []
            for a in frontier:
                for b in list(done):
                    for c in (a.mul(b), b.mul(a)):
                        if c not in done:
                            done.add(c)
                            fresh.append(c)
                            if 2 * len(done) > 168:
                                return True
            frontier = fresh
        return len(done) == 168

    assert closure_is_everything(one) is False
    for u in units:
        if u == one:
            continue
        assert closure_is_everything(u) is True

    for q in (2, 3):
        with pytest.raises(HypothesisViolation):
            dickson_normal_closure(2, q, random.Random(5))
    _finish("criterion 11 dickson closures", t0, 60)


def test_criterion_12_solvability_pattern():
    """Depth-k iterated commutators vanish on intervals with at most k
    elements (500 samples per depth on the 3- and 5-chains over F3), and on
    2-bounded posets depth-2 commutators are the identity, exhaustively on
    the small types and by sampling on a 4-point zigzag."""
    t0 = time.perf_counter()
    ring = PrimeField(3)
    chains = [
        Proset(range(3), [(i, i + 1) for i in range(2)]),
        Proset(range(5), [(i, i + 1) for i in range(4)]),
    ]
    for pro in chains:
        for depth in range(1, len(pro.elements) + 1):
            rep = iterated_commutator_sample(
                pro, ring, depth, 500, random.Random(1200 + depth)
            )
            assert rep["samples"] == 500
            assert rep["violations"] == 0
    def exhaustive_depth2_trivial(pro):
        one = identity(pro, ring)
        units = [certify(m) for m in enumerate_invertibles(pro, ring)]
        first = {commutator(a, b).matrix for a in units for b in units}
        first_units = [certify(m) for m in first]
        second = {
            commutator(a, b).matrix for a in first_units for b in first_units
        }
        assert second == {one}

    two_bounded = [
        Proset([0, 1], [(0, 1)]),
        Proset([0, 1, 2], [(0, 1)]),
        Proset([0, 1, 2, 3], [(0, 1), (2, 3)]),
    ]
    for pro in two_bounded:
        assert pro.is_n_bounded(2)
        exhaustive_depth2_trivial(pro)
    # these two are 3-bounded, but every interval still has at most two
    # elements, so the depth statement already forces triviality at depth 2
    for pro in (
        Proset(["r", "x", "y"], [("r", "x"), ("r", "y")]),
        Proset(["x", "y", "r"], [("x", "r"), ("y", "r")]),
    ):
        assert not pro.is_n_bounded(2)
        assert all(len(pro.interval(a, b)) <= 2 for (a, b) in pro.pairs())
        exhaustive_depth2_trivial(pro)
    zigzag = Proset(range(4), [(0, 1), (2, 1), (2, 3)])
    assert all(len(zigzag.interval(a, b)) <= 2 for (a, b) in zigzag.pairs())
    rep = iterated_commutator_sample(zigzag, ring, 2, 500, random.Random(1212))
    assert rep["violations"] == 0
    _finish("criterion 12 solvability pattern", t0, 30)


def test_criterion_13_center():
    """Over F5 (which has a unit pair) the elements commuting with the
    generating set are exactly the scalar units, exhaustively over the unit
    group of each small irreducible proset; over F2 on the 2-chain the
    hypothesis fails, the scalar test disagrees, and the exact answer is
    the abelian one."""
    t0 = time.perf_counter()
    ring = PrimeField(5)
    point = Proset([0], [])
    chain2 = Proset([0, 1], [(0, 1)])
    cyc2 = Proset([0, 1], [(0, 1), (1, 0)])
    chain3 = Proset(range(3), [(0, 1), (1, 2)])
    vee = Proset(["r", "x", "y"], [("r", "x"), ("r", "y")])
    wedge = Proset(["x", "y", "r"], [("x", "r"), ("y", "r")])
    cyc2_top = Proset(["x", "y", "z"], [("x", "y"), ("y", "x"), ("x", "z")])
    cases = [point, chain2, cyc2, chain3, vee, wedge, cyc2_top]
    for pro in cases:
        assert pro.is_irreducible() and ring.has_unit_pair()
        gens = centrality_generators(pro, ring)
        scalars = {
            scalar_diag(pro, ring, u) for u in ring.units()
        }
        central = {
            m
            for m in enumerate_invertibles(pro, ring)
            if all(m.mul(h) == h.mul(m) for h in gens)
        }
        assert central == scalars
        for m in scalars:
            rep = is_central(m)
            assert rep.central and rep.scalar_test and rep.hypothesis_ok
            assert rep.agree
    # the opposite orientation is carried over by transposition, which is an
    # anti-isomorphism onto the unit group of the opposite proset
    for m in enumerate_invertibles(cyc2_top, ring):
        g = certify(m)
        assert is_scalar_unit(m) == is_scalar_unit(transpose_op_iso(g).matrix)

    weak = PrimeField(2)
    assert not weak.has_unit_pair()
    g = identity(chain2, weak).add(unit(chain2, weak, 0, 1))
    rep = is_central(g)
    units = enumerate_invertibles(chain2, weak)
    brute_central = all(g.mul(h) == h.mul(g) for h in units)
    assert brute_central is True
    assert rep.central is True
    assert rep.scalar_test is False
    assert rep.hypothesis_ok is False
    assert rep.agree is False
    _finish("criterion 13 center", t0, 30)


def test_criterion_14_qz_window_density():
    """Units supported near the inner zigzag window {-1,0,1} generate, after
    projection, the entire unit group of the inner window over F2, with all
    the generators lifted inside the outer window {-4..4}."""
    t0 = time.perf_counter()
    fam = ZigFamily()
    report = qz_window_check(fam, PrimeField(2), fam.window(4), fam.window(1))
    assert sorted(report["window"]) == list(range(-4, 5))
    assert sorted(report["inner"]) == [-1, 0, 1]
    assert report["closure_order"] == report["gl_inner_order"]
    assert report["surjective"] is True
    _finish("criterion 14 qz window density", t0, 60)
