"""Preordered sets: closure, intervals, convexity, families, enumeration."""

import hashlib
import inspect
import itertools
import json
import math
import random

import pytest

from incring.errors import (
    InfiniteNeighborhood,
    LocalFinitenessBudgetExceeded,
    MalformedInput,
    NotComparable,
    NotConnected,
    UnknownElement,
)
from incring.functor_cat import FccMap, coequalizer, pushout
from incring.io import lazy_to_json, map_to_json, matrix_to_json, proset_to_json
from incring.lazy import qz_window_check
from incring.matrices import CoeffIdeal, IncMatrix, indicator, unit, zero
from incring.prosets import (
    AugmentedFamily,
    CustomFamily,
    NFamily,
    NStarDivFamily,
    Proset,
    ProsetFamily,
    ZFamily,
    ZigFamily,
    interval_closure,
    two_block,
)
from incring.rings import QQ, ZZ, PrimeField
from incring.samples import (
    _component_embeddings,
    enumerate_posets,
    enumerate_prosets,
    irreducible_prosets,
    random_fcc_map,
    random_finitary,
    random_matrix,
    random_poset,
    random_proset,
)

CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])
VEE = Proset(["p", "x", "y"], [("p", "x"), ("p", "y")])
LOOP = Proset([0, 1, 2], [(0, 1), (1, 0), (1, 2)])

# Carriers for the brute-force oracles below: every proset on at most four
# points, and families whose window(4) holds every interval between points
# of window(2), since their windows are convex.
SMALL_PROSETS = [pro for n in range(1, 5) for pro in enumerate_prosets(n)]
FAMILIES = [
    NFamily(),
    ZFamily(),
    ZigFamily(),
    NStarDivFamily(),
    AugmentedFamily(ZigFamily(), [frozenset([0, 3])]),
    AugmentedFamily(ZFamily(), [frozenset([-1, 1])]),
]


def subsets(xs):
    return [set(c) for k in range(len(xs) + 1) for c in itertools.combinations(xs, k)]


def brute_connected(leq, subset):
    """The comparability graph on the subset is connected (or empty)."""
    reach = set(list(subset)[:1])
    while True:
        more = {u for u in subset for t in reach if leq(t, u) or leq(u, t)}
        if more <= reach:
            return reach == set(subset)
        reach |= more


def brute_convex(leq, carrier, subset):
    """The definition: every carrier point between two points of the subset
    lies in it, and the subset is connected."""
    closed = all(
        t in subset
        for a in subset for b in subset for t in carrier
        if leq(a, t) and leq(t, b)
    )
    return closed and brute_connected(leq, subset)


def brute_neighborhood(leq, carrier, s, n):
    """N_0 is the class of s; each step adds every comparable of a point."""
    reached = {t for t in carrier if leq(s, t) and leq(t, s)}
    for _ in range(n):
        reached |= {u for u in carrier for t in reached if leq(t, u) or leq(u, t)}
    return reached


def test_transitive_closure():
    assert CHAIN3.leq(0, 2)
    assert not CHAIN3.leq(2, 0)
    assert CHAIN3.leq(1, 1)
    # closing a closed relation changes nothing
    again = Proset(CHAIN3.elements, CHAIN3.pairs())
    assert again == CHAIN3


def test_intervals():
    assert CHAIN3.interval(0, 2) == (0, 1, 2)
    assert CHAIN3.interval(0, 0) == (0,)
    assert VEE.interval("x", "y") == ()
    assert LOOP.interval(0, 1) == (0, 1)  # the 2-cycle sits inside


def test_equiv_classes_and_condensation():
    assert LOOP.equiv_class(0) == frozenset([0, 1])
    assert LOOP.equiv_class(2) == frozenset([2])
    assert len(LOOP.classes()) == 2
    assert not LOOP.is_poset()
    assert CHAIN3.is_poset()


def test_neighborhoods_grow_to_component():
    n0 = VEE.neighborhood("p", 0)
    assert n0 == frozenset(["p"])
    n1 = VEE.neighborhood("p", 1)
    assert n1 == frozenset(["p", "x", "y"])
    for k in range(1, 4):
        assert VEE.neighborhood("x", k) <= frozenset(VEE.elements)
    for pro in SMALL_PROSETS:
        for s in pro.elements:
            for k in range(4):
                assert pro.neighborhood(s, k) == brute_neighborhood(pro.leq, pro.elements, s, k)
    # families with finite up- and down-sets, against a wide enough window
    for fam in (ZigFamily(), AugmentedFamily(ZigFamily(), [frozenset([0, 3])])):
        carrier = fam.window(10)
        for s in fam.window(2):
            for k in range(3):
                assert fam.neighborhood(s, k) == brute_neighborhood(fam.leq, carrier, s, k)
    for fam in (NFamily(), ZFamily(), NStarDivFamily()):
        assert fam.neighborhood(2, 0) == frozenset([2])
        with pytest.raises(InfiniteNeighborhood):
            fam.neighborhood(2, 1)
    with pytest.raises(UnknownElement):
        CHAIN3.neighborhood(9, 1)


def test_interval_in_reachable_neighborhood():
    rng = random.Random(2)
    for _ in range(25):
        pro = random_proset(rng.randrange(2, 7), rng)
        for (a, b) in pro.pairs():
            k = len(pro.elements)
            assert set(pro.interval(a, b)) <= set(pro.neighborhood(a, k))


def test_components_are_irreducible():
    rng = random.Random(9)
    randoms = [random_proset(rng.randrange(1, 8), rng) for _ in range(40)]
    for pro in SMALL_PROSETS + randoms:
        comps = pro.components()
        assert sorted(sum((sorted(c) for c in comps), [])) == sorted(pro.elements)
        assert all(brute_connected(pro.leq, comp) for comp in comps)
        for comp in comps:
            assert pro.restrict(comp).is_irreducible()
            for s in comp:
                for t in pro.elements:
                    if pro.leq(s, t) or pro.leq(t, s):
                        assert t in comp


def test_convexity():
    chain4 = Proset(range(4), [(i, i + 1) for i in range(3)])
    assert chain4.is_convex([1, 2])
    assert not chain4.is_convex([0, 2])  # gap at 1
    assert not chain4.is_convex([0, 1, 3])
    assert chain4.convex_closure([0, 2]) == frozenset([0, 1, 2])
    # not always minimal: the canonical path from 2 to 3 runs through 0
    fork = Proset(range(4), [(0, 1), (1, 2), (1, 3)])
    assert fork.is_convex([1, 2, 3])
    assert fork.convex_closure([2, 3]) == frozenset(range(4))
    assert interval_closure(chain4, [0, 2]) == frozenset([0, 1, 2])
    # convexity also needs connectivity: two far-apart points of a vee
    assert not VEE.is_convex(["x", "y"])
    for pro in SMALL_PROSETS:
        comps = pro.components()
        for sub in subsets(pro.elements):
            convex = brute_convex(pro.leq, pro.elements, sub)
            assert pro.is_convex(sub) == convex
            if sum(1 for c in comps if c & sub) > 1:
                with pytest.raises(NotConnected):
                    pro.convex_closure(sub)
                continue
            closure = pro.convex_closure(sub)
            assert sub <= closure
            assert brute_convex(pro.leq, pro.elements, closure)
            assert (closure == sub) == convex
    for fam in FAMILIES:
        carrier = fam.window(4)
        for sub in subsets(fam.window(2)):
            assert fam.is_convex(sub) == brute_convex(fam.leq, carrier, sub)
    for bad in (lambda: CHAIN3.is_convex([0, 9]), lambda: CHAIN3.convex_closure([0, 9])):
        with pytest.raises(UnknownElement):
            bad()


def test_augment():
    aug = CHAIN3.augment([frozenset([0, 2])])
    assert aug.leq(2, 0) and aug.leq(0, 2)
    assert not aug.is_poset()
    assert aug.equiv_class(0) == frozenset([0, 1, 2])  # 0~2 squeezes 1 in


def test_opposite_involution():
    rng = random.Random(4)
    for _ in range(20):
        pro = random_proset(rng.randrange(1, 7), rng)
        opp = pro.opposite()
        assert opp.opposite() == pro
        for (a, b) in pro.pairs():
            assert opp.leq(b, a)


def test_two_block():
    tb = two_block(2, 3)
    bottom = [s for s in tb.elements if str(s).startswith("b")]
    top = [s for s in tb.elements if str(s).startswith("t")]
    assert len(bottom) == 3 and len(top) == 2
    for b in bottom:
        for t in top:
            assert tb.leq(b, t) and not tb.leq(t, b)
    assert len(tb.classes()) == 2
    assert tb.is_irreducible()


def test_poset_isomorphic():
    a = Proset([0, 1, 2], [(0, 1), (0, 2)])
    b = Proset(["r", "s", "t"], [("t", "r"), ("t", "s")])
    assert a.poset_isomorphic(b) is not None
    assert a.poset_isomorphic(CHAIN3) is None
    iso = a.poset_isomorphic(b)
    assert iso[0] == "t"


def test_gamma_enumerate():
    convex = list(CHAIN3.gamma_enumerate())
    as_sets = {frozenset(c) for c in convex}
    # nonempty convex subsets of the 3-chain: three points, two edges, the whole
    assert as_sets == {
        frozenset([0]), frozenset([1]), frozenset([2]),
        frozenset([0, 1]), frozenset([1, 2]), frozenset([0, 1, 2]),
    }


# -- the infinite families ------------------------------------------------------


def test_n_family():
    fam = NFamily()
    assert fam.leq(0, 5) and not fam.leq(5, 0)
    assert fam.interval(2, 5) == (2, 3, 4, 5)
    assert set(fam.window(3)) == {0, 1, 2, 3}
    with pytest.raises(InfiniteNeighborhood):
        fam.up_set(0)
    assert not fam.has_finite_neighborhoods()


def test_z_family():
    fam = ZFamily()
    assert fam.leq(-3, 3)
    assert fam.interval(-1, 1) == (-1, 0, 1)


def test_zig_family():
    fam = ZigFamily()
    # evens sit below their odd neighbours
    assert fam.leq(0, 1) and fam.leq(2, 1) and fam.leq(2, 3)
    assert not fam.leq(1, 0) and not fam.leq(1, 3)
    assert fam.interval(0, 1) == (0, 1)
    assert fam.interval(0, 3) == ()
    assert set(fam.window(1)) == {-1, 0, 1}
    assert fam.has_finite_neighborhoods()
    assert set(fam.up_set(2)) == {1, 2, 3}
    assert set(fam.down_set(1)) == {0, 1, 2}


def test_nstar_div_family():
    fam = NStarDivFamily()
    assert fam.leq(3, 30) and not fam.leq(4, 30)
    assert set(fam.interval(3, 30)) == {3, 6, 15, 30}
    assert set(fam.interval(2, 12)) == {2, 4, 6, 12}
    win = fam.window(2)
    assert all(fam.contains(d) for d in win)
    assert fam.is_convex(win)


def test_augmented_family():
    base = ZigFamily()
    fam = AugmentedFamily(base, [frozenset([0, 3])])
    # gluing 0 to 3 drags the fence between them into one class
    assert fam.leq(3, 0) and fam.leq(0, 3)
    assert fam.leq(2, 0)  # 2 <= 3 ~ 0
    assert set(fam.equiv_class(0)) >= {0, 3}
    win = fam.window(2)
    assert set(win) >= {-2, -1, 0, 1, 2, 3}


def test_augmented_family_closes_chained_hubs():
    """Four sets, each below the next only: the family's order runs through
    all of them, as the finite augmentation of a window around them does."""
    sets = [frozenset(s) for s in ([1, 2], [3, 6], [7, 10], [11, 14])]
    fam = AugmentedFamily(ZigFamily(), sets)
    win = range(-2, 18)
    finite = ZigFamily().restrict(win).augment(sets)
    assert fam.leq(1, 14) and not fam.leq(14, 1)
    for a in win:
        for b in win:
            assert fam.leq(a, b) == finite.leq(a, b)
            assert set(fam.interval(a, b)) == set(finite.interval(a, b))


def _augmented_cases(rng, count):
    """Random disjoint augmentation sets over each base, with a window W of
    the base around them, convex in the augmented order, and the points of W
    whose base up- and down-sets stay inside W."""
    for k in range(count):
        base = (ZFamily(), NFamily(), ZigFamily(), NStarDivFamily())[k % 4]
        pool = list(range(1, 13) if isinstance(base, NStarDivFamily) else range(-6, 7))
        if isinstance(base, NFamily):
            pool = list(range(0, 13))
        rng.shuffle(pool)
        sets, used = [], 0
        for _ in range(rng.randint(0, 4)):
            size = rng.randint(1, 3)
            sets.append(frozenset(pool[used:used + size]))
            used += size
        hubs = pool[:used] or [pool[0]]
        if isinstance(base, NStarDivFamily):
            window = base.interval(1, math.lcm(*hubs))
            inner = window
        else:
            lo, hi = min(hubs) - 3, max(hubs) + 3
            lo, hi = lo - lo % 2 + 1, hi + hi % 2 - 1  # odd ends: Zig's evens keep both neighbours
            if isinstance(base, NFamily):
                lo = 0
            window = range(lo, hi + 1)
            inner = range(lo + 1, hi)
        yield base, sets, window, inner


def test_augmented_family_matches_augmenting_a_window():
    """Seeded oracle: on a convex window W around random sets, the family
    answers as the finite augmentation base.restrict(W).augment(sets)."""
    rng = random.Random(24)
    for base, sets, window, inner in _augmented_cases(rng, 400):
        fam = AugmentedFamily(base, sets)
        finite = base.restrict(window).augment(sets)
        points = sorted(rng.sample(list(window), min(9, len(window))))
        for a in points:
            assert fam.equiv_class(a) == finite.equiv_class(a)
            for b in points:
                assert fam.leq(a, b) == finite.leq(a, b), (base, sets, a, b)
                assert fam.interval(a, b) == finite.interval(a, b), (base, sets, a, b)
        if isinstance(base, ZigFamily):
            for a in inner:
                assert set(fam.up_set(a)) == finite.up_set(a)
                assert set(fam.down_set(a)) == finite.down_set(a)
        if isinstance(base, NStarDivFamily):
            for a in points:
                assert set(fam.down_set(a)) == finite.down_set(a)


def test_augmented_family_predicates_and_far_hub_window():
    assert AugmentedFamily(ZigFamily(), [{0}, {3}]).is_poset()
    assert not AugmentedFamily(ZigFamily(), [{0, 3}]).is_poset()
    # the base window grows until it reaches the hub at 10 through 9
    fam = AugmentedFamily(ZigFamily(), [{10}])
    win = fam.window(1)
    assert win == tuple(range(-9, 11))
    assert fam.is_convex(win)
    assert NStarDivFamily().down_set(12) == (1, 2, 3, 4, 6, 12)


def test_empty_augmentation_set_is_malformed_input():
    for base in (ZFamily(), ZigFamily()):
        with pytest.raises(MalformedInput, match="augmentation sets must be nonempty"):
            AugmentedFamily(base, [{0}, set()])
        with pytest.raises(ValueError):
            AugmentedFamily(base, [frozenset()])


def test_custom_family_budget():
    fam = CustomFamily(
        leq=lambda a, b: a <= b,
        interval=lambda a, b: range(a, b + 1),
        window=lambda k: range(-k, k + 1),
        budget=5,
    )
    assert fam.interval(0, 4) == (0, 1, 2, 3, 4)  # exactly the budget
    assert fam.window(2) == (-2, -1, 0, 1, 2)
    assert fam.is_convex([0, 1, 2]) and not fam.is_convex([0, 2])
    with pytest.raises(LocalFinitenessBudgetExceeded):
        fam.interval(0, 5)
    with pytest.raises(LocalFinitenessBudgetExceeded):
        fam.window(3)
    # a callback that never stops is cut off, not followed
    endless = CustomFamily(leq=lambda a, b: True, interval=lambda a, b: itertools.count(),
                           window=lambda k: itertools.count(), budget=100)
    with pytest.raises(LocalFinitenessBudgetExceeded):
        endless.interval(0, 1)
    with pytest.raises(LocalFinitenessBudgetExceeded):
        endless.window(1)
    with pytest.raises(ValueError):
        CustomFamily(leq=lambda a, b: a <= b, interval=lambda a, b: ()).window(1)


def test_custom_family_budget_messages():
    fam = CustomFamily(leq=lambda a, b: a <= b, interval=lambda a, b: range(a, b + 5),
                       window=lambda k: range(-k, k + 1), budget=5)
    with pytest.raises(LocalFinitenessBudgetExceeded) as got:
        fam.interval(1, 2)
    assert str(got.value) == "interval [1, 2] exceeded budget 5"
    with pytest.raises(LocalFinitenessBudgetExceeded) as got:
        fam.window(3)
    assert str(got.value) == "window 3 exceeded budget 5"


def test_family_windows_are_convex_and_nested():
    for fam in [NFamily(), ZFamily(), ZigFamily(), NStarDivFamily()]:
        prev = set()
        for k in range(1, 5):
            win = set(fam.window(k))
            assert prev <= win
            assert fam.is_convex(win)
            prev = win


def test_restrict_matches_family_order():
    fam = ZigFamily()
    win = fam.window(2)
    pro = fam.restrict(win)
    for a in win:
        for b in win:
            assert pro.leq(a, b) == fam.leq(a, b)
    with pytest.raises(UnknownElement, match="-1 is not an element of N"):
        NFamily().restrict([0, -1])
    with pytest.raises(UnknownElement, match="-1 is not in the base family"):
        AugmentedFamily(NFamily(), [frozenset([-1, 0])])


def test_restrict_to_unknown_elements_is_typed():
    with pytest.raises(UnknownElement, match="1 is not an element of the proset"):
        Proset([0], []).restrict([1])
    with pytest.raises(UnknownElement, match="'a' is not an element"):
        Proset([0, 1], [(0, 1)]).restrict([0, "b", "a"])


def test_relations_and_augmentations_on_unknown_elements_are_typed():
    with pytest.raises(UnknownElement, match=r"relation \(0, 1\) uses unknown elements"):
        Proset([0], [(0, 1)])
    with pytest.raises(UnknownElement, match=r"augmentation set \(5,\) not within proset"):
        Proset([0, 1]).augment([[5]])


def test_a_proset_refuses_a_label_it_lacks():
    """Every query, and every matrix read or built over a proset, refuses a
    label outside it with the same UnknownElement, in either argument:
    never a KeyError, a False, an empty interval or a zero entry."""
    for n in range(4):
        for pro in enumerate_prosets(n):
            m = zero(pro, ZZ)
            f = FccMap(pro, pro, {s: s for s in pro.elements})
            for x in (9, "z", (0,)):
                alone = frozenset([x])
                calls = [
                    (pro.up_set, x), (pro.down_set, x), (pro.equiv_class, x),
                    (pro._comparables, x, set(pro.elements)),
                    (pro.neighborhood, x, 0), (pro.neighborhood, x, 1),
                    (pro.is_convex, [x]), (pro.convex_closure, [x]),
                    (pro.restrict, pro.elements + (x,)), (indicator, pro, ZZ, [x]),
                ]
                for s in pro.elements + (x,):
                    cls = alone if s == x else pro.equiv_class(s)
                    for a, b, ca, cb in ((s, x, cls, alone), (x, s, alone, cls)):
                        calls += [
                            (pro.leq, a, b), (pro.interval, a, b), (pro._between, a, b),
                            (pro.class_leq, ca, cb), (m.entry, a, b),
                            (IncMatrix, pro, ZZ, {(a, b): 1}), (unit, pro, ZZ, a, b),
                        ]
                    calls += [(pro.is_convex, [s, x]), (pro.convex_closure, [s, x])]
                for fn, *args in calls:
                    with pytest.raises(UnknownElement) as err:
                        fn(*args)
                    assert str(err.value) == "%r is not an element of the proset" % (x,)
                with pytest.raises(UnknownElement) as err:
                    f(x)
                assert str(err.value) == "%r is not an element of the domain" % (x,)


# -- enumeration ----------------------------------------------------------------


def test_poset_counts():
    assert [len(enumerate_posets(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]


def test_proset_counts():
    assert [len(enumerate_prosets(n)) for n in range(1, 5)] == [1, 3, 9, 33]


def test_enumeration_dedups_up_to_iso():
    for pro in enumerate_posets(4):
        assert pro.is_poset()
    seen = enumerate_prosets(3)
    for i, a in enumerate(seen):
        for b in seen[i + 1:]:
            assert a.poset_isomorphic(b) is None


def test_enumeration_counts_at_six_posets_and_five_prosets():
    """OEIS A000112 and A001930, where the search behind the dedupe is
    longest."""
    assert len(enumerate_posets(6)) == 318
    assert len(enumerate_prosets(5)) == 139


# -- the random generators --------------------------------------------------------


def test_seeded_generator_draws_are_pinned():
    """One seeded stream through all five generators, hashed through the
    JSON writers: the benchmark workloads and many tests build their data
    from these draws, so a change to any rate or draw order shows here."""
    rng = random.Random(30)
    digest = hashlib.sha256()

    def put(obj):
        digest.update(json.dumps(obj, sort_keys=True).encode())

    for n in range(1, 9):
        put(proset_to_json(random_poset(n, rng)))
        put(proset_to_json(random_proset(n, rng)))
    for ring in (PrimeField(5), QQ, ZZ):
        for n in range(1, 7):
            put(matrix_to_json(random_matrix(random_proset(n, rng), ring, rng)))
    for _ in range(30):
        dom = random_proset(rng.randint(1, 4), rng)
        put(map_to_json(random_fcc_map(dom, random_poset(rng.randint(1, 5), rng), rng)))
    for fam in (NFamily(), ZFamily(), ZigFamily(), NStarDivFamily()):
        for ring in (PrimeField(5), QQ):
            for span in (2, 3):
                for invertible in (True, False):
                    lz = random_finitary(fam, ring, rng, span=span, invertible=invertible)
                    put(lazy_to_json(lz))
    put(repr(rng.random()))
    assert digest.hexdigest() == "2758e31fbd3d0dcfa8e436eabaa4b0650e5364ae218c022c9eb9406fe7c1033b"


def test_rates_and_caps_are_not_options():
    """The generators' rates, the qz closure cap, the window start, the
    convex-subset bound and the ideal label are fixed, and no family says
    whether it is Z-like."""
    gone = [
        (random_poset, "density"), (random_proset, "density"), (random_matrix, "density"),
        (random_finitary, "density"), (random_fcc_map, "constant_bias"),
        (CustomFamily, "z_like"), (ProsetFamily.windows, "start"),
        (Proset.gamma_enumerate, "bound"), (qz_window_check, "cap"), (CoeffIdeal, "label"),
    ]
    for fn, name in gone:
        assert name not in inspect.signature(fn).parameters, (fn, name)
    for cls in (Proset, ProsetFamily, NFamily, ZFamily, ZigFamily, NStarDivFamily,
                AugmentedFamily, CustomFamily):
        assert not hasattr(cls, "is_z_like"), cls


def relation_key(pro, order):
    return tuple(pro.leq(s, t) for s in order for t in order)


def canonical_relation(pro):
    """The least relation matrix over every listing of the points: two
    prosets are isomorphic exactly when theirs agree."""
    return min(relation_key(pro, order) for order in itertools.permutations(pro.elements))


def test_poset_isomorphic_matches_permutations():
    """Every pair of prosets on at most four points, each also under fresh
    labels in another order: a dict comes back exactly when some permutation
    is an isomorphism, and it is one."""
    rng = random.Random(5)
    relabelled = []
    for pro in SMALL_PROSETS:
        shuffled = list(pro.elements)
        rng.shuffle(shuffled)
        lab = {s: ("x", t) for s, t in zip(pro.elements, shuffled)}
        relabelled.append(Proset(lab.values(), [(lab[a], lab[b]) for a, b in pro.pairs()]))
    pool = SMALL_PROSETS + relabelled
    canon = [canonical_relation(pro) for pro in pool]
    for a, ca in zip(pool, canon):
        for b, cb in zip(pool, canon):
            iso = a.poset_isomorphic(b)
            assert (iso is not None) == (ca == cb)
            if iso is not None:
                assert sorted(iso.values(), key=repr) == sorted(b.elements, key=repr)
                assert relation_key(a, a.elements) == relation_key(b, [iso[s] for s in a.elements])


def test_component_embeddings_match_brute_force():
    """Each component of a proset on at most three points, into each proset
    on at most four: the injective maps that preserve and reflect order and
    have a convex image, as permutations list them, in the same order."""
    for dom in [p for n in range(1, 4) for p in enumerate_prosets(n)]:
        for comp in dom.components():
            comp = sorted(comp, key=dom.rank.__getitem__)
            for cod in SMALL_PROSETS:
                want = [
                    dict(zip(comp, img))
                    for img in itertools.permutations(cod.elements, len(comp))
                    if relation_key(dom, comp) == relation_key(cod, img) and cod.is_convex(img)
                ]
                got = _component_embeddings(comp, dom, cod)
                assert [list(m.items()) for m in got] == [list(m.items()) for m in want]


def test_irreducible_prosets_are_irreducible():
    for n in range(1, 5):
        for pro in irreducible_prosets(n):
            assert pro.is_irreducible()


def test_not_comparable_raises():
    with pytest.raises(NotComparable):
        from incring.matrices import unit
        from incring.rings import ZZ
        unit(VEE, ZZ, "x", "y")


# -- derived prosets against a rebuild from scratch ----------------------------------


def assert_rebuilt(pro):
    """A derived proset holds exactly what closing its own pairs from scratch
    gives, and its kept components and hook-based convexity match the
    brute-force oracles."""
    again = Proset(pro.elements, pro.pairs())
    assert pro.elements == again.elements
    assert pro.rank == again.rank
    assert pro._up == again._up
    assert pro._down == again._down
    comps = pro.components()
    assert isinstance(comps, tuple) and pro.components() is comps
    assert comps == again.components()
    members = [s for c in comps for s in c]
    assert len(members) == len(pro) and set(members) == set(pro.elements)
    assert all(brute_connected(pro.leq, c) for c in comps)
    assert all(t in c for c in comps for s in c for t in pro.neighborhood(s, 1))
    for sub in subsets(pro.elements[:6]):
        assert pro.is_convex(sub) == brute_convex(pro.leq, pro.elements, sub)


def random_carriers(rng, count):
    """Seeded posets and prosets of 1 to 10 points, half of each."""
    draw = (random_poset, random_proset)
    return [draw[i % 2](rng.randint(1, 10), rng) for i in range(count)]


def test_restrict_and_opposite_match_a_rebuild():
    rng = random.Random(11)
    for pro in random_carriers(rng, 40):
        assert_rebuilt(pro.opposite())
        for _ in range(4):
            subset = rng.sample(pro.elements, rng.randint(0, len(pro.elements)))
            sub = pro.restrict(subset)
            assert_rebuilt(sub)
            assert_rebuilt(sub.opposite())


def test_family_windows_match_a_rebuild():
    rng = random.Random(12)
    custom = CustomFamily(leq=lambda a, b: a <= b, interval=lambda a, b: range(a, b + 1),
                          window=lambda k: range(-k, k + 1))
    families = FAMILIES + [custom]
    assert {fam.kind for fam in families} == {"N", "Z", "Zig", "NStarDiv", "Augmented", "Custom"}
    for fam in families:
        for k in range(1, 4):
            win = fam.window(k)
            for subset in (win, rng.sample(win, rng.randint(1, len(win)))):
                sub = fam.restrict(subset)
                assert_rebuilt(sub)
                assert all(sub.leq(a, b) == fam.leq(a, b) for a in subset for b in subset)


def test_colimit_quotients_match_a_rebuild():
    rng = random.Random(13)
    done = 0
    while done < 40:
        apex, left, right = (random_carriers(rng, 2)[rng.randrange(2)] for _ in range(3))
        apex = apex.restrict(apex.elements[:3])
        try:
            f, g = random_fcc_map(apex, left, rng), random_fcc_map(apex, right, rng)
            f2 = random_fcc_map(apex, left, rng)
        except ValueError:
            continue
        assert_rebuilt(pushout(f, g)[0])
        assert_rebuilt(coequalizer(f, f2)[0])
        done += 1


# -- one convexity rule: intervals empty off the order, windows by search ----------


def test_family_intervals_are_empty_exactly_off_the_order():
    """Every family's interval is () exactly where leq fails, a custom one
    included whose callback answers every pair, so the convexity test can
    read intervals alone."""
    spread = CustomFamily(leq=lambda a, b: a <= b,
                          interval=lambda a, b: range(min(a, b), max(a, b) + 1),
                          window=lambda k: range(-k, k + 1))
    bases = [NFamily(), ZFamily(), ZigFamily(), NStarDivFamily()]
    hubs = [{0, 3}, {-1, 2}, {0, 3}, {2, 3}]
    families = bases + [AugmentedFamily(b, [h]) for b, h in zip(bases, hubs)] + [spread]
    for fam in families:
        win = fam.window(3)
        for a in win:
            for b in win:
                assert (fam.interval(a, b) == ()) == (not fam.leq(a, b)), (fam, a, b)


def test_interval_closure_is_already_closed():
    """One pass closes: z in [x, y] with x in [a, b] and y in [c, d] lies in
    [a, d].  Checked on seeded prosets and on subsets of family windows."""
    rng = random.Random(28)
    for pro in random_carriers(rng, 60):
        subset = rng.sample(pro.elements, rng.randint(0, len(pro.elements)))
        once = interval_closure(pro, subset)
        assert interval_closure(pro, once) == once
    for fam in FAMILIES:
        win = fam.window(3)
        for _ in range(10):
            once = interval_closure(fam, rng.sample(win, rng.randint(1, 4)))
            assert interval_closure(fam, once) == once


def stepwise_window(fam, k):
    """The former augmented window: grow the base window one step at a time
    until the closure with the hub points passes the full convexity test."""
    need = k
    while True:
        w = interval_closure(fam, set(fam.base.window(need)).union(fam._hub.elements))
        if fam.is_convex(w):
            return tuple(sorted(w))
        need += 1


def test_augmented_windows_match_the_stepwise_search():
    rng = random.Random(29)
    for i in range(16):
        base = (NFamily(), ZFamily(), ZigFamily(), NStarDivFamily())[i % 4]
        if isinstance(base, NStarDivFamily):
            pool = list(range(1, 25))
        else:
            pool = list(range(0 if isinstance(base, NFamily) else -20, 21))
        rng.shuffle(pool)
        sets, used = [], 0
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, 3)
            sets.append(frozenset(pool[used:used + size]))
            used += size
        fam = AugmentedFamily(base, sets)
        for k in (1, 2, 3):
            assert fam.window(k) == stepwise_window(fam, k), (base, sets, k)
    # a hub far from the origin: 69 steps, past the former cap of 64
    far = AugmentedFamily(ZigFamily(), [{70}])
    assert far.window(1) == stepwise_window(far, 1) == tuple(range(-69, 71))


def test_custom_families_compare_by_identity():
    """Opaque callbacks cannot be compared, so neither can custom families
    built from them: lazy matrices over two of them do not multiply."""
    from incring.errors import IncompatibleOperands
    from incring.io import family_to_json
    from incring.lazy import lazy_finitary, lazy_mul

    up = CustomFamily(leq=lambda a, b: a <= b, interval=lambda a, b: range(a, b + 1))
    down = CustomFamily(leq=lambda a, b: a >= b, interval=lambda a, b: range(b, a + 1))
    assert up == up and up != down and len({up, down}) == 2
    assert AugmentedFamily(up, [{0}]) == AugmentedFamily(up, [{0}])
    assert AugmentedFamily(up, [{0}]) != AugmentedFamily(down, [{0}])
    assert len({AugmentedFamily(ZFamily(), [{0, 1}]), AugmentedFamily(ZFamily(), [{1, 0}])}) == 1
    with pytest.raises(IncompatibleOperands):
        lazy_mul(lazy_finitary(up, ZZ, {(0, 1): 1}), lazy_finitary(down, ZZ, {(1, 0): 1}))
    for fam in (up, AugmentedFamily(up, [{0}])):
        with pytest.raises(MalformedInput, match="custom family"):
            family_to_json(fam)


def test_nstar_div_refuses_labels_below_one():
    fam = NStarDivFamily()
    for a, b in ((0, 5), (5, 0), (-2, 4), (4, -2), (-3, -6)):
        for query in (fam.leq, fam.interval):
            with pytest.raises(UnknownElement, match="is not an element of NStarDiv"):
                query(a, b)
    assert fam.leq(1, 5) and fam.interval(2, 12) == (2, 4, 6, 12)


def test_families_refuse_labels_they_lack():
    """One membership rule: every family query refuses a label outside the
    family with UnknownElement, in either argument, over the built-in
    families, an augmentation of each, and a custom family whose `contains`
    callback is stricter than its `leq` callback.  The member beside each
    label is 2, as a set would merge True with 1."""
    custom = CustomFamily(leq=lambda a, b: a <= b, interval=lambda a, b: range(a, b + 1),
                          contains=lambda s: type(s) is int and s >= 0)
    bases = [(NFamily(), [-1]), (ZFamily(), []), (ZigFamily(), []),
             (NStarDivFamily(), [0]), (custom, [-1])]
    cases = []
    for base, own in bases:
        cases.append((base, own))
        cases.append((AugmentedFamily(base, [{1, 2}]), own))
    for fam, own in cases:
        for bad in own + [0.5, "a", (0,), True]:
            queries = {
                "leq(bad, 2)": lambda: fam.leq(bad, 2),
                "leq(2, bad)": lambda: fam.leq(2, bad),
                "interval(bad, 2)": lambda: fam.interval(bad, 2),
                "interval(2, bad)": lambda: fam.interval(2, bad),
                "up_set": lambda: fam.up_set(bad),
                "down_set": lambda: fam.down_set(bad),
                "equiv_class": lambda: fam.equiv_class(bad),
                "neighborhood": lambda: fam.neighborhood(bad, 1),
                "restrict": lambda: fam.restrict([2, bad]),
                "is_convex": lambda: fam.is_convex([2, bad]),
            }
            for name, query in queries.items():
                with pytest.raises(UnknownElement, match="is not an element of"):
                    query()
                    pytest.fail("%r.%s answered for %r" % (fam, name, bad))
    for query in (NFamily().restrict, NFamily().is_convex):
        with pytest.raises(UnknownElement, match="^-2 is not an element of N$"):
            query([3, -1, -2, 5])
    with pytest.raises(UnknownElement, match="^-1 is not an element of Custom$"):
        custom.leq(-1, 0)
