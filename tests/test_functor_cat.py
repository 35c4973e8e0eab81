"""Admissible poset maps, the induced ring homomorphisms, and colimits."""

import ast
import itertools
import random
from collections import Counter

import pytest

from incring.errors import (
    MalformedInput,
    NoValidCutPair,
    NotComposable,
    NotConvexImage,
    NotFcc,
    NotOrderPreserving,
    NotParallel,
    UnknownElement,
)
from incring import functor_cat
from incring.functor_cat import (
    FccMap,
    coequalizer,
    compose,
    coproduct,
    coproduct_mediator,
    equalizer_check,
    generation_decompose,
    identity_map,
    induced_hom,
    pushout,
    pushout_mediator,
    reassemble,
    validate_fcc,
)
from incring.matrices import IncMatrix, identity, unit
from incring.prosets import Proset, elem_key, two_block
from incring.rings import QQ, ModRing, PrimeField, ZZ
from incring.samples import (
    enumerate_posets,
    enumerate_prosets,
    irreducible_prosets,
    random_fcc_map,
    random_matrix,
    random_poset,
    random_proset,
)

CHAIN2 = Proset([0, 1], [(0, 1)])
CHAIN3 = Proset(["a", "b", "c"], [("a", "b"), ("b", "c")])
VEE = Proset(["p", "x", "y"], [("p", "x"), ("p", "y")])
ANTI2 = Proset([1, 2], [])


def test_validate_accepts_embedding_and_constant():
    emb = FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b"})
    records = validate_fcc(emb)
    assert records[0][0] == "embedding"
    const = FccMap(CHAIN2, CHAIN3, {0: "b", 1: "b"})
    records = validate_fcc(const)
    assert records[0][0] == "constant" and records[0][2] == "b"
    # separate components may choose independently
    mixed = FccMap(ANTI2, CHAIN3, {1: "a", 2: "c"})
    kinds = {r[0] for r in validate_fcc(mixed)}
    assert kinds == {"constant"}


def test_validate_rejects_order_breaking():
    with pytest.raises(NotOrderPreserving):
        validate_fcc(FccMap(CHAIN2, CHAIN3, {0: "c", 1: "a"}))


def test_validate_rejects_downstream_order():
    # a connected component that gains order between image points
    f = FccMap(VEE, CHAIN3, {"p": "a", "x": "b", "y": "c"})
    with pytest.raises(NotFcc):
        validate_fcc(f)


def test_validate_rejects_non_injective_non_constant():
    square = Proset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    f = FccMap(square, CHAIN3, {0: "a", 1: "b", 2: "b", 3: "c"})
    with pytest.raises(NotFcc):
        validate_fcc(f)


def test_validate_rejects_non_convex_image():
    # the endpoints of the codomain: the interval [a, c] strictly contains
    # the image of the convex domain
    with pytest.raises(NotConvexImage):
        validate_fcc(FccMap(CHAIN2, CHAIN3, {0: "a", 1: "c"}))
    chain4 = Proset(range(4), [(i, i + 1) for i in range(3)])
    with pytest.raises(NotConvexImage):
        validate_fcc(FccMap(CHAIN2, chain4, {0: 0, 1: 3}))


def test_validate_rejects_constant_onto_cycle_point():
    # collapsing onto one point of a two-cycle: the singleton image is not
    # convex ([x, x] is the whole class), and no pullback can be a ring hom,
    # since e(x,y)e(y,x) = e(x,x) would need image both zero and nonzero
    loop = Proset(["x", "y", "z"], [("x", "y"), ("y", "x"), ("y", "z")])
    f = FccMap(CHAIN2, loop, {0: "x", 1: "x"})
    with pytest.raises(NotConvexImage):
        validate_fcc(f)
    ok = FccMap(CHAIN2, loop, {0: "z", 1: "z"})
    assert validate_fcc(ok)[0][0] == "constant"


def validate_fcc_all_subsets(f):
    """Admissibility tested on the image of every convex subset of every
    embedded component: the oracle for validate_fcc, which tests only the
    image of the whole component unless that test fails."""
    dom, cod = f.domain, f.codomain
    for (s1, s2) in dom.pairs():
        if not cod.leq(f(s1), f(s2)):
            raise NotOrderPreserving(
                "%r <= %r but %r is not <= %r" % (s1, s2, f(s1), f(s2))
            )
    out = []
    for comp in dom.components():
        comp = sorted(comp, key=elem_key)
        values = {f(s) for s in comp}
        if len(values) == 1:
            v = next(iter(values))
            if not cod.is_convex([v]):
                raise NotConvexImage(
                    "component %r is constant at %r, whose singleton is not "
                    "convex downstream" % (comp, v)
                )
            out.append(("constant", tuple(comp), v))
            continue
        if len(values) < len(comp):
            raise NotFcc("component %r is neither constant nor injective" % (comp,))
        for s1 in comp:
            for s2 in comp:
                if s1 != s2 and cod.leq(f(s1), f(s2)) and not dom.leq(s1, s2):
                    raise NotFcc(
                        "component %r does not embed: order appears between "
                        "%r and %r only downstream" % (comp, s1, s2)
                    )
        sub = dom.restrict(comp)
        for size in range(1, len(comp) + 1):
            for cand in itertools.combinations(comp, size):
                if not sub.is_convex(cand):
                    continue
                img = [f(s) for s in cand]
                if not cod.is_convex(img):
                    raise NotConvexImage(
                        "convex %r has non-convex image %r" % (cand, sorted(img, key=elem_key))
                    )
        out.append(("embedding", tuple(comp)))
    return out


def outcome(check, f):
    """The records `check` returns for f, or the type and message it raises."""
    try:
        return check(f)
    except (NotOrderPreserving, NotConvexImage, NotFcc) as exc:
        return type(exc), str(exc)


def test_validate_matches_all_subsets_oracle():
    """Every map from a proset of at most 3 points into one of at most 4."""
    seen = Counter()
    for dom in [p for n in range(1, 4) for p in enumerate_prosets(n)]:
        for cod in [p for n in range(1, 5) for p in enumerate_prosets(n)]:
            for images in itertools.product(cod.elements, repeat=len(dom)):
                f = FccMap(dom, cod, dict(zip(dom.elements, images)))
                got = outcome(validate_fcc, f)
                assert got == outcome(validate_fcc_all_subsets, f)
                seen.update([r[0] for r in got] if isinstance(got, list) else [got[0].__name__])
    assert all(seen[k] for k in ("embedding", "constant", "NotOrderPreserving",
                                 "NotConvexImage", "NotFcc"))


LOOP = Proset(["x", "y", "z"], [("x", "y"), ("y", "x"), ("y", "z")])
CHAIN4 = Proset(range(4), [(i, i + 1) for i in range(3)])


@pytest.mark.parametrize("f", [
    FccMap(CHAIN2, CHAIN3, {0: "a", 1: "c"}),
    FccMap(CHAIN2, CHAIN4, {0: 0, 1: 3}),
    FccMap(CHAIN2, LOOP, {0: "x", 1: "x"}),
    FccMap(CHAIN2, LOOP, {0: "x", 1: "z"}),
    FccMap(Proset("abc", [("a", "b"), ("b", "c")]), CHAIN4, {"a": 0, "b": 1, "c": 3}),
    FccMap(CHAIN2, two_block(2, 1), {0: "b0", 1: "t0"}),
])
def test_validate_names_the_oracle_witness(f):
    got = outcome(validate_fcc, f)
    assert got[0] is NotConvexImage
    assert got == outcome(validate_fcc_all_subsets, f)


def test_validate_matches_the_oracle_on_larger_failing_maps():
    """Failing maps out of 5-7 point domains: random subsets of a random
    codomain, relabelled at random and carried back in, so a component's
    image need not be convex and its least witness can be any size; a third
    of them then send one point elsewhere."""
    rng = random.Random(5)
    seen, sizes = Counter(), Counter()
    while sum(seen.values()) < 150:
        cod = (random_poset if rng.random() < 0.5 else random_proset)(rng.randrange(6, 10), rng)
        n = rng.randrange(5, min(7, len(cod)) + 1)
        image = dict(enumerate(rng.sample(cod.elements, n)))
        dom = Proset(range(n), [(i, j) for i in image for j in image
                                if cod.leq(image[i], image[j])])
        if rng.random() < 1 / 3:
            image[rng.randrange(n)] = rng.choice(cod.elements)
        f = FccMap(dom, cod, image)
        got = outcome(validate_fcc, f)
        if isinstance(got, list):
            continue
        assert got == outcome(validate_fcc_all_subsets, f)
        seen[got[0].__name__] += 1
        if got[1].startswith("convex ("):
            sizes[len(ast.literal_eval(got[1][len("convex "):got[1].index(")") + 1]))] += 1
    assert seen["NotConvexImage"] >= 75 and seen["NotFcc"] and seen["NotOrderPreserving"]
    assert len(sizes) >= 5


def test_validate_names_the_whole_chain_of_a_long_chain():
    """The identity of the chain 0 < ... < 22 into the chain plus a point z
    with 0 <= z <= 22: only the whole chain has a non-convex image, so a
    search of the subsets, smallest first, would try nearly all 2^23."""
    chain = Proset(range(23), [(i, i + 1) for i in range(22)])
    plus = Proset(list(range(23)) + ["z"], chain.strict_pairs() + ((0, "z"), ("z", 22)))
    with pytest.raises(NotConvexImage) as err:
        validate_fcc(FccMap(chain, plus, {i: i for i in range(23)}))
    whole = list(range(23))
    assert str(err.value) == "convex %r has non-convex image %r" % (tuple(whole), whole)


def test_map_construction_errors_are_typed():
    with pytest.raises(MalformedInput, match="no image for 1"):
        FccMap(CHAIN2, CHAIN3, {0: "a"})
    with pytest.raises(UnknownElement, match="image 'q' is not in the codomain"):
        FccMap(CHAIN2, CHAIN3, {0: "a", 1: "q"})
    # a stray key would count as an image the map takes: this map hits a and b only
    with pytest.raises(UnknownElement, match="9 is mapped but is not in the domain"):
        FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b", 9: "c"})


def test_compose_and_identity():
    f = FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b"})
    g = identity_map(CHAIN3)
    h = compose(f, g)
    assert all(h(s) == f(s) for s in CHAIN2.elements)
    with pytest.raises(NotComposable):
        compose(g, f)


def test_induced_hom_is_contravariant_restriction():
    f = FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b"})
    m = unit(CHAIN3, ZZ, "a", "b").add(unit(CHAIN3, ZZ, "b", "c", 7))
    pulled = induced_hom(f, m)
    assert pulled.entry(0, 1) == 1
    assert pulled.entry(0, 0) == 0
    assert pulled.pro == CHAIN2


def induced_hom_reference(f, matrix):
    """Pull back through the validating IncMatrix constructor: the reference
    for induced_hom, which keeps the entries it reads as they are."""
    entries = {}
    for (t1, t2) in f.domain.pairs():
        if t1 != t2 and f(t1) == f(t2):
            continue
        v = matrix.entry(f(t1), f(t2))
        if v != matrix.ring.zero:
            entries[(t1, t2)] = v
    return IncMatrix(f.domain, matrix.ring, entries)


def test_induced_hom_matches_the_validating_reference():
    rng = random.Random(113)
    collapsed = 0
    for ring in (PrimeField(2), PrimeField(5), ModRing(6), QQ):
        done = 0
        while done < 40:
            dom = random_proset(rng.randrange(2, 6), rng)
            cod = random_proset(rng.randrange(1, 6), rng)
            try:
                f = random_fcc_map(dom, cod, rng)
            except ValueError:
                continue
            done += 1
            collapsed += any(len(comp) > 1 and len({f(s) for s in comp}) == 1
                             for comp in dom.components())
            for m in [identity(cod, ring)] + [random_matrix(cod, ring, rng) for _ in range(5)]:
                got, want = induced_hom(f, m), induced_hom_reference(f, m)
                assert got == want and repr(got) == repr(want)
    assert collapsed >= 40


def draw_fcc(rng, nmax=6):
    """(dom, cod, map) with a retry, since some pairs admit no map at all
    (a one-point component cannot land anywhere in an all-cycle codomain)."""
    while True:
        dom = random_proset(rng.randrange(1, nmax), rng)
        cod = random_proset(rng.randrange(1, nmax), rng)
        try:
            return dom, cod, random_fcc_map(dom, cod, rng)
        except ValueError:
            continue


def test_induced_hom_unital_multiplicative():
    rng = random.Random(103)
    ring = PrimeField(5)
    for _ in range(50):
        dom, cod, f = draw_fcc(rng)
        assert induced_hom(f, identity(cod, ring)) == identity(dom, ring)
        for _ in range(20):
            a = random_matrix(cod, ring, rng)
            b = random_matrix(cod, ring, rng)
            assert induced_hom(f, a.mul(b)) == induced_hom(f, a).mul(induced_hom(f, b))
            assert induced_hom(f, a.add(b)) == induced_hom(f, a).add(induced_hom(f, b))


def test_contravariance_on_composables():
    rng = random.Random(107)
    ring = PrimeField(5)
    done = 0
    while done < 40:
        a = random_proset(rng.randrange(1, 5), rng)
        b = random_proset(rng.randrange(1, 5), rng)
        c = random_proset(rng.randrange(1, 5), rng)
        try:
            f = random_fcc_map(a, b, rng)
            g = random_fcc_map(b, c, rng)
        except ValueError:
            continue
        gf = compose(f, g)
        for _ in range(10):
            m = random_matrix(c, ring, rng)
            assert induced_hom(gf, m) == induced_hom(f, induced_hom(g, m))
        done += 1


def test_surjective_maps_induce_injective_homs():
    collapse = Proset(["u", "v"], [("u", "v")])
    f = FccMap(CHAIN3, collapse, {"a": "u", "b": "v", "c": "v"})
    with pytest.raises(NotFcc):
        validate_fcc(f)  # that collapse is not admissible on a chain
    # an admissible surjection: two chains onto one
    dom = Proset([0, 1, 10, 11], [(0, 1), (10, 11)])
    g = FccMap(dom, CHAIN2, {0: 0, 1: 1, 10: 0, 11: 1})
    validate_fcc(g)
    ring = PrimeField(5)
    rng = random.Random(109)
    for _ in range(100):
        a = random_matrix(CHAIN2, ring, rng)
        b = random_matrix(CHAIN2, ring, rng)
        if a != b:
            assert induced_hom(g, a) != induced_hom(g, b)


# -- colimits ------------------------------------------------------------------


def draw_carrier(n, rng):
    return (random_proset if rng.random() < 0.5 else random_poset)(n, rng)


def seeded_spans_and_pairs(seed, count):
    """Spans and parallel pairs on posets and prosets of up to 5 points,
    redrawn when some component has no admissible image."""
    rng = random.Random(seed)
    spans, pairs = [], []
    while len(spans) < count:
        apex = draw_carrier(rng.randrange(1, 6), rng)
        left, right = (draw_carrier(rng.randrange(1, 6), rng) for _ in range(2))
        try:
            spans.append((random_fcc_map(apex, left, rng), random_fcc_map(apex, right, rng)))
            pairs.append((random_fcc_map(apex, left, rng), random_fcc_map(apex, left, rng)))
        except ValueError:
            continue
    return spans, pairs


def test_colimit_legs_pass_validate_fcc():
    """pushout and coequalizer return legs the collapse certified without
    validating them again; the full check still passes on every one.  In
    the seeded draws another union always fixes what flattening a class
    would, so one span that needs the class flattened is added."""
    spans, pairs = seeded_spans_and_pairs(59, 400)
    apex, cycle = Proset([0]), Proset(["a", "b"], [("a", "b"), ("b", "a")])
    spans.append((FccMap(apex, cycle, {0: "a"}), FccMap(apex, Proset(["c"]), {0: "c"})))
    merged = 0
    for f, g in spans:
        quo, q1, q2 = pushout(f, g)
        for q in (q1, q2):
            validate_fcc(q)
            merged += len(q.image()) < len(q.domain)
    for f1, f2 in pairs:
        quo, q = coequalizer(f1, f2)
        validate_fcc(q)
        merged += len(q.image()) < len(q.domain)
    assert merged >= 300


def test_colimits_and_reassembly_certify_once(monkeypatch):
    """pushout and coequalizer call no validate_fcc, reassemble no
    poset_isomorphic: the collapse and the carried isomorphism certify."""
    spans, pairs = seeded_spans_and_pairs(61, 30)
    trees = [generation_decompose(pro) for n in range(3, 6) for pro in irreducible_prosets(n)]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(functor_cat, "validate_fcc", counted("validate_fcc", validate_fcc))
    monkeypatch.setattr(Proset, "poset_isomorphic",
                        counted("poset_isomorphic", Proset.poset_isomorphic))
    coproduct_mediator(coproduct([CHAIN2])[1], [identity_map(CHAIN2)])
    assert calls == {"validate_fcc": 1}  # the counter sees module calls
    calls.clear()
    for f, g in spans:
        pushout(f, g)
    for f1, f2 in pairs:
        coequalizer(f1, f2)
    for tree in trees:
        reassemble(tree)
    assert not calls


def test_coproduct():
    obj, (i1, i2) = coproduct([CHAIN2, VEE])
    assert len(obj.elements) == 5
    validate_fcc(i1)
    validate_fcc(i2)
    h = coproduct_mediator(
        [i1, i2],
        [FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b"}),
         FccMap(VEE, CHAIN3, {"p": "b", "x": "b", "y": "b"})],
    )
    assert all(h(i1(s)) == ("a" if s == 0 else "b") for s in CHAIN2.elements)


def test_pushout_diamond():
    f = FccMap(ANTI2, VEE, {1: "x", 2: "y"})
    wedge = Proset(["u", "v", "t"], [("u", "t"), ("v", "t")])
    g = FccMap(ANTI2, wedge, {1: "u", 2: "v"})
    quo, q1, q2 = pushout(f, g)
    assert len(quo.elements) == 4
    assert all(q1(f(s)) == q2(g(s)) for s in ANTI2.elements)
    bottom = q1("p")
    top = q2("t")
    assert quo.leq(bottom, top)
    diamond = Proset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert quo.poset_isomorphic(diamond) is not None


def test_pushout_flattens_the_class_a_constant_lands_in():
    """A point glued to one point of a two-point class: the leg out of the
    point is constant at a point whose singleton is not convex, so the class
    is flattened and the pushout is one point."""
    apex, point = Proset([0]), Proset(["c"])
    cycle = Proset(["a", "b"], [("a", "b"), ("b", "a")])
    quo, q1, q2 = pushout(FccMap(apex, cycle, {0: "a"}), FccMap(apex, point, {0: "c"}))
    assert len(quo) == 1 and q1("b") == q2("c")


def test_pushout_of_empty_is_coproduct():
    empty = Proset([], [])
    f = FccMap(empty, CHAIN2, {})
    g = FccMap(empty, VEE, {})
    quo, q1, q2 = pushout(f, g)
    assert len(quo.elements) == 5
    assert len(quo.components()) == 2


def test_pushout_mediator_recovers_unique_map():
    f = FccMap(ANTI2, VEE, {1: "x", 2: "y"})
    wedge = Proset(["u", "v", "t"], [("u", "t"), ("v", "t")])
    g = FccMap(ANTI2, wedge, {1: "u", 2: "v"})
    quo, q1, q2 = pushout(f, g)
    diamond = Proset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    h1 = FccMap(VEE, diamond, {"p": 0, "x": 1, "y": 2})
    h2 = FccMap(wedge, diamond, {"u": 1, "v": 2, "t": 3})
    h = pushout_mediator(q1, q2, h1, h2)
    for s in VEE.elements:
        assert h(q1(s)) == h1(s)
    for s in wedge.elements:
        assert h(q2(s)) == h2(s)


def test_coequalizer_and_equalizer_check():
    dom = Proset([0], [])
    f1 = FccMap(dom, CHAIN3, {0: "a"})
    f2 = FccMap(dom, CHAIN3, {0: "b"})
    quo, q = coequalizer(f1, f2)
    assert q(f1(0)) == q(f2(0))
    report = equalizer_check(f1, f2)
    assert report["equalizes"]
    assert report["injective"]
    assert report["passed"]
    with pytest.raises(NotParallel):
        coequalizer(f1, FccMap(dom, VEE, {0: "p"}))


def test_coequalizer_collapses_cross_component_gluing():
    """Gluing points of different pieces must flatten the glued component.
    Otherwise transitivity would forge a quotient pair that no order pair
    of the codomain maps onto, and the basis unit there would pull back to
    zero, wrecking injectivity of the leg's induced hom."""
    dom = Proset(["t"], [])
    cod = Proset(["x", "y1", "y2", "z"], [("x", "y1"), ("y2", "z")])
    f1 = FccMap(dom, cod, {"t": "y1"})
    f2 = FccMap(dom, cod, {"t": "y2"})
    quo, q = coequalizer(f1, f2)
    assert len(quo.elements) == 1
    assert len(set(q.mapping.values())) == 1
    report = equalizer_check(f1, f2)
    assert report["equalizes"]
    assert report["injective"]
    assert report["passed"]


def test_coequalizer_keeps_untouched_components_apart():
    """Only the glued component flattens; a piece the pair never reaches
    survives the quotient unchanged."""
    dom = Proset(["t"], [])
    cod = Proset(["x", "y1", "y2", "z", "u", "v"],
                 [("x", "y1"), ("y2", "z"), ("u", "v")])
    f1 = FccMap(dom, cod, {"t": "y1"})
    f2 = FccMap(dom, cod, {"t": "y2"})
    quo, q = coequalizer(f1, f2)
    assert len(quo.elements) == 3
    assert q("u") != q("v")
    assert quo.leq(q("u"), q("v"))
    assert equalizer_check(f1, f2)["passed"]


def test_equalizer_check_takes_extra_probes():
    f1 = FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b"})
    f2 = FccMap(CHAIN2, CHAIN3, {0: "b", 1: "c"})
    quo, q = coequalizer(f1, f2)
    point = Proset(["*"], [])
    good = FccMap(CHAIN3, point, {s: "*" for s in CHAIN3.elements})
    stray = FccMap(CHAIN3, CHAIN3, {s: s for s in CHAIN3.elements})
    report = equalizer_check(f1, f2, probes=[good, stray])
    assert report["equalizes"] and report["injective"]
    assert report["probes"][-2] == {"factors": True}
    assert report["probes"][-1]["factors"] is False
    assert report["probes"][-1]["reason"] == "does not commute with the pair"


def test_equalizer_check_refuses_a_probe_from_elsewhere():
    f1 = FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b"})
    f2 = FccMap(CHAIN2, CHAIN3, {0: "b", 1: "c"})
    elsewhere = FccMap(CHAIN2, CHAIN2, {0: 0, 1: 1})
    report = equalizer_check(f1, f2, probes=[elsewhere])
    assert report["probes"][-1] == {"factors": False,
                                    "reason": "probe does not start at the codomain"}
    assert not report["passed"]


def test_coequalizer_of_equal_maps_is_identity_like():
    f = FccMap(CHAIN2, CHAIN3, {0: "a", 1: "b"})
    quo, q = coequalizer(f, f)
    assert len(quo.elements) == 3
    assert quo.poset_isomorphic(CHAIN3) is not None


# -- generation from two-blocks ----------------------------------------------------


def leaf_sizes(tree):
    if tree["leaf"]:
        return [tree["sizes"]]
    return leaf_sizes(tree["left"]) + leaf_sizes(tree["right"])


def test_generation_on_small_irreducibles():
    for n in range(1, 5):
        for pro in irreducible_prosets(n):
            tree = generation_decompose(pro)
            rebuilt = reassemble(tree)
            assert rebuilt.poset_isomorphic(pro) is not None
            for sizes in leaf_sizes(tree):
                assert len(sizes) <= 2


def test_generation_diamond():
    diamond = Proset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    tree = generation_decompose(diamond)
    rebuilt = reassemble(tree)
    assert rebuilt.poset_isomorphic(diamond) is not None


def subtrees(tree):
    if tree["leaf"]:
        return [tree]
    return [tree] + subtrees(tree["left"]) + subtrees(tree["right"])


def is_order_isomorphism(pro, quo, iso):
    return (sorted(iso, key=elem_key) == list(pro.elements)
            and sorted(iso.values(), key=elem_key) == list(quo.elements)
            and all(quo.leq(iso[a], iso[b]) == pro.leq(a, b)
                    for a in pro.elements for b in pro.elements))


def four_class_types():
    """Every irreducible 5-point proset with exactly four classes, up to
    isomorphism: a four-point poset with one point doubled."""
    types = []
    for base in enumerate_posets(4):
        for c in base.elements:
            els = [(x, 0) for x in base.elements] + [(c, 1)]
            pro = Proset(els, [(s, t) for s in els for t in els if base.leq(s[0], t[0])])
            if pro.is_irreducible() and not any(pro.poset_isomorphic(t) for t in types):
                types.append(pro)
    return types


def split_trees():
    """The decomposition tree of every irreducible proset of at most 5 points
    that is not a leaf, then of the 31 four-class types."""
    types = four_class_types()
    assert len(types) == 31
    pros = [pro for n in range(1, 6) for pro in irreducible_prosets(n)] + types
    return [tree for tree in map(generation_decompose, pros) if not tree["leaf"]]


def test_reassemble_carries_an_order_isomorphism():
    trees = split_trees()
    assert len(trees) == 109 + 31
    for tree in trees:
        rebuilt = reassemble(tree)
        assert rebuilt.poset_isomorphic(tree["proset"]) is not None
        for node in subtrees(tree):
            quo, iso = functor_cat._rebuild(node)
            assert is_order_isomorphism(node["proset"], quo, iso)
            if node["leaf"]:
                assert quo is node["proset"] and all(iso[s] == s for s in iso)
        assert functor_cat._rebuild(tree)[0].pairs() == rebuilt.pairs()


def key_sorted(x):
    """A label with every frozenset listed in elem_key order."""
    if isinstance(x, frozenset):
        return sorted((key_sorted(m) for m in x), key=elem_key)
    if isinstance(x, tuple):
        return tuple(key_sorted(m) for m in x)
    return x


def test_reassemble_carries_the_diamond_to_fixed_labels():
    """The labels carried through the pushout legs depend on the tree alone,
    not on hash order: the diamond's are these under any hash seed."""
    diamond = Proset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    quo, iso = functor_cat._rebuild(generation_decompose(diamond))
    assert {s: key_sorted(v) for s, v in iso.items()} == {
        0: [(1, [(1, 0), (2, 0)])],
        1: [(1, [(1, 1)]), (2, [(1, 1)])],
        2: [(1, [(2, 2)]), (2, [(2, 2)])],
        3: [(2, [(1, 3), (2, 3)])],
    }


def tampered(tree, path, change):
    """A copy of the tree with change(node) in place of the node at path, a
    tuple of "left" and "right" steps."""
    if not path:
        return change(tree)
    copy = dict(tree)
    copy[path[0]] = tampered(tree[path[0]], path[1:], change)
    return copy


def leaf_paths(tree, path=()):
    if tree["leaf"]:
        return [path]
    return leaf_paths(tree["left"], path + ("left",)) + leaf_paths(tree["right"], path + ("right",))


def node_at(tree, path):
    for step in path:
        tree = tree[step]
    return tree


def test_reassemble_refuses_a_tampered_tree():
    """A two-class leaf coarsened to one class, a leaf on other labels and a
    cut read backwards each raise NoValidCutPair."""
    def coarsened(leaf):
        els = leaf["proset"].elements
        return dict(leaf, proset=Proset(els, [(a, b) for a in els for b in els]))

    def relabelled(leaf):
        return dict(leaf, proset=Proset([("x", s) for s in leaf["proset"].elements]))

    coarse = 0
    for tree in split_trees():
        for path in leaf_paths(tree):
            changes = [relabelled]
            if len(node_at(tree, path)["proset"].classes()) == 2:
                changes.append(coarsened)
                coarse += 1
            for change in changes:
                with pytest.raises(NoValidCutPair):
                    reassemble(tampered(tree, path, change))
        with pytest.raises(NoValidCutPair):
            reassemble(dict(tree, cut=tree["cut"][::-1]))
    assert coarse >= 140


def decompose_by_validate(pro, cuts):
    """Reference: generation_decompose as it was when each cut's two
    inclusions went through validate_fcc.  Every connected cut it tries is
    also put to the convexity test that replaced those calls, and the two
    verdicts are appended to `cuts`."""
    classes = pro.classes()
    if len(classes) <= 2:
        sizes = sorted(len(c) for c in classes)
        return {"leaf": True, "proset": pro, "classes": len(classes), "sizes": sizes}
    for a, b in functor_cat._class_pairs(pro):
        left, right, mid = functor_cat._cut_pieces(pro, a, b)
        if not left or not right or not mid:
            continue
        if not (functor_cat._connected(pro, left) and functor_cat._connected(pro, right)):
            continue
        pl, pr, pm = pro.restrict(left), pro.restrict(right), pro.restrict(mid)
        fl = FccMap(pm, pl, {s: s for s in mid})
        fr = FccMap(pm, pr, {s: s for s in mid})
        try:
            validate_fcc(fl)
            validate_fcc(fr)
            admissible = True
        except (NotOrderPreserving, NotConvexImage, NotFcc):
            admissible = False
        convex = all(pl.is_convex(c) and pr.is_convex(c) for c in pm.components())
        cuts.append((admissible, convex))
        if not admissible:
            continue
        quo, q1, q2 = pushout(fl, fr)
        if functor_cat._glued_iso(pro, quo, left, right, q1, q2) is None:
            continue
        return {
            "leaf": False,
            "proset": pro,
            "cut": (a, b),
            "left": decompose_by_validate(pl, cuts),
            "right": decompose_by_validate(pr, cuts),
        }
    raise NoValidCutPair("no class pair splits this proset")


def outcome_tree(decompose, pro):
    try:
        return decompose(pro)
    except NoValidCutPair:
        return NoValidCutPair


def test_cut_convexity_matches_validating_the_inclusions(monkeypatch):
    """The convexity test on the overlap's components and validate_fcc on
    both inclusions agree on every connected cut, the trees are the same,
    and generation_decompose pushes out admissible inclusions only: the 31
    four-class types, every irreducible proset of 3-5 points and 300 seeded
    irreducible prosets of 4-7 points."""

    def admissible_pushout(f, g):
        validate_fcc(f)
        validate_fcc(g)
        return pushout(f, g)

    monkeypatch.setattr(functor_cat, "pushout", admissible_pushout)
    rng = random.Random(181)
    seeded = []
    while len(seeded) < 300:
        pro = random_proset(rng.randint(4, 7), rng)
        if pro.is_irreducible():
            seeded.append(pro)
    pros = four_class_types() + [pro for n in range(3, 6) for pro in irreducible_prosets(n)] + seeded
    cuts = []
    for pro in pros:
        want = outcome_tree(lambda p: decompose_by_validate(p, cuts), pro)
        assert outcome_tree(generation_decompose, pro) == want
    assert all(admissible == convex for admissible, convex in cuts)
    assert len(cuts) >= 2000 and Counter(admissible for admissible, _ in cuts)[False] > 0


def cut_by_pushout(pro, a, b):
    """Reference: the trial route generation_decompose once took on every
    connected cut: restrict the pieces, push out the overlap's two
    inclusions and look for the glued isomorphism onto pro."""
    left, right, mid = functor_cat._cut_pieces(pro, a, b)
    pl, pr, pm = pro.restrict(left), pro.restrict(right), pro.restrict(mid)
    inclusion = {s: s for s in mid}
    quo, q1, q2 = pushout(FccMap(pm, pl, inclusion), FccMap(pm, pr, inclusion))
    return functor_cat._glued_iso(pro, quo, left, right, q1, q2) is not None


def strictly_inside(pro, s):
    """Some x < s < y: s's class lies strictly between two other points."""
    below = [x for x in pro.elements if pro.leq(x, s) and not pro.leq(s, x)]
    above = [y for y in pro.elements if pro.leq(s, y) and not pro.leq(y, s)]
    return bool(below and above)


def unsplit(pro, a, b):
    """a and b are comparable and no point lies strictly between them."""
    lo, hi = (a, b) if pro.leq(a, b) else (b, a)
    return pro.leq(lo, hi) and not any(
        pro.leq(lo, m) and pro.leq(m, hi) and not pro.leq(m, lo) and not pro.leq(hi, m)
        for m in pro.elements)


def test_cut_test_matches_the_trial_pushout():
    """On every connected cut of the 31 four-class types, every irreducible
    proset of 3-5 points and 300 seeded irreducible prosets of 4-8 points,
    the order test accepts exactly the cuts whose trial pushout rebuilds the
    proset, and the overlap convexity check passes on each one it accepts.
    Both refusals occur: a class strictly between two other points, and two
    extremal classes with no point strictly between them."""
    rng = random.Random(191)
    seeded = []
    while len(seeded) < 300:
        pro = random_proset(rng.randint(4, 8), rng)
        if pro.is_irreducible() and len(pro.classes()) > 2:
            seeded.append(pro)
    pros = four_class_types() + [pro for n in range(3, 6) for pro in irreducible_prosets(n)] + seeded
    verdicts = Counter()
    for pro in pros:
        if len(pro.classes()) <= 2:
            continue
        for a, b in functor_cat._class_pairs(pro):
            left, right, mid = functor_cat._cut_pieces(pro, a, b)
            if not (functor_cat._connected(pro, left) and functor_cat._connected(pro, right)):
                continue
            glues = functor_cat._cut_glues(pro, a, b)
            assert glues == cut_by_pushout(pro, a, b), (pro, a, b)
            if glues:
                pl, pr = pro.restrict(left), pro.restrict(right)
                assert all(pl.is_convex(c) and pr.is_convex(c)
                           for c in pro.restrict(mid).components())
                verdicts["glues"] += 1
            elif strictly_inside(pro, a) or strictly_inside(pro, b):
                verdicts["inside"] += 1
            else:
                assert unsplit(pro, a, b)
                verdicts["unsplit"] += 1
    assert verdicts["glues"] >= 1000 and verdicts["inside"] >= 100 and verdicts["unsplit"] >= 100


def test_generation_pushes_nothing_out(monkeypatch):
    """generation_decompose decides every cut on the order: with pushout and
    _glued_iso raising, it still splits the diamond and the 31 four-class
    types, and reassemble rebuilds each through one real pushout per node."""
    def refuse(*args):
        raise AssertionError("generation_decompose tried a pushout")

    pros = [Proset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])] + four_class_types()
    with monkeypatch.context() as patch:
        patch.setattr(functor_cat, "pushout", refuse)
        patch.setattr(functor_cat, "_glued_iso", refuse)
        trees = [generation_decompose(pro) for pro in pros]
    calls = []

    def counted(f, g):
        calls.append(f)
        return pushout(f, g)

    monkeypatch.setattr(functor_cat, "pushout", counted)
    for pro, tree in zip(pros, trees):
        calls.clear()
        assert reassemble(tree).poset_isomorphic(pro) is not None
        nodes = [node for node in subtrees(tree) if not node["leaf"]]
        assert nodes and len(calls) == len(nodes)


def test_generation_rejects_reducible():
    from incring.errors import NotIrreducible
    disconnected = Proset([0, 1], [])
    with pytest.raises(NotIrreducible):
        generation_decompose(disconnected)


def test_two_block_decomposes_to_itself():
    tb = two_block(2, 2)
    tree = generation_decompose(tb)
    assert tree["leaf"] is True
    assert tree["classes"] == 2
    assert tree["sizes"] == [2, 2]


# -- label order ------------------------------------------------------------------
# Prosets keep the elem_key order of their elements as a rank and sort by it;
# these check every such ordering against sorting by elem_key on labels of
# mixed types, whose keys compare across types and nest.

LABELS = [-1, "b", ("a", 1), frozenset({(0, "x"), (1, "y")}), frozenset({(0, "x")})]
SMALL = [pro for n in range(1, 5) for pro in enumerate_prosets(n)]


def relabellings(pro, rng, count=4):
    """Copies of pro on mixed labels, assigned in random orders."""
    for _ in range(count):
        names = dict(zip(pro.elements, rng.sample(LABELS, len(pro))))
        yield Proset(names.values(), [(names[a], names[b]) for a, b in pro.pairs()])


def by_key(xs):
    return sorted(xs, key=elem_key)


def test_rank_orders_match_label_key():
    rng = random.Random(41)
    for base in SMALL:
        for pro in relabellings(base, rng):
            assert list(pro.elements) == by_key(pro.elements)
            for a in pro.elements:
                for b in pro.elements:
                    got = pro.interval(a, b)
                    assert list(got) == by_key(pro.up_set(a) & pro.down_set(b))
            assert list(pro.pairs()) == sorted(
                pro.pairs(), key=lambda p: (elem_key(p[0]), elem_key(p[1])))
            comps = sorted((tuple(by_key(c)) for c in pro.components()),
                           key=lambda c: elem_key(c[0]))
            assert [rec[1] for rec in validate_fcc(identity_map(pro))] == comps
            reps = by_key({min(c, key=elem_key) for c in pro.classes()})
            assert functor_cat._class_pairs(pro) == [
                (a, b) for a in reps for b in reps if a != b]


def union_by_label_key(self, x, y):
    """_Partition.union choosing the root by elem_key, not by position."""
    rx, ry = self.find(x), self.find(y)
    if rx == ry:
        return False
    if elem_key(ry) < elem_key(rx):
        rx, ry = ry, rx
    self.parent[ry] = rx
    return True


def colimit_labels(spans, pairs):
    """Quotient elements and order pairs, and the legs, of every pushout of
    a span and every coequalizer of a parallel pair."""
    out = []
    for f, g in spans:
        quo, q1, q2 = pushout(f, g)
        out.append((quo.elements, quo.pairs(), q1.mapping, q2.mapping))
    for f1, f2 in pairs:
        quo, q = coequalizer(f1, f2)
        out.append((quo.elements, quo.pairs(), q.mapping))
    return out


def test_colimit_labels_match_label_key_roots(monkeypatch):
    rng = random.Random(43)
    tiny = [pro for n in range(1, 4) for pro in enumerate_prosets(n)]
    spans, pairs = [], []
    while len(spans) < 60 or len(pairs) < 60:
        apex, left, right = (next(relabellings(rng.choice(tiny), rng, 1)) for _ in range(3))
        try:
            spans.append((random_fcc_map(apex, left, rng), random_fcc_map(apex, right, rng)))
            pairs.append((random_fcc_map(apex, left, rng), random_fcc_map(apex, left, rng)))
        except ValueError:
            continue
    # the partition's roots are the elem_key least member of every class
    for f, g in spans:
        items = [(1, s) for s in f.codomain.elements] + [(2, s) for s in g.codomain.elements]
        parts = functor_cat._Partition(items)
        for _ in range(len(items)):
            parts.union(rng.choice(items), rng.choice(items))
        for x in items:
            members = [y for y in items if parts.find(y) == parts.find(x)]
            assert parts.find(x) == min(members, key=elem_key)
    got = colimit_labels(spans, pairs)
    for quo_elements, *_ in got:
        assert list(quo_elements) == by_key(quo_elements)
    monkeypatch.setattr(functor_cat._Partition, "union", union_by_label_key)
    assert colimit_labels(spans, pairs) == got


# -- properties --------------------------------------------------------------------
# Hypothesis draws the prosets, so a failure shrinks to a small one; the maps
# come from random_fcc_map on a drawn seed.

PROPERTY = {"derandomize": True, "database": None, "deadline": 1000, "max_examples": 60}


def drawn_prosets(st, connected, max_points):
    """Prosets on 0..n-1: a random tree of comparabilities when `connected`,
    plus up to n more relations, which may close into cycles."""
    @st.composite
    def prosets(draw):
        n = draw(st.integers(1, max_points))
        rel = []
        if connected:
            for i in range(1, n):
                j = draw(st.integers(0, i - 1))
                rel.append((j, i) if draw(st.booleans()) else (i, j))
        points = st.integers(0, n - 1)
        rel += draw(st.lists(st.tuples(points, points), max_size=n))
        return Proset(range(n), rel)

    return prosets()


def drawn_map(hypothesis, dom, cod, rng):
    """A random admissible map, the draw rejected when none exists."""
    try:
        return random_fcc_map(dom, cod, rng)
    except ValueError:
        hypothesis.reject()


def component_collapse(pro):
    """The map of pro onto one point per connected component."""
    comps = pro.components()
    return FccMap(pro, Proset(range(len(comps))), {s: i for i, c in enumerate(comps) for s in c})


def test_generation_round_trip_property():
    """Every leaf of a connected proset's tree has at most two classes, and
    reassemble rebuilds the proset up to isomorphism."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(**PROPERTY)
    @hypothesis.given(drawn_prosets(hypothesis.strategies, True, 7))
    def check(pro):
        tree = generation_decompose(pro)
        assert all(len(sizes) <= 2 for sizes in leaf_sizes(tree))
        assert reassemble(tree).poset_isomorphic(pro) is not None

    check()


def test_pushout_universal_property():
    """The legs of a pushout commute, and pushout_mediator recovers the
    identity and the collapse onto components from their composites with
    the legs."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(**PROPERTY)
    @hypothesis.given(drawn_prosets(st, False, 3), drawn_prosets(st, False, 4),
                      drawn_prosets(st, False, 4), st.randoms(use_true_random=False))
    def check(apex, left, right, rng):
        f, g = drawn_map(hypothesis, apex, left, rng), drawn_map(hypothesis, apex, right, rng)
        quo, q1, q2 = pushout(f, g)
        assert compose(f, q1) == compose(g, q2)
        for w in (identity_map(quo), component_collapse(quo)):
            assert pushout_mediator(q1, q2, compose(q1, w), compose(q2, w)) == w

    check()


def test_pullback_functoriality_property():
    """Pulling back along a composite is pulling back twice."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    carriers = drawn_prosets(st, False, 4)

    @hypothesis.settings(**PROPERTY)
    @hypothesis.given(carriers, carriers, carriers, st.sampled_from((ZZ, QQ, PrimeField(5))),
                      st.randoms(use_true_random=False))
    def check(a, b, c, ring, rng):
        f, g = drawn_map(hypothesis, a, b, rng), drawn_map(hypothesis, b, c, rng)
        x = random_matrix(c, ring, rng)
        assert induced_hom(compose(f, g), x) == induced_hom(f, induced_hom(g, x))

    check()
