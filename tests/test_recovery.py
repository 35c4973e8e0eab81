"""Idempotent apparatus and poset recovery from opaque ring access."""

import itertools
import json
import random

import pytest

from incring.errors import (
    HypothesisViolation,
    MalformedInput,
    NotIdempotent,
    PosetRequired,
    RingBooleanPartTooLarge,
    SearchBudgetExceeded,
)
from incring.glgroup import random_invertible, invert
from incring.matrices import IncMatrix, identity, indicator, unit, zero
from incring.prosets import Proset
from incring.recovery import (
    BundleAccess,
    MatrixAccess,
    _access_nilpotent,
    _add_atom,
    _primitive_split,
    _squarings,
    b_of,
    class_equiv,
    class_leq,
    erase,
    is_topologically_nilpotent,
    recover_poset,
    scramble,
)
from incring.rings import QQ, ModRing, PrimeField, ZZ
from incring.samples import enumerate_posets

CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])
VEE = Proset(["p", "x", "y"], [("p", "x"), ("p", "y")])
# 8 disjoint 2-chains: 16 points, 24 order pairs
CHAINS16 = Proset(range(16), [(2 * i, 2 * i + 1) for i in range(8)])
# GF(4) = F2[w]/(w^2 + w + 1) on the basis 1, w: a field, so no incidence ring
GF4 = {
    "ring": {"gf": 2},
    "dim": 2,
    "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "1"]]],
    "one": ["1", "0"],
    "samples": [["1", "0"]],
}


def dense_mul(access, x, y):
    """Term-by-term product over the parsed dense table, two ring calls per
    term: the oracle for the integer kernel of BundleAccess.mul."""
    ring = access.ring
    out = [ring.zero] * access.dim
    for i, xi in enumerate(x):
        if xi == ring.zero:
            continue
        for j, yj in enumerate(y):
            if yj == ring.zero:
                continue
            coeff = ring.mul(xi, yj)
            for k, c in enumerate(access.table[i][j]):
                if c != ring.zero:
                    out[k] = ring.add(out[k], ring.mul(coeff, c))
    return tuple(out)


class DenseBundleAccess(BundleAccess):
    def mul(self, x, y):
        self.ops += 1
        return dense_mul(self, x, y)


def assert_kernel_matches_oracle(access, x, y):
    got = access.mul(x, y)
    want = dense_mul(access, x, y)
    assert got == want
    # canonical values of the ring's own carrier, zeros included
    assert [type(v) for v in got] == [type(v) for v in want]
    return got


def recover_by_classes(access):
    """Exhaustive recovery by classing every idempotent, kept as the oracle
    for the split of 1: the idempotents are bucketed into difference-
    nilpotent classes, and the first member of each minimal nonzero class
    of the absorption order is an atom."""
    squarings = _squarings(access)

    def equivalent(e, f):
        return _access_nilpotent(access, access.add(e, access.neg(f)), squarings)

    classes = []
    for e in access.elements():
        if access.mul(e, e) != e:
            continue
        for cls in classes:
            if equivalent(e, cls[0]):
                cls.append(e)
                break
        else:
            classes.append([e])
    nonzero = [c for c in classes if not access.is_zero(c[0])]

    def below(c1, c2):
        return any(access.mul(e, f) == e and access.mul(f, e) == e for e in c1 for f in c2)

    basis, atoms, rel = access.basis(), [], []
    for c in nonzero:
        if not any(o is not c and below(o, c) for o in nonzero):
            rel += _add_atom(access, basis, atoms, c[0])
    if len(atoms) + len(rel) != access.dim:
        raise HypothesisViolation("not the incidence ring of a poset")
    return Proset(range(len(atoms)), rel)


def split_by_scan(access, idems):
    """The split of 1 by scanning `idems`, every nonzero idempotent in
    element order, for each node's first sub-idempotent: the oracle for the
    corner-ring test of `_primitive_split` and its lazily read idempotents."""
    one = access.one()
    leaves, stack = [], [] if access.is_zero(one) else [one]
    while stack:
        if len(leaves) + len(stack) > access.dim:
            raise HypothesisViolation(
                "1 splits into more than %d orthogonal idempotents: not the incidence ring "
                "of a poset" % access.dim)
        e = stack.pop()
        for f in idems:
            if f != e and access.mul(e, f) == f and access.mul(f, e) == f:
                stack += [access.add(e, access.neg(f)), f]
                break
        else:
            leaves.append(e)
    return leaves


def assert_split_matches_scan(access):
    """The same leaves, with the same values in the same order, as the scan
    over every idempotent; each with its products e.b over the basis, or
    None where the scan made it a leaf.  A table the scan refuses is refused
    with the same message.  Returns the split."""
    idems = [x for x in access.elements() if not access.is_zero(x) and access.mul(x, x) == x]
    basis = access.basis()
    try:
        want = split_by_scan(access, idems)
    except HypothesisViolation as err:
        with pytest.raises(HypothesisViolation) as got:
            _primitive_split(access, basis)
        assert str(got.value) == str(err)
        return None
    got = _primitive_split(access, basis)
    assert [e for e, _ in got] == want
    for e, eb in got:
        assert eb is None or eb == [access.mul(e, b) for b in basis]
    return got


def unit_bundle(pro, ring):
    """The incidence ring of any finite proset as a bundle on its pair
    units, e_ab.e_cd = e_ad when b = c: M_2 for two equivalent points."""
    pairs = pro.pairs()
    idx = {p: i for i, p in enumerate(pairs)}

    def coords(*hot):
        return [ring.format(ring.one if k in hot else ring.zero) for k in range(len(pairs))]

    table = [[coords(idx[(a, d)]) if b == c else coords() for (c, d) in pairs]
             for (a, b) in pairs]
    one = coords(*(idx[(s, s)] for s in pro.elements))
    return {"dim": len(pairs), "table": table, "one": one}


def all_idempotents(pro, ring):
    from incring.glgroup import enumerate_matrices
    return [m for m in enumerate_matrices(pro, ring) if m.mul(m) == m]


def test_topological_nilpotence_is_zero_diagonal():
    n = unit(CHAIN3, ZZ, 0, 1).add(unit(CHAIN3, ZZ, 1, 2))
    assert is_topologically_nilpotent(n)
    assert not is_topologically_nilpotent(identity(CHAIN3, ZZ))
    assert is_topologically_nilpotent(zero(CHAIN3, ZZ))


def test_b_of_reads_diagonal_support():
    e = indicator(CHAIN3, PrimeField(2), [0, 2])
    assert b_of(e) == frozenset([0, 2])
    mixed = indicator(CHAIN3, PrimeField(2), [0]).add(unit(CHAIN3, PrimeField(2), 0, 1))
    assert b_of(mixed) == frozenset([0])
    with pytest.raises(NotIdempotent):
        b_of(unit(CHAIN3, PrimeField(2), 0, 1))


def test_idempotent_diagonals_are_boolean():
    for ring in (PrimeField(2), ModRing(4)):
        for pro in enumerate_posets(3):
            for e in all_idempotents(pro, ring):
                for s, v in e.diagonal().items():
                    assert v in (ring.zero, ring.one)
                if all(v == ring.zero for v in e.diagonal().values()):
                    assert e.is_zero()


def test_erase_is_strict_and_order_independent():
    ring = PrimeField(2)
    for pro in enumerate_posets(3):
        for e in all_idempotents(pro, ring):
            sites = sorted(b_of(e))
            if not sites:
                continue
            results = set()
            for order in itertools.permutations(sites):
                out = e
                for s in order:
                    if out.entry(s, s) == ring.one:
                        out = erase(out, [s])
                results.add(out)
            assert len(results) == 1
            assert next(iter(results)).is_zero()
            # erasing one site strictly shrinks the idempotent order
            one_gone = erase(e, [sites[0]])
            assert one_gone != e
            assert one_gone.mul(e) == one_gone and e.mul(one_gone) == one_gone


def test_class_count_is_two_to_lambda():
    for ring in (PrimeField(2), ModRing(4)):
        for pro in enumerate_posets(2) + enumerate_posets(3):
            idems = all_idempotents(pro, ring)
            reps = []
            for e in idems:
                if not any(class_equiv(e, f) for f in reps):
                    reps.append(e)
            assert len(reps) == 2 ** len(pro.elements)


def test_class_equiv_tracks_diagonal_support():
    ring = PrimeField(2)
    e = indicator(CHAIN3, ring, [0])
    f = indicator(CHAIN3, ring, [0]).add(unit(CHAIN3, ring, 0, 1))
    assert f.mul(f) == f
    assert class_equiv(e, f)
    g = indicator(CHAIN3, ring, [1])
    assert not class_equiv(e, g)
    assert class_leq(e, indicator(CHAIN3, ring, [0, 1]))
    assert not class_leq(indicator(CHAIN3, ring, [0, 1]), e)


def test_minimal_class_product_law():
    """For minimal-class representatives E ~ 1^{s1}, F ~ 1^{s2}: a nonzero
    product exists iff s1 <= s2, and every product is nonzero iff s1 = s2."""
    ring = PrimeField(2)
    for pro in enumerate_posets(3):
        idems = all_idempotents(pro, ring)
        reps = {}
        for s in pro.elements:
            base = indicator(pro, ring, [s])
            reps[s] = [e for e in idems if not e.is_zero() and class_equiv(e, base)]
        for s1 in pro.elements:
            for s2 in pro.elements:
                prods = [a.mul(b) for a in reps[s1] for b in reps[s2]]
                exists = any(not p.is_zero() for p in prods)
                everywhere = all(not p.is_zero() for p in prods)
                assert exists == pro.leq(s1, s2)
                assert everywhere == (s1 == s2)


def test_access_classes_share_dim():
    assert MatrixAccess(VEE, PrimeField(2)).dim == len(VEE.pairs()) == 5
    bundle, access = scramble(VEE, PrimeField(2), seed=1)
    assert access.dim == BundleAccess(bundle, PrimeField(2)).dim == 5


def test_matrix_access_counts_operations():
    access = MatrixAccess(CHAIN3, PrimeField(2))
    x = access.one()
    before = access.ops
    access.mul(x, x)
    assert access.ops == before + 1
    assert access.carrier_size() == 2 ** len(CHAIN3.pairs())
    assert MatrixAccess(CHAIN3, ZZ).carrier_size() is None


def test_scramble_hides_but_preserves_structure():
    bundle, access = scramble(CHAIN3, PrimeField(2), seed=4)
    assert bundle["dim"] == len(CHAIN3.pairs())
    one = access.one()
    assert access.mul(one, one) == one
    # associativity survives the basis recombination
    rng = random.Random(5)
    for _ in range(50):
        x = tuple(PrimeField(2).random(rng) for _ in range(bundle["dim"]))
        y = tuple(PrimeField(2).random(rng) for _ in range(bundle["dim"]))
        z = tuple(PrimeField(2).random(rng) for _ in range(bundle["dim"]))
        assert access.mul(access.mul(x, y), z) == access.mul(x, access.mul(y, z))


def test_scramble_sampler_draws_are_pinned():
    """The live sampler's first draws, as the bundle coordinates it returns."""
    _, access = scramble(VEE, PrimeField(3), seed=2)
    rng = random.Random(0)
    draws = [access.sample_idempotent(rng) for _ in range(2)]
    assert draws == [(0, 2, 2, 1, 1), (0, 1, 0, 1, 1)]


def test_scramble_samples_of_the_empty_poset_are_typed():
    """With no point to draw, sampling raises the error a bundle without
    samples raises; a scramble without samples still works."""
    with pytest.raises(SearchBudgetExceeded, match="^the empty poset has no idempotents to sample$"):
        scramble(Proset([]), PrimeField(2), samples=1)
    bundle, access = scramble(Proset([]), PrimeField(2))
    assert bundle["dim"] == 0 and "samples" not in bundle
    assert len(recover_poset(access, mode="witness").elements) == 0


def test_scramble_requires_poset():
    looped = Proset([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(PosetRequired):
        scramble(looped, PrimeField(2))


def test_recover_exhaustive_small():
    for pro in enumerate_posets(1) + enumerate_posets(2) + enumerate_posets(3):
        bundle, access = scramble(pro, PrimeField(2), seed=11)
        rec = recover_poset(access, mode="exhaustive")
        assert rec.poset_isomorphic(pro) is not None


def test_recover_witness_mode():
    pro = Proset(range(4), [(0, 1), (1, 2), (2, 3)])
    bundle, access = scramble(pro, PrimeField(2), seed=2, samples=64)
    rec = recover_poset(access, mode="witness", budget=10**5, rng=random.Random(0))
    assert rec.poset_isomorphic(pro) is not None


def test_recover_invariant_under_extra_conjugation():
    """Composing a fixed unit conjugation on top of the sample stream is
    invisible to recovery (it only reshuffles each idempotent class)."""
    ring = PrimeField(2)
    pro = VEE
    w = random_invertible(pro, ring, random.Random(21))
    winv = invert(w)

    class ConjugatedAccess(MatrixAccess):
        def sample_idempotent(self, rng):
            inner = MatrixAccess.sample_idempotent(self, rng)
            return w.mul(inner).mul(winv)

    access = ConjugatedAccess(pro, ring)
    rec = recover_poset(access, mode="witness", budget=10**5, rng=random.Random(1))
    assert rec.poset_isomorphic(pro) is not None


def test_recover_budget_enforced():
    pro = Proset(range(4), [(0, 1), (1, 2), (2, 3)])
    bundle, access = scramble(pro, PrimeField(2), seed=2, samples=64)
    with pytest.raises(SearchBudgetExceeded):
        recover_poset(access, mode="witness", budget=50, rng=random.Random(0))


def test_bundle_access_round_trip():
    bundle, _ = scramble(CHAIN3, PrimeField(3), seed=9, samples=32)
    access = BundleAccess(bundle, PrimeField(3))
    rec = recover_poset(access, mode="witness", budget=10**5, rng=random.Random(3))
    assert rec.poset_isomorphic(CHAIN3) is not None


def test_recovered_relations_match_original_exactly():
    """Recovery returns an abstract poset on atom indices; only its
    isomorphism type is promised, and it must be the right one."""
    targets = [CHAIN3, VEE, Proset([0, 1, 2], [])]
    for pro in targets:
        _, access = scramble(pro, PrimeField(2), seed=13)
        rec = recover_poset(access, mode="exhaustive")
        assert len(rec.elements) == len(pro.elements)
        assert rec.poset_isomorphic(pro) is not None
        wrong = [t for t in targets if t.poset_isomorphic(pro) is None]
        for t in wrong:
            assert rec.poset_isomorphic(t) is None


def test_recover_rejects_rings_with_extra_idempotents():
    """M(P) over Z/6 splits as M(P) over F2 times M(P) over F3, so the
    idempotent classes double; recovery must refuse rather than return a
    4-point poset for a 2-chain."""
    chain2 = Proset([0, 1], [(0, 1)])
    bundle, access = scramble(chain2, ModRing(6), seed=0)
    with pytest.raises(RingBooleanPartTooLarge):
        recover_poset(access, mode="exhaustive")
    with pytest.raises(RingBooleanPartTooLarge):
        recover_poset(MatrixAccess(chain2, ModRing(6)), mode="witness")


def test_bundle_kernel_matches_dense_oracle_on_scrambles():
    """Every poset of at most 4 points, scrambled over F2, F3, Z/4 and Z/6:
    random products, all basis products, and e.(1 - e) for sampled
    idempotents e, whose coordinates all cancel to zero."""
    rng = random.Random(17)
    for ring in (PrimeField(2), PrimeField(3), ModRing(4), ModRing(6)):
        for n in (1, 2, 3, 4):
            for pro in enumerate_posets(n):
                _, access = scramble(pro, ring, seed=rng.randrange(2**32))
                dim, one = access.dim, access.one()
                basis = access.basis()
                for b in basis:
                    for c in basis:
                        assert_kernel_matches_oracle(access, b, c)
                for _ in range(4):
                    x = tuple(ring.random(rng) for _ in range(dim))
                    y = tuple(ring.random(rng) for _ in range(dim))
                    assert_kernel_matches_oracle(access, x, y)
                    e = access.sample_idempotent(rng)
                    rest = access.add(one, access.neg(e))
                    assert access.is_zero(assert_kernel_matches_oracle(access, e, rest))


def random_bundle(ring, dim, draw, rng):
    table = [[[ring.format(draw(rng)) for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
    return {"dim": dim, "table": table, "one": [ring.format(ring.zero)] * dim}


def test_bundle_kernel_matches_dense_oracle_over_z_and_q():
    """Random tables with many zero and small constants, so that terms
    cancel within an output cell, plus one cell built to cancel exactly."""
    def ints(r):
        return r.choice((-2, -1, 0, 0, 0, 1, 2))

    def fracs(r):
        return QQ.canon(ints(r)) / r.choice((1, 2, 3))

    rng = random.Random(29)
    for ring, draw in ((ZZ, ints), (QQ, fracs)):
        for dim in (1, 2, 3, 5, 7):
            access = BundleAccess(random_bundle(ring, dim, draw, rng), ring)
            for _ in range(20):
                x = tuple(draw(rng) for _ in range(dim))
                y = tuple(draw(rng) for _ in range(dim))
                assert_kernel_matches_oracle(access, x, y)
                assert_kernel_matches_oracle(access, x, x)
    # b0.b0 = 1/2 b0 and b1.b1 = -1/3 b0, so (b0 + b1).(b0 + 3/2 b1) has
    # terms 1/2 and -1/2 in cell 0, 0 in cell 1 and cells 2, 3 untouched
    z = QQ.zero
    cells = {(0, 0): [QQ.canon(1) / 2, z, z, z], (1, 1): [QQ.canon(-1) / 3, z, z, z]}
    bundle = {
        "dim": 4,
        "table": [[[QQ.format(c) for c in cells.get((i, j), [z] * 4)] for j in range(4)]
                  for i in range(4)],
        "one": ["0"] * 4,
    }
    access = BundleAccess(bundle, QQ)
    x = (QQ.one, QQ.one, z, z)
    y = (QQ.one, QQ.canon(3) / 2, z, z)
    assert access.is_zero(assert_kernel_matches_oracle(access, x, y))


@pytest.mark.parametrize("ring", [PrimeField(2), PrimeField(3), ModRing(4), ZZ, QQ], ids=str)
def test_efe_tells_points_apart_as_class_equiv_does(ring):
    """For sampled primitives e and f, e.f.e is e when they are one point's
    and 0 otherwise, so e.f.e != 0 agrees with class_equiv: the rule
    witness mode uses to keep one atom per point."""
    rng = random.Random(4)
    seen = set()
    for pro in enumerate_posets(1) + enumerate_posets(2) + enumerate_posets(3):
        access = MatrixAccess(pro, ring)
        draws = [access.sample_idempotent(rng) for _ in range(6)]
        for e in draws:
            for f in draws:
                same = class_equiv(e, f)
                assert e.mul(f).mul(e) == (e if same else access.zero())
                seen.add((same, e == f))
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_witness_recovers_every_small_poset_over_z_and_q(ring):
    """Witness mode over infinite coefficients, where only samples can
    show the points: every poset of at most 4 points, 2 scrambles each."""
    for n in range(1, 5):
        for pro in enumerate_posets(n):
            for seed in range(2):
                bundle, _ = scramble(pro, ring, seed=seed, samples=32)
                access = BundleAccess(bundle, ring)
                rec = recover_poset(access, mode="witness", rng=random.Random(seed + 1))
                assert rec.poset_isomorphic(pro) is not None


@pytest.mark.parametrize("n, relations, seed, samples", [
    (6, [(1, 0), (2, 5), (3, 2), (3, 5), (4, 0), (4, 2), (4, 5)], 289, 64),
    (5, [(2, 0), (2, 4), (3, 0), (3, 2), (3, 4)], 3423939287, 128),
])
def test_witness_reads_every_relation(n, relations, seed, samples):
    """Over F2 the products of a few sampled representatives of two atom
    classes can all vanish although s < t; these two inputs once lost a
    relation that way.  The order is now read off e.b.f over the basis."""
    pro = Proset(range(n), relations)
    ring = PrimeField(2)
    bundle, _ = scramble(pro, ring, seed=seed, samples=samples)
    access = BundleAccess(bundle, ring)
    rec = recover_poset(access, mode="witness", budget=10**5, rng=random.Random(seed + 1))
    assert rec.poset_isomorphic(pro) is not None


def test_kernel_keeps_operation_counts():
    """The kernel changes how a product is computed, not how many ring
    operations recovery spends or what it recovers."""
    ring = PrimeField(2)
    bundle, _ = scramble(VEE, ring, seed=11)
    fast, slow = BundleAccess(bundle, ring), DenseBundleAccess(bundle, ring)
    rec_fast = recover_poset(fast, mode="exhaustive")
    rec_slow = recover_poset(slow, mode="exhaustive")
    assert fast.ops == slow.ops == 54
    assert rec_fast.elements == rec_slow.elements
    assert rec_fast.pairs() == rec_slow.pairs()
    assert rec_fast.poset_isomorphic(VEE) is not None


def recover_chains16(seed):
    _, access = scramble(CHAINS16, PrimeField(2), seed=seed)
    return recover_poset(access, mode="witness", budget=10**5, rng=random.Random(seed + 1))


def test_witness_finds_every_point_over_a_seed_sweep():
    """Every point of 8 disjoint 2-chains comes back, whichever classes the
    sampler favours, because witness mode stops on the pair count only."""
    for seed in range(40):
        rec = recover_chains16(seed)
        assert len(rec.elements) == 16
        assert rec.poset_isomorphic(CHAINS16) is not None


@pytest.mark.parametrize("seed", [2, 30])
def test_witness_keeps_a_rarely_drawn_point(seed):
    """Here one class turns up only after more than 60 fruitless draws in a
    row; a stall rule returned 15 points with 22 pairs against dimension 24."""
    rec = recover_chains16(seed)
    assert len(rec.elements) == 16 and len(rec.pairs()) == 24
    assert rec.poset_isomorphic(CHAINS16) is not None


def test_witness_never_returns_a_short_poset():
    """Six samples of three 2-chains miss one point for good: witness mode
    spends its budget and says what it found, instead of returning 5 points."""
    pro = Proset(range(6), [(0, 1), (2, 3), (4, 5)])
    bundle, _ = scramble(pro, PrimeField(2), seed=3, samples=6)
    access = BundleAccess(bundle, PrimeField(2))
    with pytest.raises(SearchBudgetExceeded) as err:
        recover_poset(access, mode="witness", budget=10**4)
    assert access.ops > 10**4
    assert str(err.value) == (
        "budget of 10000 ring operations spent: found 5 atom classes with 7 "
        "order pairs, against dimension 9")


def test_non_incidence_ring_is_refused():
    """GF(4) has one nonzero idempotent class, so one point and one pair
    against dimension 2: exhaustive mode sees the whole carrier and calls
    the hypothesis false, witness mode can only run out of budget."""
    ring = PrimeField(2)
    with pytest.raises(HypothesisViolation):
        recover_poset(BundleAccess(GF4, ring), mode="exhaustive")
    with pytest.raises(SearchBudgetExceeded):
        recover_poset(BundleAccess(GF4, ring), mode="witness", budget=10**3)


@pytest.mark.parametrize("ring, most", [
    (PrimeField(2), 4), (PrimeField(3), 3), (ModRing(4), 3), (PrimeField(5), 2), (ModRing(9), 2),
], ids=str)
def test_split_of_one_matches_class_oracle(ring, most):
    """Every poset of at most `most` points, on three scrambles each: the
    split of 1 and the class oracle recover the same poset."""
    for n in range(1, most + 1):
        for pro in enumerate_posets(n):
            for seed in range(3):
                bundle, _ = scramble(pro, ring, seed=seed)
                split = recover_poset(BundleAccess(bundle, ring), mode="exhaustive")
                classes = recover_by_classes(BundleAccess(bundle, ring))
                assert split.poset_isomorphic(pro) is not None
                assert classes.poset_isomorphic(pro) is not None


def test_split_of_one_matches_class_oracle_off_posets():
    """GF(4) is refused by both (see test_non_incidence_ring_is_refused for
    the split); the full matrix ring M_2(F2) gives one class of two points,
    and M_2 below a point gives that class under a third."""
    ring = PrimeField(2)
    with pytest.raises(HypothesisViolation):
        recover_by_classes(BundleAccess(GF4, ring))
    for pro in (Proset([0, 1], [(0, 1), (1, 0)]), Proset([0, 1, 2], [(0, 1), (1, 0), (1, 2)])):
        bundle = unit_bundle(pro, ring)
        split = recover_poset(BundleAccess(bundle, ring), mode="exhaustive")
        classes = recover_by_classes(BundleAccess(bundle, ring))
        assert split.poset_isomorphic(pro) is not None
        assert classes.poset_isomorphic(pro) is not None


@pytest.mark.parametrize("ring, most", [
    (PrimeField(2), 4), (PrimeField(3), 3), (ModRing(4), 3), (PrimeField(5), 2), (ModRing(9), 2),
], ids=str)
def test_split_matches_the_scan_over_every_idempotent(ring, most):
    """Every poset of at most `most` points, on three scrambles each, and on
    the honest matrices of every poset of at most 3 points (2 over Z/9): the
    corner-ring test and the lazy scan split 1 exactly as the full scan,
    and every primitive of an incidence ring is certified in its corner."""
    accesses = [BundleAccess(scramble(pro, ring, seed=seed)[0], ring)
                for n in range(1, most + 1) for pro in enumerate_posets(n) for seed in range(3)]
    accesses += [MatrixAccess(pro, ring) for n in range(1, min(most, 3) + 1)
                 for pro in enumerate_posets(n)]
    for access in accesses:
        assert all(eb is not None for _, eb in assert_split_matches_scan(access))


def test_split_matches_the_scan_off_posets():
    """GF(4), whose one nonzero idempotent is 1; M_2(F2) and M_2 below a
    point; the non-associative table; the zero identities."""
    ring = PrimeField(2)
    a, b, c = ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]
    tables = [
        GF4,
        unit_bundle(Proset([0, 1], [(0, 1), (1, 0)]), ring),
        unit_bundle(Proset([0, 1, 2], [(0, 1), (1, 0), (1, 2)]), ring),
        {"dim": 3, "table": [[a, b, a], [b, b, c], [a, c, c]], "one": a},
        {"dim": 0, "table": [], "one": []},
        {"dim": 1, "table": [[["0"]]], "one": ["0"]},
    ]
    for table in tables:
        assert_split_matches_scan(BundleAccess(table, ring))


def test_exhaustive_recovery_squares_part_of_the_carrier():
    """A scrambled 4-chain over F2 has 1,024 elements; the split reads its
    idempotents lazily and certifies each primitive in its corner ring, so
    the whole recovery spends fewer ring operations than one squaring of
    every element would."""
    chain4 = Proset(range(4), [(0, 1), (1, 2), (2, 3)])
    for seed in range(3):
        bundle, _ = scramble(chain4, PrimeField(2), seed=seed)
        access = BundleAccess(bundle, PrimeField(2))
        assert access.carrier_size() == 1024
        assert recover_poset(access, mode="exhaustive").poset_isomorphic(chain4) is not None
        assert access.ops < 1024


def test_auto_recovers_the_five_point_posets_of_dimension_14():
    """Their carriers over F2 hold exactly 2^14 elements, the most `auto`
    enumerates; the bundles carry no samples, so only exhaustive mode can
    recover them."""
    posets = [pro for pro in enumerate_posets(5) if len(pro.pairs()) == 14]
    assert len(posets) == 4
    for pro in posets:
        bundle, _ = scramble(pro, PrimeField(2), seed=0)
        access = BundleAccess(bundle, PrimeField(2))
        assert access.carrier_size() == 2**14
        assert recover_poset(access).poset_isomorphic(pro) is not None


def test_unknown_mode_is_a_typed_value_error():
    """A mode outside auto, exhaustive and witness raises MalformedInput,
    which is also the ValueError it raised before."""
    _, access = scramble(CHAIN3, PrimeField(2), seed=0)
    with pytest.raises(MalformedInput) as err:
        recover_poset(access, mode="x")
    assert isinstance(err.value, ValueError)
    assert str(err.value) == "mode must be auto, exhaustive, or witness, not 'x'"
    assert access.ops == 0


def test_split_of_one_refuses_a_non_associative_table():
    """Idempotent basis elements a, b, c with ab = ba = b, bc = cb = c and
    ca = ac = a, and 1 = a: each sits over the next round the cycle, so the
    split of a would go a, b, c, a, ... for ever.  The table is no ring,
    and both recoveries refuse it."""
    a, b, c = ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]
    table = {"dim": 3, "table": [[a, b, a], [b, b, c], [a, c, c]], "one": a}
    ring = PrimeField(2)
    with pytest.raises(HypothesisViolation):
        recover_poset(BundleAccess(table, ring), mode="exhaustive")
    with pytest.raises(HypothesisViolation):
        recover_by_classes(BundleAccess(table, ring))


def test_split_of_one_on_zero_identities():
    """1 = 0 holds in the zero ring, the ring of the empty poset, and in no
    ring of dimension 1: there, the zero product is refused, not read as
    one point."""
    ring = PrimeField(2)
    empty = recover_poset(BundleAccess({"dim": 0, "table": [], "one": []}, ring), mode="exhaustive")
    assert empty.elements == ()
    with pytest.raises(HypothesisViolation):
        recover_poset(BundleAccess({"dim": 1, "table": [[["0"]]], "one": ["0"]}, ring),
                      mode="exhaustive")


def test_nilpotence_squarings_follow_the_module_length():
    """ceil(log2 L) squarings, L = dim over a field, Z or Q and dim.k over
    Z/n with k prime factors of n."""
    cases = [(PrimeField(2), 5, 3), (ModRing(4), 5, 4), (ModRing(8), 1, 2), (ModRing(9), 3, 3),
             (ModRing(12), 1, 2), (PrimeField(10**9 + 7), 4, 2), (ZZ, 1, 0), (QQ, 6, 3)]
    for ring, dim, squarings in cases:
        bundle = {"dim": dim, "table": [[["0"] * dim] * dim] * dim, "one": ["0"] * dim}
        assert _squarings(BundleAccess(bundle, ring)) == squarings
    # Z/8 on one point is Z/8 itself, L = 3, and 2 needs both squarings
    access = BundleAccess({"dim": 1, "table": [[["1"]]], "one": ["1"]}, ModRing(8))
    assert _access_nilpotent(access, (2,), _squarings(access))
    assert not _access_nilpotent(access, (2,), 1)
    # a unit over Q never repeats a power: the cap, not a cycle, ends the test
    access = MatrixAccess(CHAIN3, QQ)
    x = identity(CHAIN3, QQ).add(identity(CHAIN3, QQ))
    before = access.ops
    assert not _access_nilpotent(access, x, _squarings(access))
    assert access.ops - before == 3


@pytest.mark.parametrize("pro, ring, length", [
    (CHAIN3, PrimeField(2), 6),
    (Proset([0, 1], [(0, 1)]), ModRing(4), 6),
    (Proset([0, 1], [(0, 1)]), ModRing(9), 6),
], ids=str)
def test_nilpotence_cap_agrees_with_the_lth_power(pro, ring, length):
    """On every element: nilpotent within the capped squarings exactly when
    the L-th power is zero."""
    access = MatrixAccess(pro, ring)
    squarings = _squarings(access)
    assert squarings == (length - 1).bit_length()
    for x in access.elements():
        power = x
        for _ in range(length - 1):
            power = power.mul(x)
        assert _access_nilpotent(access, x, squarings) == power.is_zero()


def test_bundle_kernel_on_zero_operands():
    """A zero factor gives the zero tuple of the ring's own carrier."""
    for ring in (ZZ, QQ, PrimeField(2), ModRing(4)):
        bundle, access = scramble(CHAIN3, ring, seed=3)
        zero, one = access.zero(), access.one()
        for x, y in ((zero, one), (one, zero), (zero, zero)):
            assert access.is_zero(assert_kernel_matches_oracle(access, x, y))
        assert assert_kernel_matches_oracle(access, one, one) == one


def path_with_a_zero_product(p):
    """The path 0 -a-> 1 -b-> 2 with a.b = 0 over F_p, on the basis e0, e1,
    e2, a, b with the primitives e0, e1, e2 as samples: an associative,
    unital table of dimension 5 whose primitives show the pairs 0 < 1 and
    1 < 2 but no product from 0 to 2.  Closed, those pairs are the 3-chain,
    with 6 pairs, so it is no incidence ring."""
    e0, e1, e2, a, b = range(5)
    products = {(e0, e0): e0, (e1, e1): e1, (e2, e2): e2,
                (e0, a): a, (a, e1): a, (e1, b): b, (b, e2): b}

    def vec(*ones):
        return ["1" if k in ones else "0" for k in range(5)]

    return {
        "ring": {"gf": p},
        "dim": 5,
        "table": [[vec(*[products[i, j]] if (i, j) in products else []) for j in range(5)]
                  for i in range(5)],
        "one": vec(e0, e1, e2),
        "samples": [vec(e0), vec(e1), vec(e2)],
    }


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("mode", ["exhaustive", "witness"])
def test_closed_pair_count_refuses_a_path_with_a_zero_product(capsys, p, mode):
    """The pairs read off the primitives number 3 + 2 = dim, but their
    closure has 6: the library and `incring recover` both refuse the table
    with HypothesisViolation instead of printing the 3-chain."""
    from incring.cli import main

    table = path_with_a_zero_product(p)
    with pytest.raises(HypothesisViolation) as err:
        recover_poset(BundleAccess(table, PrimeField(p)), mode=mode)
    assert str(err.value) == (
        "found 3 atom classes with 6 order pairs, against dimension 5: "
        "not the incidence ring of a poset")
    code = main(["recover", "--input", json.dumps(table), "--mode", mode])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"]["type"] == "HypothesisViolation"


def square_with_a_zero_path(p):
    """The square 0 < 1, 2 < 3 over F_p on the basis e0-e3, a = 0->1,
    b = 0->2, c = 1->3, d = 2->3 and z = 0->3, with a.c = 0 and b.d = z,
    and the primitives e0-e3 as samples: an associative, unital table of
    dimension 9 whose primitives read the square's 9 pairs, though in
    M(square) no path from 0 to 3 multiplies to 0."""
    e0, e1, e2, e3, a, b, c, d, z = range(9)
    products = {(e0, e0): e0, (e1, e1): e1, (e2, e2): e2, (e3, e3): e3,
                (e0, a): a, (a, e1): a, (e0, b): b, (b, e2): b, (e1, c): c, (c, e3): c,
                (e2, d): d, (d, e3): d, (e0, z): z, (z, e3): z, (b, d): z}

    def vec(*ones):
        return ["1" if k in ones else "0" for k in range(9)]

    return {
        "ring": {"gf": p},
        "dim": 9,
        "table": [[vec(*[products[i, j]] if (i, j) in products else []) for j in range(9)]
                  for i in range(9)],
        "one": vec(e0, e1, e2, e3),
        "samples": [vec(e0), vec(e1), vec(e2), vec(e3)],
    }


@pytest.mark.parametrize("p, mode", [(2, "exhaustive"), (2, "witness"), (3, "witness")])
def test_chain_products_refuse_a_square_with_a_zero_path(capsys, p, mode):
    """The square's table passes the closed pair count, but c_01.c_13 = a.c
    = 0 along a chain: the library and `incring recover` both refuse it
    with HypothesisViolation instead of printing the square."""
    from incring.cli import main

    table = square_with_a_zero_path(p)
    with pytest.raises(HypothesisViolation, match=(
            r"^the products along the chain \d < \d < \d multiply to 0: "
            r"not the incidence ring of a poset$")):
        recover_poset(BundleAccess(table, PrimeField(p)), mode=mode)
    code = main(["recover", "--input", json.dumps(table), "--mode", mode])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"]["type"] == "HypothesisViolation"


@pytest.mark.parametrize("relations, ring, seed, mode", [
    ([(0, 2), (0, 3), (2, 3)], ModRing(4), 0, "exhaustive"),
    ([(0, 2), (0, 3), (1, 3), (2, 3)], ModRing(4), 2, "witness"),
    ([(0, 2), (0, 3), (2, 3)], ModRing(8), 2, "witness"),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], ModRing(9), 0, "witness"),
], ids=str)
def test_chain_products_pass_honest_rings_over_prime_powers(relations, ring, seed, mode):
    """Over Z/p^a a product (e_s.b).e_t can be p times a unit multiple of
    the scrambled unit, and two such multiply to 0 along a chain.  Each
    c_st kept has p^(a-1).c_st != 0, so these honest scrambles, whose first
    nonzero products include such ones, still recover their poset."""
    pro = Proset(range(4), relations)
    bundle, _ = scramble(pro, ring, seed=seed, samples=24)
    rec = recover_poset(BundleAccess(bundle, ring), mode=mode)
    assert rec.poset_isomorphic(pro) is not None


@pytest.mark.parametrize("ring", [ModRing(2**16), ModRing(3**10)], ids=str)
def test_chain_products_stay_cheap_over_large_prime_powers(ring):
    """p^(a-1) times a product is one multiplication by p^(a-1).1, built
    once by doubling, so witness mode over a large Z/p^a recovers a
    scrambled 4-chain within the default budget."""
    pro = Proset(range(4), [(0, 1), (1, 2), (2, 3)])
    bundle, _ = scramble(pro, ring, seed=1, samples=24)
    access = BundleAccess(bundle, ring)
    rec = recover_poset(access, mode="witness")
    assert rec.poset_isomorphic(pro) is not None
    assert access.ops < 1000
