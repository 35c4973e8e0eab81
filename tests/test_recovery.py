"""Idempotent apparatus and poset recovery from opaque ring access."""

import itertools
import random

import pytest

from incring.errors import (
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
    b_of,
    class_equiv,
    class_leq,
    erase,
    is_topologically_nilpotent,
    recover_poset,
    scramble,
)
from incring.rings import ModRing, PrimeField, ZZ
from incring.samples import enumerate_posets

CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])
VEE = Proset(["p", "x", "y"], [("p", "x"), ("p", "y")])


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
