"""Unit groups of incidence rings: inversion, centrality, commutators."""

import hashlib
import itertools
import random
import time

import pytest

from incring.errors import HypothesisViolation, MalformedInput, NotInvertible, SearchBudgetExceeded
from incring.glgroup import (
    GroupElement,
    _block_inverse,
    _class_block,
    _det_adj,
    certify,
    commutator,
    det_block,
    dickson_normal_closure,
    enumerate_invertibles,
    enumerate_matrices,
    invert,
    is_central,
    is_invertible,
    is_scalar_unit,
    iterated_commutator_sample,
    mulclose,
    normal_subgroup_membership,
    quotient_project,
    random_invertible,
    transpose_op_iso,
)
from incring.matrices import (
    CoeffIdeal,
    ConvexIdeal,
    IncMatrix,
    SumIdeal,
    identity,
    scalar_diag,
    unit,
    zero,
)
from incring.prosets import Proset, elem_key, two_block
from incring.rings import ModRing, PrimeField, QQ, ZZ
from incring.samples import enumerate_posets, enumerate_prosets, random_matrix, random_proset

CHAIN2 = Proset([0, 1], [(0, 1)])
CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])
VEE = Proset(["p", "x", "y"], [("p", "x"), ("p", "y")])


def _mat_mul(ring, x, y):
    """Dense product of two blocks, one ring call per term: the oracle for
    the block products of the unit code."""
    n, m, k = len(x), len(y[0]) if y else 0, len(y)
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        xi = x[i]
        for t in range(k):
            a = xi[t]
            if a == ring.zero:
                continue
            yt = y[t]
            oi = out[i]
            for j in range(m):
                oi[j] = ring.add(oi[j], ring.mul(a, yt[j]))
    return out


def test_frozen_two_by_two():
    a = identity(CHAIN2, ZZ).add(unit(CHAIN2, ZZ, 0, 1))
    b = invert(a)
    assert b == identity(CHAIN2, ZZ).add(unit(CHAIN2, ZZ, 0, 1, -1))
    assert a.mul(b) == identity(CHAIN2, ZZ)


def test_invert_random_round_trip():
    rng = random.Random(19)
    for _ in range(200):
        pro = random_proset(rng.randrange(1, 7), rng)
        ring = rng.choice([PrimeField(5), ModRing(9), QQ])
        a = random_invertible(pro, ring, rng)
        b = invert(a)
        e = identity(pro, ring)
        assert a.mul(b) == e and b.mul(a) == e


def test_invertibility_matches_exhaustive_unit_search():
    """Brute force: a matrix is a unit iff some matrix multiplies it to 1
    from both sides."""
    for pro in enumerate_posets(2) + enumerate_posets(3):
        if len(pro.pairs()) > 4:
            continue
        ring = PrimeField(2)
        mats = list(enumerate_matrices(pro, ring))
        e = identity(pro, ring)
        for a in mats:
            brute = any(a.mul(b) == e and b.mul(a) == e for b in mats)
            assert brute == is_invertible(a)


def test_non_unit_diagonal_rejected():
    a = identity(CHAIN2, ZZ).add(unit(CHAIN2, ZZ, 0, 0, 1))  # diag entry 2
    with pytest.raises(NotInvertible):
        invert(a)
    assert not is_invertible(zero(CHAIN2, ZZ))


def test_class_blocks_drive_invertibility():
    looped = Proset([0, 1], [(0, 1), (1, 0)])  # one class of size 2
    m = identity(looped, ZZ).add(unit(looped, ZZ, 0, 1))
    # det of [[1,1],[0,1]] block is 1, invertible over Z
    assert is_invertible(m)
    bad = identity(looped, ZZ).add(unit(looped, ZZ, 0, 1)).add(unit(looped, ZZ, 1, 0))
    # [[1,1],[1,1]] has det 0
    assert not is_invertible(bad)


def test_group_axioms_on_certified_elements():
    rng = random.Random(29)
    pro = CHAIN3
    ring = PrimeField(5)
    e = identity(pro, ring)
    for _ in range(500):
        a, b, c = (certify(random_invertible(pro, ring, rng)) for _ in range(3))
        assert a.mul(b).mul(c).matrix == a.mul(b.mul(c)).matrix
        assert a.mul(a.inv()).matrix == e
    g = certify(random_invertible(pro, ring, rng))
    assert g.inverse_matrix.mul(g.matrix) == e


def test_product_of_units_is_unit():
    rng = random.Random(37)
    for _ in range(100):
        pro = random_proset(rng.randrange(1, 6), rng)
        a = random_invertible(pro, ModRing(9), rng)
        b = random_invertible(pro, ModRing(9), rng)
        assert is_invertible(a.mul(b))


def test_conjugation_identity():
    rng = random.Random(43)
    for _ in range(50):
        g = certify(random_invertible(CHAIN3, PrimeField(5), rng))
        h = certify(random_invertible(CHAIN3, PrimeField(5), rng))
        conj = g.mul(h).mul(g.inv())
        assert is_invertible(conj.matrix)
        assert invert(conj.matrix) == g.mul(h.inv()).mul(g.inv()).matrix


def test_commutator_basics():
    rng = random.Random(47)
    g = certify(random_invertible(CHAIN3, PrimeField(5), rng))
    e = certify(identity(CHAIN3, PrimeField(5)))
    assert commutator(g, g).matrix == e.matrix
    assert commutator(g, e).matrix == e.matrix


def test_commutator_carries_its_inverse():
    rng = random.Random(49)
    for ring in (PrimeField(3), ModRing(9), QQ):
        for _ in range(20):
            pro = random_proset(rng.randrange(1, 6), rng)
            g, h, k = (GroupElement(random_invertible(pro, ring, rng)) for _ in range(3))
            for c in (commutator(g, h), commutator(commutator(g, h), k)):
                assert c.inverse_matrix == invert(c.matrix)


def test_normal_subgroup_membership():
    # N_{[0,1]}: units congruent to 1 on the [0,1] block
    g = identity(CHAIN3, PrimeField(5)).add(unit(CHAIN3, PrimeField(5), 1, 2, 3))
    assert normal_subgroup_membership(GroupElement(g), ConvexIdeal([0, 1]))
    h = identity(CHAIN3, PrimeField(5)).add(unit(CHAIN3, PrimeField(5), 0, 1, 2))
    assert not normal_subgroup_membership(GroupElement(h), ConvexIdeal([0, 1]))


def test_normal_subgroup_membership_of_coefficient_and_sum_ideals():
    """The congruence subgroup of any ideal I is the units g with g - 1 in I."""
    two_z = CoeffIdeal(lambda v: v % 2 == 0)
    one = identity(CHAIN3, ZZ)
    g = one.add(unit(CHAIN3, ZZ, 0, 1, 2))  # 1 + 2 e01
    assert normal_subgroup_membership(certify(g), two_z)
    assert not normal_subgroup_membership(one.add(unit(CHAIN3, ZZ, 0, 1, 3)), two_z)
    assert normal_subgroup_membership(scalar_diag(CHAIN3, ZZ, -1), two_z)  # -1 = 1 mod 2
    summed = SumIdeal([two_z, ConvexIdeal([0, 1])])
    assert normal_subgroup_membership(g, summed)
    # 3 at (1, 2) lies outside the [0, 1] block, so the sum absorbs it
    assert normal_subgroup_membership(one.add(unit(CHAIN3, ZZ, 1, 2, 3)), summed)
    assert not normal_subgroup_membership(one.add(unit(CHAIN3, ZZ, 0, 1, 3)), summed)
    # the empty sum is the zero ideal: only the identity is congruent to 1
    assert normal_subgroup_membership(one, SumIdeal([]))
    assert not normal_subgroup_membership(g, SumIdeal([]))


def test_quotient_project_kernel_exhaustive():
    """The kernel of projecting GL onto a convex window is exactly the
    congruent-to-identity normal subgroup, checked on all of GL."""
    ring = PrimeField(2)
    for pro, window in [(CHAIN3, [0, 1]), (CHAIN2, [0])]:
        e_w = identity(pro.restrict(window), ring)
        for m in enumerate_invertibles(pro, ring):
            g = GroupElement(m)
            in_kernel = quotient_project(g, window).matrix == e_w
            assert in_kernel == normal_subgroup_membership(g, ConvexIdeal(window))


def test_quotient_project_is_homomorphism():
    rng = random.Random(53)
    ring = PrimeField(5)
    for _ in range(100):
        g = certify(random_invertible(CHAIN3, ring, rng))
        h = certify(random_invertible(CHAIN3, ring, rng))
        left = quotient_project(g.mul(h), [0, 1]).matrix
        right = quotient_project(g, [0, 1]).matrix.mul(quotient_project(h, [0, 1]).matrix)
        assert left == right


def test_scalar_detection():
    assert is_scalar_unit(scalar_diag(CHAIN3, PrimeField(5), 3))
    assert not is_scalar_unit(scalar_diag(CHAIN3, PrimeField(5), 0))
    mixed = identity(CHAIN3, PrimeField(5)).add(unit(CHAIN3, PrimeField(5), 0, 0, 1))
    assert not is_scalar_unit(mixed)


def test_center_flags_on_unit_pair_ring():
    rep = is_central(scalar_diag(CHAIN3, PrimeField(5), 2))
    assert rep.central and rep.scalar_test and rep.hypothesis_ok and rep.agree
    g = identity(CHAIN3, PrimeField(5)).add(unit(CHAIN3, PrimeField(5), 0, 1))
    rep = is_central(g)
    assert not rep.central and not rep.scalar_test and rep.agree


def test_center_flagged_failure_without_unit_pair():
    # GL of the 2-chain over F2 is abelian, so everything is central while
    # almost nothing is scalar; the report must expose the disagreement
    g = identity(CHAIN2, PrimeField(2)).add(unit(CHAIN2, PrimeField(2), 0, 1))
    rep = is_central(g)
    assert rep.central and not rep.scalar_test
    assert not rep.hypothesis_ok and not rep.agree


def test_enumerate_invertibles_counts():
    # 2-chain over F2: diagonal forced to 1, one free off-diagonal entry
    assert len(list(enumerate_invertibles(CHAIN2, PrimeField(2)))) == 2
    # 2-chain over F3: two diagonal units each, 3 off-diagonal values
    assert len(list(enumerate_invertibles(CHAIN2, PrimeField(3)))) == 12
    # full 2x2 block over F2: |GL_2(F_2)| = 6
    block = Proset([0, 1], [(0, 1), (1, 0)])
    assert len(list(enumerate_invertibles(block, PrimeField(2)))) == 6


def test_mulclose_small_group():
    ring = PrimeField(2)
    gens = [identity(CHAIN2, ring).add(unit(CHAIN2, ring, 0, 1))]
    closed = mulclose(gens)
    assert len(closed) == 2


def allpairs_mulclose(mats):
    """Oracle: multiply every new element by everything found so far, on
    both sides, until nothing new turns up."""
    done = set(mats)
    frontier = list(done)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(done):
                for c in (a.mul(b), b.mul(a)):
                    if c not in done:
                        done.add(c)
                        fresh.append(c)
        frontier = fresh
    return done


def closure_cases():
    """Seeded small generating lists: random matrices and units, a nilpotent
    and an idempotent, with duplicates, and the empty list."""
    rng = random.Random(101)
    cases = [[]]
    for ring in (PrimeField(2), PrimeField(3), ModRing(4)):
        pros = enumerate_prosets(2) + ([CHAIN3, VEE] if ring.n == 2 else [])
        for pro in pros:
            strict = pro.strict_pairs()
            nilpotent = IncMatrix(pro, ring, {p: ring.one for p in strict[:1]})
            idempotent = unit(pro, ring, pro.elements[0], pro.elements[0])
            for k in (1, 2, 3):
                mats = [random_matrix(pro, ring, rng) for _ in range(k)]
                mats.append(random_invertible(pro, ring, rng))
                mats.append(nilpotent if k % 2 else idempotent)
                mats.append(rng.choice(mats))
                cases.append(mats)
    return cases


def test_mulclose_matches_allpairs_oracle():
    for mats in closure_cases():
        closed = mulclose(mats)
        assert closed == allpairs_mulclose(mats)
        assert mulclose(list(reversed(mats))) == closed
        if closed:
            assert mulclose(mats, cap=len(closed)) == closed
            with pytest.raises(ValueError):
                mulclose(mats, cap=len(closed) - 1)


def gl_order(n, ring):
    """|GL_n(Z/p^k)| = p^((k-1) n^2) |GL_n(F_p)|, for the modulus p^k."""
    p = next(d for d in range(2, ring.n + 1) if ring.n % d == 0)
    order = 1
    for i in range(n):
        order *= p**n - p**i
    return order * (ring.n // p) ** (n * n)


def unit_group_order(pro, ring):
    """Prod over classes c of |GL_|c|(P)|, times |P| for each pair between
    distinct classes."""
    order = 1
    for c in pro.classes():
        order *= gl_order(len(c), ring)
    free = sum(1 for (a, b) in pro.pairs() if b not in pro.equiv_class(a))
    return order * ring.n**free


def test_unit_group_order_oracle():
    assert unit_group_order(VEE, PrimeField(5)) == 1600
    assert unit_group_order(CHAIN2, ModRing(9)) == 324
    for ring in (PrimeField(2), PrimeField(3), ModRing(4)):
        for n in (1, 2, 3):
            for pro in enumerate_prosets(n):
                assert len(enumerate_invertibles(pro, ring)) == unit_group_order(pro, ring)


def test_iterated_commutators_vanish_by_depth():
    rng = random.Random(59)
    for depth in (1, 2, 3):
        rep = iterated_commutator_sample(CHAIN3, PrimeField(3), depth, 50, rng)
        assert rep["violations"] == 0


def test_negative_commutator_depth_is_refused():
    with pytest.raises(MalformedInput, match="depth must be a natural number, got -1"):
        iterated_commutator_sample(CHAIN3, PrimeField(3), -1, 1, random.Random(0))


def test_two_bounded_posets_have_trivial_depth_two():
    rng = random.Random(61)
    vee = Proset(["p", "x", "y"], [("p", "x"), ("p", "y")])
    e = identity(vee, PrimeField(3))
    for _ in range(50):
        g = GroupElement(random_invertible(vee, PrimeField(3), rng))
        h = GroupElement(random_invertible(vee, PrimeField(3), rng))
        c1 = commutator(g, h)
        g2 = GroupElement(random_invertible(vee, PrimeField(3), rng))
        h2 = GroupElement(random_invertible(vee, PrimeField(3), rng))
        c2 = commutator(g2, h2)
        assert commutator(c1, c2).matrix == e


def test_dickson_closure_contains_sl2_f5():
    rep = dickson_normal_closure(2, 5, random.Random(0))
    assert rep["order_divisible_by_sl"]
    assert rep["contains_sl_generators"]
    assert rep["closure_order"] % 120 == 0


def test_dickson_gl3_f2_closure_is_everything():
    rep = dickson_normal_closure(3, 2, random.Random(0))
    assert rep["closure_order"] == 168


def test_dickson_reports_rounds_and_truncation():
    full = dickson_normal_closure(3, 2, random.Random(0))
    assert full["truncated"] is False and full["rounds"] >= 1
    cut = dickson_normal_closure(3, 2, random.Random(0), max_rounds=1)
    assert cut["rounds"] == 1
    assert cut["truncated"] is True


def test_dickson_reaches_larger_groups():
    """About 1 s in all by generators; all-pairs closure took 5 s on (2, 7)
    alone and could not finish (2, 11) or (3, 3)."""
    t0 = time.perf_counter()
    for n, q in [(2, 7), (2, 11), (3, 3), (4, 2)]:
        rep = dickson_normal_closure(n, q, random.Random(0))
        assert rep["contains_sl_generators"] and rep["order_divisible_by_sl"]
        assert rep["truncated"] is False
    assert time.perf_counter() - t0 < 10


def test_dickson_rejects_tiny_fields():
    for q in (2, 3):
        with pytest.raises(HypothesisViolation):
            dickson_normal_closure(2, q, random.Random(0))


def test_transpose_op_iso_is_antihomomorphism_fix():
    """g -> transpose(g^{-1}) lands in GL of the opposite proset and
    preserves products."""
    rng = random.Random(67)
    for _ in range(40):
        g = certify(random_invertible(CHAIN3, PrimeField(5), rng))
        h = certify(random_invertible(CHAIN3, PrimeField(5), rng))
        img_gh = transpose_op_iso(g.mul(h))
        assert img_gh.matrix == transpose_op_iso(g).matrix.mul(transpose_op_iso(h).matrix)
        assert img_gh.matrix.pro == CHAIN3.opposite()


def test_two_block_units():
    tb = two_block(2, 1)
    rng = random.Random(71)
    for _ in range(50):
        a = random_invertible(tb, PrimeField(3), rng)
        assert invert(a).mul(a) == identity(tb, PrimeField(3))


# -- class-block inversion against the cofactor oracle ------------------------


def cofactor_det(ring, m):
    """Oracle: first-row Laplace expansion, memoised on column subsets."""
    n = len(m)
    memo = {}

    def rec(cols):
        if len(cols) == 1:
            return m[n - 1][cols[0]]
        if cols not in memo:
            row = n - len(cols)
            acc = ring.zero
            for idx, c in enumerate(cols):
                term = ring.mul(m[row][c], rec(cols[:idx] + cols[idx + 1:]))
                acc = ring.add(acc, term if idx % 2 == 0 else ring.neg(term))
            memo[cols] = acc
        return memo[cols]

    return rec(tuple(range(n)))


def cofactor_adjugate(ring, m):
    """Oracle: transposed matrix of signed cofactors."""
    n = len(m)
    if n == 1:
        return [[ring.one]]
    adj = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = cofactor_det(ring, minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else ring.neg(cof)
    return adj


NON_UNITS = {"Z": 2, "Z/9": 3, "Z/6": 3}


def oracle_blocks(ring, n, rng):
    """Random, unit-determinant, singular and (where the ring has one)
    nonzero non-unit-determinant n x n blocks."""
    rows = sorted(two_block(n).elements, key=elem_key)
    a = random_invertible(two_block(n), ring, rng)
    unit_blk = [[a.entry(r, c) for c in rows] for r in rows]
    dependent = [ring.add(x, y) for x, y in zip(unit_blk[0], unit_blk[-2])] if n > 1 else [ring.zero]
    blocks = [
        [[ring.canon(ring.random(rng)) for _ in range(n)] for _ in range(n)],
        unit_blk,
        unit_blk[:-1] + [dependent],
    ]
    if ring.name in NON_UNITS:
        k = ring.canon(NON_UNITS[ring.name])
        blocks.append([[ring.mul(k, x) for x in unit_blk[0]]] + unit_blk[1:])
    return rows, blocks


def test_block_inversion_matches_cofactor_oracle():
    rng = random.Random(83)
    for ring in (ZZ, QQ, ModRing(9), ModRing(6), PrimeField(2), PrimeField(5)):
        for n in range(1, 9):
            for _ in range(2):
                rows, blocks = oracle_blocks(ring, n, rng)
                pro = two_block(n)
                for blk in blocks:
                    d, adj = cofactor_det(ring, blk), cofactor_adjugate(ring, blk)
                    assert det_block(ring, blk) == d
                    if n > 1:
                        assert _det_adj(ring, blk) == (d, adj)
                    a = IncMatrix(pro, ring, {(r, c): blk[i][j] for i, r in enumerate(rows)
                                              for j, c in enumerate(rows)})
                    assert is_invertible(a) == ring.is_unit(d)
                    if not ring.is_unit(d):
                        with pytest.raises(NotInvertible):
                            invert(a)
                        continue
                    dinv = ring.inv(d)
                    want = IncMatrix(pro, ring, {(r, c): ring.mul(dinv, adj[i][j])
                                                 for i, r in enumerate(rows)
                                                 for j, c in enumerate(rows)})
                    assert invert(a) == want


def test_small_blocks_match_cofactor_oracle_exhaustively():
    """The closed forms for 1x1, 2x2 and 3x3 blocks on every block over
    F2 and every 2x2 block over Z/6, and is_invertible on each."""
    cases = [(PrimeField(2), n) for n in (1, 2, 3)] + [(ModRing(6), 1), (ModRing(6), 2)]
    for ring, n in cases:
        pro = two_block(n)
        rows = sorted(pro.elements, key=elem_key)
        for flat in itertools.product(list(ring.elements()), repeat=n * n):
            blk = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            d = cofactor_det(ring, blk)
            assert det_block(ring, blk) == d
            a = IncMatrix(pro, ring, {(r, c): blk[i][j] for i, r in enumerate(rows)
                                      for j, c in enumerate(rows)})
            assert is_invertible(a) == ring.is_unit(d)


def test_sixteen_point_block_round_trip():
    for ring in (PrimeField(5), ModRing(9)):
        pro = two_block(16)
        a = random_invertible(pro, ring, random.Random(89))
        b = invert(a)
        assert a.mul(b) == identity(pro, ring) == b.mul(a)


def test_det_adj_matches_cofactor_oracle_exhaustively():
    """Determinant and adjugate of every 2x2 block over Z/6, where pivoting
    on units alone would fail, and of every 3x3 block over F2."""
    for ring, n in ((ModRing(6), 2), (PrimeField(2), 3)):
        for flat in itertools.product(list(ring.elements()), repeat=n * n):
            blk = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            assert _det_adj(ring, blk) == (cofactor_det(ring, blk), cofactor_adjugate(ring, blk))


# (block, determinant, adjugate) on the pivot search's branches
PIVOT_CASES = [
    # a column swap, then a zero last pivot carried through: rank 1
    ([[0, 1], [0, 0]], 0, [[0, -1], [0, 0]]),
    # a column swap and a row swap, then a zero last pivot: rank 2
    ([[0, 0, 1], [0, 0, 0], [0, 1, 0]], 0, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    # the remaining block vanishes after one step: rank 1, adjugate 0
    ([[0, 0, 1], [0, 0, 0], [0, 0, 0]], 0, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ([[0, 0], [0, 0]], 0, [[0, 0], [0, 0]]),
    # swaps on units: a transposition and a 3-cycle with weights
    ([[0, 1], [1, 0]], -1, [[0, -1], [-1, 0]]),
    ([[0, 2, 0], [0, 0, 3], [5, 0, 0]], 30, [[0, 0, 6], [15, 0, 0], [0, 10, 0]]),
]


def test_det_adj_on_the_pivot_search_branches():
    for ring in (ZZ, QQ):
        for blk, d, adj in PIVOT_CASES:
            blk = [[ring.canon(x) for x in row] for row in blk]
            want = (ring.canon(d), [[ring.canon(x) for x in row] for row in adj])
            assert _det_adj(ring, blk) == want
            assert want == (cofactor_det(ring, blk), cofactor_adjugate(ring, blk))
    # sparse blocks with zero rows and columns, and Q blocks on mixed
    # denominators, take swaps at every step
    rng = random.Random(191)
    for _ in range(150):
        n = rng.randint(2, 6)
        dead = set(rng.sample(range(n), rng.randint(0, 2)))
        for ring in (ZZ, QQ):
            blk = [[ring.zero if j in dead or rng.random() < 0.5 else ring.canon(ring.random(rng))
                    for j in range(n)] for _ in range(n)]
            assert _det_adj(ring, blk) == (cofactor_det(ring, blk), cofactor_adjugate(ring, blk))


def test_sixteen_point_rational_class_round_trip():
    pro = two_block(16)
    a = random_invertible(pro, QQ, random.Random(193))
    b = invert(a)
    assert a.mul(b) == identity(pro, QQ) == b.mul(a)
    assert any(v.denominator > 1 for v in b.entries.values())


def test_invert_round_trip_property():
    """Prosets with multi-point classes over Z, Q, Z/6 and F2: is_invertible
    agrees with the class-block determinants, and a unit's inverse is
    two-sided, while a non-unit raises NotInvertible."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rings = (ZZ, QQ, ModRing(6), PrimeField(2))

    @st.composite
    def matrices(draw):
        ring = draw(st.sampled_from(rings))
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: max(s) > 1))
        labels = [(i, j) for i, n in enumerate(sizes) for j in range(n)]
        below = {(i, k) for i in range(len(sizes)) for k in range(i + 1, len(sizes)) if draw(st.booleans())}
        pro = Proset(labels, [(a, b) for a in labels for b in labels
                              if a[0] == b[0] or (a[0], b[0]) in below])
        if draw(st.booleans()):
            return random_invertible(pro, ring, draw(st.randoms(use_true_random=False)))
        values = st.integers(-3, 3) if ring.name != "Q" else st.fractions(-3, 3, max_denominator=4)
        return IncMatrix(pro, ring, {p: ring.canon(draw(values)) for p in pro.pairs()})

    @hypothesis.settings(derandomize=True, deadline=1000, max_examples=60, database=None)
    @hypothesis.given(matrices())
    def check(a):
        ring, pro = a.ring, a.pro
        dets = [cofactor_det(ring, _class_block(a, sorted(c, key=elem_key))) for c in pro.classes()]
        unit = all(ring.is_unit(d) for d in dets)
        assert is_invertible(a) == unit
        if not unit:
            with pytest.raises(NotInvertible):
                invert(a)
            return
        b = invert(a)
        one = identity(pro, ring)
        assert a.mul(b) == one == b.mul(a)

    check()


# -- invert against the class back-substitution oracle ------------------------


def class_extension(pro):
    """Oracle helper: a linear extension of the classes, least label first
    among the classes whose predecessors are all placed."""
    classes = [tuple(sorted(c, key=elem_key)) for c in pro.classes()]
    remaining = set(range(len(classes)))
    order = []
    while remaining:
        ready = [i for i in remaining
                 if not any(j != i and pro.leq(classes[j][0], classes[i][0]) for j in remaining)]
        pick = min(ready, key=lambda i: elem_key(classes[i][0]))
        order.append(pick)
        remaining.discard(pick)
    return [classes[i] for i in order]


def backsub_inverse(matrix):
    """Oracle: invert the class blocks, then fill the blocks between classes
    c1 < c2 along a linear extension by the back-substitution

        B[c1, c2] = -B[c1, c1] * sum over c1 < c <= c2 of A[c1, c] * B[c, c2].
    """
    pro, ring = matrix.pro, matrix.ring
    ext = class_extension(pro)
    k = len(ext)

    def block(rows, cols):
        return [[matrix.entry(a, b) for b in cols] for a in rows]

    inv = {(i, i): _block_inverse(ring, block(c, c)) for i, c in enumerate(ext)}
    leq = {(i, j): pro.leq(ext[i][0], ext[j][0]) for i in range(k) for j in range(k)}
    for span in range(1, k):
        for i in range(k - span):
            j = i + span
            acc = None
            for l in range(i + 1, j + 1):
                if leq[(i, j)] and leq[(i, l)] and leq[(l, j)] and (l, j) in inv:
                    term = _mat_mul(ring, block(ext[i], ext[l]), inv[(l, j)])
                    acc = term if acc is None else [
                        [ring.add(x, y) for x, y in zip(rx, ry)] for rx, ry in zip(acc, term)
                    ]
            if acc is not None:
                neg = [[ring.neg(x) for x in row] for row in acc]
                inv[(i, j)] = _mat_mul(ring, inv[(i, i)], neg)
    entries = {}
    for (i, j), blk in inv.items():
        for a, row in zip(ext[i], blk):
            for b, v in zip(ext[j], row):
                entries[(a, b)] = v
    return IncMatrix(pro, ring, entries)


def spoil(matrix, classes, rng):
    """A non-unit: in each of `classes`, one row of the class block scaled by
    a non-unit (zero over a field), so its determinant is a non-unit too."""
    ring = matrix.ring
    k = ring.canon(NON_UNITS.get(ring.name, 0))
    entries = dict(matrix.entries)
    for c in classes:
        row = rng.choice(sorted(c, key=elem_key))
        for b in c:
            entries[(row, b)] = ring.mul(k, matrix.entry(row, b))
    return IncMatrix(matrix.pro, ring, entries)


ORACLE_RINGS = (ZZ, QQ, ModRing(9), ModRing(6), PrimeField(2), PrimeField(5))


def test_invert_matches_backsubstitution_oracle():
    """240 seeded units on prosets of up to 8 points, half of them with a
    multi-point class, and from each a non-unit with one or two singular
    class blocks."""
    rng = random.Random(131)
    multi = 0
    for ring in ORACLE_RINGS:
        for _ in range(40):
            pro = random_proset(rng.randint(1, 8), rng)
            multi += any(len(c) > 1 for c in pro.classes())
            a = random_invertible(pro, ring, rng)
            assert invert(a) == backsub_inverse(a)
            classes = pro.classes()
            spoilt = rng.sample(range(len(classes)), min(len(classes), rng.randint(1, 2)))
            bad = spoil(a, [classes[i] for i in spoilt], rng)
            with pytest.raises(NotInvertible):
                backsub_inverse(bad)
            with pytest.raises(NotInvertible) as err:
                invert(bad)
            # the message names the first singular class in classes() order
            want = tuple(sorted(classes[min(spoilt)], key=elem_key))
            assert str(err.value) == "class block %r has non-unit determinant" % (want,)
    assert multi >= 120


def test_invert_matches_oracle_on_chains_and_blocks():
    """Long chains of classes, where N needs several squarings."""
    rng = random.Random(137)
    for ring in ORACLE_RINGS:
        for sizes in [(1,) * 8, (2, 1, 2, 1, 2), (3, 3, 2), (1, 2, 1, 2, 1, 1)]:
            labels = [(i, j) for i, n in enumerate(sizes) for j in range(n)]
            rel = [(a, b) for a in labels for b in labels if a[0] <= b[0]]
            pro = Proset(labels, rel)
            a = random_invertible(pro, ring, rng)
            assert invert(a) == backsub_inverse(a)


def test_chain8_invert_takes_seven_products(monkeypatch):
    """N = D^-1 * off, then x + N x and N^2, N^2 x and N^4, N^4 x and N^8 = 0."""
    ring = PrimeField(5)
    pro = Proset(range(8), [(i, i + 1) for i in range(7)])
    a = random_invertible(pro, ring, random.Random(139))
    calls = []
    mul = IncMatrix.mul

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(IncMatrix, "mul", counted)
    b = invert(a)
    monkeypatch.undo()
    assert len(calls) <= 7
    assert a.mul(b) == identity(pro, ring) == b.mul(a)


def test_random_invertible_stream_is_unchanged():
    """Draws recorded before the same-class test became pro.leq(s2, s1):
    the matrices and the generator state after them are the same."""
    pro = Proset(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("b", "c"), ("d", "a")])
    got = random_invertible(pro, PrimeField(5), random.Random(7))
    assert repr(got) == (
        "IncMatrix{('a','a')=4, ('a','b')=4, ('a','c')=2, ('b','a')=3, ('b','b')=4, "
        "('b','c')=4, ('c','c')=1, ('d','b')=4, ('d','c')=1, ('d','d')=1}"
    )
    rng = random.Random(113)
    digest = hashlib.sha256()
    for ring in (ZZ, QQ, ModRing(9), ModRing(6), PrimeField(2), PrimeField(5)):
        for _ in range(40):
            pro = random_proset(rng.randrange(1, 8), rng)
            digest.update(repr(random_invertible(pro, ring, rng)).encode())
    digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == "055d4fde2d7aa5eeaa85b9855f986a2f4d40cb4e25510365c2f12db7639f0e44"


# -- one-pass draws and enumeration against the validated constructions -------


def reference_draw(pro, ring, rng):
    """Oracle: the dense L*D*U block products by `_mat_mul`, with every
    entry re-validated by the IncMatrix constructor, drawing in the same
    order as `random_invertible`."""
    units = [ring.canon(-1)] if ring.name == "Z" else (
        list(ring.units()) if ring.finite else [ring.canon(2)])
    if ring.one not in units:
        units.append(ring.one)
    entries = {}
    for c in pro.classes():
        rows = sorted(c, key=elem_key)
        n = len(rows)
        low = [[ring.one if i == j else (ring.random(rng) if i > j else ring.zero)
                for j in range(n)] for i in range(n)]
        up = [[ring.one if i == j else (ring.random(rng) if i < j else ring.zero)
               for j in range(n)] for i in range(n)]
        diag = [[rng.choice(units) if i == j else ring.zero for j in range(n)] for i in range(n)]
        blk = _mat_mul(ring, _mat_mul(ring, low, diag), up)
        entries.update({(a, b): v for a, row in zip(rows, blk) for b, v in zip(rows, row)})
    for s1, s2 in pro.strict_pairs():
        if not pro.leq(s2, s1):
            entries[(s1, s2)] = ring.random(rng)
    return IncMatrix(pro, ring, entries)


SMALL_PROSETS = [p for n in range(1, 5) for p in enumerate_prosets(n)]


def test_random_invertible_property():
    """Every proset of at most 4 points over F2, F3, Z/6, Z/9, Z and Q: a
    draw is a unit that certify accepts, its entries are what the validating
    constructor keeps, and it equals the dense reference draw, leaving the
    generator in the same state."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rings = (PrimeField(2), PrimeField(3), ModRing(6), ModRing(9), ZZ, QQ)

    @hypothesis.settings(derandomize=True, deadline=1000, max_examples=150, database=None)
    @hypothesis.given(st.sampled_from(SMALL_PROSETS), st.sampled_from(rings),
                      st.integers(0, 2**32 - 1))
    def check(pro, ring, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        a = random_invertible(pro, ring, rng)
        assert is_invertible(a)
        assert certify(a).matrix is a
        assert list(IncMatrix(pro, ring, a.entries).entries.items()) == list(a.entries.items())
        assert a == reference_draw(pro, ring, ref)
        assert rng.getstate() == ref.getstate()

    check()
    # every proset and ring once, besides the drawn examples
    rng = random.Random(211)
    for pro in SMALL_PROSETS:
        for ring in rings:
            a = random_invertible(pro, ring, rng)
            assert is_invertible(a) and certify(a).matrix is a


def test_enumerate_matrices_matches_validated_construction():
    """The enumeration, in order and entry for entry, against the validating
    constructor: every proset of at most 3 points over F2, and over Z/6
    each one with at most 6 order pairs (the 7- and 9-pair ones would take
    280 thousand and 10 million matrices)."""
    checked = 0
    for pro in [p for n in range(1, 4) for p in enumerate_prosets(n)]:
        pairs = pro.pairs()
        for ring in (PrimeField(2), ModRing(6)):
            if ring.n ** len(pairs) > 6**6:
                continue
            want = (IncMatrix(pro, ring, dict(zip(pairs, combo)))
                    for combo in itertools.product(ring.elements(), repeat=len(pairs)))
            count = 0
            for got, exp in itertools.zip_longest(enumerate_matrices(pro, ring), want):
                assert list(got.entries.items()) == list(exp.entries.items())
                count += 1
            assert count == ring.n ** len(pairs)
            checked += 1
    # all 13 prosets over F2; over Z/6 all but the two 7-pair ones and the 3-point class
    assert checked == 13 + 10


# (block, determinant) on the pivot search's branches, at four points and up
LARGE_PIVOT_CASES = [
    # the remaining block vanishes at the second step: rank 1
    ([[0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 0),
    ([[0] * 4 for _ in range(4)], 0),
    # a zero last pivot: rank 3
    ([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 0),
    # column swaps, row swaps and both, on a weighted permutation
    ([[0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5], [7, 0, 0, 0]], -210),
    ([[0, 0, 0, 0, 4], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [-1, 0, 0, 0, 0]], -4),
    ([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 0, 0]], 0),
]


def z6_unit_blocks_without_unit_entries(n, count, rng):
    """Blocks over Z/6 on the non-units 0, 2, 3 and 4 whose determinant
    (by the cofactor oracle) is a unit: no entry can serve as a unit pivot."""
    ring, found = ModRing(6), []
    while len(found) < count:
        blk = [[rng.choice((0, 2, 3, 4)) for _ in range(n)] for _ in range(n)]
        if ring.is_unit(cofactor_det(ring, blk)):
            found.append(blk)
    return found


def test_det_block_matches_det_adj_and_cofactors():
    for ring in (ZZ, QQ):
        for blk, d in LARGE_PIVOT_CASES:
            blk = [[ring.canon(x) for x in row] for row in blk]
            assert det_block(ring, blk) == ring.canon(d) == _det_adj(ring, blk)[0]
            assert cofactor_det(ring, blk) == ring.canon(d)
    # sparse blocks with zero rows and columns take swaps at most steps
    rng = random.Random(223)
    for _ in range(100):
        n = rng.randint(4, 7)
        dead = set(rng.sample(range(n), rng.randint(0, 2)))
        for ring in (ZZ, QQ, ModRing(6), PrimeField(5)):
            blk = [[ring.zero if j in dead or rng.random() < 0.5 else ring.canon(ring.random(rng))
                    for j in range(n)] for _ in range(n)]
            assert det_block(ring, blk) == _det_adj(ring, blk)[0] == cofactor_det(ring, blk)
    ring = ModRing(6)
    for n in (4, 5, 6):
        for blk in z6_unit_blocks_without_unit_entries(n, 5, rng):
            d = det_block(ring, blk)
            assert ring.is_unit(d) and d == _det_adj(ring, blk)[0] == cofactor_det(ring, blk)


def test_closure_caps_raise_a_typed_budget_error():
    """The caps raise SearchBudgetExceeded, which is also a ValueError."""
    ring = PrimeField(2)
    with pytest.raises(SearchBudgetExceeded) as err:
        enumerate_invertibles(two_block(2), ring, cap=5)
    assert isinstance(err.value, ValueError)
    gens = [identity(CHAIN3, ring).add(unit(CHAIN3, ring, s1, s2)) for s1, s2 in CHAIN3.strict_pairs()]
    with pytest.raises(SearchBudgetExceeded) as err:
        mulclose(gens, cap=len(mulclose(gens)) - 1)
    assert isinstance(err.value, ValueError)
