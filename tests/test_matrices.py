"""Sparse incidence matrices against a dense reference implementation.

The dense multiplier below recomputes products coordinatewise from the
definition, sharing no code with the sparse routine; it is the oracle the
arithmetic is judged against.  The term-by-term routines below are the
ring-op loops the integer kernel replaced: one ring.add and ring.mul per
term, kept here as a second oracle.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from incring.errors import (
    IncompatibleOperands,
    MalformedInput,
    NotComparable,
    NotConvex,
    UnknownElement,
)
from incring.matrices import (
    CoeffIdeal,
    ConvexIdeal,
    IncMatrix,
    IntervalIdeal,
    LocallyConvexIdeal,
    SumIdeal,
    ideal_membership,
    identity,
    indicator,
    join_components,
    scalar_diag,
    unit,
    zero,
)
from incring.prosets import WINDOWS_KEPT, Proset, elem_key
from incring.rings import ModRing, PrimeField, QQ, ZZ
from incring.samples import random_matrix, random_proset

CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])


def dense_mul(a, b):
    """Reference product: full coordinate grid, interval convolution."""
    pro, ring = a.pro, a.ring
    entries = {}
    for s1 in pro.elements:
        for s2 in pro.elements:
            if not pro.leq(s1, s2):
                continue
            acc = ring.zero
            for t in pro.interval(s1, s2):
                acc = ring.add(acc, ring.mul(a.entry(s1, t), b.entry(t, s2)))
            if acc != ring.zero:
                entries[(s1, s2)] = acc
    return IncMatrix(pro, ring, entries)


def term_by_term_mul(a, b):
    """Reference product: ring ops on every term over the stored entries."""
    ring = a.ring
    rows = {}
    for (t, s2), y in b.entries.items():
        rows.setdefault(t, []).append((s2, y))
    out = {}
    for (s1, t), x in a.entries.items():
        for s2, y in rows.get(t, ()):
            out[(s1, s2)] = ring.add(out.get((s1, s2), ring.zero), ring.mul(x, y))
    return {k: v for k, v in out.items() if v != ring.zero}


def term_by_term_add(a, b):
    ring = a.ring
    out = dict(a.entries)
    for k, v in b.entries.items():
        out[k] = ring.add(out.get(k, ring.zero), v)
    return {k: v for k, v in out.items() if v != ring.zero}


KERNEL_RINGS = (ZZ, QQ, ModRing(6), ModRing(9), PrimeField(2), PrimeField(5))


def sevenths_matrix(pro, rng, density=0.7):
    """Q entries over denominators 7, 11 and 13, so that operands need an
    lcm lift and products cancel back down when reduced."""
    entries = {}
    for p in pro.pairs():
        if rng.random() < density:
            entries[p] = Fraction(rng.randint(-30, 30), rng.choice((1, 7, 11, 13, 77, 143)))
    return IncMatrix(pro, QQ, entries)


def test_kernel_matches_term_by_term_reference():
    rng = random.Random(19)
    for _ in range(40):
        pro = random_proset(rng.randrange(1, 9), rng)
        mats = [(ring, random_matrix(pro, ring, rng), random_matrix(pro, ring, rng))
                for ring in KERNEL_RINGS]
        mats.append((QQ, sevenths_matrix(pro, rng), sevenths_matrix(pro, rng)))
        for ring, a, b in mats:
            for got, want in ((a.mul(b), term_by_term_mul(a, b)),
                              (a.add(b), term_by_term_add(a, b)),
                              (b.mul(a), term_by_term_mul(b, a))):
                assert got.entries == want
                assert all(v != ring.zero for v in got.entries.values())
                assert all(type(v) is type(ring.one) for v in got.entries.values())


def test_kernel_reduces_cancelling_cells_to_nothing():
    pro = Proset([0, 1, 2], [(0, 1), (1, 2)])
    a = IncMatrix(pro, QQ, {(0, 1): Fraction(1, 7), (0, 2): Fraction(-1, 143)})
    b = IncMatrix(pro, QQ, {(1, 2): Fraction(7, 143), (2, 2): 1})
    assert a.mul(b).entries == {}
    assert a.add(a.neg()).entries == {}
    z6 = ModRing(6)
    even = IncMatrix(pro, z6, {(0, 0): 2, (0, 1): 4})
    three = IncMatrix(pro, z6, {(0, 0): 3, (1, 1): 3})
    assert even.mul(three).entries == {}
    assert even.add(even).add(even).entries == {}


def test_equal_but_distinct_operands_still_combine():
    rng = random.Random(29)
    pro = random_proset(6, rng)
    twin = Proset(pro.elements, pro.pairs())
    assert twin == pro and twin is not pro
    a = random_matrix(pro, PrimeField(5), rng)
    b = random_matrix(twin, PrimeField(5), rng)
    b_here = IncMatrix(pro, PrimeField(5), b.entries)
    assert a.mul(b) == a.mul(b_here)
    assert a.add(b) == a.add(b_here)
    with pytest.raises(IncompatibleOperands):
        a.mul(IncMatrix(pro, ModRing(5), b.entries))
    with pytest.raises(IncompatibleOperands):
        IncMatrix(pro, ModRing(5), a.entries).add(b)


def test_proset_structure_is_computed_once():
    pro = random_proset(7, random.Random(37))
    assert pro.pairs() is pro.pairs()
    assert pro.classes() is pro.classes()
    assert pro.opposite() is pro.opposite()
    assert pro.opposite().opposite() is pro
    a = random_matrix(pro, ModRing(6), random.Random(37))
    assert a.transpose().transpose() == a
    assert a.transpose().transpose().pro is pro


def test_mul_matches_dense_reference():
    rng = random.Random(17)
    for _ in range(60):
        pro = random_proset(rng.randrange(1, 8), rng)
        ring = rng.choice([ZZ, QQ, ModRing(6), PrimeField(5)])
        a = random_matrix(pro, ring, rng)
        b = random_matrix(pro, ring, rng)
        assert a.mul(b) == dense_mul(a, b)


def test_support_stays_on_order_pairs():
    rng = random.Random(23)
    for _ in range(40):
        pro = random_proset(rng.randrange(1, 7), rng)
        a = random_matrix(pro, ModRing(9), rng)
        b = random_matrix(pro, ModRing(9), rng)
        for m in (a, b, a.mul(b), a.add(b), a.sub(b)):
            for (s1, s2), v in m.entries.items():
                assert pro.leq(s1, s2)
                assert v != m.ring.zero  # zero elision is canonical


def test_entry_off_order_is_zero():
    a = unit(CHAIN3, ZZ, 0, 2)
    assert a.entry(2, 0) == 0
    assert a.entry(0, 2) == 1
    with pytest.raises(NotComparable):
        IncMatrix(CHAIN3, ZZ, {(2, 0): 1})


def test_unknown_elements_raise_typed_error():
    for pair in ((9, 0), (0, 9), (9, 9)):
        with pytest.raises(UnknownElement):
            IncMatrix(CHAIN3, ZZ, {pair: 1})
        with pytest.raises(UnknownElement):
            unit(CHAIN3, ZZ, *pair)
    with pytest.raises(NotComparable):
        unit(CHAIN3, ZZ, 2, 0)


def test_zero_entry_under_an_unknown_label_is_typed():
    """A zero entry is checked before it is dropped: under a label outside
    the proset it raises as a nonzero one does; at an off-order pair of
    known labels it is still the zero entry it always was."""
    for pro in (Proset([0]), CHAIN3):
        with pytest.raises(UnknownElement, match="^9 is not an element of the proset$"):
            IncMatrix(pro, ZZ, {(9, 9): 0})
    assert IncMatrix(CHAIN3, ZZ, {(2, 0): 0, (0, 2): 0}) == zero(CHAIN3, ZZ)


def test_add_neg_scalar():
    rng = random.Random(31)
    for _ in range(30):
        pro = random_proset(rng.randrange(1, 7), rng)
        a = random_matrix(pro, QQ, rng)
        b = random_matrix(pro, QQ, rng)
        assert a.add(b) == b.add(a)
        assert a.add(a.neg()) == zero(pro, QQ)
        assert a.sub(b) == a.add(b.neg())
        p = QQ.random(rng)
        assert a.scalar_mul(p) == scalar_diag(pro, QQ, p).mul(a)


def test_identity_and_indicator():
    assert identity(CHAIN3, ZZ) == indicator(CHAIN3, ZZ, CHAIN3.elements)
    assert unit(CHAIN3, ZZ, 1, 1) == indicator(CHAIN3, ZZ, [1])
    assert scalar_diag(CHAIN3, ZZ, 0) == zero(CHAIN3, ZZ)
    a = random_matrix(CHAIN3, ZZ, random.Random(1))
    e = identity(CHAIN3, ZZ)
    assert e.mul(a) == a and a.mul(e) == a


def test_power():
    n = unit(CHAIN3, ZZ, 0, 1).add(unit(CHAIN3, ZZ, 1, 2))
    assert n.power(2) == unit(CHAIN3, ZZ, 0, 2)
    assert n.power(3) == zero(CHAIN3, ZZ)
    assert n.power(0) == identity(CHAIN3, ZZ)


def test_transpose_antihomomorphism():
    rng = random.Random(41)
    for _ in range(25):
        pro = random_proset(rng.randrange(1, 6), rng)
        a = random_matrix(pro, ModRing(6), rng)
        b = random_matrix(pro, ModRing(6), rng)
        left = a.mul(b).transpose()
        right = b.transpose().mul(a.transpose())
        assert left == right
        assert left.pro == pro.opposite()


def test_mismatched_operands():
    other = Proset([0, 1, 2], [(0, 1)])
    a = identity(CHAIN3, ZZ)
    b = identity(other, ZZ)
    with pytest.raises(IncompatibleOperands):
        a.mul(b)
    with pytest.raises(IncompatibleOperands):
        a.add(identity(CHAIN3, QQ))


def test_project_is_restriction():
    rng = random.Random(3)
    a = random_matrix(CHAIN3, ZZ, rng)
    p = a.project([0, 1])
    assert p.entry(0, 1) == a.entry(0, 1)
    assert set(p.pro.elements) == {0, 1}
    with pytest.raises(NotConvex):
        a.project([0, 2])


def test_projection_windows_are_kept_once_verified():
    for seed in range(8):
        rng = random.Random(70 + seed)
        pro = random_proset(rng.randint(4, 8), rng)
        ring = rng.choice(KERNEL_RINGS)
        a = random_matrix(pro, ring, rng)
        convex = pro.gamma_enumerate()
        wins = rng.sample(convex, min(6, len(convex)))
        for win in wins:
            # a plain IncMatrix over a fresh restriction, with no cache involved
            kept = {k: v for k, v in a.entries.items() if k[0] in win and k[1] in win}
            expected = IncMatrix(pro.restrict(win), ring, kept)
            first = a.project(win)
            assert first == expected
            ordered = sorted(win, key=elem_key)
            for again in (ordered, ordered[::-1]):
                m = a.project(again)
                assert m == expected and m.pro is first.pro
            # another matrix over the same proset lands on the same subproset
            assert random_matrix(pro, ring, rng).project(win).pro is first.pro
        assert set(pro._windows) == set(wins)
        # a window that fails the test is refused on every call and never kept
        bad = [c for k in (2, 3) for c in combinations(pro.elements, k) if not pro.is_convex(c)]
        if bad:
            window = rng.choice(bad)
            for _ in range(3):
                with pytest.raises(NotConvex):
                    a.project(window)
            assert frozenset(window) not in pro._windows
    chain3 = Proset([0, 1, 2], [(0, 1), (1, 2)])
    a = identity(chain3, ZZ)
    for _ in range(3):
        with pytest.raises(NotConvex, match=r"projection window \[0, 2\] is not convex"):
            a.project([2, 0])
        with pytest.raises(UnknownElement, match="9 is not an element of the proset"):
            a.project([0, 9])
    assert not chain3._windows
    # the kept windows never outnumber the cap; the oldest go first
    n = WINDOWS_KEPT + 10
    chain = Proset(range(n + 1), [(i, i + 1) for i in range(n)])
    a = identity(chain, ZZ)
    for i in range(n):
        a.project([i, i + 1])
        assert len(chain._windows) == min(i + 1, WINDOWS_KEPT)
    assert frozenset([n - 1, n]) in chain._windows
    assert frozenset([0, 1]) not in chain._windows


def test_split_join_round_trip():
    pro = Proset([0, 1, "a", "b"], [(0, 1), ("a", "b")])
    rng = random.Random(12)
    for _ in range(200):
        m = random_matrix(pro, ModRing(6), rng)
        pieces = m.split_components()
        assert len(pieces) == 2
        assert join_components(pieces, pro, ModRing(6)) == m
    e = identity(pro, ModRing(6))
    for piece in e.split_components():
        assert piece == identity(piece.pro, ModRing(6))


def test_split_components_is_ring_iso():
    pro = Proset([0, 1, "a", "b"], [(0, 1), ("a", "b")])
    rng = random.Random(13)
    for _ in range(50):
        x = random_matrix(pro, ZZ, rng)
        y = random_matrix(pro, ZZ, rng)
        xs, ys = x.split_components(), y.split_components()
        prod = [p.mul(q) for p, q in zip(xs, ys)]
        assert join_components(prod, pro, ZZ) == x.mul(y)


# -- ideals ----------------------------------------------------------------------


def test_interval_ideal():
    chain5 = Proset(range(5), [(i, i + 1) for i in range(4)])
    a = unit(chain5, ZZ, 3, 4)
    assert ideal_membership(a, IntervalIdeal(0, 2))
    assert not ideal_membership(unit(chain5, ZZ, 0, 1), IntervalIdeal(0, 2))
    assert ideal_membership(zero(chain5, ZZ), IntervalIdeal(0, 2))


def test_convex_ideal_is_projection_kernel():
    chain5 = Proset(range(5), [(i, i + 1) for i in range(4)])
    rng = random.Random(6)
    window = [0, 1, 2]
    for _ in range(100):
        a = random_matrix(chain5, ModRing(8), rng)
        in_kernel = a.project(window).is_zero()
        assert in_kernel == ideal_membership(a, ConvexIdeal(window))


def test_ideal_absorbs_products():
    chain5 = Proset(range(5), [(i, i + 1) for i in range(4)])
    rng = random.Random(8)
    ideal = ConvexIdeal([1, 2])
    for _ in range(60):
        a = random_matrix(chain5, ZZ, rng)
        if not ideal_membership(a, ideal):
            continue
        b = random_matrix(chain5, ZZ, rng)
        assert ideal_membership(a.mul(b), ideal)
        assert ideal_membership(b.mul(a), ideal)


def test_coeff_and_sum_ideals():
    even = CoeffIdeal(lambda v: v % 2 == 0)
    a = scalar_diag(CHAIN3, ZZ, 2)
    assert ideal_membership(a, even)
    assert not ideal_membership(identity(CHAIN3, ZZ), even)
    both = SumIdeal([even, ConvexIdeal([0, 1])])
    # entry 3 at (1,2) lies outside the [0,1] block, so the sum absorbs it
    mixed = scalar_diag(CHAIN3, ZZ, 2).add(unit(CHAIN3, ZZ, 1, 2, 3))
    assert ideal_membership(mixed, both)
    inside = scalar_diag(CHAIN3, ZZ, 2).add(unit(CHAIN3, ZZ, 0, 1, 3))
    assert not ideal_membership(inside, both)


def test_locally_convex_ideal():
    # collection members must be pairwise incomparable, so use two parts of
    # a disjoint union plus an untouched spectator chain
    pro = Proset([0, 1, "a", "b", "z"], [(0, 1), ("a", "b")])
    ideal = LocallyConvexIdeal([[0, 1], ["a", "b"]])
    assert ideal_membership(unit(pro, ZZ, "z", "z"), ideal)
    assert not ideal_membership(unit(pro, ZZ, 0, 1), ideal)
    assert not ideal_membership(unit(pro, ZZ, "a", "b"), ideal)


def test_identity_in_no_proper_ideal():
    e = identity(CHAIN3, ZZ)
    assert not ideal_membership(e, ConvexIdeal([0, 1]))
    assert not ideal_membership(e, IntervalIdeal(0, 2))
    assert not ideal_membership(e, CoeffIdeal(lambda v: v % 2 == 0))


def test_empty_sum_is_the_zero_ideal():
    assert ideal_membership(zero(CHAIN3, ZZ), SumIdeal([]))
    assert not ideal_membership(unit(CHAIN3, ZZ, 1, 2), SumIdeal([]))
    assert not ideal_membership(identity(CHAIN3, ZZ), SumIdeal([]))


def test_two_coefficient_ideals_in_one_sum_are_malformed_input():
    even = CoeffIdeal(lambda v: v % 2 == 0)
    both = SumIdeal([even, ConvexIdeal([0]), CoeffIdeal(lambda v: v % 3 == 0)])
    with pytest.raises(MalformedInput, match="at most one coefficient ideal per sum"):
        ideal_membership(zero(CHAIN3, ZZ), both)
    with pytest.raises(ValueError):
        ideal_membership(zero(CHAIN3, ZZ), SumIdeal([even, even]))


def test_indicator_of_an_unknown_label_is_typed():
    with pytest.raises(UnknownElement, match="9 is not an element of the proset"):
        indicator(CHAIN3, ZZ, [0, 9])


def test_vanishing_ideals_refuse_bad_regions():
    pro = Proset([0, 1, 2, "a"], [(0, 1), (1, 2)])
    m = zero(pro, ZZ)
    with pytest.raises(NotComparable, match=r"\[2, 0\] is empty"):
        ideal_membership(m, IntervalIdeal(2, 0))
    with pytest.raises(NotConvex, match="ideal subset is not convex"):
        ideal_membership(m, ConvexIdeal([0, 2]))
    with pytest.raises(NotConvex, match="collection member is not convex"):
        ideal_membership(m, LocallyConvexIdeal([[0, 2], ["a"]]))
    with pytest.raises(NotConvex, match="collection members overlap"):
        ideal_membership(m, LocallyConvexIdeal([[0, 1], [1, 2]]))
    with pytest.raises(NotConvex, match="collection members are comparable"):
        ideal_membership(m, LocallyConvexIdeal([[0], [2]]))
    assert ideal_membership(m, LocallyConvexIdeal([[0, 1], ["a"]]))


def test_interval_ideal_names_an_unknown_end_before_emptiness():
    """An interval with an end outside the proset is an unknown label, as in
    ConvexIdeal; a reversed interval of known ends is still empty."""
    pro = Proset([0, 1], [(0, 1)])
    m = zero(pro, ZZ)
    with pytest.raises(UnknownElement, match="9 is not an element of the proset"):
        ideal_membership(m, IntervalIdeal(0, 9))
    with pytest.raises(NotComparable) as err:
        ideal_membership(m, IntervalIdeal(1, 0))
    assert str(err.value) == "[1, 0] is empty"
