"""Lazy matrices over infinite prosets: windows, finitary arithmetic, aGL."""

import random
import re

import pytest

from incring.errors import (
    IncompatibleOperands,
    MalformedInput,
    NotConvex,
    NotInvertible,
    UnknownElement,
)
from incring.glgroup import invert
from incring.lazy import (
    AglElement,
    LazyMatrix,
    agl_embed,
    agl_identity,
    agl_invert,
    agl_mul,
    lazy_finitary,
    lazy_from_oracle,
    lazy_identity,
    lazy_invert,
    lazy_mul,
    named_oracle,
    qz_window_check,
)
from incring.matrices import IncMatrix, identity
from incring.prosets import (
    WINDOWS_KEPT,
    AugmentedFamily,
    NFamily,
    NStarDivFamily,
    ZFamily,
    ZigFamily,
    two_block,
)
from incring.rings import ModRing, PrimeField, QQ, ZZ
from incring.samples import random_finitary

AUG = AugmentedFamily(NFamily(), [{3, 4}])
FAMILIES = [NFamily(), ZigFamily(), NStarDivFamily(), AUG]


def test_entry_and_project():
    fam = NFamily()
    a = lazy_finitary(fam, ZZ, off_diag={(0, 2): 5}, exceptions={1: 7})
    assert a.entry(0, 2) == 5
    assert a.entry(1, 1) == 7
    assert a.entry(4, 4) == 1
    assert a.entry(0, 1) == 0
    m = a.project([0, 1, 2])
    assert m.entry(0, 2) == 5 and m.entry(2, 2) == 1
    with pytest.raises(NotConvex):
        a.project([0, 2])


@pytest.mark.parametrize("family, off, exc", [
    (NFamily(), {(-2, -1): 1}, {}),
    (ZFamily(), {((0,), 1): 1}, {}),
    (NStarDivFamily(), {}, {0: 2}),
    (two_block(2, 1), {}, {"x": 2}),
])
def test_finitary_sites_must_lie_in_the_family(family, off, exc):
    with pytest.raises(UnknownElement, match="is not an element of"):
        lazy_finitary(family, QQ, off_diag=off, exceptions=exc)


def test_window_tower_is_compatible():
    """Projecting to a big window then down to a small one is the same as
    projecting straight to the small one, and projection respects products."""
    rng = random.Random(73)
    for fam in FAMILIES:
        ring = ModRing(6)
        for _ in range(20):
            a = random_finitary(fam, ring, rng, invertible=False)
            b = random_finitary(fam, ring, rng, invertible=False)
            windows = [fam.window(k) for k in range(1, 6)]
            prod = lazy_mul(a, b)
            for small, big in zip(windows, windows[1:]):
                via_big = prod.project(big).project(small)
                assert via_big == prod.project(small)
                assert prod.project(small) == a.project(small).mul(b.project(small))


def test_finitary_product_support_bound():
    rng = random.Random(79)
    fam = ZigFamily()
    for _ in range(30):
        a = random_finitary(fam, PrimeField(5), rng, invertible=False)
        b = random_finitary(fam, PrimeField(5), rng, invertible=False)
        prod = lazy_mul(a, b)
        assert prod.finitary is not None
        assert prod.support_sites() <= a.support_sites() | b.support_sites()


def test_lazy_identity_multiplies_trivially():
    fam = NFamily()
    e = lazy_identity(fam, QQ)
    a = lazy_finitary(fam, QQ, off_diag={(1, 3): QQ.parse("2/3")})
    for x, y in [(e, a), (a, e)]:
        prod = lazy_mul(x, y)
        assert prod.finitary == a.finitary


def test_finitary_inverse():
    fam = ZigFamily()
    ring = PrimeField(5)
    a = lazy_finitary(fam, ring, off_diag={(2, 3): 4, (0, 1): 2}, exceptions={0: 2})
    b = lazy_invert(a)
    assert b.finitary is not None
    prod = lazy_mul(a, b)
    off, exc, default = prod.finitary
    assert not off and not exc and default == ring.one
    # spot-check far outside the support
    assert b.entry(100, 100) == 1
    assert b.entry(0, 0) == 3  # 2 * 3 = 1 mod 5


def test_finitary_inverse_random_round_trip():
    """Unit diagonals make every draw a unit except over AUG, where the
    two-point class {3, 4} can have a singular block (3 of these 40 draws)."""
    rng = random.Random(83)
    ring = PrimeField(5)
    singular = 0
    for fam in FAMILIES:
        for _ in range(40):
            a = random_finitary(fam, ring, rng, invertible=True)
            if fam is AUG:
                det = a.entry(3, 3) * a.entry(4, 4) - a.entry(3, 4) * a.entry(4, 3)
                if det % 5 == 0:
                    singular += 1
                    with pytest.raises(NotInvertible, match=r"class block \(3, 4\)"):
                        lazy_invert(a)
                    continue
            b = lazy_invert(a)
            prod = lazy_mul(a, b)
            off, exc, default = prod.finitary
            assert not off and not exc and default == ring.one
    assert 0 < singular < 40


@pytest.mark.parametrize("family, ring, x, y", [
    (AUG, PrimeField(2), 3, 4),
    (two_block(2), PrimeField(3), "t0", "t1"),
])
def test_class_swap_inverse_keeps_zero_diagonal(family, ring, x, y):
    """The swap of a two-point class is its own inverse; its zero diagonal
    must be read back, not left to the default."""
    a = lazy_finitary(family, ring, off_diag={(x, y): 1, (y, x): 1}, exceptions={x: 0, y: 0})
    b = lazy_invert(a)
    assert b.finitary == ({(x, y): 1, (y, x): 1}, {x: 0, y: 0}, 1)
    off, exc, default = lazy_mul(a, b).finitary
    assert not off and not exc and default == ring.one


def test_nonunit_default_not_invertible():
    fam = NFamily()
    a = lazy_finitary(fam, ZZ, off_diag={(0, 1): 1}, default=2)
    with pytest.raises(NotInvertible):
        lazy_invert(a)


def test_oracle_inverse_matches_finitary_route():
    """Inverting an oracle through its window block must agree with the
    closed-form finitary inverse."""
    rng = random.Random(89)
    fam = ZigFamily()
    ring = PrimeField(5)
    for _ in range(10):
        a = random_finitary(fam, ring, rng, invertible=True)
        closed = lazy_invert(a)
        oracle_view = lazy_from_oracle(fam, ring, a.entry)
        slow = lazy_invert(oracle_view)
        win = fam.window(4)
        assert slow.project(win) == closed.project(win)


def test_oracle_inverse_coordinates_stabilize():
    """Coordinates of the inverse computed on growing windows stop changing
    once the window swallows the support."""
    fam = NFamily()
    ring = QQ
    a = lazy_finitary(fam, ring, off_diag={(0, 1): 3, (1, 2): 2})
    inv = lazy_invert(lazy_from_oracle(fam, ring, a.entry))
    vals = []
    for k in range(3, 7):
        win = fam.window(k)
        vals.append(inv.project(win).entry(0, 2))
    assert len(set(vals)) == 1
    assert vals[0] == 6  # (-3)(-2) from back substitution


def test_named_oracle_upper_ones():
    fam = NFamily()
    lz = named_oracle("upper_ones", fam, ZZ)
    win = fam.window(3)
    m = lz.project(win)
    for (a, b) in m.pro.pairs():
        assert m.entry(a, b) == 1


def test_lazy_matrix_needs_an_oracle_or_a_descriptor():
    with pytest.raises(MalformedInput, match="need an oracle or a finitary descriptor"):
        LazyMatrix(NFamily(), QQ)


# -- oracle products and inverses through blocks -------------------------------------
# The per-coordinate route they replaced, kept as a reference: a product
# convolves over the interval [s1, s2] for every coordinate, and an inverse
# inverts the whole interval block for every coordinate.


def ref_mul(a, b):
    fam, ring = a.family, a.ring

    def coord(s1, s2):
        acc = ring.zero
        for t in fam.interval(s1, s2):
            acc = ring.add(acc, ring.mul(a.entry(s1, t), b.entry(t, s2)))
        return acc

    return lazy_from_oracle(fam, ring, coord)


def ref_invert(a):
    fam, ring = a.family, a.ring

    def coord(s1, s2):
        box = fam.restrict(fam.interval(s1, s2))
        return invert(IncMatrix(box, ring, {p: a.entry(*p) for p in box.pairs()})).entry(s1, s2)

    return lazy_from_oracle(fam, ring, coord)


def table_oracle(fam, ring, window, rng):
    """An oracle reading a seeded table on the window's order pairs, with
    units on the diagonal; the order it is read in does not matter."""
    units = ring.units()
    vals = {(s1, s2): rng.choice(units) if s1 == s2 else ring.random(rng)
            for s1, s2 in fam.restrict(window).pairs()}
    return lazy_from_oracle(fam, ring, lambda s1, s2: vals[(s1, s2)])


def outcome(read):
    """A value, or the type and message of the NotInvertible it raised."""
    try:
        return read()
    except NotInvertible as exc:
        return ("NotInvertible", str(exc))


@pytest.mark.parametrize("fam, k", [
    (ZFamily(), 3), (ZigFamily(), 3), (NStarDivFamily(), 4), (AUG, 5),
], ids=["Z", "Zig", "NStarDiv", "augmented"])
def test_oracle_results_match_the_per_coordinate_route(fam, k):
    """project(W) and every single entry of oracle products, inverses and a
    nested product, against the reference route; singular draws (the {3, 4}
    class of the augmented family) must fail with the same message."""
    rng = random.Random(107)
    ring = PrimeField(3)
    win = fam.window(k)
    pairs = fam.restrict(win).pairs()
    singular = 0
    for _ in range(5):
        a, b = table_oracle(fam, ring, win, rng), table_oracle(fam, ring, win, rng)
        f = random_finitary(fam, ring, rng, span=2)
        for new, ref in [
            (lazy_mul(a, b), ref_mul(a, b)),
            (lazy_invert(a), ref_invert(a)),
            (lazy_mul(a, lazy_invert(b)), ref_mul(a, ref_invert(b))),
            (lazy_mul(lazy_invert(b), f), ref_mul(ref_invert(b), f)),
        ]:
            want = outcome(lambda: ref.project(win))
            singular += isinstance(want, tuple)
            assert outcome(lambda: new.project(win)) == want
            for s1, s2 in pairs:
                got = outcome(lambda: new.entry(s1, s2))
                assert got == outcome(lambda: ref.entry(s1, s2))
    assert (singular > 0) == (fam is AUG)


def moebius(n):
    """mu(n) by trial division."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def test_zeta_inverse_is_the_moebius_function():
    """Rota 1964; Stanley, EC1 section 3.7: on divisibility the inverse of
    zeta has entry (m, n) = mu(n/m); on Z it is 1 on the diagonal, -1 on
    (s, s + 1) and 0 elsewhere.  Read through project and single entries."""
    f7 = PrimeField(7)
    fam = NStarDivFamily()
    mu = lazy_invert(named_oracle("upper_ones", fam, f7))
    assert [mu.entry(1, n) for n in range(1, 13)] == [1, 6, 6, 0, 6, 1, 6, 0, 0, 1, 6, 0]
    m = mu.project(fam.window(4))
    for a, b in m.pro.pairs():
        assert m.entry(a, b) == mu.entry(a, b) == f7.canon(moebius(b // a))
    fam = ZFamily()
    inv = lazy_invert(named_oracle("upper_ones", fam, QQ))
    m = inv.project(fam.window(5))
    for a, b in m.pro.pairs():
        want = 1 if a == b else -1 if b == a + 1 else 0
        assert m.entry(a, b) == inv.entry(a, b) == want


def test_singular_oracle_names_its_first_singular_class():
    """An inverse fails on a block only when a class in it is singular, and
    names the first such class, as the per-coordinate route did."""
    fam = ZFamily()
    a = lazy_from_oracle(fam, QQ, lambda s1, s2: 0 if s1 == s2 and s1 in (2, -1) else 1)
    inv = lazy_invert(a)
    assert inv.entry(0, 1) == -1  # [0, 1] holds no singular class
    aug = lazy_from_oracle(AUG, PrimeField(2), lambda s1, s2: 1)
    cases = [
        (lambda: inv.project(fam.window(3)), "(-1,)"),
        (lambda: inv.project([0, 1, 2, 3]), "(2,)"),
        (lambda: inv.entry(0, 3), "(2,)"),
        (lambda: lazy_mul(a, inv).project(fam.window(3)), "(-1,)"),
        (lambda: lazy_invert(aug).project(AUG.window(5)), "(3, 4)"),
        (lambda: lazy_invert(aug).entry(2, 4), "(3, 4)"),
    ]
    for read, cls in cases:
        message = "class block %s has non-unit determinant" % cls
        with pytest.raises(NotInvertible, match="^%s$" % re.escape(message)):
            read()
    for read in (lambda: ref_invert(a).project(fam.window(3)),
                 lambda: ref_mul(a, ref_invert(a)).project(fam.window(3))):
        with pytest.raises(NotInvertible, match=re.escape("class block (-1,)")):
            read()


# -- the direct limit over augmentations ------------------------------------------


def test_agl_identity_and_embedding():
    fam = ZigFamily()
    ring = PrimeField(3)
    e = agl_identity(fam, ring)
    bigger = agl_embed(e, frozenset([0, 3]))
    assert bigger.entry(0, 0) == ring.one
    # 2 <= 3 ~ 0 in the augmented order, so (2, 0) is now an order pair
    assert bigger.entry(2, 0) == ring.zero
    with pytest.raises(IncompatibleOperands):
        agl_embed(bigger, frozenset())  # cannot shrink the augmentation


def test_agl_mul_joins_augmentations():
    fam = ZigFamily()
    ring = PrimeField(3)
    s1 = frozenset([0, 3])
    s2 = frozenset([-2, 1])
    e = agl_identity(fam, ring)
    g = agl_embed(e, s1)
    h = agl_embed(e, s2)
    prod = agl_mul(g, h)
    assert prod.aug_set == s1 | s2
    assert prod.entry(5, 5) == ring.one


def test_agl_embedding_commutes_with_products():
    rng = random.Random(97)
    fam = ZigFamily()
    ring = PrimeField(3)
    aug = frozenset([0, 3])
    for _ in range(10):
        a = random_finitary(fam, ring, rng, invertible=True)
        b = random_finitary(fam, ring, rng, invertible=True)
        g = AglElement(fam, ring, frozenset(), a)
        h = AglElement(fam, ring, frozenset(), b)
        small = agl_mul(g, h)
        big = agl_mul(agl_embed(g, aug), agl_embed(h, aug))
        lifted = agl_embed(small, aug)
        win = lifted.augmented_family().window(3)
        assert big.project(win) == lifted.project(win)


def test_agl_invert():
    rng = random.Random(101)
    fam = ZigFamily()
    ring = PrimeField(3)
    a = random_finitary(fam, ring, rng, invertible=True)
    g = AglElement(fam, ring, frozenset([0, 3]),
                   random_finitary(ZigFamily(), ring, rng, invertible=True))
    ginv = agl_invert(g)
    prod = agl_mul(g, ginv)
    win = prod.augmented_family().window(3)
    assert prod.project(win) == identity(prod.augmented_family().restrict(win), ring)


# -- window density of the compactly supported subgroup ----------------------------


def test_qz_window_check_zig():
    fam = ZigFamily()
    report = qz_window_check(fam, PrimeField(2), fam.window(4), fam.window(1))
    assert report["surjective"]
    assert report["gl_inner_order"] == 4


def test_qz_windows_are_kept_windows():
    fam = ZigFamily()
    outer, inner = fam.window(4), fam.window(1)
    qz_window_check(fam, PrimeField(2), outer, inner)
    # the inner window is kept by the outer one's subproset, which the
    # generators and the projected lifts share
    assert frozenset(inner) in fam._windows[frozenset(outer)]._windows
    with pytest.raises(NotConvex, match=r"projection window \[-1, 0, 1, 3\] is not convex"):
        qz_window_check(fam, PrimeField(2), [-1, 0, 1, 3], [0])
    with pytest.raises(NotConvex, match=r"projection window \[-1, 1\] is not convex"):
        qz_window_check(fam, PrimeField(2), outer, [-1, 1])


def test_qz_rejects_leaky_inner():
    fam = NFamily()
    with pytest.raises(Exception):
        qz_window_check(fam, PrimeField(2), fam.window(4), fam.window(1))


def test_projection_windows_are_kept_once_verified():
    rng = random.Random(21)
    cases = [
        (fam, random_finitary(fam, ring, rng, span=2, invertible=False), fam.windows(3))
        for fam, ring in ((ZigFamily(), PrimeField(5)), (NStarDivFamily(), ModRing(4)),
                          (AugmentedFamily(ZFamily(), [{-1, 1}]), QQ))
    ]
    tb = two_block(2, 2)
    cases.append((tb, lazy_finitary(tb, ZZ, off_diag={("b0", "t1"): 3}, exceptions={"t0": 2}),
                  [tb.elements, ("t0", "t1")]))
    for fam, a, wins in cases:
        ring = a.ring
        for win in wins:
            # a plain IncMatrix over a fresh restriction, with no cache involved
            sub = fam.restrict(win)
            entries = {(x, y): a.entry(x, y) for (x, y) in sub.pairs()}
            expected = IncMatrix(sub, ring, entries)
            first = a.project(win)
            assert first == expected
            for again in (list(win), list(reversed(win))):
                m = a.project(again)
                assert m == expected and m.pro is first.pro
        assert set(fam._windows) == {frozenset(w) for w in wins}
    # a window that fails the test is refused on every call and never kept
    fam = ZigFamily()
    a = lazy_identity(fam, ZZ)
    for _ in range(3):
        with pytest.raises(NotConvex):
            a.project([-1, 1])
    assert not fam._windows
    # the kept windows never outnumber the cap; the oldest go first
    fam = ZFamily()
    a = lazy_identity(fam, ZZ)
    for i in range(WINDOWS_KEPT + 10):
        a.project([i, i + 1])
        assert len(fam._windows) == min(i + 1, WINDOWS_KEPT)
    assert frozenset([WINDOWS_KEPT + 9, WINDOWS_KEPT + 10]) in fam._windows
    assert frozenset([0, 1]) not in fam._windows
