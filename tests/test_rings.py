"""Coefficient ring axioms and the unit/idempotent helpers."""

import random
from fractions import Fraction

import pytest

from incring.errors import NotInvertible
from incring.rings import ModRing, PrimeField, QQ, ZZ, _is_prime, _prime_factors

RINGS = [ZZ, QQ, ModRing(6), ModRing(8), ModRing(9), PrimeField(2), PrimeField(3), PrimeField(5)]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_axioms_random_triples(ring):
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (ring.random(rng) for _ in range(3))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_units_invert(ring):
    rng = random.Random(5)
    candidates = ring.elements() if ring.finite else [ring.random(rng) for _ in range(50)]
    for a in candidates:
        if ring.is_unit(a):
            assert ring.mul(ring.inv(a), a) == ring.one
        else:
            with pytest.raises(NotInvertible):
                ring.inv(a)


def test_unit_lists_match_predicate():
    for ring in [ModRing(6), ModRing(8), PrimeField(5)]:
        assert sorted(ring.units()) == sorted(a for a in ring.elements() if ring.is_unit(a))


def test_unit_list_is_kept_per_ring():
    """The first call lists the units in element order; later calls on the
    same ring return that tuple and test no element again.  A second ring
    of the same modulus lists its own."""
    ring = ModRing(12)
    assert ring.units() == (1, 5, 7, 11)
    ring.is_unit = None  # any further test would fail
    assert ring.units() is ring.units()
    assert ModRing(12).units() == (1, 5, 7, 11)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_boolean_part(ring):
    bp = ring.boolean_part()
    assert ring.zero in bp and ring.one in bp
    for a in bp:
        assert ring.mul(a, a) == a
        assert ring.sub(ring.one, a) in bp


def test_boolean_part_trivial_cases():
    # fields and Z have only 0 and 1; Z/6 picks up the idempotents 3 and 4
    assert set(ZZ.boolean_part()) == {0, 1}
    assert set(PrimeField(5).boolean_part()) == {0, 1}
    assert set(ModRing(6).boolean_part()) == {0, 1, 3, 4}


def test_has_unit_pair():
    # a unit u with u - 1 also a unit: impossible over F2 and Z, fine over F3+
    assert not PrimeField(2).has_unit_pair()
    assert PrimeField(3).has_unit_pair()
    assert PrimeField(5).has_unit_pair()
    assert not ZZ.has_unit_pair()
    assert QQ.has_unit_pair()
    assert ModRing(9).has_unit_pair()


def test_parse_format_round_trip():
    rng = random.Random(3)
    for ring in RINGS:
        for _ in range(40):
            a = ring.random(rng)
            assert ring.parse(ring.format(a)) == a
    assert QQ.parse("2/3") == QQ.canon(QQ.parse("2/3"))
    assert QQ.format(QQ.parse("-4/6")) == "-2/3"
    assert ModRing(6).parse("-1") == 5


def test_canon_idempotent():
    for ring in RINGS:
        rng = random.Random(7)
        for _ in range(30):
            a = ring.random(rng)
            assert ring.canon(a) == a


@pytest.mark.parametrize("ring, value, message", [
    (ZZ, 1.5, "Z carries python ints, got 1.5"),
    (QQ, 1.5, "Q carries Fractions, got 1.5"),
    (ModRing(4), 1.5, "Z/4 carries ints, got 1.5"),
    (QQ, True, "Q carries Fractions, got True"),
])
def test_canon_refuses_values_off_the_carrier(ring, value, message):
    with pytest.raises(TypeError, match="^%s$" % message):
        ring.canon(value)


def test_q_draws_are_shared_and_keep_the_stream():
    """QQ.random draws the values Fraction(randint(-9, 9), randint(1, 9))
    would, from one shared table; QQ.canon keeps a Fraction as it is."""
    rng, ref = random.Random(13), random.Random(13)
    draws = [QQ.random(rng) for _ in range(3000)]
    assert draws == [Fraction(ref.randint(-9, 9), ref.randint(1, 9)) for _ in range(3000)]
    assert len({id(a) for a in draws}) <= 19 * 9
    assert all(QQ.canon(a) is a for a in draws)


def test_infinite_rings_refuse_enumeration():
    with pytest.raises(ValueError):
        ZZ.elements()
    assert not ZZ.finite and not QQ.finite and ModRing(4).finite


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_lower_all_keeps_zeros_and_agrees_with_lower(ring):
    """lower_all reads a list of ints as lower reads a dict, zeros kept as
    the ring's own zero."""
    rng = random.Random(23)
    for _ in range(200):
        values = [ring.random(rng) for _ in range(rng.randrange(6))]
        ints, scale = ring.lift(dict(enumerate(values)))
        acc = [ints[k] * 3 for k in range(len(values))]
        got = ring.lower_all(acc, scale)
        assert got == tuple(ring.add(ring.add(v, v), v) for v in values)
        assert [type(v) for v in got] == [type(ring.zero)] * len(values)
        assert {k: v for k, v in enumerate(got) if v} == ring.lower(dict(enumerate(acc)), scale)


def test_has_unit_pair_over_z_mod_n_matches_the_scan():
    """The closed form, n odd, against trying every pair of units."""
    for n in range(2, 61):
        ring = ModRing(n)
        scan = any(ring.is_unit(ring.sub(p1, p2)) for p1 in ring.units() for p2 in ring.units())
        assert ring.has_unit_pair() == scan, n


def test_prime_factors_match_trial_division_by_every_number():
    """Ascending primes with multiplicity, against peeling off the least
    divisor found by trying every number from 2."""
    for n in range(1, 3001):
        want, rest = [], n
        while rest > 1:
            d = next(d for d in range(2, rest + 1) if rest % d == 0)
            want.append(d)
            rest //= d
        assert _prime_factors(n) == want, n


def test_is_prime_accepts_exactly_the_primes():
    primes = [p for p in range(2, 301) if all(p % d for d in range(2, p))]
    assert [p for p in range(-3, 301) if _is_prime(p)] == primes
