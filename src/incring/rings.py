"""Exact coefficient rings: Z, Q, Z/n and prime fields.

A ring object is a namespace of operations; the element values themselves are
plain python data (int for Z and Z/n, Fraction for Q), so equality of matrix
entries is just ==.  Everything is exact, there is no floating point anywhere.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import MalformedInput, NotInvertible

__all__ = [
    "CoeffRing",
    "IntegerRing",
    "RationalRing",
    "ModRing",
    "PrimeField",
    "ZZ",
    "QQ",
]


class CoeffRing:
    """Base class.  Subclasses fix a carrier and implement the arithmetic."""

    name = "?"
    finite = False

    # -- arithmetic -------------------------------------------------------

    def canon(self, a):
        """Validate and normalize a raw value into the canonical carrier."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # -- the integer kernel of IncMatrix ------------------------------------

    def lift(self, entries):
        """(ints, scale): a dict of python ints over the same keys whose
        values, divided by the int `scale`, are the entries.  Rings whose
        carrier already is python ints return the dict itself."""
        return entries, 1

    def lower(self, acc, scale):
        """Canonical nonzero entries of the int dict `acc` divided by
        `scale`: one reduction per cell, zero cells dropped."""
        raise NotImplementedError

    def lower_all(self, acc, scale):
        """Canonical values of the int list `acc` divided by `scale`, as a
        tuple with the zeros kept."""
        raise NotImplementedError

    # -- units and idempotents --------------------------------------------

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        """Multiplicative inverse; raises NotInvertible off the unit group."""
        raise NotImplementedError

    def elements(self):
        """All elements (finite rings only)."""
        raise MalformedInput("infinite ring has no element enumeration")

    def units(self):
        """The units of a finite ring, in element order, as a tuple listed on
        the first call and kept on the ring object (one gcd per element over
        Z/n), as `RationalRing._draws` keeps the values Q draws."""
        try:
            return self._units
        except AttributeError:
            self._units = tuple(a for a in self.elements() if self.is_unit(a))
            return self._units

    def boolean_part(self):
        """frozenset {a : a*a == a}.  Finite rings scan; Z and Q know theirs."""
        return frozenset(a for a in self.elements() if self.mul(a, a) == a)

    def has_unit_pair(self):
        """Whether some units p1, p2 have p1 - p2 again a unit."""
        raise NotImplementedError

    # -- conversions --------------------------------------------------------

    def parse(self, text):
        raise NotImplementedError

    def format(self, a):
        return str(a)

    def random(self, rng):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        if self is other:
            return True
        return type(self) is type(other) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash((type(self).__name__, self.name))


class IntegerRing(CoeffRing):
    """Z with arbitrary precision integers."""

    name = "Z"
    zero = 0
    one = 1

    def canon(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise TypeError("Z carries python ints, got %r" % (a,))
        return a

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def lower(self, acc, scale):
        return {k: v for k, v in acc.items() if v}

    def lower_all(self, acc, scale):
        return tuple(acc)

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%r is not a unit of Z" % (a,))
        return a

    def boolean_part(self):
        # a*a == a over a domain forces a in {0, 1}
        return frozenset((0, 1))

    def has_unit_pair(self):
        # units are {1, -1}; all differences are 0 or +-2, never units
        return False

    def parse(self, text):
        return int(text)

    def random(self, rng):
        return rng.randint(-9, 9)

    def descriptor(self):
        return {"ring": "Z"}


class RationalRing(CoeffRing):
    """Q, carried by Fraction (always lowest terms, positive denominator)."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def canon(self, a):
        if type(a) is Fraction:
            return a
        if isinstance(a, bool):
            raise TypeError("Q carries Fractions, got %r" % (a,))
        if isinstance(a, (int, Fraction)):
            return Fraction(a)
        raise TypeError("Q carries Fractions, got %r" % (a,))

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def lift(self, entries):
        """Fraction-free form: every entry times the lcm of the
        denominators."""
        # pairwise: lcm(*list) over many denominators left memory resident
        scale = 1
        for v in entries.values():
            if scale % v.denominator:
                scale = lcm(scale, v.denominator)
        return {k: v.numerator * (scale // v.denominator) for k, v in entries.items()}, scale

    def lower(self, acc, scale):
        return {k: Fraction(v, scale) for k, v in acc.items() if v}

    def lower_all(self, acc, scale):
        return tuple(Fraction(v, scale) for v in acc)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 is not a unit of Q")
        return 1 / Fraction(a)

    def boolean_part(self):
        return frozenset((Fraction(0), Fraction(1)))

    def has_unit_pair(self):
        return True  # 2 - 1 = 1

    def parse(self, text):
        return Fraction(text)

    # every value random() can draw, built once, so draws share Fractions
    _draws = tuple(tuple(Fraction(a, b) for b in range(1, 10)) for a in range(-9, 10))

    def random(self, rng):
        return self._draws[rng.randint(-9, 9) + 9][rng.randint(1, 9) - 1]

    def descriptor(self):
        return {"ring": "Q"}


class ModRing(CoeffRing):
    """Z/n with canonical representatives 0..n-1; n >= 2."""

    finite = True

    def __init__(self, n):
        if not isinstance(n, int) or n < 2:
            raise MalformedInput("modulus must be an integer >= 2")
        self.n = n
        self.name = "Z/%d" % n
        self.zero = 0
        self.one = 1 % n

    def canon(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise TypeError("%s carries ints, got %r" % (self.name, a))
        return a % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def lower(self, acc, scale):
        n = self.n
        return {k: r for k, v in acc.items() if (r := v % n)}

    def lower_all(self, acc, scale):
        return tuple(map(self.n.__rmod__, acc))

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%d is not a unit mod %d" % (a, self.n))
        return pow(a, -1, self.n)

    def elements(self):
        return range(self.n)

    def has_unit_pair(self):
        # odd n: 2 - 1 = 1.  Even n: units are odd, so differences are even
        return self.n % 2 == 1

    def parse(self, text):
        return int(text) % self.n

    def random(self, rng):
        return rng.randrange(self.n)

    def descriptor(self):
        return {"ring": {"mod": self.n}}


def _prime_factors(n):
    """The primes dividing n, ascending, each as often as it divides n."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(p):
    return p >= 2 and _prime_factors(p) == [p]


class PrimeField(ModRing):
    """F_p for prime p."""

    def __init__(self, p):
        if not _is_prime(p):
            raise MalformedInput("%r is not prime" % (p,))
        super().__init__(p)
        self.name = "F%d" % p

    def descriptor(self):
        return {"ring": {"gf": self.n}}


ZZ = IntegerRing()
QQ = RationalRing()
