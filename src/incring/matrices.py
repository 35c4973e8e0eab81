"""Sparse matrices supported on the order relation of a finite proset.

Entries live in a CoeffRing; only nonzero entries are stored, and the support
invariant (a key (s1, s2) implies s1 <= s2) is enforced at construction.  With
that invariant, multiplying stored entries of A against stored entries of B
realizes the interval convolution

    (A*B)[s1, s2] = sum over t in [s1, s2] of A[s1, t] * B[t, s2]

exactly: transitivity makes the interval membership test implicit.

`mul` and `add` run one integer kernel for every ring.  The ring lifts each
operand to python ints (`CoeffRing.lift`): Z and Z/n entries already are
ints, and a Q matrix is scaled by the lcm of its denominators, the
fraction-free idea of Bareiss.  The kernel sums plain int products per output
cell, and the ring reduces each cell once (`CoeffRing.lower`): `% n` over
Z/n, nothing over Z, one `Fraction(v, scale)` over Q.  A product costs one
int multiply-add per term (s1, t, s2) with both factors stored, plus one
reduction per nonzero output cell; over Q it adds one lcm and one multiply
per stored operand entry, instead of a Fraction normalisation per term.
"""

from math import lcm

from .errors import IncompatibleOperands, MalformedInput, NotComparable, NotConvex
from .prosets import elem_key

__all__ = [
    "IncMatrix",
    "zero",
    "identity",
    "scalar_diag",
    "indicator",
    "unit",
    "IntervalIdeal",
    "ConvexIdeal",
    "LocallyConvexIdeal",
    "CoeffIdeal",
    "SumIdeal",
    "ideal_membership",
    "join_components",
    "region_pairs",
]


class IncMatrix:
    __slots__ = ("pro", "ring", "entries")

    def __init__(self, pro, ring, entries):
        self.pro = pro
        self.ring = ring
        clean = {}
        for k, v in entries.items():
            v = ring.canon(v)
            s1, s2 = k
            if not pro.leq(s1, s2):  # on zeros too: it refuses an unknown label
                if v != ring.zero:
                    raise NotComparable("entry at (%r, %r) is off the order" % k)
            elif v != ring.zero:
                clean[k] = v
        self.entries = clean

    # -- access -----------------------------------------------------------

    def entry(self, s1, s2):
        v = self.entries.get((s1, s2))
        if v is None:
            self.pro.leq(s1, s2)  # refuses a label outside the proset
            return self.ring.zero
        return v

    def diagonal(self):
        return {s: self.entry(s, s) for s in self.pro.elements}

    def is_zero(self):
        return not self.entries

    def _compatible(self, other):
        if self.pro != other.pro or self.ring != other.ring:
            raise IncompatibleOperands("operands live over different rings")

    # -- arithmetic ---------------------------------------------------------

    def add(self, other):
        if self.pro is not other.pro or self.ring is not other.ring:
            self._compatible(other)
        ring = self.ring
        a, sa = ring.lift(self.entries)
        b, sb = ring.lift(other.entries)
        scale = lcm(sa, sb)
        if scale == sa:
            acc = dict(a)
        else:
            fa = scale // sa
            acc = {k: v * fa for k, v in a.items()}
        fb = scale // sb
        for k, v in b.items():
            acc[k] = acc.get(k, 0) + v * fb
        return _raw(self.pro, self.ring, ring.lower(acc, scale))

    def neg(self):
        ring = self.ring
        return _raw(self.pro, self.ring, {k: ring.neg(v) for k, v in self.entries.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        if self.pro is not other.pro or self.ring is not other.ring:
            self._compatible(other)
        ring = self.ring
        a, sa = ring.lift(self.entries)
        b, sb = ring.lift(other.entries)
        rows = {}
        for (t, s2), y in b.items():
            rows.setdefault(t, []).append((s2, y))
        acc = {}
        for (s1, t), x in a.items():
            for s2, y in rows.get(t, ()):
                k = (s1, s2)
                acc[k] = acc.get(k, 0) + x * y
        return _raw(self.pro, self.ring, ring.lower(acc, sa * sb))

    def scalar_mul(self, p):
        ring = self.ring
        p, zero = ring.canon(p), ring.zero
        out = {k: w for k, v in self.entries.items() if (w := ring.mul(p, v)) != zero}
        return _raw(self.pro, self.ring, out)

    def power(self, n):
        if n < 0:
            raise MalformedInput("negative powers go through glgroup.invert")
        acc = identity(self.pro, self.ring)
        base = self
        while n:
            if n & 1:
                acc = acc.mul(base)
            base = base.mul(base)
            n >>= 1
        return acc

    def transpose(self):
        """Same entries over the opposite proset."""
        opp = self.pro.opposite()
        return _raw(opp, self.ring, {(b, a): v for (a, b), v in self.entries.items()})

    # -- restriction -----------------------------------------------------------

    def project(self, window):
        """pi_window: restriction to a convex window (NotConvex otherwise), a
        surjective unital ring map whose kernel is the ideal of the window.
        The proset keeps the subproset of a window that passed the test, so
        projecting onto it again reuses it."""
        return _read(self, self.pro._window_proset(window))

    def split_components(self):
        """One matrix per component of the proset; their direct sum is A."""
        return [_read(self, self.pro.restrict(c)) for c in self.pro.components()]

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, IncMatrix)
            and self.pro == other.pro
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((len(self.pro.elements), frozenset(self.entries.items())))

    def __repr__(self):
        cells = ", ".join(
            "(%r,%r)=%s" % (a, b, self.ring.format(v))
            for (a, b), v in sorted(
                self.entries.items(), key=lambda kv: (elem_key(kv[0][0]), elem_key(kv[0][1]))
            )
        )
        return "IncMatrix{%s}" % cells


def _raw(pro, ring, entries):
    """An IncMatrix over entries already canonical, nonzero and on the order."""
    m = object.__new__(IncMatrix)
    m.pro = pro
    m.ring = ring
    m.entries = entries
    return m


def _read(m, sub):
    """The entries of `m`, an IncMatrix or a LazyMatrix, on the order pairs
    of `sub`, a subproset its carrier induces, as an IncMatrix over `sub`.
    `m` hands out canonical entries, so they are kept as read."""
    entry, zero = m.entry, m.ring.zero
    entries = {(s1, s2): v for s1, s2 in sub.pairs() if (v := entry(s1, s2)) != zero}
    return _raw(sub, m.ring, entries)


def zero(pro, ring):
    return IncMatrix(pro, ring, {})


def identity(pro, ring):
    return IncMatrix(pro, ring, {(s, s): ring.one for s in pro.elements})


def scalar_diag(pro, ring, p):
    """p^Lambda: the scalar p down the whole diagonal.  Central."""
    return IncMatrix(pro, ring, {(s, s): p for s in pro.elements})


def indicator(pro, ring, subset):
    """1^S: ones on the diagonal of S.  indicator(all elements) is the identity."""
    return IncMatrix(pro, ring, {(s, s): ring.one for s in subset})


def unit(pro, ring, s1, s2, value=None):
    """e^(s1,s2): single entry at a comparable pair, 1 unless `value` is
    given; e^(s,s) == 1^{s}."""
    if not pro.leq(s1, s2):
        raise NotComparable("(%r, %r) is not an order pair" % (s1, s2))
    return IncMatrix(pro, ring, {(s1, s2): ring.one if value is None else value})


def join_components(pieces, pro, ring):
    """Direct sum of matrices over the components of `pro`."""
    entries = {}
    for piece in pieces:
        entries.update(piece.entries)
    return IncMatrix(pro, ring, entries)


# ---------------------------------------------------------------------------
# Ideals cut out by vanishing and coefficient conditions
# ---------------------------------------------------------------------------


def _pairs_within(pro, subset):
    """The order pairs with both ends in `subset`."""
    return {(a, b) for a in subset for b in subset if pro.leq(a, b)}


class IntervalIdeal:
    """I_[s1,s2]: matrices vanishing on every pair inside the interval."""

    def __init__(self, s1, s2):
        self.s1, self.s2 = s1, s2

    def region(self, pro):
        box = pro.interval(self.s1, self.s2)
        if not box:
            raise NotComparable("[%r, %r] is empty" % (self.s1, self.s2))
        return _pairs_within(pro, box)


class ConvexIdeal:
    """I_{Lambda'}: matrices vanishing on every pair within a convex subset."""

    def __init__(self, subset):
        self.subset = frozenset(subset)

    def region(self, pro):
        if not pro.is_convex(self.subset):
            raise NotConvex("ideal subset is not convex")
        return _pairs_within(pro, self.subset)


class LocallyConvexIdeal:
    """I_{{Lambda_i}} for a locally convex collection: disjoint convex subsets
    with no comparabilities across distinct members."""

    def __init__(self, subsets):
        self.subsets = tuple(frozenset(s) for s in subsets)

    def region(self, pro):
        for s in self.subsets:
            if not pro.is_convex(s):
                raise NotConvex("collection member is not convex")
        for i, a in enumerate(self.subsets):
            for b in self.subsets[i + 1:]:
                if a & b:
                    raise NotConvex("collection members overlap")
                if any(pro._comparables(x, b) for x in a):
                    raise NotConvex("collection members are comparable")
        return set().union(*(_pairs_within(pro, s) for s in self.subsets))


class CoeffIdeal:
    """M_Lambda(J): every entry lies in the coefficient ideal J."""

    def __init__(self, member):
        self.member = member

    def region(self, pro):
        return set(pro.pairs())


class SumIdeal:
    """Sum of ideals, at most one of them a coefficient ideal; membership is
    the per-coordinate sum of constraints.  SumIdeal([]) is the zero ideal."""

    def __init__(self, parts):
        self.parts = tuple(parts)


def region_pairs(pro, ideal):
    return ideal.region(pro)


def ideal_membership(matrix, ideal):
    """Whether the matrix lies in the ideal described by `ideal`.

    Every primitive ideal is a per-coordinate condition: zero on a region for
    the vanishing ideals, membership in J everywhere for a coefficient ideal.
    A sum of them allows at each pair the largest set a part allows there
    ({0} < J < whole ring), so only stored entries are scanned: one is free
    where some vanishing part leaves its pair out, else it must lie in J when
    a coefficient part is summed in, else it must vanish.
    """
    parts = ideal.parts if isinstance(ideal, SumIdeal) else (ideal,)
    coeffs = [p for p in parts if isinstance(p, CoeffIdeal)]
    if len(coeffs) > 1:
        raise MalformedInput("at most one coefficient ideal per sum")
    regions = [p.region(matrix.pro) for p in parts if not isinstance(p, CoeffIdeal)]
    member = coeffs[0].member if coeffs else None
    for pair, v in matrix.entries.items():
        if all(pair in r for r in regions) and (member is None or not member(v)):
            return False
    return True
