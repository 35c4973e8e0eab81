"""Recovering the underlying poset from ring access alone.

The ring of a finite poset knows its poset.  Over coefficients whose only
idempotents are 0 and 1, every idempotent is a unit conjugate of some
diagonal 1_S; the primitive ones are the conjugates of the 1_s, one
difference-nilpotent class per point.  One primitive per point shows the
order: s <= t exactly when e.b.f != 0 for some basis element b, with e and
f the primitives of s and t.  Exhaustive mode finds them by splitting 1: a
node e with a sub-idempotent f outside {0, e} (e.f = f.e = f) splits into
the orthogonal f and e - f, and the nodes left unsplit are the primitives.
A node whose corner ring e.R.e is the multiples of e is primitive on sight,
as no other multiple is idempotent over Z/p^a; any other node scans the
carrier's idempotents, squared as the scan first reaches them.  Witness
mode draws sampled primitives and keeps one per point: for e = g.1_s.g^-1
and f = h.1_t.h^-1, e.f.e = x_st.y_ts.e (x = g^-1.h, y = x^-1) is e if s = t
and 0 if not, as x_st.y_ts != 0 needs s <= t <= s and (x.y)_ss = 1.

Everything here works through a small access protocol (add, mul, neg, zero,
one, is_zero, basis, dim plus either full enumeration or an idempotent
sampler), so the same code runs on honest matrices and on scrambled
structure-constant bundles.

A recovered poset carries a certificate: M(P) is free on one basis element
per order pair (the interval basis), so the atoms found are all the points
exactly when the closed order they induce has `dim` pairs; and no product
along a chain of its points vanishes.

A bundle product runs one integer kernel.  The table's nonzero structure
constants are lifted to ints once (`CoeffRing.lift`; over Q with one common
scale); a product then costs one int multiply-add per stored table term with
both factors nonzero and one reduction per output coordinate
(`CoeffRing.lower_all`).
"""

import itertools
import random

from .errors import (
    HypothesisViolation,
    MalformedInput,
    NotIdempotent,
    NotInDiagonalSupport,
    PosetRequired,
    RingBooleanPartTooLarge,
    SearchBudgetExceeded,
)
from .matrices import IncMatrix, identity, indicator, unit, zero
from .prosets import Proset, elem_key
from .io import parse_value
from .rings import ModRing, _prime_factors

__all__ = [
    "is_topologically_nilpotent",
    "b_of",
    "erase",
    "class_equiv",
    "class_leq",
    "MatrixAccess",
    "BundleAccess",
    "scramble",
    "recover_poset",
]


def _coeff_nilpotent(ring, v):
    if not ring.finite:
        return v == ring.zero
    seen = set()
    w = ring.canon(v)
    while w != ring.zero and w not in seen:
        seen.add(w)
        w = ring.mul(w, v)
    return w == ring.zero


def is_topologically_nilpotent(m):
    """True when powers of `m` reach zero.  Decided two ways that must agree:
    the diagonal entries are nilpotent coefficients, and `m` squares to zero
    within `_squarings` squarings on a `MatrixAccess`."""
    if not m.pro.is_poset():
        raise PosetRequired("nilpotence criterion needs a poset")
    analytic = all(_coeff_nilpotent(m.ring, v) for v in m.diagonal().values())
    access = MatrixAccess(m.pro, m.ring)
    by_power = _access_nilpotent(access, m, _squarings(access))
    if analytic != by_power:
        raise AssertionError("nilpotence routes disagree on %r" % (m,))
    return analytic


def _require_boolean_part_01(ring):
    """Idempotent bookkeeping needs B(P) = {0, 1}: over Z/6, say, M(P) splits
    as M(F2) x M(F3) and every idempotent class doubles."""
    if len(ring.boolean_part()) > 2:
        raise RingBooleanPartTooLarge(
            "coefficients %r have idempotents besides 0 and 1" % (ring.descriptor(),)
        )


def b_of(e):
    """Diagonal support of an idempotent: the set of elements where the
    diagonal entry is 1.  Only defined over coefficient rings whose only
    idempotents are 0 and 1."""
    _require_boolean_part_01(e.ring)
    if e.mul(e) != e:
        raise NotIdempotent("matrix is not idempotent")
    out = set()
    for s in e.pro.elements:
        v = e.entry(s, s)
        if v == e.ring.one:
            out.add(s)
        elif v != e.ring.zero:
            raise AssertionError("idempotent with non-boolean diagonal entry")
    return frozenset(out)


def erase(e, sites):
    """Remove `sites` from the diagonal support of an idempotent, one
    E - E.1^{s}.E step per site.  The steps commute, so the site order does
    not matter; each step keeps the matrix idempotent."""
    b = b_of(e)
    sites = sorted(set(sites), key=elem_key)
    for s in sites:
        if s not in b:
            raise NotInDiagonalSupport("%r is not in the diagonal support" % (s,))
    cur = e
    for s in sites:
        ind = indicator(cur.pro, cur.ring, [s])
        cur = cur.sub(cur.mul(ind).mul(cur))
    return cur


def class_equiv(e, f):
    """Idempotents are equivalent when their difference is nilpotent.  Both
    the nilpotence route and the diagonal-support route are computed and must
    agree."""
    by_nilpotence = is_topologically_nilpotent(e.sub(f))
    by_support = b_of(e) == b_of(f)
    if by_nilpotence != by_support:
        raise AssertionError("equivalence routes disagree")
    return by_support


def class_leq(e, f):
    """Absorption order test on idempotent class representatives: the class
    of `e` sits below that of `f` exactly when suitable representatives
    absorb, which on these coefficients is visible on diagonal supports."""
    return b_of(e) <= b_of(f)


# -- access protocol --------------------------------------------------------------


class _Access:
    """What the two accesses share: a carrier of |ring|^dim elements."""

    def carrier_size(self):
        if not self.ring.finite:
            return None
        return len(self.ring.elements()) ** self.dim


class MatrixAccess(_Access):
    """Direct access to a finite matrix ring.  Elements are IncMatrix values."""

    def __init__(self, pro, ring):
        if not pro.is_poset():
            raise PosetRequired("poset recovery needs a poset")
        self.pro = pro
        self.ring = ring
        self.dim = len(pro.pairs())
        self.ops = 0

    def add(self, x, y):
        self.ops += 1
        return x.add(y)

    def mul(self, x, y):
        self.ops += 1
        return x.mul(y)

    def neg(self, x):
        self.ops += 1
        return x.neg()

    def zero(self):
        return zero(self.pro, self.ring)

    def one(self):
        return identity(self.pro, self.ring)

    def is_zero(self, x):
        return x.is_zero()

    def elements(self):
        from .glgroup import enumerate_matrices

        return enumerate_matrices(self.pro, self.ring)

    def basis(self):
        return [unit(self.pro, self.ring, a, b) for a, b in self.pro.pairs()]

    def sample_idempotent(self, rng):
        from .glgroup import invert, random_invertible

        if not self.pro.elements:
            raise SearchBudgetExceeded("the empty poset has no idempotents to sample")
        s = rng.choice(self.pro.elements)
        w = random_invertible(self.pro, self.ring, rng)
        return w.mul(indicator(self.pro, self.ring, [s])).mul(invert(w))


class BundleAccess(_Access):
    """Access through a structure-constant bundle.  Elements are coefficient
    tuples over an opaque basis; multiplication reads the table.  `table`
    keeps the parsed dense table, cell [i][j] holding the coordinates of
    b_i.b_j."""

    def __init__(self, bundle, ring, sampler=None, path="$"):
        self.ring = ring
        self.dim = bundle["dim"]
        texts = {}

        def coords(values, where, *index):
            # each distinct coordinate text parses once
            try:
                return [texts[str(c)] for c in values]
            except KeyError:
                out = [parse_value(ring, c, where, *index, k) for k, c in enumerate(values)]
                texts.update(zip(map(str, values), out))
                return out

        at = path + ".table"
        self.table = [[coords(cell, at, i, j) for j, cell in enumerate(row)]
                      for i, row in enumerate(bundle["table"])]
        # the integer kernel of `mul`: per basis pair (i, j), the nonzero
        # structure constants as (k, c) with c lifted over one common scale
        lifted, self._scale = ring.lift({
            (i, j, k): c
            for i, row in enumerate(self.table) for j, cell in enumerate(row)
            for k, c in enumerate(cell) if c
        })
        self._terms = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j, k), c in lifted.items():
            self._terms[i][j].append((k, c))
        self._zero = (ring.zero,) * self.dim
        self._one = tuple(coords(bundle["one"], path + ".one"))
        self._samples = [tuple(coords(v, path + ".samples", i)) for i, v in enumerate(bundle.get("samples", []))]
        self._sampler = sampler
        self.ops = 0

    def add(self, x, y):
        self.ops += 1
        return tuple(map(self.ring.add, x, y))

    def neg(self, x):
        self.ops += 1
        return tuple(map(self.ring.neg, x))

    def mul(self, x, y):
        """One int multiply-add per stored table term whose two factors are
        nonzero, then one reduction per output coordinate."""
        self.ops += 1
        ring = self.ring
        a, sa = ring.lift({i: v for i, v in enumerate(x) if v})
        # recovery squares often (idempotence tests): lift once
        b, sb = (a, sa) if y is x else ring.lift({j: v for j, v in enumerate(y) if v})
        if not a or not b:
            return self._zero
        b = b.items()
        terms = self._terms
        acc = [0] * self.dim
        for i, xi in a.items():
            row = terms[i]
            for j, yj in b:
                cell = row[j]
                if cell:
                    p = xi * yj
                    for k, c in cell:
                        acc[k] += p * c
        return ring.lower_all(acc, sa * sb * self._scale)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def is_zero(self, x):
        return x == self._zero

    def elements(self):
        vals = self.ring.elements()
        for combo in itertools.product(vals, repeat=self.dim):
            yield tuple(combo)

    def basis(self):
        ring = self.ring
        return [
            tuple(ring.one if k == i else ring.zero for k in range(self.dim))
            for i in range(self.dim)
        ]

    def sample_idempotent(self, rng):
        if self._sampler is not None:
            return self._sampler(rng)
        if self._samples:
            return self._samples[rng.randrange(len(self._samples))]
        raise SearchBudgetExceeded("bundle carries no idempotent samples")


def _random_unit_triangular(dim, ring, rng):
    m = [[ring.one if i == j else ring.zero for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            m[i][j] = ring.random(rng)
    return m


def scramble(pro, ring, seed=0, samples=0):
    """Disguise a matrix ring as a structure-constant bundle over an opaque
    basis.  The basis is a randomly permuted, unit-triangular recombination
    of the order-pair units, b_i = sum over k >= i of t[i][k] u_k; a table
    cell is the `IncMatrix.mul` product of two basis matrices, and the
    coordinates w of a matrix with entry v_k at u_k solve w.t = v by forward
    substitution.  The table and the identity's coordinates are all the
    bundle reveals, plus optionally a batch of idempotents drawn by
    `MatrixAccess.sample_idempotent` for witness-mode recovery.  Returns
    (bundle, access)."""
    access = MatrixAccess(pro, ring)  # PosetRequired off posets
    rng = random.Random(seed)
    pairs = pro.pairs()
    dim = len(pairs)
    perm = list(range(dim))
    rng.shuffle(perm)
    t = _random_unit_triangular(dim, ring, rng)
    units = [pairs[p] for p in perm]
    basis = [IncMatrix(pro, ring, {units[k]: t[i][k] for k in range(i, dim)}) for i in range(dim)]

    def coords(m):
        w = []
        for k, u in enumerate(units):
            acc = m.entry(*u)
            for i in range(k):
                if w[i] != ring.zero and t[i][k] != ring.zero:
                    acc = ring.sub(acc, ring.mul(w[i], t[i][k]))
            w.append(acc)
        return tuple(w)

    def formatted(m):
        return [ring.format(c) for c in coords(m)]

    bundle = {
        "ring": ring.descriptor()["ring"],
        "dim": dim,
        "table": [[formatted(x.mul(y)) for y in basis] for x in basis],
        "one": formatted(indicator(pro, ring, pro.elements)),
    }
    if samples:
        srng = random.Random(seed + 1)
        bundle["samples"] = [formatted(access.sample_idempotent(srng)) for _ in range(samples)]
    return bundle, BundleAccess(bundle, ring, sampler=lambda r: coords(access.sample_idempotent(r)))


# -- the recovery procedure ---------------------------------------------------------


def _squarings(access):
    """Squarings that decide nilpotence: ceil(log2 L), with L the length of
    the ring as a module over its coefficients, `dim` over a field, Z or Q
    and dim.k over Z/p^k (k the prime factors of n, with multiplicity).  A
    nilpotent x cuts a strictly falling chain R > xR > x^2.R > ... > 0 (over
    Z, read it over Q), so x^L = 0."""
    k = len(_prime_factors(access.ring.n)) if isinstance(access.ring, ModRing) else 1
    return (access.dim * k - 1).bit_length()


def _access_nilpotent(access, x, squarings):
    """Black-box nilpotence: zero within `squarings` squarings, stopping
    early once a power repeats."""
    seen = set()
    cur = x
    for _ in range(squarings):
        if access.is_zero(cur):
            return True
        if cur in seen:
            return False
        seen.add(cur)
        cur = access.mul(cur, cur)
    return access.is_zero(cur)


def _is_idempotent(access, x):
    return access.mul(x, x) == x


def _corner_products(access, e, basis):
    """The products e.b over the basis when e's corner ring e.R.e shows that
    e has no sub-idempotent outside {0, e}; None when it does not decide.
    A sub-idempotent f (e.f = f.e = f) is (e.f).e, so by bilinearity it
    lies in the span of the (e.b).e.  When every (e.b).e is a multiple of e
    (built by repeated addition; exhaustive mode runs on Z/n only), so is f.
    And no multiple g = k.e but 0 and e is one: e.g = g.g = g gives
    (k^2 - k).e = 0, and over Z/p^a, the only Z/n whose idempotents are 0
    and 1, the additive order of e is a power of p, so it divides k or
    k - 1.  The first (e.b).e outside the multiples stops the test, so a
    node that is not primitive costs a few products here."""
    mults, g = [access.zero()], e
    while not access.is_zero(g):
        mults.append(g)
        g = access.add(g, e)
    eb = []
    for b in basis:
        x = access.mul(e, b)
        if not access.is_zero(x) and access.mul(x, e) not in mults:
            return None
        eb.append(x)
    return eb


def _primitive_split(access, basis):
    """Orthogonal primitive idempotents summing to 1, as pairs (e, eb) with
    eb the products e.b over the basis, or None where the scan made e a
    leaf.  A node e splits into f and e - f for the first nonzero
    idempotent f other than e, in `access.elements()` order, with e.f =
    f.e = f; a node with no such f is primitive.  Every idempotent is a unit
    conjugate of some 1_S, so a proper sub-idempotent of e has a smaller
    support, and the conjugates of each 1_s inside e's support are all
    enumerated: the leaves are one primitive per point.

    A primitive of an incidence ring has the coefficients times itself as
    its corner ring, so `_corner_products` makes it a leaf in about 2.dim
    products; only the other nodes scan.  The scan reads the idempotents
    from one pass over the carrier, squaring each element once when a scan
    first reaches it, so a scrambled 4-chain over F2 squares 30 to 130 of
    its 1,024 elements, not all of them.

    The split ends on any finite ring, as e.R is the direct sum of f.R and
    (e - f).R, both nonzero.  A ring free of rank `dim` holds at most `dim`
    orthogonal nonzero idempotents, so more nodes than that refuse the
    table: it is no associative ring, and the split need not end there."""
    found = []
    fresh = (x for x in access.elements() if not access.is_zero(x) and _is_idempotent(access, x))

    def idems():
        # a plain loop, not `yield from`: a scan that stops early leaves
        # `fresh` open for the next one
        yield from found
        for x in fresh:
            found.append(x)
            yield x

    one = access.one()
    leaves, stack = [], [] if access.is_zero(one) else [one]  # the zero ring has no points
    while stack:
        if len(leaves) + len(stack) > access.dim:
            raise HypothesisViolation(
                "1 splits into more than %d orthogonal idempotents: not the incidence ring "
                "of a poset" % access.dim)
        e = stack.pop()
        eb = _corner_products(access, e, basis)
        if eb is None:
            f = next((f for f in idems()
                      if f != e and access.mul(e, f) == f and access.mul(f, e) == f), None)
            if f is not None:
                stack += [access.add(e, access.neg(f)), f]
                continue
        leaves.append((e, eb))
    return leaves


def _multiple(access, k, x):
    """k.x for k >= 1, by doubling: O(log k) additions."""
    out = x
    for bit in bin(k)[3:]:
        out = access.add(out, out)
        if bit == "1":
            out = access.add(out, x)
    return out


def _add_atom(access, basis, atoms, e, eb=None, scale=None):
    """Append atom representative `e` (with its nonzero products e.b, taken
    from `eb` unless it is None) to `atoms`; return the pairs (i, j), atom
    i below atom j, between it and the atoms before it, each mapped to the
    first product c_ij = (e_i.b).e_j that shows it.

    e.R.f is spanned by the products (e.b).f over the basis.  As e and f
    are conjugates g.1_s.g^-1 and h.1_t.h^-1, each product is
    g.(x.e^(s,t)).h^-1 for the (s, t) coordinate x of g^-1.b.h, so some
    product is nonzero exactly when s <= t.  Over Z/p^a with a >= 2,
    `scale` is p^(a-1).1 and the product kept must also have scale.c_ij !=
    0, that is, a unit x: as b runs over a basis so does g^-1.b.h, and one
    of them has a unit (s, t) coordinate.  So along a chain s < t < u,
    c_st.c_tu is g.(x.y.e^(s,u)) times the inverse conjugator of u, never 0
    in an incidence ring, which `recover_poset` checks; the atoms need not
    be orthogonal."""
    def meet(left, f):
        for x in left:
            c = access.mul(x, f)
            if not access.is_zero(c) and (
                    scale is None or not access.is_zero(access.mul(scale, c))):
                return c
        return None

    if eb is None:
        eb = [access.mul(e, b) for b in basis]
    eb = [x for x in eb if not access.is_zero(x)]
    k = len(atoms)
    rel = {(k, j): c for j, (f, _) in enumerate(atoms) if (c := meet(eb, f)) is not None}
    rel.update(((j, k), c) for j, (_, fb) in enumerate(atoms) if (c := meet(fb, e)) is not None)
    atoms.append((e, eb))
    return rel


def recover_poset(access, mode="auto", budget=10**5, rng=None):
    """Reconstruct the poset from ring access alone.

    `exhaustive` splits 1 into orthogonal primitive idempotents (see
    `_primitive_split`): each primitive is certified in its corner ring,
    and the other nodes scan the idempotents of the enumerated carrier,
    read lazily: a scrambled 4-chain over F2 spends 170-290 ring
    operations.  It refuses carriers of more than 2^14 elements; `auto`
    picks it up to that size and `witness` above.
    `witness` draws sampled idempotents (which are primitive) and skips a
    draw e that is 0 or has e.f.e != 0 for a kept atom f: e.f.e = x_st.y_ts.e
    is e for one point and 0 for two (see the module docstring).  Each
    primitive kept becomes an atom, and the order is read off each atom as
    it turns up (see `_add_atom`).

    The atoms found span at most `access.dim` order pairs, exactly `dim` when
    they are all the points.  Witness mode draws until the pairs read off
    number `dim` and raises SearchBudgetExceeded past `budget` ring
    operations, never returning a short poset.  The certified count is the
    *closed* order's: one other than `dim` raises HypothesisViolation, as the
    ring is no incidence ring of a poset (a path with a.b = 0 reads 5 pairs
    but closes to 6).  Then each strict chain s < t < u costs one product:
    c_st.c_tu = 0, with c_st the product `_add_atom` kept for s < t, raises
    HypothesisViolation too (a square whose one path multiplies to 0 passes
    the count).  The atoms need not be orthogonal for this, so both modes
    run it.  Necessary, not sufficient: products that twist along a chain
    (c_st.c_tu = -c_su where M(P) has +) can still pass.  Returns a Proset
    on fresh integer labels, correct up to isomorphism.  Raises
    RingBooleanPartTooLarge when the coefficient ring has idempotents
    besides 0 and 1, since the class count would no longer match the poset.
    """
    _require_boolean_part_01(access.ring)
    size = access.carrier_size()
    if mode == "auto":
        mode = "exhaustive" if size is not None and size <= 2**14 else "witness"
    basis, atoms, rel = access.basis(), [], {}
    scale = None  # p^(a-1).1 over Z/p^a with a >= 2 (see _add_atom)
    if isinstance(access.ring, ModRing):
        n = access.ring.n
        p = _prime_factors(n)[0]
        if n > p:
            scale = _multiple(access, n // p, access.one())

    def tally(pairs):
        return "found %d atom classes with %d order pairs, against dimension %d" % (
            len(atoms), pairs, access.dim)

    if mode == "exhaustive":
        if size is None or size > 2**14:
            raise SearchBudgetExceeded("carrier too large to enumerate (%s elements)" % (size,))
        for e, eb in _primitive_split(access, basis):
            rel.update(_add_atom(access, basis, atoms, e, eb, scale))
    elif mode == "witness":
        if rng is None:
            rng = random.Random(0)
        while len(atoms) + len(rel) < access.dim:
            if access.ops > budget:
                raise SearchBudgetExceeded(
                    "budget of %d ring operations spent: %s" % (budget, tally(len(atoms) + len(rel))))
            e = access.sample_idempotent(rng)
            # e.f.e is e for a primitive f of e's point and 0 for any other
            if access.is_zero(e) or any(
                    not access.is_zero(ef := access.mul(e, f)) and not access.is_zero(access.mul(ef, e))
                    for f, _ in atoms):
                continue
            rel.update(_add_atom(access, basis, atoms, e, scale=scale))
    else:
        raise MalformedInput("mode must be auto, exhaustive, or witness, not %r" % (mode,))

    rec = Proset(range(len(atoms)), rel)
    if len(rec.pairs()) != access.dim:
        raise HypothesisViolation("%s: not the incidence ring of a poset" % tally(len(rec.pairs())))
    after = {}  # t -> [(u, c_tu)]
    for (t, u), y in rel.items():
        after.setdefault(t, []).append((u, y))
    for (s, t), x in rel.items():
        for u, y in after.get(t, ()):
            if access.is_zero(access.mul(x, y)):
                raise HypothesisViolation(
                    "the products along the chain %d < %d < %d multiply to 0: not the "
                    "incidence ring of a poset" % (s, t, u))
    return rec
