"""Units of an incidence ring: certification, inversion, centrality, commutators.

A matrix is invertible exactly when every class-diagonal block (the dense
square block of an equivalence class) has unit determinant.  `invert` writes
A = D(1 - N), with D the class-block diagonal and N nilpotent, inverts D block
by block and sums the series of N by repeated squaring on the `IncMatrix.mul`
kernel.  An n-point class block's determinant and adjugate come from one
fraction-free Gauss-Jordan elimination (Bareiss) on the block lifted to
ints, O(n^3) integer operations whose divisions are exact, pivoting over
the whole remaining block, so Z and Z/n work as well as fields.

A random unit is drawn in one pass: per class, the entries of L*D*U are
summed straight from the random factors, and they go into the matrix
without re-validation, as do `enumerate_matrices`' canonical values.

Closures are breadth-first orbits on one routine, `_orbit`: `mulclose`
right-multiplies new elements by the kept generators only, about
|closure| * |generators| products, and Dickson's conjugation orbit runs on
the same loop.  A commutator carries its inverse from the cached inverses
of its factors.
"""

import itertools
from collections import namedtuple

from .errors import HypothesisViolation, MalformedInput, NotInvertible, SearchBudgetExceeded
from .matrices import IncMatrix, _raw, ideal_membership, identity, unit
from .prosets import elem_key, two_block
from .rings import PrimeField

__all__ = [
    "GroupElement",
    "certify",
    "is_invertible",
    "invert",
    "det_block",
    "normal_subgroup_membership",
    "quotient_project",
    "is_central",
    "CentralityReport",
    "is_scalar_unit",
    "centrality_generators",
    "commutator",
    "iterated_commutator_sample",
    "random_invertible",
    "enumerate_matrices",
    "enumerate_invertibles",
    "mulclose",
    "dickson_normal_closure",
    "transpose_op_iso",
]


# -- dense helpers on class blocks ------------------------------------------


def det_block(ring, m):
    """Determinant of a dense n x n block: the closed form up to n == 3,
    where it is the faster route, else `_det_adj`'s fraction-free
    elimination, O(n^3) integer operations."""
    n = len(m)
    if n == 1:
        return m[0][0]
    mul, sub = ring.mul, ring.sub
    if n == 2:
        (a, b), (c, d) = m
        return sub(mul(a, d), mul(b, c))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return ring.add(
            sub(mul(a, sub(mul(e, i), mul(f, h))), mul(b, sub(mul(d, i), mul(f, g)))),
            mul(c, sub(mul(d, h), mul(e, g))),
        )
    return _det_adj(ring, m)[0]


def _det_adj(ring, m):
    """Determinant and adjugate of any square block, singular ones included,
    by Bareiss's fraction-free Gauss-Jordan on the lifted integer block.

    The block is lifted to ints over one scale (`CoeffRing.lift`) and [A | I]
    is reduced in place, the eliminated columns of A giving room to those of
    I: step k takes row_i <- (p_k row_i - a_ik row_k) / p_(k-1) for i != k,
    and the division is exact by Sylvester's identity.  The pivot is the
    diagonal entry when it is nonzero, else the first nonzero entry of the
    remaining block in row order, swapped onto the diagonal.  If that block
    vanishes before the last step the rank is at most n - 2 and the
    adjugate is 0; a zero last pivot is carried through, which keeps the
    adjugate of a rank n - 1 block exact.  O(n^3) integer operations.  Z,
    Z/n and Q take the same route, since pivots need only be nonzero ints,
    not units (over Z/6 a unit block can have no unit entry to pivot on),
    and only the determinant (at scale^n) and the adjugate (at
    scale^(n-1)) are lowered back into the ring."""
    n = len(m)
    ints, scale = ring.lift(dict(enumerate([a for row in m for a in row])))
    w = [[ints[i] for i in range(r, r + n)] for r in range(0, n * n, n)]
    swaps, sign, prev = [], 1, 1
    for k in range(n):
        if not w[k][k]:
            hit = next(((i, j) for i in range(k, n) for j in range(k, n) if w[i][j]), None)
            if hit is None and k < n - 1:
                zero = ring.zero
                return zero, [[zero] * n for _ in range(n)]
            if hit is not None:
                i, j = hit
                w[i], w[k] = w[k], w[i]
                for r in w:
                    r[j], r[k] = r[k], r[j]
                swaps.append((i, j, k))
                sign *= (-1) ** ((i != k) + (j != k))
        wk = w[k]
        p = wk[k]
        for i, wi in enumerate(w):
            if i != k:
                a = wi[k]
                w[i] = [(p * x - a * y) // prev for x, y in zip(wi, wk)]
                w[i][k] = -a
        wk[k] = prev
        prev = p
    # w is now adj(PAQ) for the swaps P and Q: a row swap of A is a column
    # swap of its adjugate and the other way round, undone last one first
    for i, j, k in reversed(swaps):
        w[j], w[k] = w[k], w[j]
        for r in w:
            r[i], r[k] = r[k], r[i]
    det = ring.lower_all((sign * prev,), scale ** n)[0]
    scale **= n - 1
    return det, [list(ring.lower_all([sign * x for x in r], scale)) for r in w]


def _block_inverse(ring, m):
    """Adjugate over determinant; ring.inv raises NotInvertible off the units."""
    if len(m) == 1:
        return [[ring.inv(m[0][0])]]
    d, adj = _det_adj(ring, m)
    dinv = ring.inv(d)
    return [[ring.mul(dinv, a) for a in row] for row in adj]


# -- inversion through the nilpotent off-class part ---------------------------


def _class_block(matrix, rows):
    return [[matrix.entry(a, b) for b in rows] for a in rows]


def is_invertible(matrix):
    """Unit test: every class-diagonal block has unit determinant; a
    one-point class tests its diagonal entry directly."""
    ring = matrix.ring
    for c in matrix.pro.classes():
        if len(c) == 1:
            (s,) = c
            d = matrix.entry(s, s)
        else:
            d = det_block(ring, _class_block(matrix, c))
        if not ring.is_unit(d):
            return False
    return True


def invert(matrix):
    """Two-sided inverse inside the same incidence ring.

    A = D(1 - N), where D is the class-block diagonal of A and
    N = -D^-1 (A - D) vanishes on the class-diagonal blocks, so N is
    nilpotent.  Hence A^-1 = (1 + N)(1 + N^2)(1 + N^4)... D^-1: D's blocks
    invert as adjugate over determinant (`_det_adj`, O(n^3) exact integer
    operations per n-point block), and the product takes one squaring and
    one product per doubling of the longest chain of classes.  NotInvertible
    names the first class, in `classes()` order, whose block is singular.
    """
    pro, ring = matrix.pro, matrix.ring
    zero = ring.zero
    dinv = {}
    for c in pro.classes():
        rows = sorted(c, key=pro.rank.__getitem__)
        try:
            blk = _block_inverse(ring, _class_block(matrix, rows))
        except NotInvertible:
            raise NotInvertible("class block %r has non-unit determinant" % (tuple(rows),)) from None
        for a, row in zip(rows, blk):
            for b, v in zip(rows, row):
                if v != zero:
                    dinv[(a, b)] = v
    off = {k: ring.neg(v) for k, v in matrix.entries.items() if not pro.leq(k[1], k[0])}
    x = _raw(pro, ring, dinv)
    n = x.mul(_raw(pro, ring, off))
    while not n.is_zero():
        x = x.add(n.mul(x))
        n = n.mul(n)
    return x


# -- the group -------------------------------------------------------------------


class GroupElement:
    """An invertible incidence matrix with its inverse cached."""

    __slots__ = ("matrix", "_inverse")

    def __init__(self, matrix, inverse=None):
        self.matrix = matrix
        self._inverse = inverse

    @property
    def inverse_matrix(self):
        if self._inverse is None:
            self._inverse = invert(self.matrix)
        return self._inverse

    def inv(self):
        return GroupElement(self.inverse_matrix, self.matrix)

    def mul(self, other):
        return GroupElement(self.matrix.mul(other.matrix))

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "GroupElement(%r)" % (self.matrix,)


def certify(matrix):
    """Build a GroupElement, proving invertibility by computing the inverse
    and checking both products against the identity."""
    inv = invert(matrix)
    one = identity(matrix.pro, matrix.ring)
    if matrix.mul(inv) != one or inv.mul(matrix) != one:
        raise NotInvertible("inverse certification failed")
    return GroupElement(matrix, inv)


def commutator(g, h):
    """[g, h] = g h g^-1 h^-1, carrying its inverse h g h^-1 g^-1 built from
    the cached inverses, so an iterated commutator never calls invert."""
    m = g.matrix.mul(h.matrix).mul(g.inverse_matrix).mul(h.inverse_matrix)
    inv = h.matrix.mul(g.matrix).mul(h.inverse_matrix).mul(g.inverse_matrix)
    return GroupElement(m, inv)


# -- normal subgroups cut out by congruence regions ------------------------------


def normal_subgroup_membership(g, ideal):
    """Whether g lies in the congruence subgroup of `ideal`, the units
    congruent to 1 modulo it: `ideal_membership(g - 1, ideal)`.  For a
    vanishing ideal that is the identity pattern on its region, for M(J)
    every entry of g - 1 in J."""
    matrix = g.matrix if isinstance(g, GroupElement) else g
    return ideal_membership(matrix.sub(identity(matrix.pro, matrix.ring)), ideal)


def quotient_project(g, subset):
    """Project an invertible matrix to a convex window and recertify; the
    kernel of this group map is the normal subgroup of the window."""
    matrix = g.matrix if isinstance(g, GroupElement) else g
    return certify(matrix.project(subset))


# -- center ------------------------------------------------------------------------


def is_scalar_unit(matrix):
    ring = matrix.ring
    vals = set()
    for s in matrix.pro.elements:
        vals.add(matrix.entry(s, s))
    if len(vals) != 1 or not ring.is_unit(next(iter(vals))):
        return False
    return all(a == b for (a, b) in matrix.entries)


def _unit_sample(ring):
    if ring.finite:
        return ring.units()
    if ring.name == "Z":
        return [-1]
    return [ring.canon(2)]


def centrality_generators(pro, ring):
    """A generating set of the unit group: all elementary transvections
    1 + e^(s1,s2) over comparable pairs plus single-site diagonal units."""
    gens = []
    one = identity(pro, ring)
    for (s1, s2) in pro.strict_pairs():
        gens.append(one.add(unit(pro, ring, s1, s2)))
    for s in pro.elements:
        for u in _unit_sample(ring):
            if u == ring.one:
                continue
            m = dict(one.entries)
            m[(s, s)] = u
            gens.append(IncMatrix(pro, ring, m))
    return gens


CentralityReport = namedtuple("CentralityReport", "central scalar_test hypothesis_ok agree")


def is_central(g):
    """Exact centrality (commutation against a generating set) side by side
    with the scalar-matrix test.  The two agree whenever the proset is
    irreducible and the ring has a unit pair; when that hypothesis fails the
    exact answer is authoritative and the report says so."""
    matrix = g.matrix if isinstance(g, GroupElement) else g
    pro, ring = matrix.pro, matrix.ring
    central = all(
        matrix.mul(h) == h.mul(matrix) for h in centrality_generators(pro, ring)
    )
    scalar = is_scalar_unit(matrix)
    hypothesis = pro.is_irreducible() and ring.has_unit_pair()
    return CentralityReport(
        central=central,
        scalar_test=scalar,
        hypothesis_ok=hypothesis,
        agree=central == scalar,
    )


# -- sampling and enumeration --------------------------------------------------------


def _ldu(ring, low, diag, up):
    """The entries of L*D*U row after row, for L unit lower triangular with
    strict rows `low`, D with diagonal `diag` and U unit upper triangular
    with strict rows `up`.  The factors are lifted to ints over one scale,
    and each entry (L*D*U)[i][j] = sum over k <= min(i, j) of
    L[i][k] d_k U[k][j] is summed straight from them, about n^3 / 3
    multiply-adds, then lowered once."""
    n = len(diag)
    flat = [x for row in low + up for x in row] + diag + [ring.one]
    ints, scale = ring.lift(dict(enumerate(flat)))
    it = iter([ints[i] for i in range(len(flat))])
    low = [[next(it) for _ in row] for row in low]
    up = [[next(it) for _ in row] for row in up]
    diag = [next(it) for _ in diag]
    one = next(it)
    up = [[one] + row for row in up]
    out = []
    for i in range(n):
        row = [0] * n
        for k, x in enumerate(low[i] + [one]):
            a = x * diag[k]
            if a:
                row[k:] = [y + a * z for y, z in zip(row[k:], up[k])]
        out.extend(row)
    return ring.lower_all(out, scale**3)


def random_invertible(pro, ring, rng):
    """Random unit: per class, a product L*D*U with unit diagonal D, plus
    arbitrary entries between distinct comparable classes.

    The draws come in a fixed order: per class in `classes()` order, the
    strict lower entries of L row by row, then the strict upper entries of
    U, then the diagonal units; after all classes, one entry per order pair
    between distinct classes, in `pairs()` order.  A one-point class is its
    unit, and a larger block is summed straight from its factors (`_ldu`).
    The values are canonical, nonzero and on the order by construction, so
    the matrix is built without re-validation.  On the 5-chain a draw costs
    about one product of the same matrix; on one 3-point class, 3 to 5."""
    units = _unit_sample(ring)
    if ring.one not in units:
        units = [*units, ring.one]
    draw, choice, zero = ring.random, rng.choice, ring.zero
    entries = {}
    for c in pro.classes():
        rows = sorted(c, key=elem_key)
        n = len(rows)
        if n == 1:
            entries[(rows[0], rows[0])] = choice(units)
            continue
        low = [[draw(rng) for _ in range(i)] for i in range(n)]
        up = [[draw(rng) for _ in range(i + 1, n)] for i in range(n)]
        vals = iter(_ldu(ring, low, [choice(units) for _ in range(n)], up))
        for a in rows:
            for b in rows:
                v = next(vals)
                if v != zero:
                    entries[(a, b)] = v
    leq = pro.leq
    for s1, s2 in pro.pairs():
        if not leq(s2, s1):
            v = draw(rng)
            if v != zero:
                entries[(s1, s2)] = v
    return _raw(pro, ring, entries)


def enumerate_matrices(pro, ring):
    """Every matrix of the incidence ring (finite ring only), built without
    re-validation: `ring.elements()` values are canonical."""
    pairs, zero = pro.pairs(), ring.zero
    for combo in itertools.product(ring.elements(), repeat=len(pairs)):
        yield _raw(pro, ring, {p: v for p, v in zip(pairs, combo) if v != zero})


def enumerate_invertibles(pro, ring, cap=None):
    """The units of a finite incidence ring, by testing all |R|^|pairs|
    matrices.  Raises SearchBudgetExceeded once more than `cap` are
    found; at cap None up to that many are kept."""
    out = []
    for m in enumerate_matrices(pro, ring):
        if is_invertible(m):
            out.append(m)
            if cap is not None and len(out) > cap:
                raise SearchBudgetExceeded("more than %d invertibles" % cap)
    return out


def _orbit(found, seeds, actions, cap=None, max_rounds=None):
    """Breadth-first orbit of `seeds` under the maps x -> l*x*r, one per
    (l, r) in `actions`, where l None means x -> x*r.

    `found` is a dict used as an insertion-ordered set: every element not
    yet in it joins it in discovery order, and SearchBudgetExceeded is
    raised once it holds more than `cap`.  At most `max_rounds` rounds of
    actions run.  Returns the rounds run and the last frontier, which is
    empty exactly when the orbit closed."""

    def admit(candidates):
        fresh = []
        for y in candidates:
            if y not in found:
                found[y] = None
                fresh.append(y)
                if cap is not None and len(found) > cap:
                    raise SearchBudgetExceeded("closure exceeded %d elements" % cap)
        return fresh

    frontier = admit(seeds)
    rounds = 0
    while frontier and (max_rounds is None or rounds < max_rounds):
        rounds += 1
        frontier = admit(
            x.mul(r) if l is None else l.mul(x).mul(r)
            for x in frontier
            for l, r in actions
        )
    return rounds, frontier


def mulclose(mats, cap=None):
    """Every nonempty product of the matrices `mats`, as a set.

    A semigroup closure, so no input needs to be invertible.  It grows one
    generator at a time: an input already in the closure is skipped; a new
    one g seeds {g} and {u*g : u in the closure}, and each new element is
    right-multiplied by the generators kept so far (the orbit algorithm).
    That costs about |closure| * |kept generators| products, against the
    2 |closure|^2 of multiplying new elements by everything found.  Raises
    SearchBudgetExceeded exactly when the closure has more than `cap`
    elements; at cap None it can grow to all |R|^|pairs| matrices of a
    finite ring.
    """
    closure, actions = {}, []
    for g in mats:
        if g in closure:
            continue
        actions.append((None, g))
        _orbit(closure, [g] + [u.mul(g) for u in closure], actions, cap)
    return set(closure)


# -- commutator sampling -----------------------------------------------------------


def iterated_commutator_sample(pro, ring, depth, samples, rng):
    """Sample depth-k iterated commutators and check the vanishing pattern:
    on every interval with at most `depth` elements the entries agree with
    the identity.  Returns a small report dict."""
    if depth < 0:
        raise MalformedInput("depth must be a natural number, got %r" % (depth,))
    checked = violations = 0
    small = [(s1, s2) for (s1, s2) in pro.pairs() if len(pro.interval(s1, s2)) <= depth]

    def deep(k):
        if k == 0:
            return GroupElement(random_invertible(pro, ring, rng))
        return commutator(deep(k - 1), deep(k - 1))

    for _ in range(samples):
        c = deep(depth).matrix
        for (s1, s2) in small:
            checked += 1
            want = ring.one if s1 == s2 else ring.zero
            if c.entry(s1, s2) != want:
                violations += 1
    return {
        "depth": depth,
        "samples": samples,
        "checked": checked,
        "violations": violations,
    }


# -- Dickson closure and the opposite-order isomorphism ------------------------------


def dickson_normal_closure(n, q, rng, max_rounds=64):
    """Normal closure of a noncentral element of GL_n(F_q) on the full block.

    Needs n >= 2, and |F| > 3 when n == 2.  The closure is grown by
    conjugating with group generators and closing under products; the report
    records its order and whether the standard SL_n generating pair landed
    inside.  Conjugation stops after `max_rounds` rounds; `rounds` says how
    many ran, and `truncated` is true when new conjugates were still turning
    up at that point, so the closure may be too small.
    """
    if n < 2:
        raise HypothesisViolation("need n >= 2")
    if n == 2 and q <= 3:
        raise HypothesisViolation("n == 2 needs |F| > 3")
    ring = PrimeField(q)
    pro = two_block(n)
    labels = ["t%d" % i for i in range(n)]
    gens = centrality_generators(pro, ring)
    gens = [certify(g) for g in gens]
    # noncentral seed: a random unit that fails the scalar test
    while True:
        seed = random_invertible(pro, ring, rng)
        if not is_scalar_unit(seed):
            break
    orbit = {}
    rounds, frontier = _orbit(
        orbit, [seed], [(g.matrix, g.inverse_matrix) for g in gens], max_rounds=max_rounds
    )
    closure = mulclose(orbit)
    sl_pair = [
        identity(pro, ring).add(unit(pro, ring, labels[0], labels[1])),
        identity(pro, ring).add(unit(pro, ring, labels[1], labels[0])),
    ]
    sl_order = 1
    for i in range(1, n + 1):
        sl_order *= q**n - q ** (n - i)
    sl_order //= q - 1
    return {
        "n": n,
        "q": q,
        "seed": seed,
        "rounds": rounds,
        "truncated": bool(frontier),
        "closure_order": len(closure),
        "contains_sl_generators": all(m in closure for m in sl_pair),
        "sl_order": sl_order,
        "order_divisible_by_sl": len(closure) % sl_order == 0,
    }


def transpose_op_iso(g):
    """The anti-automorphism-fixing isomorphism onto the opposite order:
    A maps to the transpose of its inverse, an element over Lambda^op."""
    elt = g if isinstance(g, GroupElement) else certify(g)
    return GroupElement(elt.inverse_matrix.transpose())
