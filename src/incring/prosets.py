"""Locally finite preordered sets: finite prosets and built-in infinite families.

A Proset is a finite reflexive-transitive relation given by generating pairs;
the constructor closes them.  Families (N, Z, Zig, divisibility on N*, augmented
and custom ones) answer the same queries (leq, interval, equiv_class, windows)
without materializing the carrier.

Orientation conventions used throughout:
  * Zig places even integers below their odd neighbors, 2k <= 2k+1 and
    2k <= 2k-1, so interval(2, 3) == (2, 3).
  * two_block(m, n) has an n-element bottom class under an m-element top class;
    n == 0 degenerates to the single full-equivalence block on m elements.
"""

from itertools import combinations, islice
from math import lcm

from .errors import (
    InfiniteNeighborhood,
    LocalFinitenessBudgetExceeded,
    MalformedInput,
    NotConnected,
    NotConvex,
    OverlappingAugmentation,
    UnknownElement,
)

__all__ = [
    "Proset",
    "ProsetFamily",
    "NFamily",
    "ZFamily",
    "ZigFamily",
    "NStarDivFamily",
    "AugmentedFamily",
    "CustomFamily",
    "two_block",
    "elem_key",
    "interval_closure",
]

DEFAULT_BUDGET = 10**6
WINDOWS_KEPT = 32  # verified windows a proset or family keeps for projections


def elem_key(x):
    """Total sort key over the mixed hashables we use as element labels."""
    if isinstance(x, bool):
        return ("bool", (x,))
    if isinstance(x, int):
        return ("int", (x,))
    if isinstance(x, str):
        return ("str", (x,))
    if isinstance(x, tuple):
        return ("tuple", tuple(elem_key(y) for y in x))
    if isinstance(x, frozenset):
        return ("set", tuple(sorted(elem_key(y) for y in x)))
    return (type(x).__name__, (str(x),))


def _sorted(xs):
    return tuple(sorted(xs, key=elem_key))


def _unknown(label):
    """The refusal of a label outside a finite proset (see Proset)."""
    return UnknownElement("%r is not an element of the proset" % (label,))


def _flood(pro, start, within):
    """The piece of `within` reached from `start` along comparabilities
    inside `within`."""
    piece = {start}
    rest = set(within) - piece
    stack = [start]
    while stack:
        reached = pro._comparables(stack.pop(), rest)
        rest.difference_update(reached)
        piece.update(reached)
        stack.extend(reached)
    return piece


def _connected(pro, subset):
    """The subset is connected along comparabilities inside it; the empty
    set counts as connected.  The one connectivity test, for prosets,
    families and generation cuts alike."""
    subset = set(subset)
    return not subset or len(_flood(pro, next(iter(subset)), subset)) == len(subset)


def _is_convex(pro, subset):
    """Closed under intervals and connected inside the subset."""
    subset = set(subset)
    between = pro._between
    for a in subset:
        for b in subset:
            if not subset.issuperset(between(a, b)):
                missing = _sorted(s for s in subset if s not in pro)
                if missing:
                    pro.leq(missing[0], missing[0])  # refuses the first label it lacks
                return False
    return _connected(pro, subset)


def _window_proset(pro, window):
    """The subproset on `window`, which must be convex (NotConvex otherwise):
    the only way a window becomes a subproset to project matrices onto.  A
    window that passes is kept, keyed by its set of elements, so the next
    request for it skips the test and the restriction; past WINDOWS_KEPT of
    them the oldest is dropped."""
    key = frozenset(window)
    if pro._windows is None:
        pro._windows = {}
    kept = pro._windows
    sub = kept.get(key)
    if sub is None:
        if not pro.is_convex(key):
            raise NotConvex("projection window %r is not convex" % (list(_sorted(key)),))
        sub = kept[key] = pro.restrict(key)
        if len(kept) > WINDOWS_KEPT:
            del kept[next(iter(kept))]
    return sub


def _neighborhood(pro, s, n):
    """N_n(s); N_0 is the equivalence class, N_1 adds all comparables."""
    reached = set(pro.equiv_class(s))
    for _ in range(n):
        grown = set(reached)
        for t in reached:
            grown.update(pro.up_set(t))
            grown.update(pro.down_set(t))
        if grown == reached:
            break
        reached = grown
    return frozenset(reached)


def _close(elements, relations):
    """The up-sets of the reflexive-transitive closure of `relations` on
    `elements`, as a dict in element order."""
    adj = {s: set() for s in elements}
    for a, b in relations:
        if a not in adj or b not in adj:
            raise UnknownElement("relation (%r, %r) uses unknown elements" % (a, b))
        adj[a].add(b)
    up = {}
    # forward search from every element
    for s in elements:
        seen = {s}
        stack = list(adj[s])
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(adj[t])
        up[s] = frozenset(seen)
    return up


def _order_embeddings(dom, points, cod, candidates):
    """The one backtracking search: every injective map of `points` (of
    `dom`) into `cod` that preserves and reflects order, the i-th point going
    to a member of `candidates[i]`, yielded depth first as dicts.  No budget:
    up to n!/(n-k)! partial maps when the candidates cut nothing."""
    assignment, used = {}, set()

    def extend(i):
        if i == len(points):
            yield dict(assignment)
            return
        s = points[i]
        up_s, down_s = dom._up[s], dom._down[s]
        for t in candidates[i]:
            if t in used:
                continue
            up_t, down_t = cod._up[t], cod._down[t]
            for s2, t2 in assignment.items():
                if (s2 in up_s) != (t2 in up_t) or (s2 in down_s) != (t2 in down_t):
                    break
            else:
                assignment[s] = t
                used.add(t)
                yield from extend(i + 1)
                del assignment[s]
                used.discard(t)

    return extend(0)


class Proset:
    """Finite preordered set.  Immutable after construction, so pairs(),
    opposite(), classes(), components() and the point signatures are each
    computed on first use and kept.  `rank` maps each element to its place
    in the elem_key order of `elements`; later orderings sort by it.

    Construction sorts the elements, closes the relations (`_close`) and
    finishes, deriving `rank` and the down-sets.  A derived proset enters at
    the step it needs (`_closed`): a restriction, the opposite and a family
    window bring sets that are already closed, and a quotient whose classes
    already come in order only closes its relations.

    A label outside the proset is refused: every query raises
    UnknownElement("9 is not an element of the proset"), tested only once a
    lookup misses or an answer is False (an up-set is never empty)."""

    _pairs = _opposite = _classes = _components = _windows = _kept_signatures = None

    def __init__(self, elements, relations=()):
        elements = _sorted(set(elements))
        self._finish(elements, _close(elements, relations))

    @classmethod
    def _closed(cls, elements, up, down=None):
        """The proset on `elements`, already in elem_key order, whose up-sets
        `up` are closed; the down-sets are derived unless given."""
        pro = cls.__new__(cls)
        pro._finish(elements, up, down)
        return pro

    def _finish(self, elements, up, down=None):
        self.elements = elements
        self.rank = {s: i for i, s in enumerate(elements)}
        self._up = up
        if down is None:
            down = {s: set() for s in elements}
            for s in elements:
                for t in up[s]:
                    down[t].add(s)
            down = {s: frozenset(ts) for s, ts in down.items()}
        self._down = down

    # -- basic relation ----------------------------------------------------

    def __contains__(self, s):
        return s in self._up

    def __len__(self):
        return len(self.elements)

    def leq(self, s1, s2):
        try:
            return s2 in self._up[s1] or not self._up[s2]
        except KeyError as miss:
            raise _unknown(miss.args[0]) from None

    def up_set(self, s):
        try:
            return self._up[s]
        except KeyError as miss:
            raise _unknown(miss.args[0]) from None

    def down_set(self, s):
        try:
            return self._down[s]
        except KeyError as miss:
            raise _unknown(miss.args[0]) from None

    def interval(self, s1, s2):
        """[s1, s2] = every t with s1 <= t <= s2; empty unless s1 <= s2."""
        if not self.leq(s1, s2):
            return ()
        return tuple(sorted(self._up[s1] & self._down[s2], key=self.rank.__getitem__))

    # _flood, _is_convex and interval_closure read these unsorted sets

    def _between(self, s1, s2):
        try:
            return self._up[s1] & self._down[s2]
        except KeyError as miss:
            raise _unknown(miss.args[0]) from None

    def _comparables(self, s, among):
        try:
            return among & (self._up[s] | self._down[s])
        except KeyError as miss:
            raise _unknown(miss.args[0]) from None

    def equiv_class(self, s):
        try:
            return frozenset(t for t in self._up[s] if s in self._up[t])
        except KeyError as miss:
            raise _unknown(miss.args[0]) from None

    neighborhood = _neighborhood

    def pairs(self):
        """All order pairs (s1, s2) with s1 <= s2, diagonal included."""
        if self._pairs is None:
            rank = self.rank.__getitem__
            self._pairs = tuple(
                (s1, s2) for s1 in self.elements for s2 in sorted(self._up[s1], key=rank)
            )
        return self._pairs

    def strict_pairs(self):
        return tuple((a, b) for a, b in self.pairs() if a != b)

    # -- classes and components ---------------------------------------------

    def classes(self):
        """Equivalence classes N_0, canonically ordered."""
        if self._classes is None:
            seen = set()
            out = []
            for s in self.elements:
                if s not in seen:
                    c = self.equiv_class(s)
                    seen |= c
                    out.append(c)
            self._classes = tuple(out)
        return self._classes

    def class_leq(self, c1, c2):
        return self.leq(next(iter(c1)), next(iter(c2)))

    def components(self):
        """Connected components of the comparability graph, as a tuple of
        frozensets ordered by their least element."""
        if self._components is None:
            rest = set(self.elements)
            out = []
            for s in self.elements:
                if s in rest:
                    comp = _flood(self, s, rest)
                    rest -= comp
                    out.append(frozenset(comp))
            self._components = tuple(out)
        return self._components

    def restrict(self, subset):
        """Induced subproset on the given elements: the up- and down-sets
        cut down to them, in this proset's order."""
        subset = frozenset(subset)
        missing = subset.difference(self._up)
        if missing:
            raise _unknown(_sorted(missing)[0])
        elements = tuple(s for s in self.elements if s in subset)
        up, down = self._up, self._down
        return Proset._closed(
            elements,
            {s: up[s] & subset for s in elements},
            {s: down[s] & subset for s in elements},
        )

    # -- convexity -----------------------------------------------------------

    is_convex = _is_convex
    _window_proset = _window_proset

    def convex_closure(self, subset):
        """A convex superset of `subset`, which must sit in one component:
        its interval closure, grown along canonical shortest paths.

        Interval closure is a single pass over comparable pairs.  While the
        closure is still disconnected, the shortest path (first in canonical
        order) from one piece to the rest is added and the closure rerun, so
        the choice is deterministic.  The result equals the subset exactly
        when the subset is convex, but it is not always minimal.  No smallest
        convex superset need exist (with a, b both below c and d, {a, b, c}
        and {a, b, d} are both minimal), and the canonical path can pass
        through more than a minimal one needs: in 0 < 1 < 2, 1 < 3 the
        closure of {2, 3} is all four points, though {1, 2, 3} is convex.
        """
        subset = set(subset)
        if not subset:
            return frozenset()
        comps = [c for c in self.components() if c & subset]
        if len(comps) > 1:
            raise NotConnected("subset spans %d components" % len(comps))
        work = subset
        while True:
            work = interval_closure(self, work)
            piece = _flood(self, min(work, key=self.rank.__getitem__), work)
            if len(piece) == len(work):
                return work
            work |= self._connecting_path(work, piece)

    def _connecting_path(self, subset, piece):
        # BFS from one piece of the subset through the ambient comparability
        # graph until another piece is reached; ties broken canonically.
        rank = self.rank.__getitem__
        target = subset - piece
        parent = {s: None for s in piece}
        frontier = sorted(piece, key=rank)
        while frontier:
            nxt = []
            for t in frontier:
                for u in sorted(self._up[t] | self._down[t], key=rank):
                    if u in parent:
                        continue
                    parent[u] = t
                    if u in target:
                        path = set()
                        w = t
                        while w is not None and w not in subset:
                            path.add(w)
                            w = parent[w]
                        return path
                    nxt.append(u)
            frontier = nxt
        raise NotConnected("no connecting path exists")

    def gamma_enumerate(self):
        """All nonempty convex subsets.  Every subset is tested, and the
        answer itself can be exponential: a bottom below n - 1 atoms has
        2^(n-1) + n - 1."""
        out = []
        for k in range(1, len(self.elements) + 1):
            for combo in combinations(self.elements, k):
                if self.is_convex(combo):
                    out.append(frozenset(combo))
        return out

    # -- constructions ---------------------------------------------------------

    def augment(self, sets):
        """Close the order so each given set becomes one equivalence class."""
        sets = [frozenset(s) for s in sets]
        taken = set()
        for s in sets:
            if not s <= set(self.elements):
                raise UnknownElement("augmentation set %r not within proset" % (_sorted(s),))
            if s & taken:
                raise OverlappingAugmentation(
                    "augmentation sets overlap at %r" % (_sorted(s & taken),)
                )
            taken |= s
        rel = [(a, b) for a in self.elements for b in self._up[a]]
        for s in sets:
            rel.extend((a, b) for a in s for b in s)
        return Proset(self.elements, rel)

    def opposite(self):
        if self._opposite is None:
            self._opposite = Proset._closed(self.elements, self._down, self._up)
            self._opposite._opposite = self
        return self._opposite

    # -- predicates ------------------------------------------------------------

    def is_poset(self):
        return len(self.classes()) == len(self.elements)

    def is_irreducible(self):
        return len(self.components()) == 1

    def is_n_bounded(self, n):
        return all(len(self.neighborhood(s, 1)) <= n for s in self.elements)

    # -- isomorphism -------------------------------------------------------------

    def _signatures(self):
        """Each point's signature (class, up- and down-set sizes, and the
        sorted such sizes above and below it) and their sorted multiset."""
        if self._kept_signatures is None:
            up, down = self._up, self._down
            sizes = {s: (len(up[s]), len(down[s])) for s in self.elements}
            sig = {
                s: ((len(up[s] & down[s]),) + sizes[s],
                    tuple(sorted(sizes[t] for t in up[s])),
                    tuple(sorted(sizes[t] for t in down[s])))
                for s in self.elements
            }
            self._kept_signatures = sig, tuple(sorted(sig.values()))
        return self._kept_signatures

    def poset_isomorphic(self, other):
        """Order isomorphism to `other` as a dict, or None.  Works on prosets.
        Past matching signature multisets, the first map `_order_embeddings`
        yields, each point's candidates sharing its signature.  No budget:
        up to n! assignments when many points share a signature."""
        mine, invariant = self._signatures()
        theirs, their_invariant = other._signatures()
        if invariant != their_invariant:
            return None
        order = sorted(self.elements, key=lambda s: (mine[s], elem_key(s)))
        candidates = [[t for t in other.elements if theirs[t] == mine[s]] for s in order]
        return next(_order_embeddings(self, order, other, candidates), None)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Proset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, tuple(self._up[s] for s in self.elements)))

    def __repr__(self):
        return "Proset(%d elements, %d pairs)" % (len(self.elements), len(self.pairs()))


def two_block(m, n=0):
    """Proset with an n-element class below an m-element class.

    Every element of the bottom block is <= every element of the top block,
    and each block is a single equivalence class.  n == 0 gives the full
    block on m elements alone.
    """
    if m < 1 or n < 0:
        raise MalformedInput("need m >= 1 and n >= 0")
    top = ["t%d" % i for i in range(m)]
    bot = ["b%d" % i for i in range(n)]
    rel = [(a, b) for a in top for b in top]
    rel += [(a, b) for a in bot for b in bot]
    rel += [(a, b) for a in bot for b in top]
    return Proset(top + bot, rel)


def interval_closure(pro, subset):
    """One-pass interval closure; works for Proset and family alike."""
    subset = set(subset)
    out = set(subset)
    for a in subset:
        for b in subset:
            out.update(pro._between(a, b))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Infinite families
# ---------------------------------------------------------------------------


class ProsetFamily:
    """Shared interface of the built-in infinite prosets.

    Windows form a cofinal chain of finite convex subsets; restrict() turns
    one into an ordinary Proset.

    A label outside the family is refused: every query raises
    UnknownElement("-1 is not an element of N").  Each family's leq runs
    both labels through _member, first argument first, and so do the
    queries that skip leq; the others ask leq.
    """

    kind = "?"
    _windows = None

    def contains(self, s):
        raise NotImplementedError

    def __contains__(self, s):
        return self.contains(s)

    def _member(self, s):
        """s itself when the family holds it, else UnknownElement: the one
        membership test of every family query."""
        if self.contains(s):
            return s
        raise UnknownElement("%r is not an element of %s" % (s, self.kind))

    def leq(self, s1, s2):
        raise NotImplementedError

    def interval(self, s1, s2):
        raise NotImplementedError

    def equiv_class(self, s):
        return frozenset(self.interval(s, s))

    def up_set(self, s):
        self._member(s)
        raise InfiniteNeighborhood("%s has infinite up-sets" % self.kind)

    def down_set(self, s):
        self._member(s)
        raise InfiniteNeighborhood("%s has infinite down-sets" % self.kind)

    neighborhood = _neighborhood

    def has_finite_neighborhoods(self):
        try:
            self.up_set(self.window(1)[0])
        except InfiniteNeighborhood:
            return False
        return True

    def window(self, k):
        """k-th member of the canonical window chain, as a tuple of elements."""
        raise NotImplementedError

    def windows(self, count):
        return [self.window(k) for k in range(1, count + 1)]

    def restrict(self, subset):
        """Induced finite subproset; the family's order is already closed.
        leq(e, e) on the first element runs first, so a missing label is
        named in elem_key order."""
        elements = _sorted(set(subset))
        leq = self.leq
        return Proset._closed(
            elements, {a: frozenset(b for b in elements if leq(a, b)) for a in elements}
        )

    # _flood, _is_convex and interval_closure read these through leq and
    # interval, which is () off the order

    def _between(self, s1, s2):
        return self.interval(s1, s2)

    def _comparables(self, s, among):
        leq = self.leq
        return {u for u in among if leq(s, u) or leq(u, s)}

    is_convex = _is_convex
    _window_proset = _window_proset

    def is_poset(self):
        return True

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return "family %s" % self.kind

    def __eq__(self, other):
        return type(self) is type(other) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash((type(self).__name__, str(self.descriptor())))


class NFamily(ProsetFamily):
    """Natural numbers with the usual total order."""

    kind = "N"

    def contains(self, s):
        return isinstance(s, int) and not isinstance(s, bool) and s >= 0

    def leq(self, s1, s2):
        return self._member(s1) <= self._member(s2)

    def interval(self, s1, s2):
        if not self.leq(s1, s2):
            return ()
        return tuple(range(s1, s2 + 1))

    def window(self, k):
        return tuple(range(k + 1))

    def descriptor(self):
        return {"family": "N"}


class ZFamily(ProsetFamily):
    """Integers with the usual total order."""

    kind = "Z"

    def contains(self, s):
        return isinstance(s, int) and not isinstance(s, bool)

    def leq(self, s1, s2):
        return self._member(s1) <= self._member(s2)

    def interval(self, s1, s2):
        if not self.leq(s1, s2):
            return ()
        return tuple(range(s1, s2 + 1))

    def window(self, k):
        return tuple(range(-k, k + 1))

    def descriptor(self):
        return {"family": "Z"}


class ZigFamily(ProsetFamily):
    """Zigzag on Z: every even 2k sits below its odd neighbors 2k-1, 2k+1."""

    kind = "Zig"

    def contains(self, s):
        return isinstance(s, int) and not isinstance(s, bool)

    def leq(self, s1, s2):
        s1, s2 = self._member(s1), self._member(s2)
        return s1 == s2 or (s1 % 2 == 0 and abs(s2 - s1) == 1)

    def interval(self, s1, s2):
        if self.leq(s1, s2):
            return _sorted({s1, s2})
        return ()

    def up_set(self, s):
        if self._member(s) % 2 == 0:
            return (s - 1, s, s + 1)
        return (s,)

    def down_set(self, s):
        if self._member(s) % 2 == 0:
            return (s,)
        return (s - 1, s, s + 1)

    def window(self, k):
        return tuple(range(-k, k + 1))

    def descriptor(self):
        return {"family": "Zig"}


class NStarDivFamily(ProsetFamily):
    """Positive naturals ordered by divisibility.  N_1(s) is always infinite."""

    kind = "NStarDiv"

    def contains(self, s):
        return isinstance(s, int) and not isinstance(s, bool) and s >= 1

    def leq(self, s1, s2):
        s1, s2 = self._member(s1), self._member(s2)
        return s2 % s1 == 0

    def interval(self, s1, s2):
        if not self.leq(s1, s2):
            return ()
        q = s2 // s1
        divs = []
        d = 1
        while d * d <= q:
            if q % d == 0:
                divs.append(s1 * d)
                divs.append(s1 * (q // d))
            d += 1
        return tuple(sorted(set(divs)))

    def up_set(self, s):
        self._member(s)
        raise InfiniteNeighborhood("every element of N*_div has infinitely many multiples")

    def down_set(self, s):
        return self.interval(1, s)

    def window(self, k):
        return self.interval(1, lcm(*range(1, k + 2)))

    def descriptor(self):
        return {"family": {"nstar_div": True}}


class AugmentedFamily(ProsetFamily):
    """A base family with finitely many finite sets each closed into one class.

    The family keeps, once, the finite proset `base.restrict(hub points)
    .augment(sets)` on the hub points, the union of the sets.  s <= t when
    the base has s <= t, or has s <= x and y <= t for hub points x <= y of
    that proset.  So [s1, s2] is the union of the base intervals running
    from s1 and the hub points above it to s2 and the hub points below it,
    and up- and down-sets are the unions of the base ones from those points.
    """

    kind = "Augmented"

    def __init__(self, base, sets):
        self.base = base
        self.sets = tuple(frozenset(s) for s in sets)
        for s in self.sets:
            if not s:
                raise MalformedInput("augmentation sets must be nonempty")
            for x in s:
                if not base.contains(x):
                    raise UnknownElement("%r is not in the base family" % (x,))
        self._hub = base.restrict(frozenset().union(*self.sets)).augment(self.sets)

    def contains(self, s):
        return self.base.contains(s)

    def _from(self, s):
        """s and the hub points above it."""
        leq, up = self.base.leq, self._hub._up
        return {s}.union(*(up[x] for x in self._hub.elements if leq(s, x)))

    def _to(self, s):
        """s and the hub points below it."""
        leq, down = self.base.leq, self._hub._down
        return {s}.union(*(down[y] for y in self._hub.elements if leq(y, s)))

    def leq(self, s1, s2):
        leq = self.base.leq
        return any(leq(u, s2) for u in self._from(s1))

    def interval(self, s1, s2):
        base, starts, ends = self.base, self._from(s1), self._to(s2)
        out = set()
        for u in starts:
            for v in ends:
                if base.leq(u, v):
                    out.update(base.interval(u, v))
        return _sorted(out)

    def up_set(self, s):
        return _sorted(set().union(*map(self.base.up_set, self._from(s))))

    def down_set(self, s):
        return _sorted(set().union(*map(self.base.down_set, self._to(s))))

    def is_poset(self):
        return all(len(s) == 1 for s in self.sets) and self.base.is_poset()

    def window(self, k):
        """G(n), the interval closure of base.window(n) and the hub points,
        for the least n >= k at which it is connected.  G(n) is closed, as z
        in [x, y] with x in [a, b] and y in [c, d] gives a <= z <= d, so it
        is convex once connected.  It stays connected as n grows, since the
        base windows are connected and nested and every point an interval
        adds is comparable to its ends; so n is found by galloping from k
        (k, k + 1, k + 3, k + 7, ...), giving up after 64 doublings, and then
        bisecting."""
        hub = self._hub.elements

        def closure(n):
            return interval_closure(self, set(self.base.window(n)).union(hub))

        lo, hi, step = k - 1, k, 1
        w = closure(hi)
        while not _connected(self, w):
            if step == 2**64:
                raise LocalFinitenessBudgetExceeded("augmented window did not close")
            lo, hi, step = hi, hi + step, 2 * step
            w = closure(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            got = closure(mid)
            if _connected(self, got):
                hi, w = mid, got
            else:
                lo = mid
        return _sorted(w)

    def descriptor(self):
        return {
            "augment": {
                "base": self.base.descriptor(),
                "sets": [list(_sorted(s)) for s in self.sets],
            }
        }

    def __eq__(self, other):
        return type(self) is type(other) and (self.base, self.sets) == (other.base, other.sets)

    def __hash__(self):
        return hash((self.base, self.sets))


class CustomFamily(ProsetFamily):
    """Programmatic family: leq and interval callbacks with a hard budget.

    Every enumeration the callbacks feed is cut off at `budget` elements and
    LocalFinitenessBudgetExceeded raised, so a wrong callback cannot hang the
    process.
    """

    kind = "Custom"

    def __init__(self, leq, interval, contains=None, window=None,
                 budget=DEFAULT_BUDGET, poset=True):
        self._leq = leq
        self._interval = interval
        self._contains = contains or (lambda s: True)
        self._window = window
        self.budget = budget
        self._poset = poset

    def contains(self, s):
        return self._contains(s)

    def leq(self, s1, s2):
        return self._leq(self._member(s1), self._member(s2))

    def interval(self, s1, s2):
        if not self.leq(s1, s2):
            return ()
        return _sorted(self._capped(self._interval(s1, s2), "interval [%r, %r]" % (s1, s2)))

    def window(self, k):
        if self._window is None:
            raise MalformedInput("this custom family has no window callback")
        return self._capped(self._window(k), "window %d" % k)

    def _capped(self, items, what):
        """The callback's items as a tuple, refused past `budget` of them."""
        got = tuple(islice(iter(items), self.budget + 1))
        if len(got) > self.budget:
            raise LocalFinitenessBudgetExceeded("%s exceeded budget %d" % (what, self.budget))
        return got

    def is_poset(self):
        return self._poset

    def descriptor(self):
        raise MalformedInput("a custom family has no JSON descriptor")

    # the callbacks are opaque, so two custom families are equal only when
    # they are one object
    __eq__ = object.__eq__
    __hash__ = object.__hash__
