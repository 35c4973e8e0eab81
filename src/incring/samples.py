"""Enumerating small prosets up to isomorphism, and random generators used
throughout the tests.

Posets are enumerated by repeatedly adjoining a new maximal element over
every downward-closed subset, discarding isomorphic duplicates; the counts
1, 2, 5, 16, 63, 318, 2045 for one through seven points are a useful
cross-check.  Prosets come from blowing up poset types on the class quotient
by all ways of assigning class sizes.

Duplicates are found by bucketing candidates on their kept signature
multiset (`Proset._signatures`) and testing isomorphism only inside a
bucket.  Both that test (`Proset.poset_isomorphic`) and `random_fcc_map`'s
component embeddings run the one search, `prosets._order_embeddings`.
"""

from .errors import MalformedInput
from .matrices import IncMatrix
from .prosets import Proset, _order_embeddings

__all__ = [
    "enumerate_posets",
    "enumerate_prosets",
    "irreducible_prosets",
    "random_poset",
    "random_proset",
    "random_matrix",
    "random_fcc_map",
    "random_finitary",
]


def _downsets(pro):
    els = list(pro.elements)
    for mask in range(2 ** len(els)):
        sub = {els[i] for i in range(len(els)) if mask >> i & 1}
        if all(pro.down_set(s) <= sub for s in sub):
            yield sub


def _distinct(cands):
    """The candidates isomorphic to no earlier one, in order.  Isomorphic
    prosets share the kept signature multiset, so each candidate is tested
    only against the kept ones in its multiset's bucket."""
    out, buckets = [], {}
    for cand in cands:
        bucket = buckets.setdefault(cand._signatures()[1], [])
        if not any(cand.poset_isomorphic(q) for q in bucket):
            bucket.append(cand)
            out.append(cand)
    return out


def enumerate_posets(n):
    """All posets on exactly n points, up to isomorphism, on labels 0..n-1."""
    if n == 0:
        return [Proset([], [])]
    found = [Proset([0], [])]
    for size in range(2, n + 1):
        found = _distinct(
            Proset(list(pro.elements) + [size - 1],
                   list(pro.pairs()) + [(s, size - 1) for s in below])
            for pro in found
            for below in _downsets(pro)
        )
    return found


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _blow_up(quotient, sizes):
    elements = []
    rel = []
    classes = list(quotient.elements)
    for i, c in enumerate(classes):
        elements.extend((i, j) for j in range(sizes[i]))
    for i, c1 in enumerate(classes):
        for k, c2 in enumerate(classes):
            if quotient.leq(c1, c2):
                rel.extend(
                    ((i, j1), (k, j2))
                    for j1 in range(sizes[i])
                    for j2 in range(sizes[k])
                )
    return Proset(elements, rel)


def enumerate_prosets(n):
    """All prosets on exactly n points up to isomorphism: poset types on the
    class quotient, blown up by every class-size assignment."""
    return _distinct(
        _blow_up(quotient, sizes)
        for k in range(1, n + 1)
        for quotient in enumerate_posets(k)
        for sizes in _compositions(n, k)
    )


def irreducible_prosets(n):
    return [p for p in enumerate_prosets(n) if p.is_irreducible()]


def random_poset(n, rng):
    """Random poset: each pair along a shuffled linear order is related
    with probability 0.35."""
    order = list(range(n))
    rng.shuffle(order)
    rel = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                rel.append((order[i], order[j]))
    return Proset(range(n), rel)


def random_proset(n, rng):
    """Random proset: random class sizes over a random poset of classes."""
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return _blow_up(random_poset(k, rng), sizes)


def random_matrix(pro, ring, rng):
    """Random element of M_ring(pro): each order pair draws an entry with
    probability 0.6."""
    entries = {}
    for p in pro.pairs():
        if rng.random() < 0.6:
            v = ring.random(rng)
            if v != ring.zero:
                entries[p] = v
    return IncMatrix(pro, ring, entries)


def _component_embeddings(comp, dom, cod):
    """All maps of one connected component, listed in canonical order, that
    are embeddings onto a convex image: those of `_order_embeddings`, every
    codomain point a candidate, whose image is convex."""
    maps = _order_embeddings(dom, comp, cod, [cod.elements] * len(comp))
    return [m for m in maps if cod.is_convex(m.values())]


def random_fcc_map(dom, cod, rng):
    """Random admissible map: each component flips a fair coin between a
    constant onto a trivial-class point and a random convex embedding, each
    side falling back to the other when no choice exists."""
    from .functor_cat import FccMap

    mapping = {}
    flat = [s for s in cod.elements if cod.is_convex((s,))]
    for comp in dom.components():
        comp = sorted(comp, key=dom.rank.__getitem__)
        options = None
        if not flat or rng.random() >= 0.5:
            options = _component_embeddings(comp, dom, cod)
        if options:
            choice = options[rng.randrange(len(options))]
            mapping.update(choice)
        elif flat:
            target = flat[rng.randrange(len(flat))]
            mapping.update({s: target for s in comp})
        else:
            raise MalformedInput(
                "component %r has no admissible image in the codomain" % (comp,)
            )
    return FccMap(dom, cod, mapping)


def random_finitary(family, ring, rng, span=3, invertible=True):
    """Random finitary element supported inside window(span): each strict
    pair draws an entry with probability 1/2, and each diagonal point draws
    an exception to the default 1 with probability 1/4.  With `invertible` the diagonal
    stays on units, so over poset families the element is a unit."""
    from .lazy import lazy_finitary

    window = list(family.window(span))
    sub = family.restrict(window)
    off = {}
    for (s1, s2) in sub.strict_pairs():
        if rng.random() < 0.5:
            v = ring.random(rng)
            if v != ring.zero:
                off[(s1, s2)] = v
    exceptions = {}
    for s in window:
        if rng.random() < 0.25:
            if invertible:
                units = [u for u in (ring.canon(-1), ring.canon(2), ring.canon(3)) if ring.is_unit(u)]
                if ring.finite:
                    units = ring.units()
                exceptions[s] = units[rng.randrange(len(units))]
            else:
                exceptions[s] = ring.random(rng)
    default = ring.one
    return lazy_finitary(family, ring, off_diag=off, exceptions=exceptions, default=default)
