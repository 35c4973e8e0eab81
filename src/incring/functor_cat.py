"""Maps between prosets that induce ring homs, and the colimits they admit.

A map is admissible when it preserves order and, on each connected component
of its domain, is either constant or an embedding onto a convex subproset.
Admissible maps pull matrices back contravariantly, entries kept as read.
Pushouts and coequalizers exist but may collapse components: starting from
the forced identifications, any component a leg fails to treat admissibly is
flattened to a point, repeated to a fixed point.  That is the least quotient
making both legs admissible, and the mediating-map property is exact for it.
Both validate_fcc and the collapse class each component by one routine,
_component_kind, so the collapse's last round certifies the legs it returns;
an embedded component takes one convexity test, of its whole image.  A
decomposition tree is searched on the order alone: a cut at two classes
glues back exactly when each is minimal or maximal and neither covers the
other, so no pushout runs until reassemble, which pushes out each node once
and certifies the tree by carrying each piece's isomorphism through the
pushout legs, not by searching for one.
"""

from .errors import (
    IncompatibleOperands,
    MalformedInput,
    NoValidCutPair,
    NotComposable,
    NotConvexImage,
    NotFcc,
    NotIrreducible,
    NotOrderPreserving,
    NotParallel,
    UnknownElement,
)
from .matrices import IncMatrix, _raw, identity, scalar_diag, unit
from .prosets import Proset, _close, _connected, elem_key
from .rings import PrimeField

__all__ = [
    "FccMap",
    "validate_fcc",
    "induced_hom",
    "compose",
    "identity_map",
    "surjectivity_report",
    "coproduct",
    "coproduct_mediator",
    "pushout",
    "pushout_mediator",
    "coequalizer",
    "equalizer_check",
    "generation_decompose",
    "reassemble",
]


class FccMap:
    """A map of prosets given by an explicit dict on elements."""

    def __init__(self, domain, codomain, mapping):
        self.domain = domain
        self.codomain = codomain
        self.mapping = dict(mapping)
        for s in domain.elements:
            if s not in self.mapping:
                raise MalformedInput("no image for %r" % (s,))
            if self.mapping[s] not in codomain:
                raise UnknownElement("image %r is not in the codomain" % (self.mapping[s],))
        if len(self.mapping) != len(domain):
            stray = next(k for k in self.mapping if k not in domain)
            raise UnknownElement("%r is mapped but is not in the domain" % (stray,))

    def __call__(self, s):
        try:
            return self.mapping[s]
        except KeyError:
            raise UnknownElement("%r is not an element of the domain" % (s,)) from None

    def image(self):
        return set(self.mapping.values())

    def is_surjective(self):
        return self.image() == set(self.codomain.elements)

    def __eq__(self, other):
        return (
            isinstance(other, FccMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple(sorted(self.mapping.items(), key=lambda kv: elem_key(kv[0])))))

    def __repr__(self):
        return "FccMap(%r)" % (self.mapping,)


def _component_kind(dom, cod, comp, imgs):
    """How sending the component `comp` of `dom`, in rank order, to `imgs`
    treats it: ("constant", v) or ("embedding",) when admissible, else the
    first fault of ("class", v), ("merge",), ("order", s1, s2) and
    ("convex",).  Order preservation is not tested.  One convexity test, of
    the whole image, certifies an embedding: f reflects order there, so an
    interval between points of f(C), C convex in comp, pulls back into C."""
    values = set(imgs)
    if len(values) == 1:
        return ("constant" if cod.is_convex(values) else "class", imgs[0])
    if len(values) < len(comp):
        return ("merge",)
    for s1, x in zip(comp, imgs):
        for s2, y in zip(comp, imgs):
            if s1 != s2 and cod.leq(x, y) and not dom.leq(s1, s2):
                return ("order", s1, s2)
    return ("embedding",) if cod.is_convex(values) else ("convex",)


def _least_witness(f, comp):
    """The least convex subset of an embedded component, by size and then by
    the ranks of its points, whose image is not convex.  It is an interval:
    if C is convex and f(a) <= z <= f(b) for a, b in C and z outside f(C),
    then a <= b as f reflects order, and f([a, b]) is not convex either.  So
    the O(|comp|^2) intervals are searched, not the subsets."""
    dom, rank = f.domain, f.domain.rank.__getitem__
    cands = sorted({dom.interval(a, b) for a in comp for b in comp if dom.leq(a, b)},
                   key=lambda c: (len(c), [rank(s) for s in c]))
    return next(c for c in cands if not f.codomain.is_convex(map(f, c)))


def validate_fcc(f):
    """Check admissibility.  Returns one record per component of the domain,
    ('constant', component, value) or ('embedding', component).  Raises
    NotOrderPreserving, NotConvexImage or NotFcc; a non-convex image is
    reported with its least witness."""
    dom, cod = f.domain, f.codomain
    for (s1, s2) in dom.pairs():
        if not cod.leq(f(s1), f(s2)):
            raise NotOrderPreserving(
                "%r <= %r but %r is not <= %r" % (s1, s2, f(s1), f(s2))
            )
    out = []
    rank = dom.rank.__getitem__
    for comp in dom.components():
        comp = sorted(comp, key=rank)
        kind = _component_kind(dom, cod, comp, [f(s) for s in comp])
        if kind[0] == "class":
            raise NotConvexImage("component %r is constant at %r, whose singleton is not "
                                 "convex downstream" % (comp, kind[1]))
        if kind[0] == "merge":
            raise NotFcc("component %r is neither constant nor injective" % (comp,))
        if kind[0] == "order":
            raise NotFcc("component %r does not embed: order appears between %r and %r "
                         "only downstream" % (comp, kind[1], kind[2]))
        if kind[0] == "convex":
            cand = _least_witness(f, comp)
            raise NotConvexImage("convex %r has non-convex image %r"
                                 % (cand, sorted(map(f, cand), key=elem_key)))
        out.append((kind[0], tuple(comp)) + kind[1:])
    return out


def identity_map(pro):
    return FccMap(pro, pro, {s: s for s in pro.elements})


def compose(f, g):
    """Diagrammatic composite of f then g."""
    if f.codomain != g.domain:
        raise NotComposable("codomain of the first map is not the domain of the second")
    return FccMap(f.domain, g.codomain, {s: g(f(s)) for s in f.domain.elements})


def induced_hom(f, matrix):
    """Pull a matrix over the codomain back along an admissible map.

    The (t1, t2) entry is the (f(t1), f(t2)) entry upstream, except that
    distinct points of a collapsed component only receive the diagonal.
    Entries are kept as read: canonical upstream, placed on the domain's order."""
    if matrix.pro != f.codomain:
        raise IncompatibleOperands("matrix lives over a different proset")
    image, read = f.mapping, matrix.entries.get
    entries = {}
    for (t1, t2) in f.domain.pairs():
        x, y = image[t1], image[t2]
        if (x != y or t1 == t2) and (v := read((x, y))) is not None:
            entries[(t1, t2)] = v
    return _raw(f.domain, matrix.ring, entries)


def surjectivity_report(f, ring):
    """Whether every order pair downstream is hit by a comparable pair
    upstream, and whether the induced hom is injective.  Pair-surjectivity
    forces injectivity: basis units at distinct pairs pull back to matrices
    with disjoint supports, nonzero exactly when the pair lifts."""
    dom, cod = f.domain, f.codomain
    lifted = set()
    for (t1, t2) in dom.pairs():
        if t1 == t2 or f(t1) != f(t2):
            lifted.add((f(t1), f(t2)))
    pair_surjective = lifted == set(cod.pairs())
    injective = True
    for (s1, s2) in cod.pairs():
        probe = IncMatrix(cod, ring, {(s1, s2): ring.one})
        if induced_hom(f, probe).is_zero():
            injective = False
            break
    return {
        "element_surjective": f.is_surjective(),
        "pair_surjective": pair_surjective,
        "hom_injective": injective,
        "implication_holds": (not pair_surjective) or injective,
    }


# -- colimits -----------------------------------------------------------------


def coproduct(prosets):
    """Disjoint union with tagged elements, plus the injections."""
    elements = []
    rel = []
    for i, pro in enumerate(prosets):
        elements.extend((i, s) for s in pro.elements)
        rel.extend(((i, s1), (i, s2)) for (s1, s2) in pro.pairs())
    total = Proset(elements, rel)
    injections = [
        FccMap(pro, total, {s: (i, s) for s in pro.elements})
        for i, pro in enumerate(prosets)
    ]
    return total, injections


def coproduct_mediator(injections, maps):
    """The unique map out of a disjoint union restricting to the given maps."""
    if len(injections) != len(maps):
        raise IncompatibleOperands("need one map per summand")
    total = injections[0].codomain
    cod = maps[0].codomain
    mapping = {}
    for inj, m in zip(injections, maps):
        if m.codomain != cod:
            raise IncompatibleOperands("maps target different prosets")
        for s in inj.domain.elements:
            mapping[inj(s)] = m(s)
    h = FccMap(total, cod, mapping)
    validate_fcc(h)
    return h


class _Partition:
    """Union-find over items in canonical order; each root is its class's earliest item."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.index = {x: i for i, x in enumerate(items)}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.index[ry] < self.index[rx]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def classes(self):
        buckets = {}
        for x in self.parent:
            buckets.setdefault(self.find(x), set()).add(x)
        return {root: frozenset(members) for root, members in buckets.items()}


def _quotient_of(parts, carriers):
    """Quotient proset of tagged carriers by a partition: classes become
    frozensets, order is the transitive closure of the pushed-down relations.

    The classes come in the order of their roots' indices.  That is their
    elem_key order with no sort of nested frozensets: the items are listed
    in elem_key order and each root is its class's least item."""
    classes = parts.classes()
    label = {x: classes[parts.find(x)] for x in parts.parent}
    order = tuple(classes[r] for r in sorted(classes, key=parts.index.__getitem__))
    rel = []
    for i, pro in carriers:
        for (s1, s2) in pro.pairs():
            rel.append((label[(i, s1)], label[(i, s2)]))
    return Proset._closed(order, _close(order, rel)), label


def _forced_collapse(parts, carriers):
    """Grow the partition until every leg is admissible into the quotient.
    A component a leg sends constantly onto a point of a larger class
    flattens that class; one it fails to embed onto a convex image
    (_component_kind) is flattened to one class.  Either joins two classes,
    so the round that returns found every component admissible."""
    while True:
        quo, label = _quotient_of(parts, carriers)
        changed = False
        for i, pro in carriers:
            for comp in pro.components():
                comp = sorted(comp, key=pro.rank.__getitem__)
                kind = _component_kind(pro, quo, comp, [label[(i, s)] for s in comp])
                if kind[0] in ("constant", "embedding"):
                    continue
                if kind[0] == "class":
                    members = [x for c in quo.equiv_class(kind[1]) for x in c]
                else:
                    members = [(i, s) for s in comp]
                for x in members[1:]:
                    changed |= parts.union(members[0], x)
        if not changed:
            return quo, label


def pushout(f, g):
    """Pushout of the span along f and g out of a common proset.

    Returns (object, leg1, leg2).  Seeds identify f(s) with g(s), the forced
    collapse makes both legs admissible, and the result is least: any
    commuting admissible pair is already constant on whatever gets flattened,
    so the mediating map always exists (pushout_mediator recovers it).  The
    collapse's last round certifies the legs, which preserve the closed order."""
    if f.domain != g.domain:
        raise IncompatibleOperands("legs of the span start at different prosets")
    carriers = [(1, f.codomain), (2, g.codomain)]
    items = [(1, s) for s in f.codomain.elements] + [(2, s) for s in g.codomain.elements]
    parts = _Partition(items)
    for s in f.domain.elements:
        parts.union((1, f(s)), (2, g(s)))
    quo, label = _forced_collapse(parts, carriers)
    q1 = FccMap(f.codomain, quo, {s: label[(1, s)] for s in f.codomain.elements})
    q2 = FccMap(g.codomain, quo, {s: label[(2, s)] for s in g.codomain.elements})
    return quo, q1, q2


def pushout_mediator(q1, q2, h1, h2):
    """Recover the unique map out of a pushout agreeing with h1, h2 on the
    legs.  Raises if the pair is not constant on some identified class."""
    if h1.codomain != h2.codomain:
        raise IncompatibleOperands("maps target different prosets")
    mapping = {}
    for q, h in ((q1, h1), (q2, h2)):
        for s in q.domain.elements:
            cls = q(s)
            v = h(s)
            if cls in mapping and mapping[cls] != v:
                raise IncompatibleOperands(
                    "the pair is not constant on the identified class %r" % (cls,)
                )
            mapping[cls] = v
    h = FccMap(q1.codomain, h1.codomain, mapping)
    validate_fcc(h)
    return h


def coequalizer(f1, f2):
    """Coequalizer of a parallel pair: identify f1(t) with f2(t), run the
    forced collapse, then flatten every quotient component in which points
    from different equivalence classes were glued.

    The last pass is what keeps the pulled-back hom injective.  Without it,
    gluing across pieces of the codomain can manufacture a quotient pair by
    transitivity that no order pair of the codomain maps onto, and the basis
    unit at such a pair would pull back to zero.  After the pass every class
    sits inside a single equivalence class, so any chain witnessing an order
    pair of the quotient splices into an order pair of the codomain.  The
    leg is certified as in pushout, the glued pass after it changing nothing."""
    if f1.domain != f2.domain or f1.codomain != f2.codomain:
        raise NotParallel("the maps are not a parallel pair")
    cod = f1.codomain
    carriers = [(1, cod)]
    parts = _Partition([(1, s) for s in cod.elements])
    for t in f1.domain.elements:
        parts.union((1, f1(t)), (1, f2(t)))
    while True:
        quo, label = _forced_collapse(parts, carriers)
        changed = False
        for comp in quo.components():
            if any(not cod.leq(a, b) for cls in comp for (_, a) in cls for (_, b) in cls):
                members = [x for cls in comp for x in cls]
                for x in members[1:]:
                    changed |= parts.union(members[0], x)
        if not changed:
            break
    q = FccMap(cod, quo, {s: label[(1, s)] for s in cod.elements})
    return quo, q


def _spanning_set(pro, ring):
    """Identity, a couple of scalar diagonals, and every basis unit."""
    mats = [identity(pro, ring), scalar_diag(pro, ring, ring.add(ring.one, ring.one))]
    for (s1, s2) in pro.pairs():
        mats.append(unit(pro, ring, s1, s2))
    return mats


def _probe_factors(f1, f2, p, h, ring):
    if h.domain != f1.codomain:
        return {"factors": False, "reason": "probe does not start at the codomain"}
    if compose(f1, h) != compose(f2, h):
        return {"factors": False, "reason": "does not commute with the pair"}
    try:  # the map read off p's classes: a pushout mediator with p as both legs
        u = pushout_mediator(p, p, h, h)
    except IncompatibleOperands:
        return {"factors": False, "reason": "not constant on an identified class"}
    except (NotOrderPreserving, NotConvexImage, NotFcc) as exc:
        return {"factors": False, "reason": type(exc).__name__}
    for x in _spanning_set(h.codomain, ring):
        if induced_hom(h, x) != induced_hom(p, induced_hom(u, x)):
            return {"factors": False, "reason": "factoring breaks on the spanning set"}
    return {"factors": True}


def equalizer_check(f1, f2, ring=None, probes=()):
    """Audit that pulling back along the coequalizer leg equalizes the pair.

    Builds the coequalizer (quo, p) and verifies over the ring (GF(2) when
    omitted), on the spanning set of the quotient ring, that the pullback
    along p is equalized by the pullbacks along f1 and f2 and is injective.
    Each probe map h out of the shared codomain with h after f1 == h after
    f2 must then factor ring-side through p via the mediating map read off
    the quotient classes.  The leg itself and the collapse of the quotient
    onto its components are always probed; more maps can be passed in."""
    if f1.domain != f2.domain or f1.codomain != f2.codomain:
        raise NotParallel("the maps are not a parallel pair")
    if ring is None:
        ring = PrimeField(2)
    quo, p = coequalizer(f1, f2)
    equalizes = all(
        induced_hom(f1, induced_hom(p, x)) == induced_hom(f2, induced_hom(p, x))
        for x in _spanning_set(quo, ring)
    )
    injective = True
    seen = []
    for (s1, s2) in quo.pairs():
        support = set(induced_hom(p, unit(quo, ring, s1, s2)).entries)
        if not support or any(support & other for other in seen):
            injective = False
            break
        seen.append(support)
    comps = quo.components()
    points = Proset(list(range(len(comps))), [])
    collapse = FccMap(quo, points, {s: i for i, comp in enumerate(comps) for s in comp})
    reports = [
        _probe_factors(f1, f2, p, h, ring)
        for h in [p, compose(p, collapse)] + list(probes)
    ]
    return {
        "equalizes": equalizes,
        "injective": injective,
        "probes": reports,
        "passed": equalizes and injective and all(r["factors"] for r in reports),
    }


# -- generation by two-class blocks --------------------------------------------------


def _class_pairs(pro):
    reps = [min(c, key=pro.rank.__getitem__) for c in pro.classes()]
    return [(a, b) for a in reps for b in reps if a != b]


def _cut_pieces(pro, a, b):
    """The pieces of a cut at the classes of a and b: everything off b's
    class, everything off a's class, and their overlap."""
    na, nb = pro.equiv_class(a), pro.equiv_class(b)
    left = [s for s in pro.elements if s not in nb]
    right = [s for s in pro.elements if s not in na]
    mid = [s for s in left if s not in na]
    return left, right, mid


def _extremal(pro, s):
    """Nothing lies strictly below s, or nothing strictly above it."""
    down, up = pro.down_set(s), pro.up_set(s)
    return down <= up or up <= down


def _cut_glues(pro, a, b):
    """The pushout of a cut's overlap into its two pieces rebuilds pro,
    decided on pro's order: the classes of a and b are each minimal or
    maximal, and if one is below the other some point lies strictly between
    them.  generation_decompose explains why."""
    if not (_extremal(pro, a) and _extremal(pro, b)):
        return False
    if pro.leq(b, a):
        a, b = b, a
    if not pro.leq(a, b):
        return True
    return bool((pro.up_set(a) & pro.down_set(b)) - pro.down_set(a) - pro.up_set(b))


def generation_decompose(pro):
    """Split a connected proset along a pair of classes whose removal leaves
    connected overlapping pieces whose pushout rebuilds the whole thing, down
    to leaves with at most two classes.

    A cut at the classes A and B of P has the pieces L = P - B and R = P - A,
    which meet in M = P - (A u B); with three classes or more all three are
    nonempty.  The pieces recurse, so both must be connected.  The overlap
    may fall apart (gluing a vee to a wedge across a two-point antichain is
    how the diamond arises); its components just embed piecewise.  Whether
    the pushout of M's inclusions into L and R rebuilds P is decided by
    _cut_glues on P's order in O(|P|), and no pushout runs until
    reassemble, which glues the tree back and certifies it.  The test and
    the pushout agree on every cut:
    - the glued order is the closure of the two pieces' orders, which are
      P's, so it can miss only a relation between A and B, and every chain
      from A to B crosses the overlap: a < b survives exactly when some m in
      M has a <= m <= b, that is, some point lies strictly between them;
    - a piece that is not convex, R say with x < a < y for x, y in R, either
      loses a relation between A and B or has its leg flattened by the
      collapse, which leaves fewer than |P| points, so the glued map is no
      isomorphism; R is not convex exactly when A is neither minimal nor
      maximal, and likewise L and B;
    - with both classes extremal, every component of the overlap is convex
      in both pieces (a point of A between two points of M would put A
      strictly between them), so the inclusions are admissible, nothing
      collapses, and the overlap test that once preceded the pushout is
      implied."""
    if not pro.is_irreducible():
        raise NotIrreducible("decomposition starts from a connected proset")
    classes = pro.classes()
    if len(classes) <= 2:
        sizes = sorted(len(c) for c in classes)
        return {"leaf": True, "proset": pro, "classes": len(classes), "sizes": sizes}
    for a, b in _class_pairs(pro):
        if not _cut_glues(pro, a, b):
            continue
        left, right, _ = _cut_pieces(pro, a, b)
        if not (_connected(pro, left) and _connected(pro, right)):
            continue
        return {
            "leaf": False,
            "proset": pro,
            "cut": (a, b),
            "left": generation_decompose(pro.restrict(left)),
            "right": generation_decompose(pro.restrict(right)),
        }
    raise NoValidCutPair("no class pair splits this proset")


def _glued_iso(pro, quo, left, right, on_left, on_right):
    """The map sending s in `left` to on_left(s) and s in `right` to
    on_right(s), when the two agree on the overlap and it is an order
    isomorphism from pro onto quo, in O(|pro|^2) leq tests; else None."""
    if len(quo) != len(pro):
        return None
    mapping = {s: on_left(s) for s in left}
    for s in right:
        if mapping.setdefault(s, on_right(s)) != on_right(s):
            return None
    if len(set(mapping.values())) != len(pro):
        return None
    for s1 in pro.elements:
        for s2 in pro.elements:
            if quo.leq(mapping[s1], mapping[s2]) != pro.leq(s1, s2):
                return None
    return mapping


def reassemble(tree):
    """Rebuild the proset of a decomposition tree from its leaves by the same
    pushouts, to confirm nothing was lost.  The rebuilt pieces carry their own
    labels and an isomorphism from the tree's piece: a leaf the identity, a
    node s -> q1(iso_l[s]) on its left piece and q2(iso_r[s]) on its right.
    That carried map, checked at every node, is the certificate."""
    return _rebuild(tree)[0]


def _rebuild(tree):
    pro = tree["proset"]
    if tree["leaf"]:
        return pro, {s: s for s in pro.elements}
    left, right, mid = _cut_pieces(pro, *tree["cut"])
    pl, iso_l = _rebuild(tree["left"])
    pr, iso_r = _rebuild(tree["right"])
    if iso_l.keys() != set(left) or iso_r.keys() != set(right):
        raise NoValidCutPair("a piece does not match its cut")
    pm = pro.restrict(mid)
    fl = FccMap(pm, pl, {s: iso_l[s] for s in mid})
    fr = FccMap(pm, pr, {s: iso_r[s] for s in mid})
    quo, q1, q2 = pushout(fl, fr)
    iso = _glued_iso(pro, quo, left, right, lambda s: q1(iso_l[s]), lambda s: q2(iso_r[s]))
    if iso is None:
        raise NoValidCutPair("a rebuilt piece lost its shape")
    return quo, iso
