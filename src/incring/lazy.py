"""Matrices over infinite families: coordinate oracles, finitary elements,
window projections realizing the inverse limit, and the augmented direct
limit aGL.

Every product and inverse is an M_n(P) operation on finite blocks (_block).
A finitary result is computed at once on the sites its operands touch; any
other result keeps its operation and operands, and runs them on W's kept
subproset for project(W) and on the interval [s1, s2] for entry(s1, s2).
"""

from .errors import (
    HypothesisViolation,
    IncompatibleOperands,
    InfiniteNeighborhood,
    MalformedInput,
    NotInvertible,
    UnknownElement,
)
from .glgroup import centrality_generators, certify, enumerate_invertibles, invert, mulclose
from .matrices import IncMatrix, _read, identity
from .prosets import AugmentedFamily

__all__ = [
    "LazyMatrix",
    "lazy_from_oracle",
    "lazy_finitary",
    "lazy_identity",
    "lazy_mul",
    "lazy_invert",
    "AglElement",
    "agl_identity",
    "agl_embed",
    "agl_mul",
    "agl_invert",
    "qz_window_check",
    "named_oracle",
]


class LazyMatrix:
    """Matrix over a family, queried coordinatewise.

    `finitary` is None for oracles, else a triple (off_diag dict,
    diag_exceptions dict, diag_default).  An oracle result of lazy_mul or
    lazy_invert holds (operation, operands) in `_op` instead of an oracle.
    """

    _op = None

    def __init__(self, family, ring, oracle=None, finitary=None):
        self.family = family
        self.ring = ring
        self._memo = {}
        if finitary is not None:
            off, exc, default = finitary
            off = {k: c for k, v in off.items() if (c := ring.canon(v)) != ring.zero}
            default = ring.canon(default)
            exc = {s: c for s, v in exc.items() if (c := ring.canon(v)) != default}
            self.finitary = (off, exc, default)
            for s in self.support_sites():
                if s not in family:
                    raise UnknownElement("%r is not an element of %r" % (s, family))
            for (s1, s2) in off:
                if s1 == s2 or not family.leq(s1, s2):
                    raise IncompatibleOperands(
                        "off-diagonal key (%r, %r) is not a strict order pair" % (s1, s2)
                    )
            self.oracle = None
        else:
            if oracle is None:
                raise MalformedInput("need an oracle or a finitary descriptor")
            self.finitary = None
            self.oracle = oracle

    def entry(self, s1, s2):
        if self.finitary is not None:
            off, exc, default = self.finitary
            if s1 == s2:
                return exc.get(s1, default)
            return off.get((s1, s2), self.ring.zero)
        if not self.family.leq(s1, s2):
            return self.ring.zero
        key = (s1, s2)
        if key not in self._memo:
            if self._op is None:
                self._memo[key] = self.ring.canon(self.oracle(s1, s2))
            else:
                box = self.family.restrict(self.family.interval(s1, s2))
                self._memo[key] = _block(self, box).entry(s1, s2)
        return self._memo[key]

    def support_sites(self):
        """Elements touched by the finitary descriptor."""
        off, exc, _ = self.finitary
        return set(exc).union(*off)

    def project(self, window):
        """pi_window: restriction to a finite convex window (NotConvex
        otherwise), as an IncMatrix.  The family keeps the subproset of a
        window that passed the test, so projecting onto it again reuses it."""
        return _block(self, self.family._window_proset(window))

    def __repr__(self):
        kind = "finitary" if self.finitary is not None else "oracle"
        return "LazyMatrix(%s over %r)" % (kind, self.family)


def lazy_from_oracle(family, ring, fn):
    return LazyMatrix(family, ring, oracle=fn)


def lazy_finitary(family, ring, off_diag=(), exceptions=(), default=None):
    default = ring.one if default is None else default
    return LazyMatrix(family, ring, finitary=(dict(off_diag), dict(exceptions), default))


def lazy_identity(family, ring):
    return lazy_finitary(family, ring)


def _derived(op, *operands):
    """The oracle result of `op` on lazy operands, kept as that record."""
    out = LazyMatrix.__new__(LazyMatrix)
    out.family, out.ring, out._memo = operands[0].family, operands[0].ring, {}
    out.finitary = out.oracle = None
    out._op = (op, operands)
    return out


def _block(x, sub):
    """`x` on `sub`, a finite subproset of its family, as an IncMatrix.  An
    oracle result runs its operation on its operands' blocks.  That needs
    `sub` convex: then every interval between its points lies in it, so
    pi_sub(ab) = pi_sub(a) pi_sub(b) and pi_sub(a^-1) = pi_sub(a)^-1."""
    if x._op is None:
        return _read(x, sub)
    op, operands = x._op
    return op(*(_block(y, sub) for y in operands))


def _on_sites(op, default, *operands):
    """op on finitary operands, run on their blocks on the union of their
    sites, where restriction is multiplicative (such matrices form a
    subring); `default` is the result's diagonal off the sites."""
    family, ring = operands[0].family, operands[0].ring
    sites = set().union(*(x.support_sites() for x in operands))
    sub = family.restrict(sites)
    block = op(*(_block(x, sub) for x in operands))
    off = {k: v for k, v in block.entries.items() if k[0] != k[1]}
    exc = {s: block.entry(s, s) for s in sub.elements}
    return LazyMatrix(family, ring, finitary=(off, exc, default))


def lazy_mul(a, b):
    """Product of lazy matrices; finitary operands produce a finitary result,
    anything else an oracle result evaluated on blocks (see _block)."""
    if a.family != b.family or a.ring != b.ring:
        raise IncompatibleOperands("lazy operands over different families or rings")
    if a.finitary is not None and b.finitary is not None:
        return _on_sites(IncMatrix.mul, a.ring.mul(a.finitary[2], b.finitary[2]), a, b)
    return _derived(IncMatrix.mul, a, b)


def lazy_invert(a):
    """Inverse of a lazy matrix.

    Finitary input gives a finitary inverse at once.  Otherwise the oracle
    result's project(W) inverts a's |W|-point block on W once, and a single
    entry (s1, s2) inverts a's block on [s1, s2]; NotInvertible names the
    first singular class of that block.
    """
    ring = a.ring
    if a.finitary is not None:
        default = a.finitary[2]
        if not ring.is_unit(default):
            raise NotInvertible("diagonal default %s is not a unit" % ring.format(default))
        return _on_sites(invert, ring.inv(default), a)
    return _derived(invert, a)


# -- the augmented direct limit ------------------------------------------------


class AglElement:
    """Element of aGL: a finite augmentation set S together with a finitary
    invertible body over the base family augmented at S."""

    def __init__(self, base, ring, aug_set, body):
        self.base = base
        self.ring = ring
        self.aug_set = frozenset(aug_set)
        self.body = body

    def augmented_family(self):
        if not self.aug_set:
            return self.base
        return AugmentedFamily(self.base, [self.aug_set])

    def entry(self, s1, s2):
        return self.body.entry(s1, s2)

    def project(self, window):
        """pi_window of the body: see LazyMatrix.project."""
        return self.body.project(window)

    def __repr__(self):
        return "AglElement(S=%r)" % (sorted(self.aug_set),)


def agl_identity(base, ring):
    return AglElement(base, ring, frozenset(), lazy_identity(base, ring))


def agl_embed(g, bigger_set):
    """j_{S -> S'}: the same entries read over the coarser augmented order.
    Products and inverses commute with this embedding because every entry a
    bigger interval picks up is zero in the smaller body."""
    bigger = frozenset(bigger_set)
    if not g.aug_set <= bigger:
        raise IncompatibleOperands("can only embed into a larger augmentation set")
    out = AglElement(g.base, g.ring, bigger, None)
    off, exc, default = g.body.finitary
    out.body = LazyMatrix(out.augmented_family(), g.ring, finitary=(dict(off), dict(exc), default))
    return out


def agl_mul(g, h):
    if g.base != h.base or g.ring != h.ring:
        raise IncompatibleOperands("aGL elements over different bases")
    joint = g.aug_set | h.aug_set
    ge, he = agl_embed(g, joint), agl_embed(h, joint)
    return AglElement(g.base, g.ring, joint, lazy_mul(ge.body, he.body))


def agl_invert(g):
    return AglElement(g.base, g.ring, g.aug_set, lazy_invert(g.body))


# -- quasi-Z windows ----------------------------------------------------------------


# elements either closure may reach before SearchBudgetExceeded
_QZ_CAP = 200000


def qz_window_check(family, ring, window, inner):
    """Verify on finite data that the subgroup generated by units supported on
    sets with N_1-closure inside `window` projects onto the whole unit group
    of the `inner` window.

    The generators are `centrality_generators` of the inner window.  Each
    lifts verbatim (identity outside inner), the lift is supported on inner
    with its N_1-closure inside the window, and the multiplicative closure of
    the projected lifts is compared against the full unit group of the inner
    window, which is enumerated.  HypothesisViolation refuses a ring that is
    not finite, and an inner window that leaves the outer one or whose
    N_1-closure does.
    """
    if not ring.finite:
        raise HypothesisViolation("qz needs a finite coefficient ring, got %s" % (ring,))
    if not family.has_finite_neighborhoods():
        raise InfiniteNeighborhood("the family has infinite 1-neighborhoods")
    window, inner = list(window), list(inner)
    if not set(inner) <= set(window):
        raise HypothesisViolation("inner window must sit inside the outer one")
    wpro = family._window_proset(window)
    # inner sits in a convex window, so it is convex in the family exactly
    # when it is in wpro; the lifts' projections then land on this ipro
    ipro = wpro._window_proset(inner)
    closure_sites = set()
    for s in inner:
        closure_sites |= set(family.neighborhood(s, 1))
    if not closure_sites <= set(window):
        raise HypothesisViolation("N_1-closure of the inner window leaks outside")

    gens = centrality_generators(ipro, ring)
    one_w = identity(wpro, ring)
    lifts = [IncMatrix(wpro, ring, {**one_w.entries, **g.entries}) for g in gens]
    for m in lifts:
        certify(m)  # each lift really is a unit of the window ring
        for t in window:
            if t not in inner and m.entry(t, t) != ring.one:
                raise AssertionError("lift leaks outside the generating set")
    projected = [m.project(inner) for m in lifts]
    if projected != gens:
        raise AssertionError("projections no longer match the inner generators")
    reached = mulclose(projected, cap=_QZ_CAP)
    full = set(enumerate_invertibles(ipro, ring, cap=_QZ_CAP))
    return {
        "window": sorted(window),
        "inner": sorted(inner),
        "generators_lifted": len(lifts),
        "gl_inner_order": len(full),
        "closure_order": len(reached),
        "surjective": reached == full,
    }


def named_oracle(name, family, ring):
    """Built-in oracles usable from files and the command line."""
    if name == "upper_ones":
        return lazy_from_oracle(
            family, ring, lambda s1, s2: ring.one if family.leq(s1, s2) else ring.zero
        )
    raise MalformedInput("unknown oracle %r" % (name,))
