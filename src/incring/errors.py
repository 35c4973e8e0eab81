"""Exception types shared across the package.

Every refusal raises a subclass of IncRingError, so callers (and the command
line driver) can separate bad mathematics from bad usage.  MalformedInput and
SearchBudgetExceeded are also ValueErrors, so `except ValueError` catches a
malformed argument or an exhausted budget.  A TypeError means a value of the
wrong Python type; an AssertionError means a broken internal invariant, that
is, a bug in this package.
"""

__all__ = [
    "IncRingError",
    "LocalFinitenessBudgetExceeded",
    "InfiniteNeighborhood",
    "NotConnected",
    "OverlappingAugmentation",
    "IncompatibleOperands",
    "NotComparable",
    "UnknownElement",
    "NotConvex",
    "NotInvertible",
    "HypothesisViolation",
    "PosetRequired",
    "RingBooleanPartTooLarge",
    "NotIdempotent",
    "NotInDiagonalSupport",
    "SearchBudgetExceeded",
    "NotOrderPreserving",
    "NotConvexImage",
    "NotFcc",
    "NotComposable",
    "NotParallel",
    "NotIrreducible",
    "NoValidCutPair",
    "MalformedInput",
]


class IncRingError(Exception):
    """Base class for all domain errors raised by this package."""


class LocalFinitenessBudgetExceeded(IncRingError):
    """An interval or window enumeration grew past its element budget."""


class InfiniteNeighborhood(IncRingError):
    """A neighborhood N_n(s) requested from a family is provably infinite."""


class NotConnected(IncRingError):
    """A construction needed a subset lying inside one component."""


class OverlappingAugmentation(IncRingError):
    """Augmentation sets must be pairwise disjoint."""


class IncompatibleOperands(IncRingError):
    """Two operands live over different prosets or coefficient rings."""


class NotComparable(IncRingError):
    """A matrix entry was placed outside the order relation."""


class UnknownElement(IncRingError):
    """A matrix entry, unit or label named an element outside the proset or
    family."""


class NotConvex(IncRingError):
    """The given subset is not convex."""


class NotInvertible(IncRingError):
    """The element has no two-sided inverse."""


class HypothesisViolation(IncRingError):
    """A stated hypothesis of the underlying statement fails for the input."""


class PosetRequired(IncRingError):
    """The operation is only sound over posets, not general prosets."""


class RingBooleanPartTooLarge(IncRingError):
    """Idempotent bookkeeping needs a coefficient ring with B(P) = {0, 1}."""


class NotIdempotent(IncRingError):
    """The matrix fails A*A == A."""


class NotInDiagonalSupport(IncRingError):
    """An erase step named a diagonal site outside b(A)."""


class SearchBudgetExceeded(IncRingError, ValueError):
    """A search ran out of budget before reaching its goal: a randomized
    search, or a closure or enumeration past its element cap."""


class NotOrderPreserving(IncRingError):
    """A map between prosets fails s1 <= s2 implies f(s1) <= f(s2)."""


class NotConvexImage(IncRingError):
    """An injective component map sends some convex set to a non-convex one."""


class NotFcc(IncRingError):
    """A component restriction is neither constant nor a convex embedding."""


class NotComposable(IncRingError):
    """Map composition needs the codomain of one to be the domain of the other."""


class NotParallel(IncRingError):
    """Coequalizers need two maps with the same domain and codomain."""


class NotIrreducible(IncRingError):
    """The proset splits into independent parts."""


class NoValidCutPair(IncRingError):
    """No pair of class representatives yields an irreducible decomposition."""


class MalformedInput(IncRingError, ValueError):
    """A JSON input or a call's arguments lack a required key or part, hold a
    value of the wrong shape or range (a non-object where an object belongs,
    an array of the wrong length), or name no known ring, family or mode."""
