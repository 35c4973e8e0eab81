"""The error policy: every refusal is an IncRingError subclass, and the two
classes for a malformed argument and an exhausted budget are also
ValueErrors, so callers that catch ValueError keep working.

The table holds each refusal that raised a plain ValueError before it was
typed, with its message, which typing left unchanged.  A second table holds
the typed refusals of mismatched operands and exhausted searches that the
other tests never reach.  The source guard keeps untyped raises and private
error classes from coming back.
"""

import ast
import random
from pathlib import Path

import pytest

import incring
from incring.errors import (
    IncompatibleOperands,
    MalformedInput,
    NotInDiagonalSupport,
    NotParallel,
    OverlappingAugmentation,
    PosetRequired,
    SearchBudgetExceeded,
)
from incring.functor_cat import (
    FccMap,
    coproduct,
    coproduct_mediator,
    equalizer_check,
    identity_map,
    induced_hom,
    pushout,
    pushout_mediator,
)
from incring.glgroup import enumerate_invertibles, mulclose
from incring.lazy import agl_identity, agl_mul, lazy_finitary, named_oracle
from incring.matrices import (
    CoeffIdeal,
    SumIdeal,
    ideal_membership,
    identity,
    indicator,
    unit,
    zero,
)
from incring.prosets import AugmentedFamily, CustomFamily, NFamily, Proset, ZFamily, two_block
from incring.recovery import (
    BundleAccess,
    MatrixAccess,
    erase,
    is_topologically_nilpotent,
    recover_poset,
)
from incring.rings import QQ, ZZ, ModRing, PrimeField
from incring.samples import random_fcc_map

CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])
F2 = PrimeField(2)
EVEN = CoeffIdeal(lambda v: v % 2 == 0)


def _closure_gens():
    return [identity(CHAIN3, F2).add(unit(CHAIN3, F2, s1, s2)) for s1, s2 in CHAIN3.strict_pairs()]


REFUSALS = [
    ("negative power", MalformedInput, "negative powers go through glgroup.invert",
     lambda: identity(CHAIN3, ZZ).power(-1)),
    ("empty two_block", MalformedInput, "need m >= 1 and n >= 0",
     lambda: two_block(0)),
    ("custom window", MalformedInput, "this custom family has no window callback",
     lambda: CustomFamily(lambda a, b: a <= b, lambda a, b: range(a, b + 1)).window(1)),
    ("unknown oracle", MalformedInput, "unknown oracle 'nope'",
     lambda: named_oracle("nope", NFamily(), QQ)),
    ("modulus 1", MalformedInput, "modulus must be an integer >= 2",
     lambda: ModRing(1)),
    ("prime 4", MalformedInput, "4 is not prime",
     lambda: PrimeField(4)),
    ("elements of Z", MalformedInput, "infinite ring has no element enumeration",
     lambda: ZZ.elements()),
    ("elements of Q", MalformedInput, "infinite ring has no element enumeration",
     lambda: QQ.elements()),
    ("no admissible image", MalformedInput,
     "component [0, 1, 2] has no admissible image in the codomain",
     lambda: random_fcc_map(CHAIN3, two_block(2), random.Random(0))),
    ("invertibles cap", SearchBudgetExceeded, "more than 5 invertibles",
     lambda: enumerate_invertibles(two_block(2), F2, cap=5)),
    ("closure cap", SearchBudgetExceeded, "closure exceeded 3 elements",
     lambda: mulclose(_closure_gens(), cap=3)),
    ("recovery mode", MalformedInput, "mode must be auto, exhaustive, or witness, not 'x'",
     lambda: recover_poset(MatrixAccess(CHAIN3, F2), mode="x")),
    ("empty augmentation", MalformedInput, "augmentation sets must be nonempty",
     lambda: AugmentedFamily(NFamily(), [[]])),
    ("two coefficient ideals", MalformedInput, "at most one coefficient ideal per sum",
     lambda: ideal_membership(zero(CHAIN3, ZZ), SumIdeal([EVEN, EVEN]))),
]


@pytest.mark.parametrize("cls, message, call", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_is_a_public_value_error(cls, message, call):
    with pytest.raises(cls) as err:
        call()
    assert isinstance(err.value, ValueError)
    assert str(err.value) == message


POINT = Proset([0])
CHAIN2 = Proset([0, 1], [(0, 1)])
CHAIN5 = Proset(range(5), [(i, i + 1) for i in range(4)])


def _point_pushout():
    """The two legs of the pushout of two identities on a point."""
    return pushout(identity_map(POINT), identity_map(POINT))[1:]


MISMATCHES = [
    ("pull back over another proset", IncompatibleOperands, "matrix lives over a different proset",
     lambda: induced_hom(identity_map(CHAIN2), identity(CHAIN3, F2))),
    ("mediator short of a map", IncompatibleOperands, "need one map per summand",
     lambda: coproduct_mediator(coproduct([POINT, POINT])[1], [identity_map(POINT)])),
    ("mediator into two prosets", IncompatibleOperands, "maps target different prosets",
     lambda: coproduct_mediator(coproduct([POINT, POINT])[1],
                                [identity_map(POINT), FccMap(POINT, CHAIN2, {0: 0})])),
    ("span from two prosets", IncompatibleOperands, "legs of the span start at different prosets",
     lambda: pushout(identity_map(POINT), identity_map(CHAIN2))),
    ("pushout mediator into two prosets", IncompatibleOperands, "maps target different prosets",
     lambda: pushout_mediator(*_point_pushout(), identity_map(POINT),
                              FccMap(POINT, CHAIN2, {0: 0}))),
    ("pushout mediator not constant", IncompatibleOperands,
     "the pair is not constant on the identified class frozenset({(1, 0), (2, 0)})",
     lambda: pushout_mediator(*_point_pushout(), FccMap(POINT, CHAIN2, {0: 0}),
                              FccMap(POINT, CHAIN2, {0: 1}))),
    ("equalizer of a non-parallel pair", NotParallel, "the maps are not a parallel pair",
     lambda: equalizer_check(identity_map(POINT), identity_map(CHAIN2))),
    ("off-diagonal key against the order", IncompatibleOperands,
     "off-diagonal key (1, 0) is not a strict order pair",
     lambda: lazy_finitary(NFamily(), QQ, off_diag={(1, 0): 1})),
    ("aGL over two bases", IncompatibleOperands, "aGL elements over different bases",
     lambda: agl_mul(agl_identity(NFamily(), QQ), agl_identity(ZFamily(), QQ))),
    ("nilpotence off a poset", PosetRequired, "nilpotence criterion needs a poset",
     lambda: is_topologically_nilpotent(zero(two_block(2), F2))),
    ("erase outside the support", NotInDiagonalSupport, "1 is not in the diagonal support",
     lambda: erase(indicator(CHAIN3, F2, [0]), [1])),
    ("witness mode with no samples", SearchBudgetExceeded, "bundle carries no idempotent samples",
     lambda: recover_poset(BundleAccess({"dim": 1, "table": [[["1"]]], "one": ["1"]}, F2),
                           mode="witness")),
    ("exhaustive mode past 2^14", SearchBudgetExceeded,
     "carrier too large to enumerate (32768 elements)",
     lambda: recover_poset(MatrixAccess(CHAIN5, F2), mode="exhaustive")),
    ("overlapping augmentation", OverlappingAugmentation, "augmentation sets overlap at (1,)",
     lambda: CHAIN3.augment([[0, 1], [1, 2]])),
]


@pytest.mark.parametrize("cls, message, call", [r[1:] for r in MISMATCHES],
                         ids=[r[0] for r in MISMATCHES])
def test_mismatch_and_exhaustion_refusals_are_typed(cls, message, call):
    with pytest.raises(cls) as err:
        call()
    assert str(err.value) == message


def test_source_raises_no_untyped_builtin_and_defines_no_private_error():
    """No `raise ValueError(...)` or `raise KeyError(...)` in the package,
    and no private class in its errors module."""
    bad = []
    for path in sorted(Path(incring.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                fn = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(fn, ast.Name) and fn.id in ("ValueError", "KeyError"):
                    bad.append("%s:%d raises %s" % (path.name, node.lineno, fn.id))
            if path.name == "errors.py" and isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    bad.append("errors.py:%d defines %s" % (node.lineno, node.name))
    assert bad == []
