"""The error policy: every refusal is an IncRingError subclass, and the two
classes for a malformed argument and an exhausted budget are also
ValueErrors, so callers that catch ValueError keep working.

The table holds each refusal that raised a plain ValueError before it was
typed, with its message, which typing left unchanged.  The source guard
keeps untyped raises and private error classes from coming back.
"""

import ast
import random
from pathlib import Path

import pytest

import incring
from incring.errors import MalformedInput, SearchBudgetExceeded
from incring.glgroup import enumerate_invertibles, mulclose
from incring.lazy import named_oracle
from incring.matrices import CoeffIdeal, SumIdeal, ideal_membership, identity, unit, zero
from incring.prosets import AugmentedFamily, CustomFamily, NFamily, Proset, two_block
from incring.recovery import MatrixAccess, recover_poset
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
