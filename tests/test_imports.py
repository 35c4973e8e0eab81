"""What importing the package and running a command load.

`import incring` binds the error classes only; every other top-level name
loads its home module on first use, and each CLI command imports the
library names it uses where it runs.  A one-shot process therefore
compiles only the modules its command executes.  The module-set checks run
in fresh interpreters, since this one has imported everything already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incring
from incring import recovery
from incring.prosets import Proset
from incring.rings import PrimeField

CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(incring.__file__).resolve().parent.parent))

# the names the package bound eagerly before its exports became lazy
EXPORTS = [
    "AglElement", "AugmentedFamily", "BundleAccess", "CoeffIdeal", "CoeffRing", "ConvexIdeal",
    "CustomFamily", "FccMap", "GroupElement", "HypothesisViolation", "IncMatrix",
    "IncRingError", "IncompatibleOperands", "InfiniteNeighborhood", "IntegerRing",
    "IntervalIdeal", "LazyMatrix", "LocalFinitenessBudgetExceeded", "LocallyConvexIdeal",
    "MalformedInput", "MatrixAccess", "ModRing", "NFamily", "NStarDivFamily", "NoValidCutPair",
    "NotComparable", "NotComposable", "NotConnected", "NotConvex", "NotConvexImage", "NotFcc",
    "NotIdempotent", "NotInDiagonalSupport", "NotInvertible", "NotIrreducible",
    "NotOrderPreserving", "NotParallel", "OverlappingAugmentation", "PosetRequired",
    "PrimeField", "Proset", "ProsetFamily", "QQ", "RationalRing", "RingBooleanPartTooLarge",
    "SearchBudgetExceeded", "SumIdeal", "UnknownElement", "ZFamily", "ZZ", "ZigFamily",
    "agl_embed", "agl_identity", "agl_invert", "agl_mul", "b_of", "certify", "class_equiv",
    "class_leq", "coequalizer", "commutator", "compose", "coproduct", "coproduct_mediator",
    "dickson_normal_closure", "enumerate_invertibles", "enumerate_posets", "enumerate_prosets",
    "equalizer_check", "erase", "generation_decompose", "ideal_membership", "identity",
    "identity_map", "indicator", "induced_hom", "interval_closure", "invert",
    "irreducible_prosets", "is_central", "is_invertible", "is_scalar_unit",
    "is_topologically_nilpotent", "iterated_commutator_sample", "join_components",
    "lazy_finitary", "lazy_from_oracle", "lazy_identity", "lazy_invert", "lazy_mul",
    "mulclose", "named_oracle", "normal_subgroup_membership", "pushout", "pushout_mediator",
    "quotient_project", "qz_window_check", "random_fcc_map", "random_finitary",
    "random_invertible", "random_matrix", "random_poset", "random_proset", "reassemble",
    "recover_poset", "scalar_diag", "scramble", "surjectivity_report", "transpose_op_iso",
    "two_block", "unit", "validate_fcc", "zero",
]
HOMES = ["errors", "rings", "prosets", "matrices", "glgroup", "lazy", "recovery",
         "functor_cat", "samples"]


def loaded_after(code):
    """The incring modules a fresh interpreter holds after running `code`
    (which may print to stdout; the list goes to stderr)."""
    probe = code + "\nprint(*(m for m in sys.modules if m.startswith('incring')), file=sys.stderr)"
    return set(subprocess.run([sys.executable, "-c", "import sys\n" + probe], env=CHILD_ENV,
                              capture_output=True, text=True, check=True).stderr.split())


def loaded_by_command(*argv):
    code = "from incring import cli\nassert cli.main(%r) == 0" % (list(argv),)
    return loaded_after(code)


def test_import_loads_errors_and_cli_only():
    assert loaded_after("import incring, incring.cli") == {
        "incring", "incring.errors", "incring.cli"}


def test_proset_window_loads_no_algebra():
    assert loaded_by_command("proset", "window", "--family", "Zig", "--k", "2") == {
        "incring", "incring.errors", "incring.cli", "incring.io", "incring.prosets",
        "incring.rings"}


def test_recover_on_a_bundle_loads_no_group_code():
    bundle, _ = recovery.scramble(Proset([0, 1], [(0, 1)]), PrimeField(2), seed=1)
    loaded = loaded_by_command("recover", "--input", json.dumps({"bundle": bundle}))
    assert "incring.recovery" in loaded
    assert "incring.glgroup" not in loaded


def test_exports_are_the_pinned_list():
    assert sorted(incring.__all__) == EXPORTS
    assert len(incring.__all__) == len(EXPORTS)
    assert set(EXPORTS) <= set(dir(incring))


def test_every_export_is_its_home_modules_object():
    homes = [importlib.import_module("incring." + name) for name in HOMES]
    for name in EXPORTS:
        owners = [m for m in homes if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(incring, name) is getattr(owners[0], name)


def test_star_import_binds_every_export():
    ns = {}
    exec("from incring import *", ns)
    assert set(ns) - {"__builtins__"} == set(EXPORTS)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        incring.no_such_name
    assert not hasattr(incring, "matrix_from_json")  # io's names are not re-exported
