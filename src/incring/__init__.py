"""Exact incidence rings of locally finite prosets, their unit groups,
poset recovery from ring access, and the calculus of admissible maps.

`import incring` loads only this file and the error classes.  Every other
top-level name loads its home module on first use (PEP 562), so a program
compiles only the modules it touches.
"""

import importlib

from .errors import *  # noqa: F401,F403
from .errors import __all__ as _ERRORS

__version__ = "0.1.0"

# home module -> the names this package re-exports from it
_EXPORTS = {
    "rings": ("QQ", "ZZ", "CoeffRing", "IntegerRing", "ModRing", "PrimeField", "RationalRing"),
    "prosets": (
        "AugmentedFamily", "CustomFamily", "NFamily", "NStarDivFamily", "Proset",
        "ProsetFamily", "ZFamily", "ZigFamily", "interval_closure", "two_block",
    ),
    "matrices": (
        "CoeffIdeal", "ConvexIdeal", "IncMatrix", "IntervalIdeal", "LocallyConvexIdeal",
        "SumIdeal", "ideal_membership", "identity", "indicator", "join_components",
        "scalar_diag", "unit", "zero",
    ),
    "glgroup": (
        "GroupElement", "certify", "commutator", "dickson_normal_closure",
        "enumerate_invertibles", "invert", "is_central", "is_invertible", "is_scalar_unit",
        "iterated_commutator_sample", "mulclose", "normal_subgroup_membership",
        "quotient_project", "random_invertible", "transpose_op_iso",
    ),
    "lazy": (
        "AglElement", "LazyMatrix", "agl_embed", "agl_identity", "agl_invert", "agl_mul",
        "lazy_finitary", "lazy_from_oracle", "lazy_identity", "lazy_invert", "lazy_mul",
        "named_oracle", "qz_window_check",
    ),
    "recovery": (
        "BundleAccess", "MatrixAccess", "b_of", "class_equiv", "class_leq", "erase",
        "is_topologically_nilpotent", "recover_poset", "scramble",
    ),
    "functor_cat": (
        "FccMap", "coequalizer", "compose", "coproduct", "coproduct_mediator",
        "equalizer_check", "generation_decompose", "identity_map", "induced_hom", "pushout",
        "pushout_mediator", "reassemble", "surjectivity_report", "validate_fcc",
    ),
    "samples": (
        "enumerate_posets", "enumerate_prosets", "irreducible_prosets", "random_fcc_map",
        "random_finitary", "random_matrix", "random_poset", "random_proset",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ERRORS) + list(_HOME)


def __getattr__(name):
    """Import the home module of a re-exported name on first use, and keep
    the value here so the next lookup is a plain attribute read."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
