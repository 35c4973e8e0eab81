"""JSON formats for rings, prosets, families, matrices, lazy elements and
maps.

Everything emitted can be re-read bit-identically: element labels are kept
as written (integers, strings, or tuples of them, which JSON carries as
arrays), coefficient values travel as exact strings through each ring's
parse/format pair, and relation lists are sorted.
"""

import json
import re

from .errors import MalformedInput, UnknownElement
from .prosets import (
    AugmentedFamily,
    NFamily,
    NStarDivFamily,
    Proset,
    ZFamily,
    ZigFamily,
    elem_key,
    two_block,
)
from .rings import QQ, ZZ, ModRing, PrimeField

__all__ = [
    "ring_from_json",
    "ring_to_json",
    "proset_from_json",
    "proset_to_json",
    "family_from_json",
    "family_to_json",
    "matrix_from_json",
    "matrix_to_json",
    "lazy_from_json",
    "lazy_to_json",
    "map_from_json",
    "map_to_json",
    "bundle_from_json",
    "canonical_labels",
    "load_json",
    "require",
    "parse_value",
]


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def require(obj, key, path="$"):
    """obj[key] for the JSON object `obj` found at `path`; MalformedInput
    names the missing key, or the non-object value, and its path."""
    if not isinstance(obj, dict):
        got = json.dumps(obj, default=str)
        raise MalformedInput("%s must be a JSON object, got %s" % (path, got))
    if key not in obj:
        raise MalformedInput("%s has no key %r" % (path, key))
    return obj[key]


def _shaped(value, path, length=None):
    """`value`, found at `path`, if it is a JSON array (of `length` items,
    when given); MalformedInput names the path and the value otherwise."""
    if isinstance(value, list) and length in (None, len(value)):
        return value
    what = "a JSON array" if length is None else "a JSON array of %d items" % length
    raise MalformedInput("%s must be %s, got %s" % (path, what, json.dumps(value, default=str)))


def _rows(obj, key, path, length=None):
    """The items of the optional array obj[key], each a JSON array (of
    `length` items, when given)."""
    at = "%s.%s" % (path, key)
    items = _shaped(obj.get(key, []), at)
    return [_shaped(r, "%s[%d]" % (at, i), length) for i, r in enumerate(items)]


def parse_value(ring, value, path, *index):
    """ring.parse of the coefficient `value` found at `path` and then the
    array indices `index`; a value the ring rejects raises MalformedInput."""
    try:
        return ring.parse(str(value))
    except (TypeError, ValueError, ZeroDivisionError):
        at = path + "".join("[%d]" % i for i in index)
        got = json.dumps(value, default=str)
        raise MalformedInput("%s must be a coefficient of %s, got %s" % (at, ring, got)) from None


def _maybe_file(obj):
    if isinstance(obj, str) and obj.endswith(".json"):
        return load_json(obj)
    return obj


def _modulus_ring(make, key, n, what):
    """make(n) for the value n of a ring descriptor's `key`; MalformedInput
    names a value that is not `what`."""
    if isinstance(n, int) and not isinstance(n, bool) and n >= 2:
        try:
            return make(n)
        except ValueError:
            pass
    raise MalformedInput("ring %r must be %s, got %s" % (key, what, json.dumps(n, default=str)))


def ring_from_json(obj):
    obj = _maybe_file(obj)
    if isinstance(obj, dict) and "ring" in obj:
        obj = obj["ring"]
    if obj == "Z":
        return ZZ
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and "mod" in obj:
        return _modulus_ring(ModRing, "mod", obj["mod"], "an integer >= 2")
    if isinstance(obj, dict) and "gf" in obj:
        return _modulus_ring(PrimeField, "gf", obj["gf"], "a prime")
    raise MalformedInput("unrecognized ring %r" % (obj,))


def ring_to_json(ring):
    return ring.descriptor()


def _label(obj):
    """JSON has no tuples, so an array inside a label reads back as one."""
    return tuple(_label(x) for x in obj) if isinstance(obj, list) else obj


def _element(obj, path):
    """A proset element read from the JSON label `obj` found at `path`; an
    object, alone or inside an array, is no label."""
    label = _label(obj)
    try:
        hash(label)
    except TypeError:
        got = json.dumps(obj, default=str)
        raise MalformedInput("%s must be a string, a number or an array of them, got %s"
                             % (path, got)) from None
    return label


def _resolve(label, elements):
    """Match a JSON label against proset elements, tolerating the string
    coercion JSON object keys force on integers."""
    label = _label(label)
    if label in elements:
        return label
    by_str = {str(e): e for e in elements}
    if str(label) in by_str:
        return by_str[str(label)]
    raise UnknownElement("label %r is not an element" % (label,))


def proset_from_json(obj, path="$"):
    obj = _maybe_file(obj)
    if isinstance(obj, dict) and ("family" in obj or "augment" in obj):
        fam = family_from_json(obj, path)
        if isinstance(fam, Proset):
            return fam
        raise MalformedInput("%s is an infinite family, not a finite proset" % path)
    at = path + ".elements"
    elements = [_element(e, "%s[%d]" % (at, i))
                for i, e in enumerate(_shaped(require(obj, "elements", path), at))]
    rel = [
        (_resolve(a, elements), _resolve(b, elements))
        for a, b in _rows(obj, "relations", path, 2)
    ]
    return Proset(elements, rel)


def proset_to_json(pro):
    return {
        "elements": list(pro.elements),
        "relations": [[a, b] for (a, b) in pro.strict_pairs()],
    }


def _family_element(obj, path):
    """A family element read from the JSON label `obj` found at `path`: a
    label as `_element` reads it, with a string of digits taken as the
    integer it spells.  A number that is no integer raises MalformedInput
    rather than being truncated."""
    label = _element(obj, path)
    if isinstance(label, float):
        raise MalformedInput("%s must be an integer or a string label, got %s"
                             % (path, json.dumps(obj)))
    if isinstance(label, str) and re.fullmatch(r"-?[0-9]+", label):
        return int(label)
    return label


def family_from_json(obj, path="$"):
    obj = _maybe_file(obj)
    if isinstance(obj, dict) and "augment" in obj:
        desc, at = obj["augment"], path + ".augment"
        base = family_from_json(require(desc, "base", at), at + ".base")
        require(desc, "sets", at)
        sets = [
            frozenset(_family_element(x, "%s.sets[%d][%d]" % (at, i, j)) for j, x in enumerate(s))
            for i, s in enumerate(_rows(desc, "sets", at))
        ]
        for i, s in enumerate(sets):
            if not s:
                raise MalformedInput("%s.sets[%d] must be a nonempty JSON array, got []" % (at, i))
        return AugmentedFamily(base, sets)
    if isinstance(obj, dict) and "family" in obj:
        desc = obj["family"]
        if desc == "N":
            return NFamily()
        if desc == "Z":
            return ZFamily()
        if desc == "Zig":
            return ZigFamily()
        if isinstance(desc, dict) and desc.get("nstar_div"):
            return NStarDivFamily()
        if isinstance(desc, dict) and "two_block" in desc:
            at = path + ".family.two_block"
            m, n = _shaped(desc["two_block"], at, 2)
            if not (type(m) is int and type(n) is int and m >= 1 and n >= 0):
                raise MalformedInput("%s must hold integers m >= 1 and n >= 0, got %s"
                                     % (at, json.dumps(desc["two_block"], default=str)))
            return two_block(m, n)
    if isinstance(obj, dict) and "elements" in obj:
        return proset_from_json(obj, path)
    if isinstance(obj, dict) and "family" in obj:
        obj, path = obj["family"], path + ".family"
    raise MalformedInput('%s must name a known family, got %s; a descriptor nests as '
                         '{"family": {...}}' % (path, json.dumps(obj, default=str)))


def family_to_json(fam):
    if isinstance(fam, Proset):
        return proset_to_json(fam)
    return fam.descriptor()


def matrix_from_json(obj, path="$"):
    from .matrices import IncMatrix

    obj = _maybe_file(obj)
    pro = proset_from_json(require(obj, "proset", path), path + ".proset")
    ring = ring_from_json(require(obj, "ring", path))
    entries = {}
    for i, (s1, s2, v) in enumerate(_rows(obj, "entries", path, 3)):
        a, b = _resolve(s1, pro.elements), _resolve(s2, pro.elements)
        entries[(a, b)] = parse_value(ring, v, path + ".entries", i, 2)
    return IncMatrix(pro, ring, entries)


def matrix_to_json(m):
    rows = [
        [a, b, m.ring.format(v)]
        for (a, b), v in sorted(
            m.entries.items(), key=lambda kv: (elem_key(kv[0][0]), elem_key(kv[0][1]))
        )
    ]
    return {
        "proset": proset_to_json(m.pro),
        "ring": ring_to_json(m.ring),
        "entries": rows,
    }


def lazy_from_json(obj, path="$"):
    from .lazy import lazy_finitary, named_oracle

    obj = _maybe_file(obj)
    fam = family_from_json(require(obj, "family", path), path + ".family")
    ring = ring_from_json(require(obj, "ring", path))
    if "oracle" in obj:
        try:
            return named_oracle(obj["oracle"], fam, ring)
        except ValueError:
            raise MalformedInput("%s.oracle names no built-in oracle, got %s"
                                 % (path, json.dumps(obj["oracle"], default=str))) from None
    off = {}
    at = path + ".off_diagonal"
    for i, (s1, s2, v) in enumerate(_rows(obj, "off_diagonal", path, 3)):
        a, b = (_family_element(x, "%s[%d][%d]" % (at, i, j)) for j, x in enumerate((s1, s2)))
        off[(a, b)] = parse_value(ring, v, at, i, 2)
    exc = {}
    at = path + ".diagonal_exceptions"
    for i, (s, v) in enumerate(_rows(obj, "diagonal_exceptions", path, 2)):
        exc[_family_element(s, "%s[%d][0]" % (at, i))] = parse_value(ring, v, at, i, 1)
    default = parse_value(ring, obj.get("diagonal_default", "1"), path + ".diagonal_default")
    return lazy_finitary(fam, ring, off_diag=off, exceptions=exc, default=default)


def lazy_to_json(lz):
    if lz.finitary is None:
        raise MalformedInput("only finitary lazy elements serialize")
    off, exc, default = lz.finitary
    return {
        "family": family_to_json(lz.family),
        "ring": ring_to_json(lz.ring),
        "off_diagonal": [
            [a, b, lz.ring.format(v)]
            for (a, b), v in sorted(
                off.items(), key=lambda kv: (elem_key(kv[0][0]), elem_key(kv[0][1]))
            )
        ],
        "diagonal_exceptions": [
            [s, lz.ring.format(v)]
            for s, v in sorted(exc.items(), key=lambda kv: elem_key(kv[0]))
        ],
        "diagonal_default": lz.ring.format(default),
    }


def map_from_json(obj, path="$"):
    from .functor_cat import FccMap

    obj = _maybe_file(obj)
    dom = proset_from_json(require(obj, "domain", path), path + ".domain")
    cod = proset_from_json(require(obj, "codomain", path), path + ".codomain")
    mapping = {}
    raw = require(obj, "map", path)
    for k, v in raw.items() if isinstance(raw, dict) else _rows(obj, "map", path, 2):
        mapping[_resolve(k, dom.elements)] = _resolve(v, cod.elements)
    for s in dom.elements:
        if s not in mapping:
            raise MalformedInput("%s.map gives %s no image" % (path, json.dumps(s, default=str)))
    return FccMap(dom, cod, mapping)


def map_to_json(f):
    return {
        "domain": proset_to_json(f.domain),
        "codomain": proset_to_json(f.codomain),
        "map": {str(s): f(s) for s in f.domain.elements},
    }


def bundle_from_json(obj, path="$"):
    """A structure-constant bundle as a BundleAccess, once `table` holds dim rows
    of dim cells and every cell, `one` and each sample hold dim coordinates."""
    from .recovery import BundleAccess

    dim = require(obj, "dim", path)
    if type(dim) is not int or dim < 0:
        raise MalformedInput("%s.dim must be a natural number, got %s" % (path, json.dumps(dim)))
    at = path + ".table"
    for i, row in enumerate(_shaped(require(obj, "table", path), at, dim)):
        for j, cell in enumerate(_shaped(row, "%s[%d]" % (at, i), dim)):
            _shaped(cell, "%s[%d][%d]" % (at, i, j), dim)
    _shaped(require(obj, "one", path), path + ".one", dim)
    _rows(obj, "samples", path, dim)
    return BundleAccess(obj, ring_from_json(require(obj, "ring", path)), path=path)


def canonical_labels(pro):
    """Relabel a proset onto c0..cN-1 (handy when elements are quotient
    classes that JSON cannot carry).  Returns the relabeled proset and the
    legend mapping new labels to printable originals."""
    names = {s: "c%d" % i for i, s in enumerate(pro.elements)}
    rel = [(names[a], names[b]) for (a, b) in pro.pairs()]
    legend = {
        names[s]: sorted(str(x) for x in s) if isinstance(s, frozenset) else str(s)
        for s in pro.elements
    }
    return Proset(names.values(), rel), legend
