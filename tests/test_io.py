"""JSON round trips for every serialized object kind."""

import json

import pytest

from incring.errors import MalformedInput, UnknownElement
from incring.functor_cat import FccMap, validate_fcc
from incring.io import (
    canonical_labels,
    family_from_json,
    family_to_json,
    lazy_from_json,
    lazy_to_json,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    proset_from_json,
    proset_to_json,
    ring_from_json,
    ring_to_json,
)
from incring.lazy import named_oracle
from incring.matrices import identity, unit
from incring.prosets import Proset, ZigFamily
from incring.rings import QQ, ModRing, PrimeField, ZZ
from incring.samples import random_finitary, random_matrix, random_proset

import random

CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])


def test_ring_round_trip():
    for ring in (ZZ, QQ, ModRing(12), PrimeField(7)):
        again = ring_from_json(ring_to_json(ring))
        assert again == ring
    assert ring_from_json({"ring": {"gf": 5}}) == PrimeField(5)
    with pytest.raises(MalformedInput):
        ring_from_json({"field": 5})
    for bad in ({"mod": [1]}, {"mod": 1}, {"mod": True}, {"mod": "6"}, {"gf": 4}, {"gf": 5.0}):
        with pytest.raises(MalformedInput, match="must be"):
            ring_from_json(bad)


def test_proset_round_trip_and_string_keys():
    again = proset_from_json(proset_to_json(CHAIN3))
    assert again.elements == CHAIN3.elements
    assert again.pairs() == CHAIN3.pairs()
    # JSON object keys stringify integers; labels must still resolve
    doc = {"elements": [0, 1], "relations": [["0", "1"]]}
    pro = proset_from_json(doc)
    assert pro.leq(0, 1)


def test_family_round_trip():
    fam = ZigFamily()
    again = family_from_json(family_to_json(fam))
    assert again.descriptor() == fam.descriptor()
    assert family_to_json(fam) == {"family": "Zig"}


def test_matrix_round_trip():
    ring = ModRing(6)
    rng = random.Random(4)
    m = random_matrix(CHAIN3, ring, rng).add(unit(CHAIN3, ring, 0, 2))
    doc = matrix_to_json(m)
    json.dumps(doc)
    assert matrix_from_json(doc) == m


def test_tuple_labels_round_trip_through_json_text():
    """JSON carries tuple labels as arrays; reading them back gives tuples."""
    rng = random.Random(0)
    for _ in range(10):
        m = random_matrix(random_proset(4, rng), PrimeField(5), rng)
        text = json.dumps(matrix_to_json(m))
        assert matrix_from_json(json.loads(text)) == m
        assert proset_from_json(json.loads(text)["proset"]) == m.pro


def test_lazy_round_trip():
    fam = ZigFamily()
    ring = PrimeField(3)
    lz = random_finitary(fam, ring, random.Random(9), span=2)
    doc = lazy_to_json(lz)
    json.dumps(doc)
    again = lazy_from_json(doc)
    w = fam.window(3)
    assert again.project(w) == lz.project(w)


def test_only_finitary_lazy_elements_serialize():
    with pytest.raises(MalformedInput, match="only finitary lazy elements serialize"):
        lazy_to_json(named_oracle("upper_ones", ZigFamily(), QQ))


def test_family_labels_read_digit_strings_as_integers():
    """JSON object keys turn integers into strings, so a string of digits
    names the integer; any other string stays a label of its own."""
    lz = lazy_from_json({"family": {"family": "Z"}, "ring": "Q",
                         "diagonal_exceptions": [["-3", "2"], [4, "5"]]})
    assert lz.finitary[1] == {-3: QQ.canon(2), 4: QQ.canon(5)}
    with pytest.raises(UnknownElement):
        lazy_from_json({"family": {"family": "Z"}, "ring": "Q",
                        "diagonal_exceptions": [["+3", "2"]]})


def test_map_round_trip():
    two = Proset(["a", "b"], [("a", "b")])
    f = FccMap(two, CHAIN3, {"a": 0, "b": 1})
    doc = map_to_json(f)
    json.dumps(doc)
    again = map_from_json(doc)
    validate_fcc(again)
    assert again == f


def test_canonical_labels_are_stable():
    shuffled = Proset([2, 0, 1], [(0, 1), (1, 2)])
    a = canonical_labels(CHAIN3)
    b = canonical_labels(shuffled)
    assert a == b


def test_file_path_indirection(tmp_path):
    path = tmp_path / "pro.json"
    path.write_text(json.dumps(proset_to_json(CHAIN3)))
    pro = proset_from_json(str(path))
    assert pro.poset_isomorphic(CHAIN3) is not None


@pytest.mark.parametrize("parse, obj, message", [
    (matrix_from_json, {"proset": {"relations": []}, "ring": "Q"}, "$.proset has no key 'elements'"),
    (lazy_from_json, {"family": {"augment": {"sets": []}}, "ring": "Q"},
     "$.family.augment has no key 'base'"),
    (map_from_json, {"domain": {"elements": [0]}, "codomain": "x"},
     '$.codomain must be a JSON object, got "x"'),
    (proset_from_json, [0, 1], "$ must be a JSON object, got [0, 1]"),
    (lazy_from_json, {"family": {"family": "Z"}, "ring": "Q", "off_diagonal": [[0, 1]]},
     "$.off_diagonal[0] must be a JSON array of 3 items, got [0, 1]"),
    (lazy_from_json, {"family": {"family": "Z"}, "ring": "Q", "diagonal_exceptions": {}},
     "$.diagonal_exceptions must be a JSON array, got {}"),
    (map_from_json, {"domain": {"elements": [0]}, "codomain": {"elements": [0]}, "map": [[0]]},
     "$.map[0] must be a JSON array of 2 items, got [0]"),
    (family_from_json, {"augment": {"base": {"family": "Z"}, "sets": [0]}},
     "$.augment.sets[0] must be a JSON array, got 0"),
    (family_from_json, {"family": {"two_block": [1, 2, 3]}},
     "$.family.two_block must be a JSON array of 2 items, got [1, 2, 3]"),
    (matrix_from_json, {"proset": {"family": "Zig"}, "ring": "Q"},
     "$.proset is an infinite family, not a finite proset"),
    # a family label is an integer or a string, never a truncated float
    (lazy_from_json, {"family": {"family": "N"}, "ring": "Q", "diagonal_exceptions": [[1.5, "2"]]},
     "$.diagonal_exceptions[0][0] must be an integer or a string label, got 1.5"),
    (lazy_from_json, {"family": {"family": "Z"}, "ring": "Q", "off_diagonal": [[0, 2.0, "1"]]},
     "$.off_diagonal[0][1] must be an integer or a string label, got 2.0"),
    (family_from_json, {"augment": {"base": {"family": "Z"}, "sets": [[0, -0.5]]}},
     "$.augment.sets[0][1] must be an integer or a string label, got -0.5"),
    # an unknown family names the value it could not read, at its path
    (lazy_from_json, {"family": {"nstar_div": True}, "ring": {"gf": 7}, "oracle": "upper_ones"},
     '$.family must name a known family, got {"nstar_div": true}; a descriptor nests as '
     '{"family": {...}}'),
    (family_from_json, {"augment": {"base": {"family": ["Z"]}, "sets": [[0]]}},
     '$.augment.base.family must name a known family, got ["Z"]; a descriptor nests as '
     '{"family": {...}}'),
])
def test_malformed_input_names_its_path(parse, obj, message):
    with pytest.raises(MalformedInput) as err:
        parse(obj)
    assert str(err.value) == message
