"""The command line: reports, determinism, exit codes, round trips."""

import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incring
from incring.cli import main
from incring.errors import IncRingError
from incring.io import proset_from_json
from incring.prosets import Proset

# a child interpreter that imports this same incring
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(incring.__file__).resolve().parent.parent))
CHAIN3 = Proset([0, 1, 2], [(0, 1), (1, 2)])

ID2 = json.dumps({
    "proset": {"elements": [0, 1], "relations": [[0, 1]]},
    "ring": {"gf": 5},
    "entries": [[0, 0, "1"], [1, 1, "1"]],
})


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_interval_of_divisors(capsys):
    code, out = run(capsys, "proset", "intervals", "--family", "nstar_div",
                    "--from", "3", "--to", "30")
    report = json.loads(out)
    assert code == 0
    assert report["interval"] == [3, 6, 15, 30]
    assert report["invocation"].startswith("incring proset intervals")
    assert "version" in report


def test_identity_times_identity(capsys):
    code, out = run(capsys, "algebra", "mul", "--a", ID2, "--b", ID2)
    report = json.loads(out)
    assert code == 0
    assert report["result"]["entries"] == [[0, 0, "1"], [1, 1, "1"]]


def test_tuple_labels_multiply(capsys):
    """random_proset's tuple labels come out of matrix_to_json as arrays."""
    a = json.dumps({
        "proset": {"elements": [[0, 0], [1, 0]], "relations": [[[0, 0], [1, 0]]]},
        "ring": {"gf": 5},
        "entries": [[[0, 0], [0, 0], "2"], [[0, 0], [1, 0], "3"]],
    })
    code, out = run(capsys, "algebra", "mul", "--a", a, "--b", a)
    assert code == 0
    assert json.loads(out)["result"]["entries"] == [[[0, 0], [0, 0], "4"], [[0, 0], [1, 0], "1"]]


def test_same_seed_same_bytes(capsys):
    pro = json.dumps({"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]})
    _, first = run(capsys, "group", "random", "--proset", pro, "--ring", "gf:5",
                   "--seed", "11")
    _, second = run(capsys, "group", "random", "--proset", pro, "--ring", "gf:5",
                    "--seed", "11")
    assert first == second
    _, third = run(capsys, "group", "random", "--proset", pro, "--ring", "gf:5",
                   "--seed", "12")
    assert json.loads(third)["matrix"] != json.loads(first)["matrix"]


def test_usage_error_is_exit_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_domain_error_is_exit_1(capsys):
    singular = json.dumps({
        "proset": {"elements": [0], "relations": []},
        "ring": {"gf": 5},
        "entries": [],
    })
    code, out = run(capsys, "group", "invert", "--input", singular)
    report = json.loads(out)
    assert code == 1
    assert report["error"]["type"] == "NotInvertible"


def test_private_error_is_reported_by_its_public_class(capsys, monkeypatch):
    """A closure cap raises SearchBudgetExceeded, also a ValueError; the
    report names that class."""
    from incring import glgroup
    from incring.errors import SearchBudgetExceeded

    def capped(m):
        raise SearchBudgetExceeded("closure exceeded 1 elements")

    monkeypatch.setattr(glgroup, "invert", capped)
    code, out = run(capsys, "group", "invert", "--input", ID2)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "SearchBudgetExceeded", "message": "closure exceeded 1 elements"}


def test_closure_of_unknown_label_is_exit_1(capsys):
    pro = json.dumps({"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]})
    code, out = run(capsys, "proset", "closure", "--proset", pro, "--subset", "0,9")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "UnknownElement", "message": "9 is not an element of the proset"}


def test_project_onto_unknown_label_is_exit_1(capsys):
    code, out = run(capsys, "algebra", "project", "--a", ID2, "--subset", "0,9")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "UnknownElement", "message": "9 is not an element of the proset"}


def test_project_onto_non_convex_window_is_exit_1(capsys):
    a = json.dumps({"proset": {"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]},
                    "ring": "Q", "entries": [[0, 2, "1"]]})
    code, out = run(capsys, "algebra", "project", "--a", a, "--subset", "0,2")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "NotConvex", "message": "projection window [0, 2] is not convex"}


def test_lazy_tuple_labels_multiply(capsys):
    """A lazy element over a finite proset reads tuple labels as arrays."""
    fam = {"elements": [[0, 1], [0, 2]], "relations": [[[0, 1], [0, 2]]]}
    a = json.dumps({"family": fam, "ring": "Q", "off_diagonal": [[[0, 1], [0, 2], "2"]]})
    b = json.dumps({"family": fam, "ring": "Q", "off_diagonal": [[[0, 1], [0, 2], "3"]]})
    code, out = run(capsys, "lazy", "mul", "--a", a, "--b", b)
    assert code == 0
    assert json.loads(out)["product"]["off_diagonal"] == [[[0, 1], [0, 2], "5"]]


@pytest.mark.parametrize("argv, flag", [
    (["lazy", "qz", "--family", "Zig", "--ring", "gf:2"], "--window"),
    (["lazy", "qz", "--family", "Zig", "--ring", "gf:2", "--window", "2"], "--inner"),
    (["lazy", "qz", "--ring", "gf:2", "--window", "2", "--inner", "1"], "--family"),
    (["lazy", "qz", "--family", "Zig", "--window", "2", "--inner", "1"], "--ring"),
    (["proset", "window", "--family", "Zig"], "--k"),
    (["proset", "intervals", "--family", "Zig", "--to", "2"], "--from"),
])
def test_missing_option_is_exit_1_without_traceback(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == {
        "type": "IncRingError", "message": "this action needs " + flag}


@pytest.mark.parametrize("argv, message", [
    (["lazy", "project", "--input", "{}"], "$ has no key 'family'"),
    (["algebra", "mul", "--a", "{}", "--b", "{}"], "$ has no key 'proset'"),
    (["functor", "validate", "--map", "{}"], "$ has no key 'domain'"),
    (["algebra", "mul", "--a", '{"proset": [0], "ring": "Q"}', "--b", "{}"],
     "$.proset must be a JSON object, got [0]"),
    (["algebra", "mul", "--a", '{"proset": {"elements": [0]}, "ring": "Q", "entries": [5]}',
      "--b", "{}"], "$.entries[0] must be a JSON array of 3 items, got 5"),
    (["proset", "check", "--proset", '{"elements": 5}'], "$.elements must be a JSON array, got 5"),
    (["proset", "check", "--proset", '{"elements": [0], "relations": [[0]]}'],
     "$.relations[0] must be a JSON array of 2 items, got [0]"),
    (["algebra", "mul", "--a", '{"proset": {"elements": [0]}, "ring": "Q", "entries": [[0, 0]]}',
      "--b", "{}"], "$.entries[0] must be a JSON array of 3 items, got [0, 0]"),
    (["algebra", "mul", "--a", '{"proset": {"elements": [0]}, "ring": "X"}', "--b", "{}"],
     "unrecognized ring 'X'"),
    (["proset", "window", "--family", '{"family": "Q"}', "--k", "2"],
     '$.family must name a known family, got "Q"; a descriptor nests as {"family": {...}}'),
    (["algebra", "mul", "--a", '{"proset": {"elements": [0]}, "ring": {"mod": [1]}}', "--b", "{}"],
     "ring 'mod' must be an integer >= 2, got [1]"),
    (["algebra", "mul", "--a", '{"proset": {"elements": [0]}, "ring": {"mod": 1}}', "--b", "{}"],
     "ring 'mod' must be an integer >= 2, got 1"),
    (["algebra", "mul", "--a", '{"proset": {"elements": [0]}, "ring": {"gf": 4}}', "--b", "{}"],
     "ring 'gf' must be a prime, got 4"),
    (["algebra", "mul", "--a", '{"proset": {"elements": [0]}, "ring": {"gf": true}}', "--b", "{}"],
     "ring 'gf' must be a prime, got true"),
    (["group", "random", "--proset", '{"elements": [0]}', "--ring", "gf:4"],
     "ring 'gf' must be a prime, got 4"),
    (["group", "random", "--proset", '{"elements": [0]}', "--ring", "mod:x"],
     'ring \'mod\' must be an integer >= 2, got "x"'),
    (["proset", "window", "--family", "two_block:0,1", "--k", "1"],
     "--family two_block:m,n needs integers m >= 1 and n >= 0, got 'two_block:0,1'"),
    (["proset", "window", "--family", "two_block:a,b", "--k", "1"],
     "--family two_block:m,n needs integers m >= 1 and n >= 0, got 'two_block:a,b'"),
    (["proset", "window", "--family", "two_block:1", "--k", "1"],
     "--family two_block:m,n needs integers m >= 1 and n >= 0, got 'two_block:1'"),
    (["proset", "window", "--family", '{"family":{"two_block":["x",1]}}', "--k", "1"],
     '$.family.two_block must hold integers m >= 1 and n >= 0, got ["x", 1]'),
    (["proset", "window", "--family", '{"family":{"two_block":[0,0]}}', "--k", "1"],
     "$.family.two_block must hold integers m >= 1 and n >= 0, got [0, 0]"),
    (["lazy", "mul", "--a", '{"family":{"family":"Z"},"ring":"Q","oracle":"nope"}', "--b", "{}"],
     '$.oracle names no built-in oracle, got "nope"'),
    (["lazy", "mul", "--a", '{"family":{"augment":{"base":{"family":"Z"},"sets":[[]]}},"ring":"Q"}',
      "--b", "{}"], "$.family.augment.sets[0] must be a nonempty JSON array, got []"),
    (["functor", "validate", "--map",
      '{"domain":{"elements":[0,1]},"codomain":{"elements":[0]},"map":{"0":0}}'],
     "$.map gives 1 no image"),
    (["experiment", "--config", '{"experiment":"dickson","n":"2","q":5}'],
     '$.n must be a natural number, got "2"'),
    (["experiment", "--config", '{"experiment":"dickson","n":2,"q":1.5}'],
     "$.q must be a natural number, got 1.5"),
    (["experiment", "--config", '{"experiment":"dickson","n":2,"q":4}'], "$.q must be a prime, got 4"),
    (["experiment", "--config",
      '{"experiment":"commutators","proset":{"elements":[0]},"ring":"Q","depth":[]}'],
     "$.depth must be a natural number, got []"),
    (["experiment", "--config",
      '{"experiment":"commutators","proset":{"elements":[0]},"ring":"Q","depth":-1}'],
     "$.depth must be a natural number, got -1"),
    (["experiment", "--config",
      '{"experiment":"commutators","proset":{"elements":[0]},"ring":"Q","depth":1,"samples":"x"}'],
     '$.samples must be a natural number, got "x"'),
    (["experiment", "--config", '{"experiment":"dickson","n":2,"q":5,"seed":[1]}'],
     "$.seed must be an integer, got [1]"),
])
def test_malformed_input_is_typed(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == {"type": "MalformedInput", "message": message}


INTERVALS = ["proset", "intervals"]


@pytest.mark.parametrize("argv, message", [
    (INTERVALS + ["--family", "N", "--from", "-1", "--to", "2"], "-1 is not an element of family N"),
    (INTERVALS + ["--family", "nstar_div", "--from", "0", "--to", "4"],
     "0 is not an element of family NStarDiv"),
    (INTERVALS + ["--family", "nstar_div", "--from", "3", "--to", "1e9"],
     "'1e9' is not an element of family NStarDiv"),
    (INTERVALS + ["--family", "N", "--from", "0", "--to", "x"], "'x' is not an element of family N"),
    (INTERVALS + ["--proset", '{"elements": [0, 1], "relations": [[0, 7]]}',
                  "--from", "0", "--to", "1"], "label 7 is not an element"),
    # an array is a label (a tuple) that Z does not hold
    (["lazy", "mul", "--a", '{"family":{"family":"Z"},"ring":"Q","off_diagonal":[[[0],1,"1"]]}',
      "--b", "{}"], "(0,) is not an element of family Z"),
    (["lazy", "mul", "--a", '{"family":{"family":"N"},"ring":"Q","off_diagonal":[[-2,-1,"1"]]}',
      "--b", "{}"], "-2 is not an element of family N"),
    (["lazy", "mul", "--a", '{"family":{"augment":{"base":{"family":"N"},"sets":[[-1,0]]}},"ring":"Q"}',
      "--b", "{}"], "-1 is not in the base family"),
])
def test_unknown_label_is_typed(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == {"type": "UnknownElement", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["lazy", "qz", "--family", "Zig", "--ring", "Q", "--window", "2", "--inner", "1"],
     "qz needs a finite coefficient ring, got Q"),
    (["experiment", "--config", json.dumps({"experiment": "qz", "family": {"family": "Zig"},
                                            "ring": "Z", "window": 2, "inner": 1})],
     "qz needs a finite coefficient ring, got Z"),
    (["lazy", "qz", "--family", "Zig", "--ring", "gf:2", "--window", "1", "--inner", "2"],
     "inner window must sit inside the outer one"),
    (["lazy", "qz", "--family", "Zig", "--ring", "gf:2", "--window", "1", "--inner", "1"],
     "N_1-closure of the inner window leaks outside"),
])
def test_qz_refusal_is_typed(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == {"type": "HypothesisViolation", "message": message}


def test_missing_file_is_exit_1(capsys):
    code, out = run(capsys, "algebra", "mul", "--a", "no_such_file.json",
                    "--b", "no_such_file.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_scramble_then_recover(capsys, tmp_path):
    pro = json.dumps({"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]})
    code, out = run(capsys, "scramble", "--proset", pro, "--ring", "gf:2",
                    "--seed", "3")
    assert code == 0
    bundle = json.loads(out)["bundle"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out = run(capsys, "recover", "--input", str(path), "--mode", "exhaustive")
    report = json.loads(out)
    assert code == 0
    recovered = proset_from_json(report["recovered"])
    assert recovered.poset_isomorphic(CHAIN3) is not None
    assert report["operations"] > 0


def test_scramble_samples_of_the_empty_poset_are_typed(capsys):
    """The empty poset has no primitive to draw: asking for samples is a
    typed error, not a traceback; asking for none still scrambles."""
    code, out = run(capsys, "scramble", "--proset", '{"elements":[]}', "--ring", "gf:2",
                    "--samples", "1")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "SearchBudgetExceeded", "message": "the empty poset has no idempotents to sample"}
    code, out = run(capsys, "scramble", "--proset", '{"elements":[]}', "--ring", "gf:2")
    assert code == 0
    assert json.loads(out)["bundle"]["dim"] == 0


def test_recover_accepts_whole_scramble_report(capsys, tmp_path):
    pro = json.dumps({"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]})
    code, out = run(capsys, "scramble", "--proset", pro, "--ring", "gf:2",
                    "--seed", "9")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out = run(capsys, "recover", "--input", str(path), "--mode", "exhaustive")
    assert code == 0
    recovered = proset_from_json(json.loads(out)["recovered"])
    assert recovered.poset_isomorphic(CHAIN3) is not None


def test_witness_recover_refuses_a_short_poset(capsys):
    """Six samples of three 2-chains never show one point, so witness mode
    runs out of budget rather than print a 5-point poset."""
    pro = json.dumps({"elements": [0, 1, 2, 3, 4, 5], "relations": [[0, 1], [2, 3], [4, 5]]})
    code, out = run(capsys, "scramble", "--proset", pro, "--ring", "gf:2", "--seed", "3",
                    "--samples", "6")
    assert code == 0
    code = main(["recover", "--input", out, "--mode", "witness"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"]["type"] == "SearchBudgetExceeded"


@pytest.mark.parametrize("mode, error", [
    ("exhaustive", "HypothesisViolation"),
    ("witness", "SearchBudgetExceeded"),
])
def test_recover_refuses_a_non_incidence_ring(capsys, mode, error):
    """GF(4) as a bundle over F2: one idempotent class against dimension 2."""
    gf4 = json.dumps({
        "ring": {"gf": 2},
        "dim": 2,
        "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "1"]]],
        "one": ["1", "0"],
        "samples": [["1", "0"]],
    })
    code = main(["recover", "--input", gf4, "--mode", mode])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"]["type"] == error


def bundle(**fields):
    """GF(2) as a one-dimensional bundle, with some fields replaced or, when
    given as None, left out."""
    obj = {"ring": {"gf": 2}, "dim": 1, "table": [[["1"]]], "one": ["1"], "samples": [["1"]]}
    obj.update(fields)
    return json.dumps({k: v for k, v in obj.items() if v is not None})


@pytest.mark.parametrize("text, message", [
    (bundle(table=5), "$.table must be a JSON array of 1 items, got 5"),
    (bundle(one=None), "$ has no key 'one'"),
    (bundle(dim=None), "$ has no key 'dim'"),
    (bundle(dim="1"), '$.dim must be a natural number, got "1"'),
    (bundle(dim=2), '$.table must be a JSON array of 2 items, got [[["1"]]]'),
    (bundle(table=[["1"]]), '$.table[0][0] must be a JSON array of 1 items, got "1"'),
    (bundle(table=[[["1"], ["0"]]]),
     '$.table[0] must be a JSON array of 1 items, got [["1"], ["0"]]'),
    (bundle(table=[[["1", "0"]]]),
     '$.table[0][0] must be a JSON array of 1 items, got ["1", "0"]'),
    (bundle(one=["1", "0"]), '$.one must be a JSON array of 1 items, got ["1", "0"]'),
    (bundle(samples={}), "$.samples must be a JSON array, got {}"),
    (bundle(samples=[[]]), "$.samples[0] must be a JSON array of 1 items, got []"),
    ('{"bundle": %s}' % bundle(one=7), "$.bundle.one must be a JSON array of 1 items, got 7"),
])
def test_malformed_bundle_is_typed(capsys, text, message):
    code = main(["recover", "--input", text])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == {"type": "MalformedInput", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["recover", "--input", '{"ring":{"gf":2},"dim":1,"table":[[[[1]]]],"one":["1"]}'],
     "$.table[0][0][0] must be a coefficient of F2, got [1]"),
    (["recover", "--input", '{"ring":"Q","dim":1,"table":[[["1/0"]]],"one":["1"]}'],
     '$.table[0][0][0] must be a coefficient of Q, got "1/0"'),
    (["algebra", "mul", "--a", '{"proset":{"elements":[0]},"ring":"Q","entries":[[0,0,"1/0"]]}',
      "--b", "{}"], '$.entries[0][2] must be a coefficient of Q, got "1/0"'),
    (["recover", "--input", '{"bundle": %s}' % bundle(samples=[["x"]])],
     '$.bundle.samples[0][0] must be a coefficient of F2, got "x"'),
    (["recover", "--input", bundle(one=[None])], "$.one[0] must be a coefficient of F2, got null"),
    (["lazy", "mul", "--a", '{"family":{"family":"Z"},"ring":"Z","diagonal_exceptions":[[0,"1.5"]]}',
      "--b", "{}"], '$.diagonal_exceptions[0][1] must be a coefficient of Z, got "1.5"'),
    (["lazy", "mul", "--a", '{"family":{"family":"Z"},"ring":"Z","off_diagonal":[[0,1,[2]]]}',
      "--b", "{}"], "$.off_diagonal[0][2] must be a coefficient of Z, got [2]"),
    (["lazy", "mul", "--a", '{"family":{"family":"Z"},"ring":{"mod":4},"diagonal_default":"1/2"}',
      "--b", "{}"], '$.diagonal_default must be a coefficient of Z/4, got "1/2"'),
])
def test_malformed_value_is_typed(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == {"type": "MalformedInput", "message": message}


NO_WINDOWS = "the family is a finite proset, which has no window chain"


@pytest.mark.parametrize("argv, message", [
    (["algebra", "mul", "--a", '{"proset":{"elements":[{"a":1}]},"ring":"Q"}', "--b", "{}"],
     '$.proset.elements[0] must be a string, a number or an array of them, got {"a": 1}'),
    (["proset", "check", "--proset", '{"elements":[0,[1,{"b":2}]]}'],
     '$.elements[1] must be a string, a number or an array of them, got [1, {"b": 2}]'),
    (["proset", "window", "--family", '{"elements":[[]],"relations":[]}', "--k", "1"], NO_WINDOWS),
    (["proset", "window", "--family", "two_block:2,1", "--k", "1"], NO_WINDOWS),
    (["lazy", "project", "--input", '{"family":{"elements":[0]},"ring":"Q"}', "--window", "1"],
     NO_WINDOWS),
    (["lazy", "qz", "--family", "two_block:2,1", "--ring", "gf:2", "--window", "2", "--inner", "1"],
     NO_WINDOWS),
    (["lazy", "mul", "--a",
      '{"family":{"augment":{"base":{"family":"Z"},"sets":[[{"a":1}]]}},"ring":"Q"}', "--b", "{}"],
     '$.family.augment.sets[0][0] must be a string, a number or an array of them, got {"a": 1}'),
    (["lazy", "mul", "--a", '{"family":{"family":"Z"},"ring":"Q","off_diagonal":[[0,{"x":1},"2"]]}',
      "--b", "{}"],
     '$.off_diagonal[0][1] must be a string, a number or an array of them, got {"x": 1}'),
    (["lazy", "mul", "--a",
      '{"family":{"family":"N"},"ring":"Q","diagonal_exceptions":[[{"x":1},"2"]]}', "--b", "{}"],
     '$.diagonal_exceptions[0][0] must be a string, a number or an array of them, got {"x": 1}'),
    (["lazy", "mul", "--a",
      '{"family":{"family":"N"},"ring":"Q","diagonal_exceptions":[[1.5,"2"]]}', "--b", "{}"],
     "$.diagonal_exceptions[0][0] must be an integer or a string label, got 1.5"),
])
def test_finite_windows_and_object_labels_are_typed(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == {"type": "MalformedInput", "message": message}


def test_one_point_bundle_recovers(capsys):
    code, out = run(capsys, "recover", "--input", bundle(), "--mode", "exhaustive")
    assert code == 0
    assert json.loads(out)["recovered"] == {"elements": [0], "relations": []}


def test_emitted_proset_reads_back(capsys, tmp_path):
    pro = json.dumps({"elements": ["a", "b"], "relations": [["a", "b"]]})
    code, out = run(capsys, "proset", "check", "--proset", pro)
    report = json.loads(out)
    assert code == 0
    assert report["is_poset"] is True
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(report["proset"]))
    code, out = run(capsys, "proset", "check", "--proset", str(path))
    assert code == 0
    assert json.loads(out)["proset"] == report["proset"]


def test_pushout_produces_diamond(capsys):
    f = json.dumps({
        "domain": {"elements": [1, 2], "relations": []},
        "codomain": {"elements": ["p", "x", "y"], "relations": [["p", "x"], ["p", "y"]]},
        "map": {"1": "x", "2": "y"},
    })
    g = json.dumps({
        "domain": {"elements": [1, 2], "relations": []},
        "codomain": {"elements": ["u", "v", "t"], "relations": [["u", "t"], ["v", "t"]]},
        "map": {"1": "u", "2": "v"},
    })
    code, out = run(capsys, "functor", "pushout", "--f", f, "--g", g)
    report = json.loads(out)
    assert code == 0
    quo = proset_from_json(report["pushout"])
    diamond = Proset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert quo.poset_isomorphic(diamond) is not None
    assert report["leg1"]["x"] == report["leg2"]["u"]
    assert report["leg1"]["y"] == report["leg2"]["v"]


def test_lazy_invert_window(capsys):
    lz = json.dumps({
        "family": {"family": "Zig"},
        "ring": {"gf": 5},
        "off_diagonal": [[0, 1, "2"]],
        "diagonal_default": "1",
    })
    code, out = run(capsys, "lazy", "invert", "--input", lz, "--window", "2")
    report = json.loads(out)
    assert code == 0
    entries = {(a, b): v for a, b, v in report["window_matrix"]["entries"]}
    assert entries[(0, 1)] == "3"  # -2 mod 5


def test_lazy_invert_keeps_zero_diagonal(capsys):
    """The swap of the class {3, 4} is its own inverse: the zero diagonal at
    3 and 4 must come back, not the default 1."""
    lz = json.dumps({
        "family": {"augment": {"base": {"family": "N"}, "sets": [[3, 4]]}},
        "ring": {"gf": 2},
        "off_diagonal": [[3, 4, "1"], [4, 3, "1"]],
        "diagonal_exceptions": [[3, "0"], [4, "0"]],
    })
    code, out = run(capsys, "lazy", "invert", "--input", lz)
    inverse = json.loads(out)["inverse"]
    assert code == 0
    assert inverse["off_diagonal"] == [[3, 4, "1"], [4, 3, "1"]]
    assert inverse["diagonal_exceptions"] == [[3, "0"], [4, "0"]]
    assert inverse["diagonal_default"] == "1"


def test_experiment_commutators(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "experiment": "commutators",
        "proset": {"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]},
        "ring": {"gf": 3},
        "depth": 2,
        "samples": 40,
        "seed": 7,
    }))
    code, out = run(capsys, "experiment", "--config", str(cfg))
    report = json.loads(out)
    assert code == 0
    assert report["seed"] == 7
    assert report["report"]["violations"] == 0


CHAIN2 = {"elements": [0, 1], "relations": [[0, 1]]}
AB = {"elements": ["a", "b"], "relations": [["a", "b"]]}
XY = {"elements": ["x", "y"], "relations": [["x", "y"]]}
TO_AB = json.dumps({"domain": CHAIN2, "codomain": AB, "map": {"0": "a", "1": "b"}})
TO_XY = json.dumps({"domain": AB, "codomain": XY, "map": {"a": "x", "b": "y"}})
OVER_AB = json.dumps({"proset": AB, "ring": {"gf": 5}, "entries": [["a", "a", "2"], ["a", "b", "3"]]})


# Every action the other tests leave out, each run once through main: the
# library names a command uses are imported where it runs, so a missed one
# shows only on its own branch.
@pytest.mark.parametrize("argv, key, want", [
    (["algebra", "add", "--a", ID2, "--b", ID2], "result",
     {"entries": [[0, 0, "2"], [1, 1, "2"]]}),
    (["group", "certify", "--input", ID2], "invertible", True),
    (["group", "central", "--input", ID2], "central", True),
    (["group", "commutator", "--a", ID2, "--b", ID2], "commutator",
     {"entries": [[0, 0, "1"], [1, 1, "1"]]}),
    (["functor", "apply", "--map", TO_AB, "--matrix", OVER_AB], "result",
     {"proset": CHAIN2, "entries": [[0, 0, "2"], [0, 1, "3"]]}),
    (["functor", "compose", "--f", TO_AB, "--g", TO_XY], "composite",
     {"domain": CHAIN2, "codomain": XY, "map": {"0": "x", "1": "y"}}),
    (["experiment", "--config", json.dumps({"experiment": "dickson", "n": 2, "q": 5})],
     "report", {"closure_order": 480, "sl_order": 120, "contains_sl_generators": True}),
    (["experiment", "--config", json.dumps({"experiment": "center", "matrix": json.loads(ID2)})],
     "report", {"central": True, "agree": True}),
    (["experiment", "--config", json.dumps({"experiment": "qz", "family": {"family": "Zig"},
                                            "ring": {"gf": 2}, "window": 2, "inner": 1})],
     "report", {"surjective": True, "inner": [-1, 0, 1]}),
], ids=["algebra-add", "group-certify", "group-central", "group-commutator", "functor-apply",
        "functor-compose", "experiment-dickson", "experiment-center", "experiment-qz"])
def test_every_action_exits_0(capsys, argv, key, want):
    code, out = run(capsys, *argv)
    got = json.loads(out)[key]
    assert code == 0
    assert {k: got[k] for k in want} == want if isinstance(want, dict) else got == want


def test_closed_stdout_is_exit_1_without_traceback():
    """A reader that stops after 10 bytes (`incring ... | head -c 10`): the
    report is far larger than a pipe holds, so the writes that follow fail."""
    argv = ["proset", "window", "--family", "Z", "--k", "20000"]
    proc = subprocess.Popen([sys.executable, "-m", "incring.cli", *argv], env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "invoc'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip()


# -- golden bytes ------------------------------------------------------------------
# The exact stdout of a few colimit, validation and closure reports, whose
# element orders and quotient labels all come from the canonical label order.
# Each file under tests/golden/ holds the report of the invocation named
# after it.

GOLDEN_DIR = Path(__file__).parent / "golden"
VEE = {"elements": ["p", "x", "y"], "relations": [["p", "x"], ["p", "y"]]}
WEDGE = {"elements": ["u", "v", "t"], "relations": [["u", "t"], ["v", "t"]]}
ANTI2 = {"elements": [1, 2], "relations": []}
GLUED = {"elements": ["x", "y1", "y2", "z", "u", "v"],
         "relations": [["x", "y1"], ["y2", "z"], ["u", "v"]]}
N4 = {"elements": ["a", "b", "c", "d"], "relations": [["a", "c"], ["b", "c"], ["b", "d"]]}
GOLDEN = {
    "pushout_diamond": [
        "functor", "pushout",
        "--f", json.dumps({"domain": ANTI2, "codomain": VEE, "map": {"1": "x", "2": "y"}}),
        "--g", json.dumps({"domain": ANTI2, "codomain": WEDGE, "map": {"1": "u", "2": "v"}}),
    ],
    "coeq_glued": [
        "functor", "coeq",
        "--f", json.dumps({"domain": {"elements": ["t"]}, "codomain": GLUED, "map": {"t": "y1"}}),
        "--g", json.dumps({"domain": {"elements": ["t"]}, "codomain": GLUED, "map": {"t": "y2"}}),
    ],
    "validate_accepted": ["functor", "validate", "--map", json.dumps({
        "domain": {"elements": [0, 1, 2, "s", "t"], "relations": [[0, 1], [0, 2], ["s", "t"]]},
        "codomain": {"elements": ["a", "b", "c", "d", "e"],
                     "relations": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"], ["e", "a"]]},
        "map": {"0": "a", "1": "b", "2": "c", "s": "d", "t": "d"},
    })],
    "validate_not_convex": ["functor", "validate", "--map", json.dumps({
        "domain": {"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]},
        "codomain": {"elements": ["a", "b", "c", "d"],
                     "relations": [["a", "b"], ["b", "c"], ["c", "d"]]},
        "map": {"0": "a", "1": "b", "2": "d"},
    })],
    "validate_not_convex_singleton": ["functor", "validate", "--map", json.dumps({
        "domain": {"elements": [0, 1], "relations": [[0, 1]]},
        "codomain": {"elements": ["x", "y", "z"],
                     "relations": [["x", "y"], ["y", "x"], ["y", "z"]]},
        "map": {"0": "x", "1": "z"},
    })],
    "closure_nested": ["proset", "closure", "--subset", "0,z", "--proset", json.dumps({
        "elements": [0, "a", "z", [1, 2], [[0, 1], "b"]],
        "relations": [[0, [1, 2]], [[1, 2], "a"], ["z", [[0, 1], "b"]], [[[0, 1], "b"], "a"]],
    })],
    "closure_tiebreak": ["proset", "closure", "--subset", "0,z", "--proset", json.dumps({
        "elements": [0, "z", [1, 2], [[0, 1], "b"]],
        "relations": [[0, [1, 2]], ["z", [1, 2]], [0, [[0, 1], "b"]], ["z", [[0, 1], "b"]]],
    })],
    # a unit over Q on the class {a, b} with c above it and d below it
    "invert_two_point_class": ["group", "invert", "--input", json.dumps({
        "proset": {"elements": ["a", "b", "c", "d"],
                   "relations": [["a", "b"], ["b", "a"], ["b", "c"], ["d", "a"]]},
        "ring": "Q",
        "entries": [["a", "a", "2"], ["a", "b", "1"], ["b", "a", "1"], ["b", "b", "1"],
                    ["c", "c", "3"], ["d", "d", "-1/2"], ["a", "c", "1/2"], ["b", "c", "-1"],
                    ["d", "a", "1"], ["d", "b", "2"], ["d", "c", "5"]],
    })],
    # both class blocks singular over Z/6: the report names {0, 1}, the
    # first in classes() order, although {2} lies below it
    "invert_singular_blocks": ["group", "invert", "--input", json.dumps({
        "proset": {"elements": [0, 1, 2], "relations": [[0, 1], [1, 0], [2, 0]]},
        "ring": {"mod": 6},
        "entries": [[0, 0, "1"], [0, 1, "1"], [1, 0, "1"], [1, 1, "1"], [2, 0, "1"], [2, 2, "3"]],
    })],
    # a bundle's table, identity and sampled idempotents over an N-shaped
    # 4-point poset; the Q one shows fraction formatting and the Q sampler
    "scramble_n_gf3": ["scramble", "--proset", json.dumps(N4), "--ring", "gf:3", "--seed", "5",
                       "--samples", "3"],
    "scramble_n_q": ["scramble", "--proset", json.dumps(N4), "--ring", "Q", "--seed", "5",
                     "--samples", "2"],
    # zeta^-1 on divisibility over F7 is the Moebius function, 6 standing for -1
    "lazy_invert_moebius": ["lazy", "invert", "--window", "3", "--input", json.dumps({
        "family": {"family": {"nstar_div": True}}, "ring": {"gf": 7}, "oracle": "upper_ones",
    })],
    # an oracle times a finitary element is an oracle: only its window prints
    "lazy_mul_oracle_finitary": ["lazy", "mul", "--window", "3",
        "--a", json.dumps({"family": {"family": "Zig"}, "ring": {"gf": 5},
                           "oracle": "upper_ones"}),
        "--b", json.dumps({"family": {"family": "Zig"}, "ring": {"gf": 5},
                           "off_diagonal": [[0, 1, "2"], [2, 1, "3"]],
                           "diagonal_exceptions": [[1, "4"]]}),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(capsys, name):
    main(GOLDEN[name])
    expected = (GOLDEN_DIR / (name + ".out")).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# -- hostile values -------------------------------------------------------------------
# Every option of every action, one at a time, takes each of a fixed list of
# hostile values while the others keep valid ones; an experiment's config
# keys count as options.  Every run ends in a report or a usage error:
# never a raised exception, and every error report names a typed error.

HOSTILE = ["null", "[]", "{}", '"x"', "-1", "0", "1.5", '{"a":1}', "[[]]", '"1/0"', "true",
           '{"family":{"two_block":[0,0]}}', '{"dim":-1}', "mod:x", "gf:", ","]
CHAIN3_JSON = json.dumps({"elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]})
LZ = json.dumps({"family": {"family": "Zig"}, "ring": {"gf": 5},
                 "off_diagonal": [[0, 1, "2"]], "diagonal_default": "1"})
SPAN = GOLDEN["pushout_diamond"][2:]
PARALLEL = GOLDEN["coeq_glued"][2:]
ACTIONS = {
    "proset intervals": [["--family", "N", "--from", "0", "--to", "2"],
                         ["--proset", CHAIN3_JSON, "--from", "0", "--to", "2"]],
    "proset window": [["--family", "Zig", "--k", "2"]],
    "proset closure": [["--proset", CHAIN3_JSON, "--subset", "0,2"]],
    "proset check": [["--proset", CHAIN3_JSON]],
    "algebra mul": [["--a", ID2, "--b", ID2]],
    "algebra add": [["--a", ID2, "--b", ID2]],
    "algebra project": [["--a", ID2, "--subset", "0,1"]],
    "group invert": [["--input", ID2]],
    "group certify": [["--input", ID2]],
    "group central": [["--input", ID2]],
    "group commutator": [["--a", ID2, "--b", ID2]],
    "group random": [["--proset", CHAIN3_JSON, "--ring", "gf:5", "--seed", "3"]],
    "lazy project": [["--input", LZ, "--window", "2"]],
    "lazy invert": [["--input", LZ, "--window", "2"]],
    "lazy mul": [["--a", LZ, "--b", LZ, "--window", "2"]],
    "lazy qz": [["--family", "Zig", "--ring", "gf:2", "--window", "2", "--inner", "1"]],
    "recover": [["--input", json.dumps({"proset": json.loads(CHAIN3_JSON), "ring": {"gf": 2}}),
                 "--mode", "exhaustive", "--budget", "100000", "--seed", "0"]],
    "functor validate": [["--map", TO_AB]],
    "functor apply": [["--map", TO_AB, "--matrix", OVER_AB]],
    "functor compose": [["--f", TO_AB, "--g", TO_XY]],
    "functor pushout": [SPAN],
    "functor coeq": [PARALLEL],
    "scramble": [["--proset", CHAIN3_JSON, "--ring", "gf:2", "--seed", "1", "--samples", "2"]],
}
CONFIGS = {
    "dickson": {"n": 3, "q": 2},
    "commutators": {"proset": json.loads(CHAIN3_JSON), "ring": {"gf": 3}, "depth": 2, "samples": 5,
                    "seed": 7},
    "center": {"matrix": json.loads(ID2)},
    "qz": {"family": {"family": "Zig"}, "ring": {"gf": 2}, "window": 2, "inner": 1},
}


def _json_or_text(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def hostile_runs():
    for action, bases in ACTIONS.items():
        for base in bases:
            for i in range(1, len(base), 2):
                for value in HOSTILE:
                    yield action.split() + base[:i] + [value] + base[i + 1:]
    for value in HOSTILE:
        yield ["experiment", "--config", value]
    for kind, cfg in CONFIGS.items():
        cfg = dict(cfg, experiment=kind)
        for value in HOSTILE:
            yield ["experiment", "--config", json.dumps(cfg), "--seed", value]
            for key in cfg:
                yield ["experiment", "--config", json.dumps(dict(cfg, **{key: _json_or_text(value)}))]


def test_every_action_survives_hostile_values(capsys):
    assert len(ACTIONS) + len(CONFIGS) == 27
    for argv in hostile_runs():
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 1:
            kind = json.loads(captured.out)["error"]["type"]
            cls = getattr(incring.errors, kind, None) or getattr(builtins, kind, None)
            assert isinstance(cls, type) and issubclass(cls, (IncRingError, OSError)), argv


def test_far_hub_window(capsys):
    """A hub at 70 over Zig: the window search reaches [-69, 70]."""
    code, out = run(capsys, "proset", "window", "--family",
                    '{"augment":{"base":{"family":"Zig"},"sets":[[70]]}}', "--k", "1")
    assert code == 0
    assert json.loads(out)["window"] == list(range(-69, 71))
