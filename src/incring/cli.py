"""Command-line front end.

Subcommands: proset, algebra, group, lazy, recover, functor, experiment,
scramble.  All reports are UTF-8 JSON on stdout, embedding the invocation
and library version; randomized paths take --seed (default 0), so the same
invocation is byte-identical.  Exit codes: 0 success, 1 domain error
(or stdout closed early), 2 usage error.

Each subcommand imports the library modules it uses when it runs, so a
one-shot process loads and compiles only those: `proset` reads no matrix
code, and `recover` on a bundle no group code.
"""

import argparse
import json
import os
import random
import sys

from . import __version__
from .errors import IncRingError, MalformedInput, UnknownElement


def _load_ref(text):
    """A reference on the command line is inline JSON or a file path."""
    if text is None:
        raise IncRingError("a required input reference is missing")
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    from .io import load_json

    return load_json(text)


def _need(value, flag):
    """The value of an option that argparse leaves optional because only
    some actions of its subcommand take it."""
    if value is None:
        raise IncRingError("this action needs %s" % flag)
    return value


def _ring_arg(text):
    from .io import ring_from_json

    _need(text, "--ring")
    if text in ("Z", "Q"):
        return ring_from_json(text)
    key, colon, value = text.partition(":")
    if colon and key in ("mod", "gf"):
        return ring_from_json({key: int(value) if value.isdecimal() else value})
    return ring_from_json(_load_ref(text))


def _family_arg(text):
    from .io import family_from_json

    _need(text, "--family")
    if text in ("N", "Z", "Zig"):
        return family_from_json({"family": text})
    if text == "nstar_div":
        return family_from_json({"family": {"nstar_div": True}})
    if text.startswith("two_block:"):
        m, comma, n = text[len("two_block:"):].partition(",")
        if not (comma and m.isdecimal() and n.isdecimal() and int(m) >= 1):
            raise MalformedInput("--family two_block:m,n needs integers m >= 1 and n >= 0, got %r"
                                 % (text,))
        return family_from_json({"family": {"two_block": [int(m), int(n)]}})
    return family_from_json(_load_ref(text))


def _natural(cfg, key, default=None):
    """The natural number at `key` of an experiment config (`default` when
    it is left out and one is given)."""
    from .io import require

    value = cfg.get(key, default) if default is not None else require(cfg, key)
    if type(value) is not int or value < 0:
        raise MalformedInput("$.%s must be a natural number, got %s"
                             % (key, json.dumps(value, default=str)))
    return value


def _window(fam, k):
    """The k-th window of an infinite family, in elem_key order."""
    from .prosets import Proset, elem_key

    if isinstance(fam, Proset):
        raise MalformedInput("the family is a finite proset, which has no window chain")
    return sorted(fam.window(k), key=elem_key)


def _label(text, fam):
    """A label on the command line.  On a finite proset it is matched
    against the elements as the JSON readers match one, so "1" names the
    element "1" where there is one; on a family, or where nothing matches,
    it is an int when it spells one, else the text."""
    from .io import _resolve
    from .prosets import Proset

    if isinstance(fam, Proset):
        try:
            return _resolve(text, fam.elements)
        except UnknownElement:
            pass
    try:
        return int(text)
    except ValueError:
        return text


def _proset_payload(pro):
    from .io import canonical_labels, proset_to_json

    if all(isinstance(s, (int, str)) for s in pro.elements):
        return proset_to_json(pro), None
    relabeled, legend = canonical_labels(pro)
    return proset_to_json(relabeled), legend


def _quotient_payload(quo):
    """The quotient's JSON, its legend, and the name each class gets in the
    report: c0, c1, ... in canonical order when the labels were replaced."""
    payload, legend = _proset_payload(quo)
    names = {s: "c%d" % i if legend else s for i, s in enumerate(quo.elements)}
    return payload, legend, names


def _centrality(m):
    from .glgroup import is_central

    rep = is_central(m)
    return {
        "central": rep.central,
        "scalar_unit": rep.scalar_test,
        "hypothesis_ok": rep.hypothesis_ok,
        "agree": rep.agree,
    }


def _qz_report(fam, ring, window, inner):
    from .lazy import qz_window_check

    return qz_window_check(fam, ring, _window(fam, window), _window(fam, inner))


def _window_payload(payload, m, family, k):
    """Add the projection of `m` to the family's k-th window, if asked."""
    from .io import matrix_to_json

    if k is not None:
        win = _window(family, k)
        payload["window"] = win
        payload["window_matrix"] = matrix_to_json(m.project(win))
    return payload


def _emit(args, payload):
    report = {
        "invocation": "incring " + " ".join(args._argv),
        "version": __version__,
    }
    report.update(payload)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# -- proset ---------------------------------------------------------------------


def cmd_proset(args):
    from .io import proset_from_json
    from .prosets import elem_key

    if args.action == "intervals":
        if args.family:
            fam = _family_arg(args.family)
        else:
            fam = proset_from_json(_load_ref(args.proset))
        ends = [_label(_need(args.frm, "--from"), fam), _label(_need(args.to, "--to"), fam)]
        for s in ends:
            if s not in fam:
                raise UnknownElement("%r is not an element of %r" % (s, fam))
        return _emit(args, {"interval": sorted(fam.interval(*ends), key=elem_key)})
    if args.action == "window":
        fam = _family_arg(args.family)
        return _emit(args, {"window": _window(fam, _need(args.k, "--k"))})
    if args.action == "closure":
        pro = proset_from_json(_load_ref(args.proset))
        subset = [_label(x, pro) for x in _need(args.subset, "--subset").split(",")]
        return _emit(args, {"closure": sorted(pro.convex_closure(subset), key=elem_key)})
    # check: argparse admits no other action
    pro = proset_from_json(_load_ref(args.proset))
    payload, legend = _proset_payload(pro)
    out = {
        "proset": payload,
        "is_poset": pro.is_poset(),
        "irreducible": pro.is_irreducible(),
        "components": len(pro.components()),
        "classes": len(pro.classes()),
    }
    if legend:
        out["legend"] = legend
    return _emit(args, out)


# -- algebra -------------------------------------------------------------------


def cmd_algebra(args):
    from .io import matrix_from_json, matrix_to_json

    if args.action in ("mul", "add"):
        a = matrix_from_json(_load_ref(args.a))
        b = matrix_from_json(_load_ref(args.b))
        out = a.mul(b) if args.action == "mul" else a.add(b)
        return _emit(args, {"result": matrix_to_json(out)})
    # project: argparse admits no other action
    a = matrix_from_json(_load_ref(args.a))
    subset = [_label(x, a.pro) for x in _need(args.subset, "--subset").split(",")]
    return _emit(args, {"result": matrix_to_json(a.project(subset))})


# -- group ----------------------------------------------------------------------


def cmd_group(args):
    from .glgroup import GroupElement, certify, commutator, invert, random_invertible
    from .io import matrix_from_json, matrix_to_json, proset_from_json

    if args.action == "invert":
        m = matrix_from_json(_load_ref(args.input))
        return _emit(args, {"inverse": matrix_to_json(invert(m))})
    if args.action == "certify":
        m = matrix_from_json(_load_ref(args.input))
        g = certify(m)
        return _emit(args, {
            "invertible": True,
            "inverse": matrix_to_json(g.inverse_matrix),
        })
    if args.action == "central":
        return _emit(args, _centrality(matrix_from_json(_load_ref(args.input))))
    if args.action == "commutator":
        a = matrix_from_json(_load_ref(args.a))
        b = matrix_from_json(_load_ref(args.b))
        c = commutator(GroupElement(a), GroupElement(b))
        return _emit(args, {"commutator": matrix_to_json(c.matrix)})
    # random: argparse admits no other action
    pro = proset_from_json(_load_ref(args.proset))
    ring = _ring_arg(args.ring)
    rng = random.Random(args.seed)
    return _emit(args, {"matrix": matrix_to_json(random_invertible(pro, ring, rng))})


# -- lazy -----------------------------------------------------------------------


def cmd_lazy(args):
    from .io import lazy_from_json, lazy_to_json, matrix_to_json
    from .lazy import lazy_invert, lazy_mul

    if args.action == "project":
        lz = lazy_from_json(_load_ref(args.input))
        win = _window(lz.family, _need(args.window, "--window"))
        return _emit(args, {"window": win, "matrix": matrix_to_json(lz.project(win))})
    if args.action == "invert":
        lz = lazy_from_json(_load_ref(args.input))
        inv = lazy_invert(lz)
        payload = {} if inv.finitary is None else {"inverse": lazy_to_json(inv)}
        return _emit(args, _window_payload(payload, inv, lz.family, args.window))
    if args.action == "mul":
        a = lazy_from_json(_load_ref(args.a))
        b = lazy_from_json(_load_ref(args.b))
        prod = lazy_mul(a, b)
        payload = {} if prod.finitary is None else {"product": lazy_to_json(prod)}
        return _emit(args, _window_payload(payload, prod, a.family, args.window))
    # qz: argparse admits no other action
    fam = _family_arg(args.family)
    ring = _ring_arg(args.ring)
    window, inner = _need(args.window, "--window"), _need(args.inner, "--inner")
    return _emit(args, {"report": _qz_report(fam, ring, window, inner)})


# -- recover --------------------------------------------------------------------


def cmd_recover(args):
    from .io import bundle_from_json, proset_from_json, proset_to_json, require, ring_from_json
    from .recovery import MatrixAccess, recover_poset

    obj, path = _load_ref(args.input), "$"
    if "bundle" in obj:
        # accept a whole scramble report, so the two commands pipe together
        obj, path = require(obj, "bundle"), "$.bundle"
    if "table" in obj:
        access = bundle_from_json(obj, path)
    else:
        pro = proset_from_json(require(obj, "proset", path), path + ".proset")
        ring = ring_from_json(require(obj, "ring", path))
        access = MatrixAccess(pro, ring)
    rng = random.Random(args.seed)
    rec = recover_poset(access, mode=args.mode, budget=args.budget, rng=rng)
    # a recovered proset has integer labels, so it needs no legend
    return _emit(args, {"recovered": proset_to_json(rec), "mode": args.mode,
                        "operations": access.ops})


# -- functor --------------------------------------------------------------------


def cmd_functor(args):
    from .functor_cat import coequalizer, compose, induced_hom, pushout, validate_fcc
    from .io import map_from_json, map_to_json, matrix_from_json, matrix_to_json

    if args.action == "validate":
        f = map_from_json(_load_ref(args.map))
        records = validate_fcc(f)
        comps = []
        for rec in records:
            row = {"kind": rec[0], "component": [str(s) for s in rec[1]]}
            if rec[0] == "constant":
                row["value"] = str(rec[2])
            comps.append(row)
        return _emit(args, {"valid": True, "components": comps})
    if args.action == "apply":
        f = map_from_json(_load_ref(args.map))
        validate_fcc(f)
        m = matrix_from_json(_load_ref(args.matrix))
        return _emit(args, {"result": matrix_to_json(induced_hom(f, m))})
    if args.action == "compose":
        f = map_from_json(_load_ref(args.f))
        g = map_from_json(_load_ref(args.g))
        h = compose(f, g)
        validate_fcc(h)
        return _emit(args, {"composite": map_to_json(h)})
    if args.action == "pushout":
        f = map_from_json(_load_ref(args.f))
        g = map_from_json(_load_ref(args.g))
        quo, q1, q2 = pushout(f, g)
        payload, legend, names = _quotient_payload(quo)
        return _emit(args, {
            "pushout": payload,
            "legend": legend,
            "leg1": {str(s): names[q1(s)] for s in q1.domain.elements},
            "leg2": {str(s): names[q2(s)] for s in q2.domain.elements},
        })
    # coeq: argparse admits no other action
    f = map_from_json(_load_ref(args.f))
    g = map_from_json(_load_ref(args.g))
    quo, q = coequalizer(f, g)
    payload, legend, names = _quotient_payload(quo)
    return _emit(args, {
        "coequalizer": payload,
        "legend": legend,
        "projection": {str(s): names[q(s)] for s in q.domain.elements},
    })


# -- experiment -----------------------------------------------------------------


def cmd_experiment(args):
    from .glgroup import dickson_normal_closure, iterated_commutator_sample
    from .io import family_from_json, matrix_from_json, proset_from_json, require, ring_from_json
    from .rings import _is_prime

    cfg = _load_ref(args.config)
    kind = require(cfg, "experiment")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if type(seed) is not int:
        raise MalformedInput("$.seed must be an integer, got %s" % json.dumps(seed, default=str))
    rng = random.Random(seed)
    if kind == "dickson":
        n, q = _natural(cfg, "n"), _natural(cfg, "q")
        if not _is_prime(q):
            raise MalformedInput("$.q must be a prime, got %d" % q)
        rep = dickson_normal_closure(n, q, rng)
        rep = {k: v for k, v in rep.items() if k != "seed"}
        return _emit(args, {"experiment": "dickson", "seed": seed, "report": rep})
    if kind == "commutators":
        pro = proset_from_json(require(cfg, "proset"), "$.proset")
        ring = ring_from_json(require(cfg, "ring"))
        rep = iterated_commutator_sample(
            pro, ring, _natural(cfg, "depth"), _natural(cfg, "samples", 100), rng
        )
        return _emit(args, {"experiment": "commutators", "seed": seed, "report": rep})
    if kind == "center":
        rep = _centrality(matrix_from_json(require(cfg, "matrix"), "$.matrix"))
        return _emit(args, {"experiment": "center", "seed": seed, "report": rep})
    if kind == "qz":
        fam = family_from_json(require(cfg, "family"), "$.family")
        ring = ring_from_json(require(cfg, "ring"))
        rep = _qz_report(fam, ring, _natural(cfg, "window"), _natural(cfg, "inner"))
        return _emit(args, {"experiment": "qz", "seed": seed, "report": rep})
    raise MalformedInput("unknown experiment %r" % (kind,))


# -- scramble -------------------------------------------------------------------


def cmd_scramble(args):
    from .io import proset_from_json
    from .recovery import scramble

    pro = proset_from_json(_load_ref(args.proset))
    ring = _ring_arg(args.ring)
    bundle, _ = scramble(pro, ring, seed=args.seed, samples=args.samples)
    return _emit(args, {"bundle": bundle})


def build_parser():
    top = argparse.ArgumentParser(prog="incring", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("proset", help="intervals, windows, closures, checks")
    p.add_argument("action", choices=["intervals", "window", "closure", "check"])
    p.add_argument("--family")
    p.add_argument("--proset")
    p.add_argument("--from", dest="frm")
    p.add_argument("--to")
    p.add_argument("--k", type=int)
    p.add_argument("--subset")
    p.set_defaults(fn=cmd_proset)

    p = subs.add_parser("algebra", help="matrix arithmetic")
    p.add_argument("action", choices=["mul", "add", "project"])
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--subset")
    p.set_defaults(fn=cmd_algebra)

    p = subs.add_parser("group", help="units, inverses, centrality")
    p.add_argument("action", choices=["invert", "certify", "central", "commutator", "random"])
    p.add_argument("--input")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--proset")
    p.add_argument("--ring")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_group)

    p = subs.add_parser("lazy", help="infinite supports through windows")
    p.add_argument("action", choices=["project", "invert", "mul", "qz"])
    p.add_argument("--input")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--family")
    p.add_argument("--ring")
    p.add_argument("--window", type=int)
    p.add_argument("--inner", type=int)
    p.set_defaults(fn=cmd_lazy)

    p = subs.add_parser("recover", help="poset recovery from ring access")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["auto", "exhaustive", "witness"], default="auto")
    p.add_argument("--budget", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_recover)

    p = subs.add_parser("functor", help="admissible maps and their colimits")
    p.add_argument("action", choices=["validate", "apply", "compose", "pushout", "coeq"])
    p.add_argument("--map")
    p.add_argument("--matrix")
    p.add_argument("--f")
    p.add_argument("--g")
    p.set_defaults(fn=cmd_functor)

    p = subs.add_parser("experiment", help="seeded experiment suites from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_experiment)

    p = subs.add_parser("scramble", help="emit a structure-constant bundle")
    p.add_argument("--proset", required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=0)
    p.set_defaults(fn=cmd_scramble)

    return top


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    args._argv = argv
    try:
        try:
            code = args.fn(args)
        except BrokenPipeError:
            raise
        except (IncRingError, OSError, ValueError, KeyError) as exc:
            print(json.dumps({
                "invocation": "incring " + " ".join(argv),
                "version": __version__,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }, indent=2, sort_keys=True))
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`incring ... | head`).  Point stdout
        # at devnull, as the signal module's docs advise, so the flush at
        # exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
