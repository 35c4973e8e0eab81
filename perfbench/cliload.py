"""The cli workload: a seeded list of invocations of all eight subcommands,
each run as a fresh `python -m incring.cli` process, one at a time.

Inputs travel as inline JSON on the command line, so the benchmark writes no
files.  Every invocation carries its own oracle: the report is re-checked
against the library in this process, and the bytes of its stdout must match
those of its first run.  Malformed invocations must exit 1 with a JSON error
report, or 2 with a usage message; a traceback is always a failure.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from incring import functor_cat, glgroup, io, lazy, matrices, recovery, samples
from incring.prosets import NStarDivFamily, ZigFamily

from workloads import F2, F5, chain, int_labelled, matched

SRC = Path(__file__).resolve().parent.parent / "src"
# Probe host speed around every invocation, not every 0.5 s: an invocation
# takes about 0.2 s, and the probe costs about 2 % of that.
PROBE_EVERY_S = 0.0


class Invocation:
    """One command line and the check its report must pass."""

    def __init__(self, share, argv, check, want_exit=0):
        self.share = share
        self.argv = argv
        self.check = check
        self.want_exit = want_exit
        self.first_stdout = None

    def judge(self, code, stdout, stderr):
        """True when the exit code, the report and the bytes are right."""
        if code != self.want_exit or "Traceback" in stderr:
            return False
        if self.first_stdout is None:
            self.first_stdout = stdout
        elif stdout != self.first_stdout:
            return False
        if code == 2:
            return stdout == "" and "usage" in stderr
        return self.check(json.loads(stdout))


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def plain(obj):
    """The value as a JSON round trip sees it (tuples become lists)."""
    return json.loads(json.dumps(obj))


def _convex_subset(pro, rng):
    s = rng.choice(pro.elements)
    return sorted(pro.convex_closure([s, rng.choice(sorted(pro.up_set(s)))]))


def _isomorphic_report(payload, pro):
    got = io.proset_from_json(payload)
    return got.poset_isomorphic(pro) is not None


def invocations(seed):
    """The fixed list of invocation kinds, with seeded inputs."""
    rng = random.Random(seed)
    pro = int_labelled(matched(lambda r: _proset_with_point(6, r), rng))
    poset = int_labelled(matched(lambda r: samples.random_poset(5, r), rng))
    a = samples.random_matrix(pro, F5, rng)
    b = samples.random_matrix(pro, F5, rng)
    u = glgroup.random_invertible(pro, F5, rng)
    v = glgroup.random_invertible(pro, F5, rng)
    out = []

    def add(share, argv, check, want_exit=0):
        out.append(Invocation(share, argv, check, want_exit))

    # proset
    lo = rng.randint(1, 6)
    hi = lo * rng.choice((6, 10, 12, 30))
    want = plain(list(NStarDivFamily().interval(lo, hi)))
    add("proset", ["proset", "intervals", "--family", "nstar_div", "--from", str(lo), "--to", str(hi)],
        lambda r, w=want: r["interval"] == w)
    sub = _convex_subset(pro, rng)
    want = plain(sorted(pro.convex_closure(sub)))
    add("proset", ["proset", "closure", "--proset", dumps(io.proset_to_json(pro)),
                   "--subset", ",".join(map(str, sub))],
        lambda r, w=want: r["closure"] == w)
    k = rng.randint(2, 6)
    want = plain(sorted(ZigFamily().window(k)))
    add("proset", ["proset", "window", "--family", "Zig", "--k", str(k)],
        lambda r, w=want: r["window"] == w)
    # algebra
    ja, jb = dumps(io.matrix_to_json(a)), dumps(io.matrix_to_json(b))
    want = plain(io.matrix_to_json(a.mul(b)))
    add("algebra", ["algebra", "mul", "--a", ja, "--b", jb], lambda r, w=want: r["result"] == w)
    want = plain(io.matrix_to_json(a.add(b)))
    add("algebra", ["algebra", "add", "--a", ja, "--b", jb], lambda r, w=want: r["result"] == w)
    want = plain(io.matrix_to_json(a.project(sub)))
    add("algebra", ["algebra", "project", "--a", ja, "--subset", ",".join(map(str, sub))],
        lambda r, w=want: r["result"] == w)
    # group
    ju, jv = dumps(io.matrix_to_json(u)), dumps(io.matrix_to_json(v))
    one = matrices.identity(pro, F5)
    add("group", ["group", "invert", "--input", ju],
        lambda r: u.mul(io.matrix_from_json(r["inverse"])) == one)
    add("group", ["group", "certify", "--input", jv],
        lambda r: r["invertible"] is True and io.matrix_from_json(r["inverse"]).mul(v) == one)
    want = plain(io.matrix_to_json(
        glgroup.commutator(glgroup.GroupElement(u), glgroup.GroupElement(v)).matrix))
    add("group", ["group", "commutator", "--a", ju, "--b", jv], lambda r, w=want: r["commutator"] == w)
    s = rng.randrange(1000)
    want = plain(io.matrix_to_json(glgroup.random_invertible(pro, F5, random.Random(s))))
    add("group", ["group", "random", "--proset", dumps(io.proset_to_json(pro)), "--ring", "gf:5",
                  "--seed", str(s)], lambda r, w=want: r["matrix"] == w)
    # lazy
    fam = ZigFamily()
    la = samples.random_finitary(fam, F5, rng, span=2)
    lb = samples.random_finitary(fam, F5, rng, span=2)
    jla, jlb = dumps(io.lazy_to_json(la)), dumps(io.lazy_to_json(lb))
    want = plain(io.lazy_to_json(lazy.lazy_invert(la)))
    add("lazy", ["lazy", "invert", "--input", jla, "--window", "3"], lambda r, w=want: r["inverse"] == w)
    want = plain(io.lazy_to_json(lazy.lazy_mul(la, lb)))
    add("lazy", ["lazy", "mul", "--a", jla, "--b", jlb, "--window", "2"], lambda r, w=want: r["product"] == w)
    add("lazy", ["lazy", "qz", "--family", "Zig", "--ring", "gf:2", "--window", "2", "--inner", "1"],
        lambda r: r["report"]["surjective"] is True)
    # scramble and recover
    small = int_labelled(matched(lambda r: samples.random_poset(3, r), rng))
    s = rng.randrange(1000)
    bundle, _ = recovery.scramble(small, F2, seed=s)
    want = plain(bundle)
    add("scramble", ["scramble", "--proset", dumps(io.proset_to_json(small)), "--ring", "gf:2",
                     "--seed", str(s)], lambda r, w=want: r["bundle"] == w)
    add("recover", ["recover", "--input", dumps({"bundle": bundle}), "--mode", "exhaustive"],
        lambda r, p=small: _isomorphic_report(r["recovered"], p))
    # functor
    f = samples.random_fcc_map(poset, pro, rng)
    add("functor", ["functor", "validate", "--map", dumps(io.map_to_json(f))],
        lambda r, n=len(f.domain.components()): r["valid"] is True and len(r["components"]) == n)
    x = samples.random_matrix(pro, F5, rng)
    want = plain(io.matrix_to_json(functor_cat.induced_hom(f, x)))
    add("functor", ["functor", "apply", "--map", dumps(io.map_to_json(f)),
                    "--matrix", dumps(io.matrix_to_json(x))], lambda r, w=want: r["result"] == w)
    apex = int_labelled(samples.random_proset(rng.randint(1, 3), rng))
    g1 = samples.random_fcc_map(apex, poset, rng)
    g2 = samples.random_fcc_map(apex, pro, rng)
    quo = functor_cat.pushout(g1, g2)[0]
    add("functor", ["functor", "pushout", "--f", dumps(io.map_to_json(g1)), "--g", dumps(io.map_to_json(g2))],
        lambda r, s1=g1, s2=g2, q=quo: _pushout_ok(r, s1, s2, q))
    # experiment
    cfg = {"experiment": "commutators", "proset": io.proset_to_json(chain(3)),
           "ring": {"gf": 3}, "depth": 2, "samples": 20}
    add("experiment", ["experiment", "--config", dumps(cfg), "--seed", str(rng.randrange(1000))],
        lambda r: r["report"]["violations"] == 0 and r["report"]["samples"] == 20)
    cfg = {"experiment": "center", "matrix": io.matrix_to_json(u)}
    add("experiment", ["experiment", "--config", dumps(cfg)],
        lambda r, g=u: r["report"]["central"] == glgroup.is_central(g).central)
    # malformed input: a domain error report, a usage error, a missing file
    singular = io.matrix_to_json(a.sub(a))
    add("malformed", ["group", "invert", "--input", dumps(singular)],
        lambda r: r["error"]["type"] == "NotInvertible", want_exit=1)
    add("malformed", ["algebra", "mul", "--a", "{\"proset\": [", "--b", jb],
        lambda r: r["error"]["type"] == "JSONDecodeError", want_exit=1)
    add("malformed", ["group", "transmute", "--input", ju], None, want_exit=2)
    add("malformed", ["recover", "--input", "perfbench-no-such-input.json"],
        lambda r: r["error"]["type"] == "FileNotFoundError", want_exit=1)
    return out


def _proset_with_point(n, rng):
    """A random proset with a one-point class.  random_fcc_map can then send
    any component constantly onto that point, so maps into it always exist;
    into a proset without one, a map from a given domain may not exist."""
    while True:
        pro = samples.random_proset(n, rng)
        if any(len(pro.equiv_class(s)) == 1 for s in pro.elements):
            return pro


def _pushout_ok(report, f, g, quo):
    """The legs commute on the span and the object matches the library's."""
    leg1, leg2 = report["leg1"], report["leg2"]
    if any(leg1[str(f(s))] != leg2[str(g(s))] for s in f.domain.elements):
        return False
    return io.proset_from_json(report["pushout"]).poset_isomorphic(quo) is not None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, env):
    """One `incring` process; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "incring.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _cli_task(inv, env):
    def task():
        return inv.judge(*run_child(inv.argv, env))

    return task


def setup(seed):
    env = child_env()
    return [(inv.share, _cli_task(inv, env)) for inv in invocations(seed)]


def warm(cycle):
    """Two interpreter starts, so byte code and the page cache are warm."""
    env = child_env()
    for _ in range(2):
        run_child(["--version"], env)


def in_process_cycle(seed):
    """The same invocations replayed through incring.cli.main in this
    process, stdout and stderr captured; the traced run uses this."""
    import contextlib
    import io as stdio

    from incring import cli

    def replay(inv):
        def task():
            out, err = stdio.StringIO(), stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(inv.argv))
            return inv.judge(code, out.getvalue(), err.getvalue())

        return task

    return [(inv.share, replay(inv)) for inv in invocations(seed)]


def defect_cycle(count=4):
    """`algebra mul` on matrices over random_proset's tuple labels, which
    matrix_to_json emits as lists.  The right outcome is a product or a JSON
    error report; at the seed commit `TypeError: unhashable type: 'list'`
    escapes as a traceback, so these invocations fail."""
    env = child_env()
    rng = random.Random(0)
    cycle = []
    for _ in range(count):
        a = dumps(io.matrix_to_json(samples.random_matrix(samples.random_proset(4, rng), F5, rng)))

        def task(argv=("algebra", "mul", "--a", a, "--b", a)):
            code, out, err = run_child(list(argv), env)
            if code not in (0, 1) or "Traceback" in err:
                return False
            report = json.loads(out)
            return "result" in report or "error" in report

        cycle.append(("cli.list_labels", task))
    return cycle
