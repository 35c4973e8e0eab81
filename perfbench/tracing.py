"""The traced run: span-recording wrappers around every layer's public entry
points, installed from the benchmark's own files with no edit under src/.

`install()` replaces module functions and class methods with wrappers.  A
module function is replaced under every name any incring module bound it
to, since `from ... import` copies such as `incring.lazy.invert` or
`incring.cli.invert` are bound at import time; the workloads call the
library through module attributes for the same reason.  Untraced runs
never call it, so they run the library as shipped.

A span records its name, start, end, parent span and task id.  Spans stay in
memory and are written to `.perfbench/` when the run ends.  Self time is a
span's duration minus that of its child spans; the wrapper's own hooks are
charged to neither, and run with recording paused, so that library code a
hook calls is not counted as the program's work.  Ring operations,
`__eq__`/`__hash__`, family intervals and witness draws get a bare call
counter instead of a span, because a span costs more than the operation.
"""

import json
import statistics
import subprocess
import sys
import time
from collections import Counter

from incring import cli, functor_cat, glgroup, io, lazy, matrices, prosets, recovery, rings, samples

import harness

SPAN_CAP = 100_000

SPANS = [
    ("prosets.%s" % name, prosets.Proset, attr)
    for name, attr in (
        ("init", "__init__"), ("pairs", "pairs"), ("opposite", "opposite"),
        ("classes", "classes"), ("components", "components"), ("restrict", "restrict"),
        ("is_convex", "is_convex"), ("poset_isomorphic", "poset_isomorphic"),
    )
] + [
    ("matrices.mul", matrices.IncMatrix, "mul"),
    ("matrices.add", matrices.IncMatrix, "add"),
    ("matrices.init", matrices.IncMatrix, "__init__"),
] + [
    ("glgroup.%s" % name, glgroup, name)
    for name in ("invert", "certify", "det_block", "commutator", "mulclose",
                 "enumerate_invertibles", "random_invertible")
] + [
    ("lazy.lazy_mul", lazy, "lazy_mul"),
    ("lazy.lazy_invert", lazy, "lazy_invert"),
    ("lazy.project", lazy.LazyMatrix, "project"),
    ("recovery.recover_poset", recovery, "recover_poset"),
    ("recovery.bundle_mul", recovery.BundleAccess, "mul"),
    ("recovery.bundle_init", recovery.BundleAccess, "__init__"),
] + [
    ("functor_cat.%s" % name, functor_cat, name)
    for name in ("validate_fcc", "pushout", "pushout_mediator", "coequalizer",
                 "equalizer_check", "induced_hom", "generation_decompose", "reassemble")
] + [
    ("samples.%s" % name, samples, name)
    for name in ("enumerate_posets", "enumerate_prosets", "random_poset", "random_proset",
                 "random_matrix", "random_fcc_map", "random_finitary")
] + [
    ("io.parse", io, name) for name in io.__all__ if name.endswith("_from_json") or name == "load_json"
] + [
    ("io.emit", io, name) for name in io.__all__ if name.endswith("_to_json")
] + [
    ("cli.build_parser", cli, "build_parser"),
    ("cli.emit", cli, "_emit"),
] + [
    ("cli.command", cli, name) for name in dir(cli) if name.startswith("cmd_")
]

COUNTS = [
    ("rings.%s_calls.%s" % (op, tag), cls, op)
    for tag, cls in (("Q", rings.RationalRing), ("mod", rings.ModRing), ("Z", rings.IntegerRing))
    for op in ("add", "mul", "canon")
] + [
    ("matrices.eq", matrices.IncMatrix, "__eq__"),
    ("matrices.hash", matrices.IncMatrix, "__hash__"),
    ("recovery.witness_draws", recovery.BundleAccess, "sample_idempotent"),
] + [
    ("prosets.family_interval", cls, "interval")
    for cls in (prosets.NFamily, prosets.ZFamily, prosets.ZigFamily, prosets.NStarDivFamily,
                prosets.AugmentedFamily, prosets.CustomFamily)
]


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self):
        self.stack = []  # frames: [child_ns, span_id, name]
        self.self_ns = Counter()
        self.incl_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.edges = Counter()
        self.spans = []
        self.next_id = 0
        self.task = None
        self.samples_depth = 0
        self.paused = False
        self.installed = []

    def reset(self):
        """Forget everything recorded so far; the wrappers stay installed."""
        for tally in (self.self_ns, self.incl_ns, self.calls, self.counts, self.edges):
            tally.clear()
        self.spans.clear()
        self.next_id = 0

    # -- wrappers ----------------------------------------------------------------

    def span(self, name, fn, pre=None, post=None):
        tr = self
        clock = time.perf_counter_ns
        is_samples = name.startswith("samples.")

        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            h0 = clock()
            ctx = _hook(tr, pre, args, kwargs) if pre is not None else None
            stack = tr.stack
            parent = stack[-1] if stack else None
            sid = tr.next_id
            tr.next_id += 1
            frame = [0, sid, name]
            stack.append(frame)
            if is_samples:
                tr.samples_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if is_samples:
                    tr.samples_depth -= 1
                    if tr.samples_depth == 0:
                        tr.counts["samples.generate_ns"] += t1 - t0
                d = t1 - t0
                tr.self_ns[name] += d - frame[0]
                tr.incl_ns[name] += d
                tr.calls[name] += 1
                if parent is not None:
                    tr.edges[(parent[2], name)] += 1
                if len(tr.spans) < SPAN_CAP:
                    tr.spans.append((sid, name, t0, t1, parent[1] if parent else None, tr.task))
            if post is not None:
                _hook(tr, post, ctx, args, result)
            if parent is not None:
                parent[0] += clock() - h0
            return result

        return wrapper

    def counter(self, name, fn):
        tr, calls = self, self.calls

        def wrapper(*args, **kwargs):
            if not tr.paused:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------------

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("incring")]
        for name, owner, attr in SPANS:
            pre, post = HOOKS.get(name, (None, None))
            self._replace(owner, attr, lambda fn, n=name, a=pre, b=post: self.span(n, fn, a, b), namespaces)
        for name, owner, attr in COUNTS:
            self._replace(owner, attr, lambda fn, n=name: self.counter(n, fn), namespaces)

    def _replace(self, owner, attr, make, namespaces):
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            setattr(owner, attr, make(orig))
            self.installed.append((owner, attr, orig))
            return
        orig = getattr(owner, attr)
        wrapped = make(orig)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapped)
                    self.installed.append((ns, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.installed):
            setattr(owner, attr, orig)
        self.installed = []

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "start_ns", "end_ns", "parent", "task"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


# -- hooks that count work where it happens ----------------------------------------


def _hook(tr, hook, *args):
    """Run a hook with recording paused."""
    tr.paused = True
    try:
        return hook(tr, *args)
    finally:
        tr.paused = False


def _mul_pre(tr, args, kwargs):
    a, b = args
    rows = Counter(t for (t, _) in b.entries)
    tr.counts["matrices.mul_terms"] += sum(rows[t] for (_, t) in a.entries)


def _mul_post(tr, ctx, args, result):
    tr.counts["matrices.mul_outputs"] += len(result.entries)


def _det_pre(tr, args, kwargs):
    tr.counts["glgroup.det_block_max_n"] = max(tr.counts["glgroup.det_block_max_n"], len(args[1]))


def _mulclose_post(tr, ctx, args, result):
    tr.counts["glgroup.mulclose_size"] += len(result)


def _enum_post(tr, ctx, args, result):
    pro, ring = args[0], args[1]
    tr.counts["glgroup.enum_units"] += len(result)
    tr.counts["glgroup.enum_scanned"] += len(list(ring.elements())) ** len(pro.pairs())


def _lazy_invert_pre(tr, args, kwargs):
    a = args[0]
    if a.finitary is not None:
        sites = a.support_sites()
        region = prosets.interval_closure(a.family, sites) if sites else ()
        tr.counts["lazy.invert_region"] += len(region)
        tr.counts["lazy.invert_finitary"] += 1


def _recover_pre(tr, args, kwargs):
    return args[0], args[0].ops, kwargs.get("mode", args[1] if len(args) > 1 else "auto")


def _recover_post(tr, ctx, args, result):
    access, ops0, mode = ctx
    tr.counts["recovery.access_ops"] += access.ops - ops0
    if mode == "witness":
        tr.counts["recovery.witness_classes"] += len(result.elements)


HOOKS = {
    "matrices.mul": (_mul_pre, _mul_post),
    "glgroup.det_block": (_det_pre, None),
    "glgroup.mulclose": (None, _mulclose_post),
    "glgroup.enumerate_invertibles": (None, _enum_post),
    "lazy.lazy_invert": (_lazy_invert_pre, None),
    "recovery.recover_poset": (_recover_pre, _recover_post),
}


# -- per-layer metrics ---------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, outside):
    """Every per-layer metric: name -> (value, unit)."""
    c, s, n = tr.calls, tr.self_ns, tr.counts
    m = {}
    for tag in ("Q", "mod", "Z"):
        for op in ("add", "mul", "canon"):
            m["rings.%s_calls.%s" % (op, tag)] = (c["rings.%s_calls.%s" % (op, tag)], "count")
    for op in ("mul", "add", "init", "eq", "hash"):
        m["matrices.%s_calls" % op] = (c["matrices." + op], "count")
    for op in ("mul", "add", "init"):
        m["matrices.%s_self_s" % op] = (s["matrices." + op] / 1e9, "s")
    m["matrices.mul_terms"] = (n["matrices.mul_terms"], "count")
    m["matrices.mul_nonzero_ratio"] = (_ratio(n["matrices.mul_outputs"], n["matrices.mul_terms"]), "ratio")
    for op in ("invert", "certify", "det_block", "commutator", "mulclose",
               "enumerate_invertibles", "random_invertible"):
        m["glgroup.%s_calls" % op] = (c["glgroup." + op], "count")
        m["glgroup.%s_self_s" % op] = (s["glgroup." + op] / 1e9, "s")
    m["glgroup.det_block_max_n"] = (n["glgroup.det_block_max_n"], "count")
    products = tr.edges[("glgroup.mulclose", "matrices.mul")]
    m["glgroup.mulclose_products"] = (products, "count")
    m["glgroup.mulclose_yield"] = (_ratio(n["glgroup.mulclose_size"], products), "ratio")
    m["glgroup.enum_unit_ratio"] = (_ratio(n["glgroup.enum_units"], n["glgroup.enum_scanned"]), "ratio")
    for op in ("lazy_mul", "lazy_invert", "project"):
        m["lazy.%s_calls" % op] = (c["lazy." + op], "count")
        m["lazy.%s_self_s" % op] = (s["lazy." + op] / 1e9, "s")
    m["lazy.invert_region_size"] = (_ratio(n["lazy.invert_region"], n["lazy.invert_finitary"]), "count")
    for op in ("recover_poset", "bundle_mul", "bundle_init"):
        m["recovery.%s_calls" % op] = (c["recovery." + op], "count")
        m["recovery.%s_self_s" % op] = (s["recovery." + op] / 1e9, "s")
    m["recovery.access_ops"] = (n["recovery.access_ops"], "count")
    m["recovery.mul_per_recover"] = (_ratio(c["recovery.bundle_mul"], c["recovery.recover_poset"]), "ratio")
    m["recovery.witness_draws"] = (c["recovery.witness_draws"], "count")
    m["recovery.witness_new_class_ratio"] = (
        _ratio(n["recovery.witness_classes"], c["recovery.witness_draws"]), "ratio")
    for op in ("validate_fcc", "pushout", "pushout_mediator", "coequalizer", "equalizer_check",
               "induced_hom", "generation_decompose", "reassemble"):
        m["functor_cat.%s_calls" % op] = (c["functor_cat." + op], "count")
        m["functor_cat.%s_self_s" % op] = (s["functor_cat." + op] / 1e9, "s")
    for op in ("init", "pairs", "opposite", "classes", "components", "restrict", "is_convex",
               "poset_isomorphic"):
        m["prosets.%s_calls" % op] = (c["prosets." + op], "count")
        m["prosets.%s_self_s" % op] = (s["prosets." + op] / 1e9, "s")
    m["prosets.family_interval_calls"] = (c["prosets.family_interval"], "count")
    m["samples.generate_s"] = (outside["samples_generate_ns"] / 1e9, "s")
    m["io.parse_self_s"] = (s["io.parse"] / 1e9, "s")
    m["io.emit_self_s"] = (s["io.emit"] / 1e9, "s")
    m["cli.interpreter_start_ms"] = (outside["interpreter_start_ms"], "ms")
    m["cli.import_ms"] = (outside["import_ms"], "ms")
    m["cli.build_parser_ms"] = (_ratio(s["cli.build_parser"], c["cli.build_parser"]) / 1e6, "ms")
    m["cli.command_self_ms"] = (_ratio(s["cli.command"], c["cli.command"]) / 1e6, "ms")
    m["cli.emit_ms"] = (_ratio(tr.incl_ns["cli.emit"], c["cli.emit"]) / 1e6, "ms")
    m["trace.overhead_ratio"] = (outside["overhead_ratio"], "ratio")
    return m


# -- the census: one small task per layer ------------------------------------------


def census_cycle():
    """Fixed, seed-independent tasks that reach every layer once, so that no
    layer's self time reads a constant zero on a workload that does not use
    it.  They cost well under 1 % of any workload's traced cycle."""
    import random

    import cliload
    import workloads as w

    cycle = []
    rng = random.Random(0)
    for ring in (w.F5, rings.QQ, rings.ZZ):
        pro = w.chain(3)
        one = matrices.identity(pro, ring)
        a, b, c = (samples.random_matrix(pro, ring, rng) for _ in range(3))
        cycle.append(("census", w._axiom_task(one, a, b, c)))
        cycle.append(("census", w._unit_task(glgroup.random_invertible(prosets.two_block(2, 1), ring, rng))))
    point = prosets.Proset([0], [])

    def groups():
        g = glgroup.certify(glgroup.random_invertible(w.chain(2), w.F3, random.Random(1)))
        h = glgroup.commutator(g, glgroup.transpose_op_iso(glgroup.transpose_op_iso(g)))
        return (
            h.matrix == matrices.identity(g.matrix.pro, w.F3)
            and len(glgroup.mulclose([g.matrix])) >= 1
            and len(glgroup.enumerate_invertibles(point, w.F2)) == 1
        )

    cycle.append(("census", groups))
    bundle, _ = recovery.scramble(w.chain(2), w.F2, seed=0, samples=8)
    cycle.append(("census", w._recover_task(w.chain(2), bundle, "exhaustive", None)))
    cycle.append(("census", w._recover_task(w.chain(2), bundle, "witness", 1)))
    cycle.append(("census", w._generation_task(w._data(w.chain(3)))))
    apex = w._data(point)
    span_map = (apex, w._data(w.chain(2)), {0: 0})
    cycle.append(("census", w._pushout_task(apex, span_map, span_map)))
    cycle.append(("census", w._coeq_task(span_map, {0: 1})))
    cycle.append(("census", w._induced_task(span_map, [matrices.identity(w.chain(2), w.F5)] * 2)))
    cycle.append(("census", w._validate_task(span_map)))
    fam, ring = w.LAZY_CASES[0]
    # its own seed: this draw has a nonempty support, so lazy.invert_region_size
    # is not 0 on workloads without lazy work
    a = samples.random_finitary(fam, ring, random.Random(1), span=2)
    cycle.append(("census", w._lazy_invert_task(a)))
    cycle.append(("census", w._lazy_mul_task(fam, a, a)))
    replay = cliload.in_process_cycle(0)
    cycle.extend(task for task in replay if task[0] == "algebra")
    return cycle


# -- outside timings ----------------------------------------------------------------


def child_ms(code, env, *argv, repeats=5):
    """Median wall time of a child interpreter running `code`, and the
    median of what the child itself reports (if it prints a number)."""
    walls, inner = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                             env=env, timeout=60)
        walls.append((time.perf_counter() - t0) * 1e3)
        if out.stdout.strip():
            inner.append(float(out.stdout))
    return statistics.median(walls), statistics.median(inner) if inner else None


def traced_run(workload, seed, seconds):
    """Untraced replay for the overhead baseline, then the same cycle traced
    once, the census, the outside timings and the kernel microbenchmark."""
    import cliload
    import kernel
    import workloads

    build = cliload.in_process_cycle if workload == "cli" else workloads.SETUPS[workload]
    cycle = build(seed)
    harness.warm_in_process(cycle)
    plain = harness.run_cycles([cycle], seconds / 2)

    tr = Tracer()
    tr.install()
    try:
        cycle = build(seed)
        generate_ns = tr.counts["samples.generate_ns"]
        census = census_cycle()
        tr.reset()
        traced = harness.Tally()

        def on_task(i):
            tr.task = i

        harness.run_cycles([cycle], 0, traced, on_task)
        traced_rate = traced.tasks_per_s
        harness.run_cycles([census], 0, traced, on_task)
    finally:
        tr.uninstall()

    env = cliload.child_env()
    start_ms, _ = child_ms("pass", env)
    _, import_s = child_ms(harness.IMPORT_PROBE, env, str(harness.SRC))
    outside = {
        "samples_generate_ns": generate_ns,
        "interpreter_start_ms": start_ms,
        "import_ms": import_s * 1e3,
        "overhead_ratio": plain.tasks_per_s / traced_rate,
    }
    metrics = {k: (v, u, 1) for k, (v, u) in layer_metrics(tr, outside).items()}
    kernels = kernel.measure()
    metrics.update({k: (v, u, 1) for k, (v, u, _) in kernels.items()})
    tr.dump(harness.ROOT / ".perfbench" / ("spans-%s-seed%d.json" % (workload, seed)))

    total = harness.Tally()
    for t in (plain, traced):
        total.attempted += t.attempted
        total.failures.update(t.failures)
    detail = {
        "shares": Counter(share for share, _ in cycle),
        "spans": tr.next_id,
        "spans_kept": len(tr.spans),
        "untraced_tasks_per_s": plain.tasks_per_s,
        "traced_tasks_per_s": traced_rate,
        "kernel_terms": {k: note for k, (_, _, note) in kernels.items()},
    }
    return {"metrics": metrics, "detail": detail, "tally": total}
