"""Kernel microbenchmark: fixed inputs, independent of the workload seed.

Each figure is the median over repeats of one operation, and sits beside its
term count, labelled as computed, so that ratios such as a Q mul against an
F5 mul, or a chain8 invert against a chain8 mul, can be read off directly.
"""

import random
import statistics
import time

from incring import glgroup, recovery, samples
from incring.matrices import IncMatrix
from incring.prosets import Proset, two_block
from incring.rings import QQ, ZZ, ModRing, PrimeField

F5 = PrimeField(5)


def _median_ns(fn, repeats, inner=1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter_ns() - t0) / inner)
    return statistics.median(times)


def _ring_ops(ring, values):
    pairs = list(zip(values, values[1:] + values[:1]))

    def add():
        for a, b in pairs:
            ring.add(a, b)

    def mul():
        for a, b in pairs:
            ring.mul(a, b)

    return add, mul, len(pairs)


def _dense(pro, ring, rng):
    """Every order pair filled with a nonzero value."""
    entries = {}
    for p in pro.pairs():
        v = ring.zero
        while v == ring.zero:
            v = ring.random(rng)
        entries[p] = v
    return IncMatrix(pro, ring, entries)


def _mul_terms(a, b):
    rows = {}
    for (t, _) in b.entries:
        rows[t] = rows.get(t, 0) + 1
    return sum(rows.get(t, 0) for (_, t) in a.entries)


def measure():
    """name -> (value, unit, note)."""
    out = {}
    rng = random.Random(2024)
    for tag, ring in (("Q", QQ), ("mod", ModRing(6)), ("Z", ZZ)):
        values = [ring.random(rng) for _ in range(1000)]
        add, mul, n = _ring_ops(ring, values)
        for op, fn in (("add", add), ("mul", mul)):
            ns = _median_ns(fn, 7) / n
            out["rings.%s_ns.%s" % (op, tag)] = (ns, "ns", "%s.%s over %d operand pairs" % (ring.name, op, n))
    shapes = {
        "chain8": Proset(range(8), [(i, i + 1) for i in range(7)]),
        "proset8": samples.random_proset(8, random.Random(8)),
    }
    for shape, pro in shapes.items():
        for tag, ring in (("Q", QQ), ("F5", F5), ("Z6", ModRing(6))):
            a, b = _dense(pro, ring, rng), _dense(pro, ring, rng)
            us = _median_ns(lambda: a.mul(b), 15) / 1e3
            out["matrices.mul_us.%s.%s" % (shape, tag)] = (
                us, "us", "%d pairs, %d terms computed" % (len(pro.pairs()), _mul_terms(a, b)))
    for m in (4, 6, 8, 10):
        pro = two_block(m)
        a = glgroup.random_invertible(pro, F5, rng)
        ms = _median_ns(lambda: glgroup.invert(a), 3) / 1e6
        out["glgroup.invert_ms.two_block_%d" % m] = (
            ms, "ms", "one %dx%d class block over F5, %d entries" % (m, m, len(a.entries)))
    posets = {
        4: Proset(range(3), [(0, 1)]),
        6: Proset(range(3), [(0, 1), (1, 2)]),
        10: Proset(range(4), [(i, i + 1) for i in range(3)]),
        16: Proset(range(6), [(i, i + 1) for i in range(4)]),
    }
    for dim, pro in posets.items():
        access = recovery.scramble(pro, PrimeField(2), seed=dim)[1]
        x = tuple(access.ring.random(rng) for _ in range(dim))
        y = tuple(access.ring.random(rng) for _ in range(dim))
        terms = sum(
            1
            for i, xi in enumerate(x) if xi
            for j, yj in enumerate(y) if yj
            for c in access.table[i][j] if c
        )
        us = _median_ns(lambda: access.mul(x, y), 9) / 1e3
        out["recovery.bundle_mul_us.dim_%d" % dim] = (
            us, "us", "dim %d over F2, %d table terms computed" % (dim, terms))
    return out
