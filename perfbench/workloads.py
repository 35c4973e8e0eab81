"""The four in-process workloads: axioms, units, recover and carriers.

Each workload's `setup(seed)` returns one *cycle*: a list of `(share, task)`
pairs with a fixed composition.  Only the contents of the inputs depend on
the seed, never how many tasks of each share a cycle holds, so the cost mix
and therefore every percentile is comparable from seed to seed.  The runner
builds three cycles from seeds derived from the run's seed, runs them in
turn, and only ever runs whole cycles, so a run always ends on a cycle
boundary.

A task is a zero-argument callable that returns True when its own oracle
accepts the library's answer; it returns False or raises otherwise.  Library
calls go through module attributes (`glgroup.invert`, not a bound copy), so
the traced run sees them.
"""

import random

from incring import functor_cat, glgroup, lazy, matrices, recovery, samples
from incring.prosets import NFamily, NStarDivFamily, Proset, ZigFamily, elem_key, two_block
from incring.rings import QQ, ZZ, ModRing, PrimeField

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def chain(n):
    return Proset(range(n), [(i, i + 1) for i in range(n - 1)])


def work(pro):
    """Comparable triples s <= t <= u: the terms of a dense product, and the
    size measure that matrix, inversion and recovery costs follow."""
    return sum(len(pro.down_set(t)) * len(pro.up_set(t)) for t in pro.elements)


def matched(draw, rng, k=25, ref_seed=0):
    """The seeded draw whose work is closest to the median work of a fixed,
    seed-independent reference sample of the same generator.

    The inputs keep a random structure, but their cost no longer depends on
    the seed, so runs on different seeds measure the same amount of work.
    """
    ref = sorted(work(draw(random.Random(ref_seed + i))) for i in range(k))
    target = ref[k // 2]
    return min((draw(rng) for _ in range(k)), key=lambda p: abs(work(p) - target))


def int_labelled(pro):
    """The same proset on labels 0..n-1, in element order; tuple labels
    would come back from JSON as unhashable lists."""
    names = {s: i for i, s in enumerate(pro.elements)}
    return Proset(names.values(), [(names[a], names[b]) for a, b in pro.pairs()])


def _data(pro):
    """Plain (elements, relations) data, rebuilt into a fresh Proset per task."""
    return list(pro.elements), list(pro.strict_pairs())


def _fresh(data):
    return Proset(*data)


# -- axioms ---------------------------------------------------------------------


AXIOM_PROSETS = 4  # seeded posets and prosets each, per size 3..8
AXIOM_TRIPLES = 3  # triples per proset and ring


def axioms(seed):
    """Criterion 01's triples on a reused pool of 48 prosets of 3-8 points,
    with equal task counts over Z/6, F5 and Q."""
    rng = random.Random(seed)
    pool = []
    for n in range(3, 9):
        for _ in range(AXIOM_PROSETS):
            pool.append(matched(lambda r: samples.random_poset(n, r), rng))
            pool.append(matched(lambda r: samples.random_proset(n, r), rng))
    cycle = []
    for ring in (ModRing(6), F5, QQ):
        for pro in pool:
            one = matrices.identity(pro, ring)
            for _ in range(AXIOM_TRIPLES):
                a, b, c = (samples.random_matrix(pro, ring, rng) for _ in range(3))
                cycle.append(("axioms.%s" % ring.name, _axiom_task(one, a, b, c)))
    rng.shuffle(cycle)
    return cycle


def _axiom_task(one, a, b, c):
    def task():
        ab, ac, bc = a.mul(b), a.mul(c), b.mul(c)
        return (
            ab.mul(c) == a.mul(bc)
            and a.mul(b.add(c)) == ab.add(ac)
            and a.add(b).mul(c) == ac.add(bc)
            and one.mul(a) == a
            and a.mul(one) == a
        )

    return task


# -- units ----------------------------------------------------------------------

# top-class size -> tasks per cycle.  The 9-point class is 1.5 % of the cycle,
# so task_p99_ms falls inside it and tracks block-determinant cost.
LADDER = {2: 20, 3: 20, 4: 20, 5: 20, 6: 16, 7: 12, 8: 8, 9: 6}
UNIT_RINGS = (F5, ModRing(9), ZZ)
SINGLETON_TASKS = 235
SINGLETON_POOL = 8  # seeded 7-point posets and prosets each, besides chain8
DICKSON_SEED = 11  # fixed: the closure's cost depends on its seed element
COMMUTATOR_TASKS = 40


def units(seed):
    """Invert-and-certify on a class-size ladder and on singleton-class
    posets, iterated commutators on chains, and three rare closure tasks."""
    rng = random.Random(seed)
    cycle = []
    k = 0
    for m, count in LADDER.items():
        pro = two_block(m, 2)
        for _ in range(count):
            ring = UNIT_RINGS[k % 3]
            k += 1
            a = glgroup.random_invertible(pro, ring, rng)
            cycle.append(("units.ladder%d" % m, _unit_task(a)))
    singles = [chain(8)]
    for _ in range(SINGLETON_POOL):
        singles.append(matched(lambda r: samples.random_poset(7, r), rng))
        singles.append(matched(lambda r: samples.random_proset(7, r), rng))
    for i in range(SINGLETON_TASKS):
        pro = singles[i % len(singles)]
        ring = UNIT_RINGS[(i // 3) % 3]
        a = glgroup.random_invertible(pro, ring, rng)
        cycle.append(("units.singleton", _unit_task(a)))
    shapes = [(n, d) for n in (3, 5) for d in range(1, 6)]
    for i in range(COMMUTATOR_TASKS):
        n, depth = shapes[i % len(shapes)]
        cycle.append(("units.commutator", _commutator_task(chain(n), depth, rng.randrange(2**32))))
    cycle.append(("units.dickson", _dickson_task(DICKSON_SEED)))
    cycle.append(("units.gl3", _gl3_task()))
    cycle.append(("units.qz", _qz_task()))
    rng.shuffle(cycle)
    return cycle


def _unit_task(a):
    one = matrices.identity(a.pro, a.ring)

    def task():
        inv = glgroup.invert(a)
        if a.mul(inv) != one or inv.mul(a) != one:
            return False
        return glgroup.certify(a).inverse_matrix == inv

    return task


def _commutator_task(pro, depth, seed):
    def task():
        rep = glgroup.iterated_commutator_sample(pro, F3, depth, 1, random.Random(seed))
        return rep["violations"] == 0 and rep["samples"] == 1

    return task


def _dickson_task(seed):
    def task():
        rep = glgroup.dickson_normal_closure(3, 2, random.Random(seed))
        # GL3(F2) is simple of order 168: every noncentral element normally
        # generates all of it
        return rep["closure_order"] == 168 and rep["contains_sl_generators"]

    return task


def _gl3_task():
    pro = two_block(3)

    def task():
        return len(glgroup.enumerate_invertibles(pro, F2)) == 168

    return task


def _qz_task():
    fam = ZigFamily()

    def task():
        rep = lazy.qz_window_check(fam, F2, fam.window(2), fam.window(1))
        return rep["surjective"] and rep["closure_order"] == rep["gl_inner_order"]

    return task


# -- recover --------------------------------------------------------------------

# A short cycle (158 tasks) lets a 20 s run hold 7-10 whole cycles; with a
# cycle twice as long, the percentiles spread about half as much again from
# run to run.
SMALL_SCRAMBLES = 15  # scramble seeds per poset type with at most 3 points
FOUR_SCRAMBLES = 1  # scramble seeds per four-point poset
WIDE_PER_SIZE = 3  # 5- and 6-point posets each
# Witness mode stops after 60 draws without a new class, so a class holding
# few of the bundle's samples can be missed.  Criterion 07 gives four points
# 64 samples, 16 per point; the wider posets keep at least that density.
WIDE_SAMPLES = 128
# Witness mode reads the order off products of the few idempotents it kept
# per class, and over F2 it can miss a relation and return a wrong order
# without an error (see the witness probes below): rarely, but often enough
# that seeded witness inputs would fail some runs.  So the witness shares use
# inputs that do not depend on the run's seed: the four-point ones are
# criterion 07's own (scramble seeds 0-4, recovery seed one more), the wider
# ones are drawn once from WIDE_SEED.
CRITERION_07_SEEDS = 5
WIDE_SEED = 0


def recover(seed):
    """Scramble-and-recover over F2: every poset with at most 3 points and
    all 16 four-point posets exhaustively on seeded scrambles, the four-point
    ones again and fixed 5-6 point posets by witness sampling."""
    rng = random.Random(seed)
    cycle = []
    small = [p for n in (1, 2, 3) for p in samples.enumerate_posets(n)]
    for pro in small:
        for _ in range(SMALL_SCRAMBLES):
            bundle, _ = recovery.scramble(pro, F2, seed=rng.randrange(2**32))
            cycle.append(("recover.exhaustive3", _recover_task(pro, bundle, "exhaustive", None)))
    for pro in samples.enumerate_posets(4):
        for _ in range(FOUR_SCRAMBLES):
            bundle, _ = recovery.scramble(pro, F2, seed=rng.randrange(2**32))
            cycle.append(("recover.exhaustive4", _recover_task(pro, bundle, "exhaustive", None)))
            s = rng.randrange(CRITERION_07_SEEDS)
            bundle, _ = recovery.scramble(pro, F2, seed=s, samples=64)
            cycle.append(("recover.witness4", _recover_task(pro, bundle, "witness", s + 1)))
    cycle.extend(wide_witness_cycle())
    rng.shuffle(cycle)
    return cycle


def wide_witness_cycle():
    """Witness recovery of WIDE_PER_SIZE 5-point and 6-point posets, the
    same in every run."""
    rng = random.Random(WIDE_SEED)
    cycle = []
    for n in (5, 6):
        for _ in range(WIDE_PER_SIZE):
            pro = matched(lambda r: samples.random_poset(n, r), rng)
            s = rng.randrange(2**32)
            bundle, _ = recovery.scramble(pro, F2, seed=s, samples=WIDE_SAMPLES)
            cycle.append(("recover.witness%d" % n, _recover_task(pro, bundle, "witness", s + 1)))
    return cycle


def _recover_task(pro, bundle, mode, rng_seed, ring=F2):
    def task():
        access = recovery.BundleAccess(bundle, ring)
        rng = None if rng_seed is None else random.Random(rng_seed)
        rec = recovery.recover_poset(access, mode=mode, budget=10**5, rng=rng)
        return rec.poset_isomorphic(pro) is not None

    return task


# -- carriers -------------------------------------------------------------------

CARRIER_SHARES = {
    "validate": 72,
    "pushout": 48,
    "coequalizer": 36,
    "induced_hom": 48,
    "lazy_mul": 36,
    "lazy_invert": 36,
    "tower": 36,
}


def _carrier(n, rng):
    """A seeded carrier of exactly n points, poset or proset at even odds."""
    if rng.random() < 0.5:
        return matched(lambda r: samples.random_proset(n, r), rng, k=9)
    return matched(lambda r: samples.random_poset(n, r), rng, k=9)


def _draw_map(rng, dom_n, cod_n, dom=None):
    """Random admissible map between carriers of fixed sizes, redrawing the
    carriers when some component has no admissible image."""
    while True:
        d = dom if dom is not None else _carrier(dom_n, rng)
        try:
            return samples.random_fcc_map(d, _carrier(cod_n, rng), rng)
        except ValueError:
            continue


def four_class_types():
    """Every irreducible 5-point proset with exactly four classes, up to
    isomorphism, on labels 0..4: a four-point poset with one class doubled.

    Like criterion 10 this share is exhaustive rather than seeded: the 31
    types differ threefold in generation tree cost, and labels steer the
    tree search, so a seeded choice or labelling would move the workload's
    tail from seed to seed."""
    types = []
    for base in samples.enumerate_posets(4):
        for c in base.elements:
            els = [(x, 0) for x in base.elements] + [(c, 1)]
            rel = [(s, t) for s in els for t in els if base.leq(s[0], t[0])]
            pro = Proset(els, rel)
            if pro.is_irreducible() and not any(pro.poset_isomorphic(t) for t in types):
                types.append(pro)
    return [int_labelled(pro) for pro in types]


def _map_data(f):
    return _data(f.domain), _data(f.codomain), dict(f.mapping)


def _fresh_map(data, dom=None):
    d, c, mapping = data
    return functor_cat.FccMap(_fresh(d) if dom is None else dom, _fresh(c), mapping)


def _collapse(pro):
    comps = sorted((sorted(c, key=elem_key) for c in pro.components()), key=lambda c: elem_key(c[0]))
    points = Proset(list(range(len(comps))), [])
    return functor_cat.FccMap(pro, points, {s: i for i, comp in enumerate(comps) for s in comp})


# Pushout and coequalizer cost has a heavy tail in the leg size (5-point legs
# reach 50-70 ms, 4-point ones stay under 16 ms); with 4-point legs the
# workload's tail sits in the exhaustive, seed-independent generation share.
LAZY_CASES = ((NFamily(), ModRing(6)), (ZigFamily(), F5), (NStarDivFamily(), ModRing(4)))


def carriers(seed):
    """Admissible maps on fresh carriers of at most 6 points: validation,
    pushouts with mediators, coequalizers with the equalizer audit, pulled
    back products, generation trees, and finitary lazy arithmetic."""
    rng = random.Random(seed)
    cycle = []
    for _ in range(CARRIER_SHARES["validate"]):
        cycle.append(("carriers.validate", _validate_task(_map_data(_draw_map(rng, 4, 6)))))
    for _ in range(CARRIER_SHARES["pushout"]):
        apex = _carrier(2, rng)
        f, g = _draw_map(rng, 2, 4, apex), _draw_map(rng, 2, 4, apex)
        cycle.append(("carriers.pushout", _pushout_task(_data(apex), _map_data(f), _map_data(g))))
    for _ in range(CARRIER_SHARES["coequalizer"]):
        f1 = _draw_map(rng, 2, 4)
        while True:
            try:
                f2 = samples.random_fcc_map(f1.domain, f1.codomain, rng)
                break
            except ValueError:
                continue
        cycle.append(("carriers.coequalizer", _coeq_task(_map_data(f1), dict(f2.mapping))))
    for _ in range(CARRIER_SHARES["induced_hom"]):
        f = _draw_map(rng, 4, 5)
        xs = [samples.random_matrix(f.codomain, F5, rng) for _ in range(4)]
        cycle.append(("carriers.induced_hom", _induced_task(_map_data(f), xs)))
    for pro in four_class_types():
        cycle.append(("carriers.generation", _generation_task(_data(pro))))
    for i in range(CARRIER_SHARES["lazy_mul"]):
        fam, ring = LAZY_CASES[i % 3]
        a, b = (samples.random_finitary(fam, ring, rng, span=2, invertible=False) for _ in range(2))
        cycle.append(("carriers.lazy_mul", _lazy_mul_task(fam, a, b)))
    for i in range(CARRIER_SHARES["lazy_invert"]):
        fam, ring = LAZY_CASES[i % 3]
        a = samples.random_finitary(fam, ring, rng, span=2)
        cycle.append(("carriers.lazy_invert", _lazy_invert_task(a)))
    for i in range(CARRIER_SHARES["tower"]):
        fam, ring = LAZY_CASES[i % 3]
        a = samples.random_finitary(fam, ring, rng, span=2, invertible=False)
        cycle.append(("carriers.tower", _tower_task(fam, a)))
    rng.shuffle(cycle)
    return cycle


def _validate_task(data):
    def task():
        f = _fresh_map(data)
        records = functor_cat.validate_fcc(f)
        monotone = all(f.codomain.leq(f(a), f(b)) for a, b in f.domain.pairs())
        return monotone and len(records) == len(f.domain.components())

    return task


def _pushout_task(apex, fdata, gdata):
    def task():
        span = _fresh(apex)
        f, g = _fresh_map(fdata, span), _fresh_map(gdata, span)
        quo, q1, q2 = functor_cat.pushout(f, g)
        if functor_cat.compose(f, q1) != functor_cat.compose(g, q2):
            return False
        for w in (functor_cat.identity_map(quo), _collapse(quo)):
            h1, h2 = functor_cat.compose(q1, w), functor_cat.compose(q2, w)
            if functor_cat.pushout_mediator(q1, q2, h1, h2) != w:
                return False
        return True

    return task


def _coeq_task(f1data, f2map):
    def task():
        f1 = _fresh_map(f1data)
        f2 = functor_cat.FccMap(f1.domain, f1.codomain, f2map)
        quo, p = functor_cat.coequalizer(f1, f2)
        if functor_cat.compose(f1, p) != functor_cat.compose(f2, p):
            return False
        return functor_cat.equalizer_check(f1, f2)["passed"]

    return task


def _induced_task(data, xs):
    def task():
        f = _fresh_map(data)
        pull = functor_cat.induced_hom
        if pull(f, matrices.identity(f.codomain, F5)) != matrices.identity(f.domain, F5):
            return False
        return all(
            pull(f, x.mul(y)) == pull(f, x).mul(pull(f, y))
            for x, y in zip(xs, xs[1:] + xs[:1])
        )

    return task


def _leaves(tree):
    if tree["leaf"]:
        return [tree]
    return _leaves(tree["left"]) + _leaves(tree["right"])


def _generation_task(data):
    def task():
        pro = _fresh(data)
        tree = functor_cat.generation_decompose(pro)
        if any(len(leaf["proset"].classes()) > 2 for leaf in _leaves(tree)):
            return False
        return functor_cat.reassemble(tree).poset_isomorphic(pro) is not None

    return task


def _lazy_mul_task(fam, a, b):
    wins = fam.windows(4)

    def task():
        ab = lazy.lazy_mul(a, b)
        return all(ab.project(w) == a.project(w).mul(b.project(w)) for w in wins)

    return task


def _lazy_invert_task(a):
    def task():
        prod = lazy.lazy_mul(a, lazy.lazy_invert(a))
        off, exc, default = prod.finitary
        return not off and not exc and default == a.ring.one

    return task


def _tower_task(fam, a):
    wins = fam.windows(5)

    def task():
        direct = [a.project(w) for w in wins]
        return all(
            direct[j].project(list(wins[i])) == direct[i]
            for i in range(5)
            for j in range(i + 1, 5)
        )

    return task


# -- known defects ------------------------------------------------------------------


def z6_defect_cycle(count=4):
    """Exhaustive recovery of a scrambled 2-chain over Z/6.  The oracle
    accepts the right poset or a typed IncRingError; at the commit that
    added this benchmark the library returns a 4-element poset instead."""
    from incring.errors import IncRingError

    ring = ModRing(6)
    pro = chain(2)
    cycle = []
    for s in range(count):
        bundle, _ = recovery.scramble(pro, ring, seed=s)
        inner = _recover_task(pro, bundle, "exhaustive", None, ring)

        def task(inner=inner):
            try:
                return inner()
            except IncRingError:
                return True

        cycle.append(("recover.exhaustive_z6", task))
    return cycle


def witness_defect_cycles():
    """Witness recoveries that return the wrong order without an error, one
    cycle each: a 6-point poset from a 64-sample bundle (about 1 in 300
    scramble seeds of this poset does this) and a 5-point poset from a
    128-sample bundle, which misses the relation 3 < 2 (rarer: none of 2000
    other seeded 5-6 point cases did so).  Seeded witness inputs would still
    fail an occasional run, so the timed witness shares use fixed ones."""
    cases = (
        (6, [(1, 0), (2, 5), (3, 2), (3, 5), (4, 0), (4, 2), (4, 5)], 289, 64),
        (5, [(2, 0), (2, 4), (3, 0), (3, 2), (3, 4)], 3423939287, 128),
    )
    cycles = []
    for n, rel, seed, count in cases:
        pro = Proset(range(n), rel)
        bundle, _ = recovery.scramble(pro, F2, seed=seed, samples=count)
        task = _recover_task(pro, bundle, "witness", seed + 1)
        cycles.append([("recover.witness%d_%dsamples" % (n, count), task)])
    return cycles


SETUPS = {"axioms": axioms, "units": units, "recover": recover, "carriers": carriers}
