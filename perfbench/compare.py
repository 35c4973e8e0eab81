"""Compare the benchmark outputs of a parent commit and a change.

    python3 perfbench/compare.py parent.out change.out

Each file holds the standard output of any number of untraced runs, one run
after another, as `run.py --workload ...` prints them (a detail line, then
the result line).  Runs are paired in file order per workload, so run the
two sides alternately.  For each workload and end-to-end metric it prints
each side's median and quartiles, the share of pairs the change won, every
ratio with its base, and a verdict:

  improved     at least 10 pairs ran, the change won at least 9 in 10 of them,
               the medians differ by more than the parent's interquartile
               distance, and the change failed no larger share of its tasks;
  no worse     the change's median is within the metric's bound of the parent's;
  worse        the change's median is worse than the parent's by more than the bound;
  unresolved   a side's quartile spread is wider than the bound, and not every
               run of the change beats every run of the parent; or the change
               would be improved but ran fewer than 10 pairs or failed a larger
               share of its tasks than the parent;
  unsupported  a percentile that some run had fewer than 10 samples beyond
               (run.py marks it); it gets no verdict.

Each workload's failed and attempted task counts are printed per side.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


class Side:
    """The untraced runs of one workload on one commit, in file order."""

    def __init__(self):
        self.values = defaultdict(list)  # metric -> values
        self.unsupported = set()  # metrics some run marked unsupported
        self.attempted = 0
        self.failed = 0

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def load_runs(path):
    """workload -> Side."""
    runs = defaultdict(Side)
    detail = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "perfbench" in obj:
                detail = obj["perfbench"] if not obj["perfbench"]["traced"] else None
            elif "metrics" in obj and detail is not None:
                side = runs[detail["workload"]]
                for name, m in obj["metrics"].items():
                    side.values[name].append(m["value"])
                side.unsupported.update(detail.get("unsupported", ()))
                side.attempted += obj["attempted"]
                side.failed += obj["failed"]
                detail = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_better, more_failures=False):
    sign = 1 if lower_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    won = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if won >= 0.9 and sign * (pm - cm) > (p3 - p1):
        label = "unresolved" if more_failures or len(pairs) < MIN_PAIRS else "improved"
    elif all_better:
        label = "no worse"
    elif spread > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "no worse"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "pairs": len(pairs),
        "won": won,
        "ratio": cm / pm,
        "spread": spread,
        "verdict": label,
    }


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    print("%-9s %-13s %-30s %-30s %6s %5s  %-28s %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "pairs", "won", "ratio (change/parent)", "verdict"))
    for workload in sorted(set(parent) | set(change)):
        ps, cs = parent[workload], change[workload]
        print("%-9s %-13s parent %d of %d, change %d of %d" % (
            workload, "failed tasks", ps.failed, ps.attempted, cs.failed, cs.attempted))
        for name, m in metrics.items():
            p, c = ps.values.get(name), cs.values.get(name)
            if not p or not c:
                print("%-9s %-13s missing on %s" % (workload, name, "parent" if not p else "change"))
                continue
            if name in ps.unsupported | cs.unsupported:
                print("%-9s %-13s unsupported: a run had fewer than 10 samples beyond it" % (
                    workload, name))
                continue
            v = verdict(p, c, m["bound"], m["better"] == "lower",
                        cs.failed_ratio > ps.failed_ratio)
            print("%-9s %-13s %-30s %-30s %6d %5.2f  %-28s %s" % (
                workload, name,
                "%.4g/%.4g/%.4g" % v["parent"], "%.4g/%.4g/%.4g" % v["change"],
                v["pairs"], v["won"],
                "%.3f (base %.4g %s)" % (v["ratio"], v["parent"][1], m["unit"]),
                v["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
