"""Benchmark for incring: five seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload units --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1

One workload run prints a `{"perfbench": ...}` detail line (run metadata,
sample counts, per-share failures) and, as its last line, the result object
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the metrics
are the end-to-end ones, measured with nothing installed; with `--trace 1`
they are the per-layer counts and self times of a traced replay (see
tracing.py) plus the kernel microbenchmark.  `--all` runs every workload
untraced in a child process each, adds the known-defect probes and prints one
table.  `--seconds` defaults to BENCHMARK.json's run_seconds, the length the
bounds were checked at.  compare.py compares the outputs of two commits.

Everything runs in one process with no threads; the cli workload starts one
child interpreter at a time.  Only the standard library is used.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter

from harness import (
    HERE,
    MIN_BEYOND,
    PROBE_EVERY_S,
    ROOT,
    SourceMissing,
    Tally,
    attempt,
    end_to_end,
    import_library,
    import_s,
    run_cycles,
    timed_setup,
    warm_in_process,
)

WORKLOADS = ("axioms", "units", "recover", "carriers", "cli")


# -- run metadata ------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest():
    """SHA-256 over the library sources, which names the code under test
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# -- one workload run ----------------------------------------------------------------


def run_workload(args):
    # One CPU for the whole run, children included, so that the speed
    # probes (harness.calibration_s) time the same CPU the tasks run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    meta = metadata(args)
    meta["cpu"] = cpu
    import_library()
    meta["src_sha256"] = src_digest()
    if args.trace:
        import tracing

        out = tracing.traced_run(args.workload, args.seed, args.seconds)
        metrics, detail, tally = out["metrics"], out["detail"], out["tally"]
    else:
        if args.workload == "cli":
            import cliload

            build, warm, who = cliload.setup, cliload.warm, resource.RUSAGE_CHILDREN
            probe_every_s = cliload.PROBE_EVERY_S
        else:
            import workloads

            build, warm, who = workloads.SETUPS[args.workload], warm_in_process, resource.RUSAGE_SELF
            probe_every_s = PROBE_EVERY_S
        setup_s, cycles = timed_setup(build, args.seed, warm)
        setup_s += import_s()
        tally = run_cycles(cycles, args.seconds, probe_every_s=probe_every_s)
        metrics, unscaled, unsupported = end_to_end(tally, setup_s, resource.getrusage(who).ru_maxrss)
        detail = {"shares": Counter(share for share, _ in cycles[0]), "unscaled": unscaled,
                  "unsupported": unsupported}
    meta["loadavg_1m_end"] = os.getloadavg()[0]
    detail.update(meta)
    detail["samples"] = {k: v[2] for k, v in metrics.items()}
    detail["failures"] = dict(tally.failures)
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# -- all workloads ---------------------------------------------------------------------


def run_all(args):
    """Every workload untraced in its own process, then the defect probes."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("workload %s exited with %d" % (name, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
        rows.append((name, detail, result))
    import_library()
    import cliload
    import workloads

    probes = {
        "recover": [workloads.z6_defect_cycle(), *workloads.witness_defect_cycles()],
        "cli": [cliload.defect_cycle()],
    }
    print("%-9s %-13s %14s %-8s %8s" % ("workload", "metric", "value", "unit", "samples"))
    for name, detail, result in rows:
        for metric, m in result["metrics"].items():
            note = "   unsupported: fewer than %d samples beyond it" % MIN_BEYOND
            print("%-9s %-13s %14.4f %-8s %8d%s" % (
                name, metric, m["value"], m["unit"], detail["samples"][metric],
                note if metric in detail["unsupported"] else ""))
        shares = [("all shares", result["attempted"], result["failed"])]
        for cycle in probes.get(name, ()):
            tally = Tally()
            for share, task in cycle:
                attempt(share, task, tally)
            shares.append((cycle[0][0] + " (known defect probe)", tally.attempted, tally.failed))
        for label, attempted, failed in shares:
            print("%-9s %-13s %14.4f %-8s %8d   %s: %d failed" % (
                name, "failed_ratio", failed / attempted, "ratio", attempted, label, failed))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload untraced, one table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    try:
        if args.all:
            return run_all(args)
        return run_workload(args)
    except SourceMissing as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
