"""The byte-identity contract: the outputs the benchmark's cli workload and
the four demos print are pinned by digest.

A change that means to alter an output updates the digest here and says
which outputs moved and why; any other change must leave every byte alone.  The cli invocations are replayed in this process through
incring.cli.main, as `cliload.in_process_cycle` does for the traced run;
`perfbench/` is read, never written (no bytecode is cached there).  The
traced run's wrapper list is read the same way, to check that it can wrap
every method it names.
"""

import contextlib
import hashlib
import importlib
import io
import runpy
import sys
from pathlib import Path

from incring import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DEMOS = ("functor_walkthrough", "recovery_round_trip", "ring_tour", "window_density")

# sha256 over (argv, exit code, stdout, stderr) of cliload.invocations(seed)
# for seeds 0-4, in order
CLI_DIGEST = "24ddeebdabae9315b79d85336ff08f3b0cdb10381cc395fc559db36335dd33dc"
# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "functor_walkthrough": "6f1fdf6030fa3be03ccefa3fbe1f86e6707c87f4afc774cf1b86fa8a7d1661bc",
    "recovery_round_trip": "be76962b5a1402bfd3fb3fcac4bf369a31e0f6f67bf6152f976fddc19040edee",
    "ring_tour": "3a32a9be558e7ba24a7e91b6367cf5c97be11d948c1c4555483d5fc0965a9299",
    "window_density": "09247150fdd47c809ab9df0582191498031db5a5edba20df455fd904094e1216",
}


def _perfbench(name):
    """The benchmark module `name`, imported without writing bytecode."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


def _captured(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


def cli_digest():
    h = hashlib.sha256()
    invocations = _perfbench("cliload").invocations
    for seed in range(5):
        for inv in invocations(seed):
            code, out, err = _captured(cli.main, list(inv.argv))
            for part in (repr(inv.argv), str(code), out, err):
                h.update(part.encode("utf-8"))
                h.update(b"\0")
    return h.hexdigest()


def demo_digest(name):
    _, out, _ = _captured(runpy.run_path, str(ROOT / "demos" / (name + ".py")), None, "__main__")
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_cli_workload_outputs_are_pinned():
    assert cli_digest() == CLI_DIGEST


def test_demo_outputs_are_pinned():
    assert {name: demo_digest(name) for name in DEMOS} == DEMO_DIGESTS


def test_traced_methods_sit_in_their_own_class():
    """The traced run wraps a class's own attribute (`owner.__dict__[attr]`),
    so a method it names for a class must be in that class's body, not only
    inherited."""
    tracing = _perfbench("tracing")
    for name, owner, attr in tracing.SPANS + tracing.COUNTS:
        if isinstance(owner, type):
            assert attr in owner.__dict__, (name, owner.__name__, attr)
