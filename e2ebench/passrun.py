"""One cold pass of a workload, in the fresh interpreter ``run.py`` starts.

Usage: ``python passrun.py --workload W --seed N [--trace] [--setup-only]``
with the repository's ``src`` on ``PYTHONPATH``.  Prints one JSON object:
the monotonic clock reading when set-up ended, the factor that scales the
set-up time to reference seconds, and unless ``--setup-only`` the pass's
per-op results, stage sums and (with ``--trace``) per-layer values.

Stage times are reported in reference seconds: wall seconds times
``REFERENCE_PROBE_S`` over the speed probe's time around the stage.  On
a shared host, such as the 2-vCPU VM the bounds were measured on, speed
drifts by up to 2x within minutes; the probe, a fixed piece of the
benchmark's own interpreter work, drifts with it, and the ratio much less
(see README.md, "Bounds").
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from time import perf_counter

import repro
from repro import (
    build_state_space,
    parse_g,
    resolve_csc,
    simulate_implementation,
    synthesize,
)
from repro.kernel import resolve_kernel

from layers import LAYER_TIMES, Tracer, install
from workloads import build_workload

#: An op running longer than this fails.
OP_TIMEOUT_S = 90
#: Insertion budget of the CSC step, as ``repro-synth csc --max-signals 8``.
MAX_CSC_SIGNALS = 8

#: Table lookups in one speed probe, about 11 ms of work.
PROBE_LOOKUPS = 40000
#: The probe's time on the host the bounds were measured on, when that host
#: ran at full speed (see README.md); a stage time in reference seconds is
#: its wall time on a host that fast.
REFERENCE_PROBE_S = 0.011
#: A stage starting this soon after the last probe shares that probe.
PROBE_EVERY_S = 0.25
#: Probes taken after set-up, to scale it.
SETUP_SPEED_PROBES = 3
#: Set-up (process start, compiling and loading modules) slowed less than
#: the probe when the host slowed: as the probe's time to the power 0.63 to
#: 0.70 (see README.md).  Its scale is the probe ratio to this power.
SETUP_SPEED_EXPONENT = 0.65


def _alarm(_signum, _frame):
    raise TimeoutError("op exceeded %ds" % OP_TIMEOUT_S)


class SpeedProbe:
    """Times a fixed piece of interpreter work: integer arithmetic and
    lookups of fresh tuple keys in a dict, as the program's own tables (BDD
    unique table, state maps) do.  The dict has 4,096 entries, so it is
    back in the core's caches within microseconds of any stage: the probe
    reads the host's speed, not what the stage left in the caches."""

    def __init__(self) -> None:
        self.table = {(i & 63, i >> 6): i for i in range(1 << 12)}

    def measure(self) -> float:
        table = self.table
        x = 1
        hits = 0
        start = perf_counter()
        for _ in range(PROBE_LOOKUPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if (x & 63, (x >> 6) & 127) in table:
                hits += 1
        return perf_counter() - start


def fingerprint() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": resolve_kernel(None),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "repro": repro.__file__,
    }


class Stages:
    """Stage times of a pass.  With a tracer, each call the benchmark makes
    into the program is also a span of its layer.

    A speed probe runs before a stage unless the last one is younger than
    ``PROBE_EVERY_S``, and once more when the pass ends, so every stage lies
    between two probes; its wall time is scaled by their mean.
    """

    def __init__(self, speed: SpeedProbe, tracer: Tracer = None) -> None:
        self.speed = speed
        self.tracer = tracer
        #: (perf_counter reading, probe seconds)
        self.probes = []
        #: (stage, wall seconds, index of the last probe before it)
        self.spans = []
        self.elapsed = 0.0

    def probe(self) -> None:
        self.probes.append((perf_counter(), self.speed.measure()))

    def run(self, stage, layer, fn, *args, **kwargs):
        if not self.probes or perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe()
        start = perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.call(layer, fn, *args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.spans.append((stage, elapsed, len(self.probes) - 1))
            self.elapsed += elapsed

    def scaled_sums(self) -> dict:
        """Per-stage sums in reference seconds; call once, when the pass
        has ended."""
        self.probe()
        times = [seconds for _, seconds in self.probes]
        sums = dict.fromkeys(("parse_s", "csc_s", "approx_s", "baseline_s", "verify_s"), 0.0)
        for stage, elapsed, before in self.spans:
            sums[stage] += elapsed * 2 * REFERENCE_PROBE_S / (times[before] + times[before + 1])
        return sums


def run_op(spec, workload, stages: Stages) -> dict:
    """Take one spec from ``.g`` text to verified circuits.

    Returns the op's outputs; ``error`` is set when the op failed.  Every
    stage starts from a collected heap, as it would in a command of its own,
    so an op's time does not depend on what ran before it; the collections
    are not timed.
    """
    tracer = stages.tracer
    out = {"spec": spec.name}
    gc.collect()
    stg = stages.run("parse_s", "stg.parse_s", parse_g, spec.text)

    # The CSC answer, as `repro-synth csc` gives it: explicit build, check,
    # then resolution when conflicts exist.
    gc.collect()
    space = stages.run(
        "csc_s", "spaces.explicit_build_s", build_state_space, stg, engine="explicit"
    )
    report = stages.run("csc_s", "stategraph.csc_check_s", space.check_csc)
    out["csc_conflicts"] = report.num_conflicts
    if tracer is not None:
        tracer.count("stategraph.states", space.num_states)
    if report.satisfied:
        if not workload.synthesize_clean:
            return out
    else:
        encoding = stages.run(
            "csc_s", None, resolve_csc, stg, space.explicit_graph, max_signals=MAX_CSC_SIGNALS
        )
        out["inserted"] = encoding.inserted
        if tracer is not None:
            tracer.count("stategraph.states_reexplored", sum(encoding.states_reexplored or ()))
            tracer.count("encoding.inserted", encoding.num_inserted)
        if not encoding.resolved:
            out["error"] = "CSC conflicts left unresolved"
            return out
        stg = encoding.stg
        del encoding
    del space

    literals, verdicts = [], []
    for stage, method in (("approx_s", "unfolding-approx"), ("baseline_s", "sg-bdd")):
        gc.collect()
        result = stages.run(stage, None, synthesize, stg, method=method)
        implementation = result.implementation
        literals.append(result.literal_count)
        del result
        gc.collect()
        explored = stages.run(
            "verify_s", "sim.verify_s", simulate_implementation, stg, implementation
        )
        verdicts.append(explored.verdict())
        if tracer is not None:
            tracer.count("sim.states", explored.num_states)
    out["literals"], out["baseline_literals"] = literals
    out["verdicts"] = verdicts
    if verdicts != ["ok", "ok"]:
        out["error"] = "simulator verdicts %s" % verdicts
    elif workload.literal_parity and literals[0] != literals[1]:
        out["error"] = "literals %d (unfolding-approx) != %d (sg-bdd)" % tuple(literals)
    return out


def run_pass(workload, speed: SpeedProbe, tracer: Tracer = None) -> dict:
    stages = Stages(speed, tracer)
    ops = []
    signal.signal(signal.SIGALRM, _alarm)
    for spec in workload.specs:
        before = stages.elapsed
        signal.alarm(OP_TIMEOUT_S)
        try:
            out = run_op(spec, workload, stages)
        except Exception as exc:  # one failed op must not end the pass
            out = {"spec": spec.name, "error": "%s: %s" % (type(exc).__name__, exc)}
        finally:
            signal.alarm(0)
        out["seconds"] = stages.elapsed - before
        ops.append(out)
    sums = stages.scaled_sums()
    total = sum(sums.values())
    result = {
        "ops": ops,
        "total_s": total,
        "wall_s": stages.elapsed,
        "probe_s": statistics.median(seconds for _, seconds in stages.probes),
        "literals": sum(op.get("literals", 0) for op in ops),
        "failed": sum(1 for op in ops if "error" in op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(sums)
    if tracer is not None:
        # Layer spans nest inside stages; they take the pass's mean scale.
        scale = total / stages.elapsed
        layers = {
            name: value * scale if name in LAYER_TIMES else value
            for name, value in tracer.values.items()
        }
        layers["unattributed_s"] = (stages.elapsed - tracer.attributed_s()) * scale
        candidates = layers.get("encoding.candidates", 0)
        inserted = layers.pop("encoding.inserted", 0)
        layers["encoding.accept_ratio"] = inserted / candidates if candidates else 0.0
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    env = fingerprint()  # includes the kernel probe
    workload = build_workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    ready = time.monotonic()
    speed = SpeedProbe()
    setup_probe = statistics.median(speed.measure() for _ in range(SETUP_SPEED_PROBES))
    result = {
        "ready": ready,
        "setup_scale": (REFERENCE_PROBE_S / setup_probe) ** SETUP_SPEED_EXPONENT,
        "fingerprint": env,
    }
    if not args.setup_only:
        result.update(run_pass(workload, speed, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
