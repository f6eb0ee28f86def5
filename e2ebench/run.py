"""End-to-end benchmark: ``.g`` specs to verified circuits, cold passes.

    python3 e2ebench/run.py --workload table1|fig6|csc --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Each pass runs every spec of the workload
once, in a fresh interpreter (``passrun.py``), so no process-wide cache
carries over between passes.  Passes repeat until ``--seconds`` is used up
(at least one); every metric is the median over passes, and every time is
in reference seconds (``passrun.py``).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  The last line of stdout is one JSON
object; the exit code is non-zero when any op failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters started only to time set-up, besides one per pass.
SETUP_PROBES = 5
#: Wall budget of the whole run; a pass still running then is killed.
RUN_BUDGET_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("total_s", "s"),
    ("approx_s", "s"),
    ("baseline_s", "s"),
    ("csc_s", "s"),
    ("verify_s", "s"),
    ("literals", "count"),
    ("peak_rss_mb", "MiB"),
]


class PassFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing so every count repeats exactly across passes.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, extra, deadline: float) -> dict:
    """Start ``passrun.py`` and return its JSON, plus ``setup_s``: the time
    from process start to the end of its set-up, in reference seconds."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("run budget of %ds used up" % RUN_BUDGET_S)
    command = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command + list(extra),
            cwd=str(ROOT),
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed("pass killed after %.0fs" % timeout) from None
    if proc.returncode != 0:
        raise PassFailed("pass exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = data["fingerprint"]["repro"]
    if not measured.startswith(str(SRC)):
        raise PassFailed("imported %s instead of %s" % (measured, SRC))
    data["setup_s"] = (data["ready"] - started) * data["setup_scale"]
    return data


def revision() -> dict:
    """Git revision when run from a clone, and a digest of the measured
    sources either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            git = proc.stdout.strip() or None
        except OSError:  # no git binary
            pass
    return {"git_revision": git, "src_sha256": digest.hexdigest()[:16]}


def outputs(pass_result: dict) -> list:
    """What a pass produced, for comparing passes (timings excluded)."""
    keys = ("spec", "csc_conflicts", "inserted", "literals", "baseline_literals", "verdicts", "error")
    return sorted(tuple(json.dumps(op.get(key)) for key in keys) for op in pass_result["ops"])


def measure(args) -> tuple:
    """Set-up probes, then rounds of passes until ``--seconds`` is used up."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [
        run_child(args.workload, args.seed, ["--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    plain, traced = [], []
    kinds = (False, True) if args.trace else (False,)
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for trace in kinds:
            extra = ["--trace"] if trace else []
            result = run_child(args.workload, args.seed, extra, deadline)
            setups.append(result["setup_s"])
            (traced if trace else plain).append(result)
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds:
            return setups, plain, traced


def median_of(results, key) -> float:
    return statistics.median(result[key] for result in results)


def end_to_end_metrics(setups, plain) -> dict:
    values = {"setup_s": statistics.median(setups)}
    for name, _unit in END_TO_END[1:]:
        values[name] = median_of(plain, name)
    return values


def per_layer_metrics(plain, traced) -> dict:
    values = {}
    for name, _unit in PER_LAYER:
        values[name] = statistics.median(result["layers"].get(name, 0) for result in traced)
    values["trace_overhead_s"] = median_of(traced, "total_s") - median_of(plain, "total_s")
    return values


def report(args, env, setups, plain, traced, metrics, units, attempted, failed) -> None:
    print("# workload %s, seed %d, %d cold pass(es)%s, %d set-up samples" % (
        args.workload,
        args.seed,
        len(plain),
        " + %d traced" % len(traced) if traced else "",
        len(setups),
    ))
    print("# environment %s" % json.dumps(env, sort_keys=True))
    print("# total_s per pass: %s" % " ".join("%.3f" % result["total_s"] for result in plain))
    print("# wall s per pass:  %s" % " ".join("%.3f" % result["wall_s"] for result in plain))
    print("# probe ms per pass: %s" % " ".join("%.2f" % (1e3 * result["probe_s"]) for result in plain))
    total = median_of(traced or plain, "total_s")
    for name, value in metrics.items():
        share = ""
        if args.trace and units[name] == "s":
            share = "%6.1f%%" % (100.0 * value / total)
        shown = "%.6f" % value if isinstance(value, float) else str(value)
        print("%-30s %16s %-6s %s" % (name, shown, units[name], share))
    print("%-30s %16d of %d ops" % ("ops_failed", failed, attempted))
    print("# per op, first pass, wall seconds:")
    for op in plain[0]["ops"]:
        print("  %-24s %8.3fs  literals %-4s verdicts %-12s %s" % (
            op["spec"],
            op["seconds"],
            op.get("literals", "-"),
            ",".join(op.get("verdicts", [])) or "-",
            op.get("error", ""),
        ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table1", "fig6", "csc"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print("e2ebench: no program to measure at %s" % (SRC / "repro"), file=sys.stderr)
        return 2
    try:
        setups, plain, traced = measure(args)
    except PassFailed as exc:
        print("e2ebench: %s" % exc, file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(len(result["ops"]) for result in passes)
    failed = sum(result["failed"] for result in passes)
    consistent = all(outputs(result) == outputs(passes[0]) for result in passes)
    if not consistent:
        print("e2ebench: passes produced different outputs", file=sys.stderr)
    env = dict(plain[0]["fingerprint"], **revision())

    if args.trace:
        metrics = per_layer_metrics(plain, traced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(setups, plain)
        units = dict(END_TO_END)
    report(args, env, setups, plain, traced, metrics, units, attempted, failed)
    correct = failed == 0 and consistent
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
