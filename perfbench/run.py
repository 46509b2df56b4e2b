"""sparksel benchmark: one workload per invocation, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload select --seed 1 --seconds 28 --trace 0

The sparksel sources are imported from ``src/`` next to this directory;
nothing needs installing.  Inputs are generated from ``--seed`` under
``.perfbench/work/`` and removed at exit.  The workloads are described in
``workloads.py``.

A run has three phases:

1. Set-up, repeated ``SETUP_REPS`` times: import sparksel afresh and
   generate and write the workload's inputs.  ``setup_s`` is the median.
   numpy and scipy are imported once before.  Each set-up time is scaled
   by the host speed sampled just before and after it.
2. Measurement: the workload's operation repeats on the same inputs
   until the next repeat would end after ``--seconds``.  ``work_per_s``
   is the median over operations of work done per second: feature
   columns of evaluated masks for the selection workloads, swarm
   evaluations for ``swarm_bench``, capture pairs for ``ippg_pca``.
   ``peak_rss_mb`` is the process's peak resident memory.
3. Checks: every operation must pass the workload's correctness checks
   and produce the same output digest as the first one.

Operation times depend on the seed (a selection's cost grows with the
popcount of the masks it evaluates), so they go to the detail line;
the metrics are per unit of work, which keeps them comparable across
seeds.  The two timed metrics are scaled to a host of fixed speed by
the slowdown ``hostspeed.HostSpeed`` samples during each operation and
around each set-up; the unscaled values and the slowdowns are in the
detail line.

With ``--trace 1`` the first half of the time runs untraced, then
timing wrappers are installed (see ``tracing.py``), the inputs are set
up once more and the second half runs traced.  The traced operations
must reproduce the untraced digest; their spans give the per-layer
metrics, and the traced minus untraced median is the tracing overhead.
Per-layer times are as measured, not scaled for host speed.  Spans are
written to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
The line before it is a detail record: version stamp, digest, operation
times, result figures and any check failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# numpy and scipy load here, before any timed set-up: they are the same
# on every commit.
import numpy
import scipy

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ".perfbench"
SETUP_REPS = 15
MODULES = ("cli", "data", "selection", "boosting", "metrics", "swarm", "ippg", "pca")


def import_sparksel():
    """Import the sparksel modules afresh; returns name -> module."""
    for name in [m for m in sys.modules if m == "sparksel" or m.startswith("sparksel.")]:
        del sys.modules[name]
    return {name: importlib.import_module("sparksel." + name) for name in MODULES}


def git_rev(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp():
    src = hashlib.sha256()
    for path in sorted((SRC / "sparksel").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(ROOT),
        "src_sha256": src.hexdigest(),
    }


def measure(workload, mods, state, seconds, tracer=None):
    """Repeat the operation until the next one would end after ``seconds``
    (at least once).  Returns (start times, durations, outcomes)."""
    starts, times, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(times)
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            outcome = workload.run(mods, state)
        except Exception:
            traceback.print_exc()
            outcome = workloads.Outcome(0, "", ["raised %s" % sys.exc_info()[0].__name__])
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return starts, times, outcomes


def failed_ops(outcomes, reference_digest):
    """Operations that failed a check or disagree with the reference digest."""
    return [o for o in outcomes if o.failures or o.digest != reference_digest]


def throughput(outcomes, times, slowdowns=None):
    """Median over operations of reported work per second, each scaled
    by the host slowdown during it.  Work is what an operation's outputs
    report (e.g. evaluations or the columns of evaluated masks), not what
    ran, so an evaluation answered from a cache counts like any other."""
    slowdowns = slowdowns or [1.0] * len(times)
    return statistics.median(o.work / t * f for o, t, f in zip(outcomes, times, slowdowns))


E2E_UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith((".calls", ".lifted", ".absent")):
        return "count"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith(("ratio", "rounds_per_train")):
        return "ratio"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_us_per_eval", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError("no unit for metric %r" % name)


def scaled_setup_s(times, samples):
    """Median set-up time, each scaled by the host slowdown of the two
    samples taken before it and the two after it."""
    return statistics.median(
        t / hostspeed.slowdown_of(samples[2 * i: 2 * i + 4]) for i, t in enumerate(times)
    )


def end_to_end(args, workload, mods, state, setup_times, setup_host):
    """Untraced measurement; times are scaled by the sampled host slowdown."""
    with hostspeed.HostSpeed() as host:
        starts, times, outcomes = measure(workload, mods, state, args.seconds)
    slowdowns = [host.slowdown_between(s, s + t) for s, t in zip(starts, times)]
    detail = {
        "op_times_s": times,
        "host_slowdowns": slowdowns,
        "host_samples": len(host.samples),
        "setup_host_slowdown": setup_host.slowdown(),
        "raw_setup_s": statistics.median(setup_times),
        "raw_work_per_s": throughput(outcomes, times),
    }
    metrics = {
        "setup_s": scaled_setup_s(setup_times, setup_host.samples),
        "work_per_s": throughput(outcomes, times, slowdowns),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return outcomes, metrics, detail


def per_layer(args, workload, mods, state, workdir):
    """Half the time untraced, then set-up and half the time traced."""
    half = args.seconds / 2.0
    _, times, outcomes = measure(workload, mods, state, half)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        state = workload.setup(mods, args.seed, workdir)
        _, traced_times, traced = measure(workload, mods, state, half, tracer)
    finally:
        tracer.uninstall()
    trace_path = os.path.join(STATE_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "ops": len(traced)})
    detail = {
        "op_times_s": times,
        "traced_op_times_s": traced_times,
        "traced_digest": traced[0].digest,
        "absent_spans": tracer.absent,
        "trace_file": trace_path,
    }
    metrics = tracing.layer_metrics(tracer.stats, tracer.counters, len(traced))
    metrics.update(tracing.setup_layer_metrics(tracer.stats))
    metrics["trace.wall_s"] = statistics.median(traced_times)
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
    metrics["trace.absent"] = len(tracer.absent)
    return outcomes + traced, metrics, detail


def run(args):
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(STATE_DIR, "work", args.workload)
    os.makedirs(workdir, exist_ok=True)

    setup_times = []
    setup_host = hostspeed.HostSpeed()
    for _ in range(SETUP_REPS):
        setup_host.sample()  # between set-ups, so their times stay clean
        setup_host.sample()
        t0 = time.perf_counter()
        mods = import_sparksel()
        state = workload.setup(mods, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    setup_host.sample()
    setup_host.sample()

    if args.trace:
        outcomes, metrics, measured = per_layer(args, workload, mods, state, workdir)
    else:
        outcomes, metrics, measured = end_to_end(args, workload, mods, state,
                                                 setup_times, setup_host)
    reference = outcomes[0].digest
    failed = failed_ops(outcomes, reference)
    failures = sorted({f for o in failed for f in o.failures})
    if any(o.digest != reference for o in outcomes):
        failures.append("output digest differs between operations")
    detail = {
        "stamp": stamp(),
        "workload": args.workload,
        "seed": args.seed,
        "digest": reference,
        "info": outcomes[0].info,
        "failures": failures,
    }
    detail.update(measured)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    if not (SRC / "sparksel" / "__init__.py").is_file():
        print("perfbench: no sparksel sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    finally:
        shutil.rmtree(os.path.join(STATE_DIR, "work"), ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
