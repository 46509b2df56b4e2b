"""Experiment harness: subcommands over the library modules.

Commands
--------
select       wrapper feature selection with the configured swarm
baseline     fa/pso/ba wrapper baselines or the skb filter
bench        swarm algorithms on sphere/rastrigin test functions
synth        write synthetic datasets as CSV
ippg         run the signal pipeline on captured or synthetic frames
importance   select plus aggregated per-feature importance ranking
compare      Avg / delta-Avg table across prior report files

Every command reads one flat key=value config (all keys optional),
honors --seeds/--out overrides, and writes a JSON report embedding the
full effective config, so a report alone reproduces the run.  Reports
are assembled in one place, the end of ``_dispatch``: a command returns
its runs and aggregate (compare its table rows, after writing
compare.txt), and ``_dispatch`` adds the header fields and the wall
time, then writes ``<out>/<stem>.json``.  select, importance and
baseline share one body, ``_select``, and ``_selection_runs`` builds
every selection run record.  A command's seed runs (``bench``: its
(algorithm, seed) runs) go through ``_in_workers``, which spreads them
over this process and forked worker processes and keeps their order,
so a report holds the same bytes either way apart from
``wall_time_s``.  Within a run the swarm scores each batch of
candidates in one objective call.  The output directory is created
before the command runs, and every file lands in it atomically (temp
then rename).  Exit codes: 0 success, 1 config error (running out of
memory and an output file that cannot be written included), 2 data
error, 3 internal invariant violation (a killed worker process
included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import statistics
import sys
import time

import numpy as np

from . import __version__, ippg, selection, swarm
from .config import ExperimentConfig, default_config, parse_config, parse_value
from .data import SynthSpec, generate_synthetic, load_csv, save_csv
from .errors import ConfigError, DataError, InvariantError

ENV_OUT_DIR = "SPARKSEL_OUT"
SCHEMA_VERSION = 2


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with status 2; bad usage is a
    # config problem here and must map to exit code 1.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparksel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
        return p

    add("select", "wrapper feature selection")
    p = add("baseline", "baseline selectors")
    p.add_argument("variant", choices=swarm.ALGORITHMS[1:] + ("skb",))
    p = add("bench", "swarm benchmark functions")
    p.add_argument("function", nargs="?", choices=tuple(swarm.BENCHMARKS), default=None)
    add("synth", "emit synthetic datasets")
    add("ippg", "signal pipeline on frame files or synthetic captures")
    add("importance", "selection plus importance ranking")
    add("compare", "Avg table across reports")
    return parser


def main(argv=None) -> int:
    try:
        _dispatch(sys.argv[1:] if argv is None else argv)
        return 0
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        # each setting is bounded, but a combination can still be too big
        print("config error: out of memory: %s" % exc, file=sys.stderr)
        return 1
    except (InvariantError, AssertionError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


def _dispatch(argv) -> None:
    args = _build_parser().parse_args(argv)
    cfg = parse_config(args.config) if args.config else default_config()

    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seeds is not None:
        overrides["seeds"] = parse_value("seeds", args.seeds)
    if args.command == "baseline" and args.variant != "skb":
        overrides["swarm.algorithm"] = args.variant
    if args.command == "bench" and args.function is not None:
        overrides["bench.function"] = args.function
    cfg = cfg.with_overrides(overrides)

    out_dir = cfg.get("out_dir") or os.environ.get(ENV_OUT_DIR, "") or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError("out_dir: cannot create %s: %s" % (out_dir, exc)) from None
    seeds = cfg.get("seeds")

    started = time.perf_counter()
    if args.command == "compare":
        doc, stem = _compare(cfg, out_dir), "compare"
    else:
        runs, aggregate, label, stem = _COMMANDS[args.command](args, cfg, seeds, out_dir)
        doc = dict(variant=getattr(args, "variant", None), method_label=label,
                   seeds=list(seeds), runs=runs, aggregate=aggregate)
    doc.update(schema_version=SCHEMA_VERSION, tool="sparksel", tool_version=__version__,
               command=args.command, config=cfg.echo(),
               wall_time_s=time.perf_counter() - started)
    path = os.path.join(out_dir, stem + ".json")
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % path)


# --- shared plumbing -------------------------------------------------------

def _write_atomic(path, content) -> None:
    """Write ``content`` (UTF-8 text, or a function that writes the file it
    is given) to a temp file beside ``path``, then rename it over ``path``;
    ``path`` lies in the output directory ``_dispatch`` created."""
    tmp = path + ".tmp"
    try:
        if isinstance(content, str):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            content(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError("out_dir: cannot write %s: %s" % (path, exc)) from None
    finally:
        if os.path.isfile(tmp):  # left by a failed write; a directory there is not ours
            os.remove(tmp)


def _dataset(cfg: ExperimentConfig, seed, table=None):
    """The ``data.path`` table, read once for the command and passed as
    ``table``, or else the seed's synthetic table."""
    if table is not None:
        return table
    return generate_synthetic(SynthSpec(seed=seed, **cfg.field_values(SynthSpec)))


def _swarm_config(cfg: ExperimentConfig, seed: int, dimensions: int) -> swarm.SwarmConfig:
    return swarm.SwarmConfig(
        dimensions=dimensions, seed=seed, **cfg.field_values(swarm.SwarmConfig)
    )


def _in_workers(fn, items) -> list:
    """``[fn(item) for item in items]``: spread over this process and
    forked worker processes, one per further usable CPU, when there are
    at least 2 items and 2 CPUs, else all in this one.

    Each process takes the next item in order whenever it is free, so
    no more processes are busy than there are CPUs and none sits idle
    while an item waits.  After a failure no further item starts, and
    the first error in item order is raised, as the loop would raise
    it.  A worker killed by a signal raises ``InvariantError``.  No
    worker outlives the call."""
    slots = min(len(items), len(os.sched_getaffinity(0)))
    if slots < 2:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork is safe on the pinned Python 3.11: OpenBLAS shuts its idle
    # thread's pool down around a fork, and the executor forks before it
    # starts its own thread.  Python 3.12 warns on forking with threads
    # (an error under the tests' filterwarnings): revisit on an upgrade.
    # The workers inherit fn, items and the counter through the fork.
    global _worker_items
    ctx = multiprocessing.get_context("fork")
    _worker_items = fn, items, ctx.Value("i", 0)
    try:
        with ProcessPoolExecutor(slots - 1, mp_context=ctx) as pool:
            taken = [pool.submit(_take_items) for _ in range(slots - 1)]
            done = _take_items()
        for future in taken:
            done.update(future.result())
    except BrokenProcessPool as exc:
        raise InvariantError("a worker process was killed: %s" % exc) from None
    finally:
        _worker_items = None
    results = []
    for index in sorted(done):  # the taken items are a prefix of items
        ok, value = done[index]
        if not ok:
            raise value
        results.append(value)
    return results


_worker_items = None  # (fn, items, next index) while _in_workers runs


def _take_items() -> dict:
    """Run items as this process takes them, in order, until none is
    left or one fails: ``{index: (True, result) or (False, error)}``.
    A worker takes from the ``_worker_items`` it inherited."""
    fn, items, next_index = _worker_items
    done = {}
    while True:
        with next_index.get_lock():
            index = next_index.value
            next_index.value += 1
        if index >= len(items):
            return done
        try:
            done[index] = True, fn(items[index])
        except Exception as exc:
            done[index] = False, exc
            with next_index.get_lock():
                next_index.value = len(items)  # no further item starts
            return done


# --- command bodies --------------------------------------------------------

# Each command maps (args, cfg, seeds, out_dir) to (runs, aggregate,
# method label, report file stem); _dispatch builds and writes the report.

def _selection_runs(cfg: ExperimentConfig, seeds, variant) -> list:
    """One report record per seed: the skb filter's run when ``variant``
    is "skb", else the configured swarm's wrapper run."""
    path = cfg.get("data.path")
    run = functools.partial(_selection_run, cfg, load_csv(path) if path else None, variant)
    if variant == "skb":  # a filter with no search: a pool costs more than it saves
        return [run(seed) for seed in seeds]
    return _in_workers(run, seeds)


def _selection_run(cfg: ExperimentConfig, table, variant, seed) -> dict:
    ds = _dataset(cfg, seed, table)
    sel_cfg = selection.SelectionConfig(
        swarm=_swarm_config(cfg, seed, ds.d), split_seed=seed,
        **cfg.field_values(selection.SelectionConfig),
    )
    t0 = time.perf_counter()
    if variant == "skb":
        k = cfg.get("skb.k") or sel_cfg.floor
        res = selection.select_k_best(ds, sel_cfg, k)
    else:
        res = selection.select_features(ds, sel_cfg)
    run = {
        "algorithm": res.algorithm,
        "config": dataclasses.asdict(sel_cfg),
        "seed": seed,
        "best_mask": [int(b) for b in res.best_mask],
        "metrics": res.best_metrics.to_dict(),
        "loss": res.loss,
        "importance": [int(c) for c in res.importance],
        "evaluations": int(res.evaluations),
        "min_popcount": res.min_popcount,
        "wall_time_s": time.perf_counter() - t0,
    }
    if variant == "skb":
        run["k"] = int(k)
    if ds.informative is not None:
        hits = int(res.best_mask[list(ds.informative)].sum())
        run["informative_recall"] = hits / len(ds.informative)
    if res.holdout_metrics is not None:
        run["holdout_metrics"] = res.holdout_metrics.to_dict()
    return run


def _select(args, cfg: ExperimentConfig, seeds, out_dir):
    """select, importance and baseline: the selection runs and their
    medians, plus importance's summed counts and their ranking."""
    variant = getattr(args, "variant", None)
    runs = _selection_runs(cfg, seeds, variant)
    aggregate = {
        "median_avg": statistics.median(r["metrics"]["avg"] for r in runs),
        "median_loss": statistics.median(r["loss"] for r in runs),
    }
    if all("informative_recall" in r for r in runs):
        aggregate["median_informative_recall"] = statistics.median(
            r["informative_recall"] for r in runs
        )
    if args.command == "importance":
        total = np.sum([np.asarray(r["importance"]) for r in runs], axis=0)
        aggregate["importance_total"] = [int(c) for c in total]
        aggregate["ranking"] = [int(i) for i in np.lexsort((np.arange(total.size), -total))]
    method = variant or cfg.get("swarm.algorithm")
    stem = args.command if variant is None else "baseline_" + variant
    return runs, aggregate, "%s-%s" % (args.command, method), stem


def _bench(args, cfg: ExperimentConfig, seeds, out_dir):
    function = cfg.get("bench.function")
    algorithms = cfg.get("bench.algorithms")
    runs = _in_workers(functools.partial(_bench_run, cfg, function),
                       [(algo, seed) for algo in algorithms for seed in seeds])
    aggregate = {}
    for algo in algorithms:
        fits = [r["best_fitness"] for r in runs if r["algorithm"] == algo]
        aggregate["median_best_fitness.%s" % algo] = statistics.median(fits)
    return runs, aggregate, "bench-" + function, "bench_" + function


def _bench_run(cfg: ExperimentConfig, function, algo_seed) -> dict:
    algo, seed = algo_seed
    scfg = dataclasses.replace(
        _swarm_config(cfg, seed, cfg.get("bench.dimensions")), algorithm=algo
    )
    res = swarm.optimize(swarm.BENCHMARKS[function], scfg)
    return {
        "algorithm": algo,
        "function": function,
        "seed": seed,
        "config": dataclasses.asdict(scfg),
        "best_fitness": res.best_fitness,
        "evaluations_used": int(res.evaluations_used),
        "trace": [float(v) for v in res.fitness_trace],
    }


def _synth(args, cfg: ExperimentConfig, seeds, out_dir):
    runs = []
    for seed in seeds:
        ds = _dataset(cfg, seed)
        path = os.path.join(out_dir, "synth_%d.csv" % seed)
        _write_atomic(path, lambda tmp: save_csv(ds, tmp))
        runs.append(
            {
                "seed": seed,
                "path": path,
                "n_samples": ds.n,
                "d": ds.d,
                "n_positive": int(ds.labels.sum()),
                "informative": list(ds.informative),
            }
        )
    return runs, {"files": [r["path"] for r in runs]}, "synth", "synth"


def _ippg_entry(fore, nose, seed, injected):
    vec, (hr, rr) = ippg._features_and_peaks(fore, nose)
    schema = ippg.feature_schema(fore.fps, fore.n_frames)
    if len(schema) != vec.size:
        raise InvariantError(
            "feature schema names %d positions, vector has %d"
            % (len(schema), vec.size)
        )
    entry = {
        "seed": seed,
        "n_features": int(vec.size),
        "hr_peak_hz": hr,
        "rr_peak_hz": rr,
    }
    if injected is not None:
        entry["hr_injected_hz"] = injected[0]
        entry["rr_injected_hz"] = injected[1]
        entry["hr_error_hz"] = abs(hr - injected[0])
        entry["rr_error_hz"] = abs(rr - injected[1])
    return entry


def _ippg(args, cfg: ExperimentConfig, seeds, out_dir):
    fore_path = cfg.get("ippg.fore_path")
    nose_path = cfg.get("ippg.nose_path")
    if bool(fore_path) != bool(nose_path):
        raise ConfigError("ippg.fore_path and ippg.nose_path must be set together")
    if fore_path:
        fore = ippg.read_frames(fore_path)
        nose = ippg.read_frames(nose_path)
        return [_ippg_entry(fore, nose, None, None)], {}, "ippg", "ippg"

    pulse = cfg.field_values(ippg.PulseSpec)
    if cfg.get("ippg.emit_frames") and pulse["fps"] > ippg.MAX_FILE_FPS:
        raise ConfigError("ippg.fps: must be <= %d when ippg.emit_frames is true (got %d)"
                          % (ippg.MAX_FILE_FPS, pulse["fps"]))
    injected = (pulse["hr_hz"], pulse["rr_hz"])
    runs = []
    for seed in seeds:
        fore = ippg.synth_pulse_frames(seed=2 * seed, **pulse)
        nose = ippg.synth_pulse_frames(seed=2 * seed + 1, **pulse)
        if cfg.get("ippg.emit_frames"):
            for tag, seq in (("fore", fore), ("nose", nose)):
                path = os.path.join(out_dir, "frames_%s_%d.ippg" % (tag, seed))
                _write_atomic(path, lambda tmp: ippg.write_frames(seq, tmp))
        runs.append(_ippg_entry(fore, nose, seed, injected))
    aggregate = {
        "median_hr_error_hz": statistics.median(r["hr_error_hz"] for r in runs),
        "median_rr_error_hz": statistics.median(r["rr_error_hz"] for r in runs),
    }
    return runs, aggregate, "ippg", "ippg"


_COMMANDS = {"select": _select, "importance": _select, "baseline": _select,
             "bench": _bench, "synth": _synth, "ippg": _ippg}


# --- compare ---------------------------------------------------------------

_PROTOCOL_PREFIXES = ("data.", "synth.", "split.")
# the search budget, the model size and the mask floor change what Avg means
_PROTOCOL_KEYS = ("swarm.max_evaluations", "adaboost.rounds", "selection.lambda_fraction")


def _protocol_slice(report):
    cfg = report.get("config", {})
    keys = {k: v for k, v in cfg.items()
            if k.startswith(_PROTOCOL_PREFIXES) or k in _PROTOCOL_KEYS}
    keys["seeds"] = report.get("seeds")
    keys["schema_version"] = report.get("schema_version")
    return keys


def _compare(cfg: ExperimentConfig, out_dir) -> dict:
    """Write and print the Avg table; return the compare.json body."""
    ref_path = cfg.get("compare.reference")
    if not ref_path:
        raise ConfigError("compare.reference: must name a report file")
    paths = [ref_path] + list(cfg.get("compare.others"))
    reports = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise DataError("cannot read report %s: %s" % (path, exc)) from None
        try:
            report = json.loads(raw.decode("utf-8"))
        # bad JSON, bad UTF-8, an integer over Python's digit limit, nesting too deep
        except (ValueError, RecursionError) as exc:
            raise DataError("report %s is not valid JSON: %s" % (path, exc)) from None
        if not isinstance(report, dict):
            raise DataError("report %s is not a JSON object" % path)
        for key in ("config", "aggregate"):
            if not isinstance(report.get(key, {}), dict):
                raise DataError("report %s: %s is not a JSON object" % (path, key))
        reports.append(report)

    base = _protocol_slice(reports[0])
    absent = object()
    for path, report in zip(paths[1:], reports[1:]):
        other = _protocol_slice(report)
        differ = sorted(k for k in base.keys() | other.keys()
                        if base.get(k, absent) != other.get(k, absent))
        if differ:
            raise DataError("mismatched protocols: %s and %s differ in %s"
                            % (paths[0], path, ", ".join(differ)))

    rows = []
    ref_avg = None
    for path, report in zip(paths, reports):
        agg = report.get("aggregate", {})
        if "median_avg" not in agg:
            raise DataError("report %s carries no median_avg aggregate" % path)
        avg = agg["median_avg"]
        # a mean of rates; the range test also rejects NaN, +-inf and
        # integers too large for a float
        if isinstance(avg, bool) or not isinstance(avg, (int, float)) or not 0 <= avg <= 1:
            raise DataError("report %s: median_avg must be a number in [0, 1], got %r"
                            % (path, avg))
        avg_pct = 100.0 * avg
        if ref_avg is None:
            ref_avg = avg_pct
            delta = None
        else:
            delta = avg_pct - ref_avg
        method = report.get("method_label", report.get("command", "?"))
        if not isinstance(method, str):
            raise DataError("report %s: method_label must be a string, got %r"
                            % (path, method))
        rows.append({"method": method, "avg_pct": avg_pct, "delta_avg_pct": delta})

    table = _render_table(rows)
    _write_atomic(os.path.join(out_dir, "compare.txt"), table)
    print(table, end="")
    return {"rows": rows}


def _render_table(rows) -> str:
    lines = [("Method", "Avg(%)", "dAvg(%)")]
    for row in rows:
        delta = "---" if row["delta_avg_pct"] is None else "%+.2f" % row["delta_avg_pct"]
        lines.append((row["method"], "%.2f" % row["avg_pct"], delta))
    widths = [max(len(line[i]) for line in lines) for i in range(3)]
    return "".join("%-*s  %*s  %*s\n" % (widths[0], method, widths[1], avg, widths[2], delta)
                   for method, avg, delta in lines)


if __name__ == "__main__":
    raise SystemExit(main())
