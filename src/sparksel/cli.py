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
full effective config, so a report alone reproduces the run.  The swarm
scores each batch of candidates in one objective call on the calling
thread.  Files are written atomically (temp then rename).  Exit codes:
0 success, 1 config error, 2 data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from . import __version__, ippg, selection, swarm
from .config import ExperimentConfig, default_config, parse_config
from .data import SynthSpec, generate_synthetic, load_csv, save_csv, stratified_split
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
    p.add_argument("variant", choices=("fa", "pso", "ba", "skb"))
    p = add("bench", "swarm benchmark functions")
    p.add_argument(
        "function", nargs="?", choices=("sphere", "rastrigin"), default=None
    )
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
        try:
            overrides["seeds"] = [int(p) for p in args.seeds.split(",")]
        except ValueError:
            raise ConfigError("--seeds expects integers, got %r" % args.seeds) from None
    if args.command == "baseline" and args.variant != "skb":
        overrides["swarm.algorithm"] = args.variant
    if args.command == "bench" and args.function is not None:
        overrides["bench.function"] = args.function
    cfg = cfg.with_overrides(overrides)

    out_dir = cfg.get("out_dir") or os.environ.get(ENV_OUT_DIR, "") or "."
    seeds = cfg.get("seeds")

    started = time.perf_counter()
    if args.command in ("select", "importance"):
        label = "%s-%s" % (args.command, cfg.get("swarm.algorithm"))
        runs = [_selection_run(cfg, s) for s in seeds]
        aggregate = _selection_aggregate(runs)
        if args.command == "importance":
            aggregate.update(_importance_aggregate(runs))
        doc = _envelope(args.command, None, label, cfg, seeds, runs, aggregate)
        _emit(doc, out_dir, args.command, started)
    elif args.command == "baseline":
        label = "baseline-%s" % args.variant
        if args.variant == "skb":
            runs = [_skb_run(cfg, s) for s in seeds]
        else:
            runs = [_selection_run(cfg, s) for s in seeds]
        aggregate = _selection_aggregate(runs)
        doc = _envelope("baseline", args.variant, label, cfg, seeds, runs, aggregate)
        _emit(doc, out_dir, "baseline_%s" % args.variant, started)
    elif args.command == "bench":
        runs, aggregate = _bench_runs(cfg, seeds)
        label = "bench-%s" % cfg.get("bench.function")
        doc = _envelope("bench", None, label, cfg, seeds, runs, aggregate)
        _emit(doc, out_dir, "bench_%s" % cfg.get("bench.function"), started)
    elif args.command == "synth":
        runs, aggregate = _synth_runs(cfg, seeds, out_dir)
        doc = _envelope("synth", None, "synth", cfg, seeds, runs, aggregate)
        _emit(doc, out_dir, "synth", started)
    elif args.command == "ippg":
        runs, aggregate = _ippg_runs(cfg, seeds, out_dir)
        doc = _envelope("ippg", None, "ippg", cfg, seeds, runs, aggregate)
        _emit(doc, out_dir, "ippg", started)
    elif args.command == "compare":
        _compare(cfg, out_dir, started)
    else:  # pragma: no cover - argparse enforces choices
        raise ConfigError("unknown command %r" % args.command)


# --- shared plumbing -------------------------------------------------------

def _envelope(command, variant, label, cfg, seeds, runs, aggregate):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "sparksel",
        "tool_version": __version__,
        "command": command,
        "variant": variant,
        "method_label": label,
        "config": cfg.echo(),
        "seeds": list(seeds),
        "runs": runs,
        "aggregate": aggregate,
    }


def _emit(doc, out_dir, basename, started) -> None:
    doc["wall_time_s"] = time.perf_counter() - started
    path = os.path.join(out_dir, basename + ".json")
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % path)


def _write_atomic(path, content) -> None:
    """Write ``content`` (UTF-8 text, or a function that writes the file it
    is given) to a temp file beside ``path``, then rename it over ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    if isinstance(content, str):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        content(tmp)
    os.replace(tmp, path)


def _dataset_for_seed(cfg: ExperimentConfig, seed: int):
    path = cfg.get("data.path")
    if path:
        return load_csv(path)
    return generate_synthetic(
        SynthSpec(
            n_samples=cfg.get("synth.n_samples"),
            d_informative=cfg.get("synth.d_informative"),
            d_noise=cfg.get("synth.d_noise"),
            class_imbalance=cfg.get("synth.class_imbalance"),
            noise_sigma=cfg.get("synth.noise_sigma"),
            seed=seed,
        )
    )


def _swarm_config(cfg: ExperimentConfig, seed: int, dimensions: int) -> swarm.SwarmConfig:
    return swarm.SwarmConfig(
        dimensions=dimensions, seed=seed, **cfg.field_values(swarm.SwarmConfig)
    )


def _selection_config(cfg: ExperimentConfig, seed: int, dimensions: int):
    return selection.SelectionConfig(
        swarm=_swarm_config(cfg, seed, dimensions),
        split_seed=seed,
        **cfg.field_values(selection.SelectionConfig),
    )


def _recall(mask, informative):
    if informative is None:
        return None
    hits = int(np.asarray(mask)[list(informative)].sum())
    return hits / len(informative)


# --- command bodies --------------------------------------------------------

def _run_record(res: selection.SelectionResult, ds, sel_cfg, seed: int, t0: float) -> dict:
    """Report record of one selection run; ``t0`` is its start time."""
    entry = selection.result_dict(
        res, dataclasses.asdict(sel_cfg), time.perf_counter() - t0
    )
    entry["seed"] = seed
    entry["min_popcount"] = res.min_popcount
    recall = _recall(res.best_mask, ds.informative)
    if recall is not None:
        entry["informative_recall"] = recall
    if res.holdout_metrics is not None:
        entry["holdout_metrics"] = res.holdout_metrics.to_dict()
    return entry


def _selection_run(cfg: ExperimentConfig, seed: int) -> dict:
    ds = _dataset_for_seed(cfg, seed)
    sel_cfg = _selection_config(cfg, seed, ds.d)
    t0 = time.perf_counter()
    res = selection.select_features(ds, sel_cfg)
    return _run_record(res, ds, sel_cfg, seed, t0)


def _skb_run(cfg: ExperimentConfig, seed: int) -> dict:
    ds = _dataset_for_seed(cfg, seed)
    sel_cfg = _selection_config(cfg, seed, ds.d)
    t0 = time.perf_counter()
    k = cfg.get("skb.k")
    if k == 0:
        k = math.ceil(sel_cfg.lambda_fraction * ds.d)
    split = stratified_split(ds, sel_cfg.test_fraction, sel_cfg.split_seed)
    mask = selection.skb(split.train, k)
    loss, mset = selection.fitness(mask, split, sel_cfg)
    res = selection.SelectionResult(
        algorithm="skb", best_mask=mask, best_metrics=mset, loss=loss,
        importance=mask, evaluations=1, min_popcount=int(mask.sum()),
        model=None, fitness_trace=np.array([loss]),
    )
    entry = _run_record(res, ds, sel_cfg, seed, t0)
    entry["k"] = int(k)
    return entry


def _selection_aggregate(runs) -> dict:
    agg = {
        "median_avg": statistics.median(r["metrics"]["avg"] for r in runs),
        "median_loss": statistics.median(r["loss"] for r in runs),
    }
    if all("informative_recall" in r for r in runs):
        agg["median_informative_recall"] = statistics.median(
            r["informative_recall"] for r in runs
        )
    return agg


def _importance_aggregate(runs) -> dict:
    total = np.sum([np.asarray(r["importance"]) for r in runs], axis=0)
    ranking = np.lexsort((np.arange(total.size), -total))
    return {
        "importance_total": [int(c) for c in total],
        "ranking": [int(i) for i in ranking],
    }


def _bench_runs(cfg: ExperimentConfig, seeds):
    function = cfg.get("bench.function")
    objective = swarm.BENCHMARKS[function]
    dimensions = cfg.get("bench.dimensions")
    algorithms = cfg.get("bench.algorithms")
    for algo in algorithms:
        if algo not in swarm.ALGORITHMS:
            raise ConfigError("bench.algorithms: unknown algorithm %r" % algo)
    runs = []
    for algo in algorithms:
        for seed in seeds:
            scfg = dataclasses.replace(
                _swarm_config(cfg, seed, dimensions), algorithm=algo
            )
            res = swarm.optimize(objective, scfg)
            runs.append(
                {
                    "algorithm": algo,
                    "function": function,
                    "seed": seed,
                    "config": dataclasses.asdict(scfg),
                    "best_fitness": res.best_fitness,
                    "evaluations_used": int(res.evaluations_used),
                    "trace": [float(v) for v in res.fitness_trace],
                }
            )
    aggregate = {}
    for algo in algorithms:
        fits = [r["best_fitness"] for r in runs if r["algorithm"] == algo]
        aggregate["median_best_fitness.%s" % algo] = statistics.median(fits)
    return runs, aggregate


def _synth_runs(cfg: ExperimentConfig, seeds, out_dir):
    runs = []
    for seed in seeds:
        ds = _dataset_for_seed(cfg.with_overrides({"data.path": ""}), seed)
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
    return runs, {"files": [r["path"] for r in runs]}


def _ippg_entry(fore, nose, seed, injected):
    vec, (hr, rr) = ippg._features_and_peaks(fore, nose)
    schema = ippg.feature_schema(fore.fps, fore.n_frames, nose.n_frames)
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


def _ippg_runs(cfg: ExperimentConfig, seeds, out_dir):
    fore_path = cfg.get("ippg.fore_path")
    nose_path = cfg.get("ippg.nose_path")
    if bool(fore_path) != bool(nose_path):
        raise ConfigError("ippg.fore_path and ippg.nose_path must be set together")
    if fore_path:
        fore = ippg.read_frames(fore_path)
        nose = ippg.read_frames(nose_path)
        return [_ippg_entry(fore, nose, None, None)], {}

    fps = cfg.get("ippg.fps")
    make = lambda seed: ippg.synth_pulse_frames(
        fps=fps,
        seconds=cfg.get("ippg.duration_s"),
        height=cfg.get("ippg.height"),
        width=cfg.get("ippg.width"),
        hr_hz=cfg.get("ippg.hr_hz"),
        rr_hz=cfg.get("ippg.rr_hz"),
        hr_amp=cfg.get("ippg.hr_amp"),
        rr_amp=cfg.get("ippg.rr_amp"),
        noise_std=cfg.get("ippg.noise_std"),
        seed=seed,
    )
    injected = (cfg.get("ippg.hr_hz"), cfg.get("ippg.rr_hz"))
    runs = []
    for seed in seeds:
        fore = make(2 * seed)
        nose = make(2 * seed + 1)
        if cfg.get("ippg.emit_frames"):
            for tag, seq in (("fore", fore), ("nose", nose)):
                path = os.path.join(out_dir, "frames_%s_%d.ippg" % (tag, seed))
                _write_atomic(path, lambda tmp: ippg.write_frames(seq, tmp))
        runs.append(_ippg_entry(fore, nose, seed, injected))
    aggregate = {
        "median_hr_error_hz": statistics.median(r["hr_error_hz"] for r in runs),
        "median_rr_error_hz": statistics.median(r["rr_error_hz"] for r in runs),
    }
    return runs, aggregate


# --- compare ---------------------------------------------------------------

_PROTOCOL_PREFIXES = ("data.", "synth.", "split.")


def _protocol_slice(report):
    cfg = report.get("config", {})
    keys = {k: v for k, v in cfg.items() if k.startswith(_PROTOCOL_PREFIXES)}
    keys["seeds"] = report.get("seeds")
    return keys


def _compare(cfg: ExperimentConfig, out_dir, started) -> None:
    ref_path = cfg.get("compare.reference")
    if not ref_path:
        raise ConfigError("compare.reference: must name a report file")
    paths = [ref_path] + list(cfg.get("compare.others"))
    reports = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except OSError as exc:
            raise DataError("cannot read report %s: %s" % (path, exc)) from None
        except json.JSONDecodeError as exc:
            raise DataError("report %s is not valid JSON: %s" % (path, exc)) from None

    base = _protocol_slice(reports[0])
    for path, report in zip(paths[1:], reports[1:]):
        if _protocol_slice(report) != base:
            raise DataError(
                "mismatched protocols: %s and %s differ in data/split/seeds"
                % (paths[0], path)
            )

    rows = []
    ref_avg = None
    for path, report in zip(paths, reports):
        agg = report.get("aggregate", {})
        if "median_avg" not in agg:
            raise DataError("report %s carries no median_avg aggregate" % path)
        avg_pct = 100.0 * agg["median_avg"]
        if ref_avg is None:
            ref_avg = avg_pct
            delta = None
        else:
            delta = avg_pct - ref_avg
        rows.append(
            {
                "method": report.get("method_label", report.get("command", "?")),
                "avg_pct": avg_pct,
                "delta_avg_pct": delta,
            }
        )

    table = _render_table(rows)
    _write_atomic(os.path.join(out_dir, "compare.txt"), table)
    print(table, end="")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "sparksel",
        "tool_version": __version__,
        "command": "compare",
        "config": cfg.echo(),
        "rows": rows,
    }
    _emit(doc, out_dir, "compare", started)


def _render_table(rows) -> str:
    header = ("Method", "Avg(%)", "dAvg(%)")
    body = []
    for row in rows:
        delta = "---" if row["delta_avg_pct"] is None else "%+.2f" % row["delta_avg_pct"]
        body.append((row["method"], "%.2f" % row["avg_pct"], delta))
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) for i in range(3)
    ]
    lines = [
        "%-*s  %*s  %*s" % (widths[0], header[0], widths[1], header[1], widths[2], header[2])
    ]
    for line in body:
        lines.append(
            "%-*s  %*s  %*s" % (widths[0], line[0], widths[1], line[1], widths[2], line[2])
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
