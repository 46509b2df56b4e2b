"""Span recording around sparksel's public functions, from outside the package.

A ``Tracer`` replaces module attributes (``boosting.train_stump``,
``selection.fitness``, ``AdaBoostModel.margins``, ...) with timing
wrappers.  Every wrapped call is a span with a name, start, end and
parent; a span's self time is its duration minus the time its child
spans cover.  Calls run on one thread, so children never overlap and
the covered time is the sum of their durations.

Spans of frequently called functions (``HOT``) are only aggregated to
count, total and self time so the trace stays small; the others are
also kept as individual records.  Everything stays in memory until
``write`` dumps it as JSON at the end of a run.

A target that no longer exists (renamed or removed by a refactor) is
listed in ``absent`` and skipped; its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

# (module, attribute) pairs; "Class.method" patches the method on the class.
TARGETS = (
    ("cli", "main"),
    ("data", "load_csv"),
    ("data", "save_csv"),
    ("data", "generate_synthetic"),
    ("data", "stratified_split"),
    ("selection", "select_features"),
    ("selection", "fitness"),
    ("selection", "repair"),
    ("boosting", "train"),
    ("boosting", "train_stump"),
    ("boosting", "AdaBoostModel.margins"),
    ("metrics", "score_set"),
    ("metrics", "auc"),
    ("swarm", "optimize"),
    ("swarm", "child_rng"),
    ("swarm", "explode"),
    ("swarm", "explode_around_best"),
    ("swarm", "gaussian_mutate"),
    ("swarm", "map_to_bounds"),
    ("swarm", "select_next"),
    ("ippg", "synth_pulse_frames"),
    ("ippg", "write_frames"),
    ("ippg", "read_frames"),
    ("ippg", "build_signal"),
    ("ippg", "bandpass"),
    ("ippg", "spectrum"),
    ("ippg", "extract_features"),
    ("pca", "fit"),
    ("pca", "jacobi_eigh"),
)

SPAN_FIELDS = ("id", "name", "op", "start", "end", "parent")

# Called thousands of times per operation: aggregate only.
HOT = frozenset(
    {
        "boosting.train_stump",
        "boosting.AdaBoostModel.margins",
        "metrics.auc",
        "metrics.score_set",
        "selection.repair",
        "swarm.child_rng",
        "swarm.explode",
        "swarm.explode_around_best",
        "swarm.gaussian_mutate",
        "swarm.map_to_bounds",
        "swarm.select_next",
        "objective",
        "ippg.bandpass",
        "ippg.spectrum",
        "ippg.build_signal",
    }
)


class Tracer:
    """In-memory span recorder.

    ``stats[name]`` is ``[count, total_s, self_s]``; ``counters`` holds
    the event counts the hooks below take (distinct masks, lifted
    repairs, bytes read); ``spans`` keeps the non-hot spans as
    tuples of ``SPAN_FIELDS``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self.spans = []
        self.absent = []
        self.op = None  # the operation index spans are tagged with
        self._stack = []  # frames: [name, start, covered_by_children, parent_id, span_id]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original) for uninstall
        self._masks = set()

    # --- span arithmetic -------------------------------------------------

    def enter(self, name, hot):
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        parent = next((f[4] for f in reversed(self._stack) if f[4] is not None), None)
        self._stack.append([name, self.clock(), 0.0, parent, span_id])

    def exit(self):
        name, start, covered, parent, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered
        if span_id is not None:
            self.spans.append((span_id, name, self.op, start, end, parent))

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper around ``fn``.  ``before(args)`` may return
        replacement positional args; ``after(args, result)`` sees the
        call's result."""
        hot = name in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            self.enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # --- hooks that count work at the layer boundary ---------------------

    def _new_selection(self, args):
        self._masks = set()  # a memo would be per selection run
        return args

    def _mask_seen(self, args, result):
        key = np.asarray(args[0], dtype=np.uint8).tobytes()
        if key not in self._masks:
            self._masks.add(key)
            self.count("selection.distinct_masks")

    def _repair_done(self, args, result):
        if int(np.sum(result)) > int(np.sum(args[0])):
            self.count("selection.repair.lifted")

    def _frames_read(self, args, result):
        self.count("ippg.read_frames.bytes", int(result.pixels.nbytes))

    def _wrap_objective(self, args):
        return (self.wrap("objective", args[0]),) + tuple(args[1:])

    # --- installation ----------------------------------------------------

    def install(self, mods):
        """Patch every target found in ``mods`` (a name -> module map).

        A function is replaced wherever a sparksel module holds it, so
        names bound by ``from .data import load_csv`` are covered too.
        """
        hooks = {
            "selection.select_features": (self._new_selection, None),
            "selection.fitness": (None, self._mask_seen),
            "selection.repair": (None, self._repair_done),
            "ippg.read_frames": (None, self._frames_read),
            "swarm.optimize": (self._wrap_objective, None),
        }
        for mod_name, attr in TARGETS:
            name = "%s.%s" % (mod_name, attr)
            owner = mods.get(mod_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            holders = [owner] if outer else list(mods.values())
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []

    def write(self, path, header):
        doc = dict(header)
        doc.update(
            absent=self.absent,
            stats={
                k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items())
            },
            counters=dict(sorted(self.counters.items())),
            spans=[dict(zip(SPAN_FIELDS, s)) for s in self.spans],
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# --- per-layer metrics -----------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, counters, ops):
    """Per-layer numbers from aggregated spans.

    Counts and totals are per operation (``ops`` traced operations);
    ``mean_*`` values are per call.  A layer with no calls reads 0.
    """

    def n(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def per_op(x):
        return _ratio(x, ops)

    def mean(name, scale):
        return scale * _ratio(total(name), n(name))

    evals = n("objective")
    return {
        "boosting.train.calls": per_op(n("boosting.train")),
        "boosting.train.mean_ms": mean("boosting.train", 1e3),
        "boosting.train_stump.calls": per_op(n("boosting.train_stump")),
        "boosting.train_stump.mean_us": mean("boosting.train_stump", 1e6),
        "boosting.train_stump.self_s": per_op(self_s("boosting.train_stump")),
        "boosting.rounds_per_train": _ratio(n("boosting.train_stump"), n("boosting.train")),
        "boosting.margins.total_s": per_op(total("boosting.AdaBoostModel.margins")),
        "selection.fitness.calls": per_op(n("selection.fitness")),
        "selection.fitness.mean_us": mean("selection.fitness", 1e6),
        "selection.distinct_mask_ratio": _ratio(
            counters.get("selection.distinct_masks", 0), n("selection.fitness")
        ),
        "selection.repair.calls": per_op(n("selection.repair")),
        "selection.repair.lifted": per_op(counters.get("selection.repair.lifted", 0)),
        "selection.objective_self_us": 1e6 * _ratio(
            total("objective") - total("selection.fitness"), evals
        ),
        "metrics.score_set.mean_us": mean("metrics.score_set", 1e6),
        "metrics.auc.mean_us": mean("metrics.auc", 1e6),
        "swarm.optimize.total_s": per_op(total("swarm.optimize")),
        "swarm.self_us_per_eval": 1e6 * _ratio(
            total("swarm.optimize") - total("objective"), evals
        ),
        "swarm.child_rng.calls": per_op(n("swarm.child_rng")),
        "swarm.child_rng.total_s": per_op(total("swarm.child_rng")),
        "swarm.explode.self_s": per_op(self_s("swarm.explode")),
        "swarm.explode_around_best.self_s": per_op(self_s("swarm.explode_around_best")),
        "swarm.gaussian_mutate.self_s": per_op(self_s("swarm.gaussian_mutate")),
        "swarm.map_to_bounds.self_s": per_op(self_s("swarm.map_to_bounds")),
        "swarm.select_next.self_s": per_op(self_s("swarm.select_next")),
        "ippg.read_frames.mb_per_s": 1e-6 * _ratio(
            counters.get("ippg.read_frames.bytes", 0), total("ippg.read_frames")
        ),
        "ippg.build_signal.total_s": per_op(total("ippg.build_signal")),
        "ippg.bandpass.calls": per_op(n("ippg.bandpass")),
        "ippg.bandpass.mean_us": mean("ippg.bandpass", 1e6),
        "ippg.spectrum.mean_us": mean("ippg.spectrum", 1e6),
        "ippg.extract_features.mean_ms": mean("ippg.extract_features", 1e3),
        "pca.fit.total_s": per_op(total("pca.fit")),
        "pca.jacobi_eigh.total_s": per_op(total("pca.jacobi_eigh")),
        "data.load_csv.total_s": per_op(total("data.load_csv")),
        "data.stratified_split.total_s": per_op(total("data.stratified_split")),
        "cli.self_s": per_op(self_s("cli.main")),
    }


def setup_layer_metrics(stats):
    """Set-up layers: the calls that build and write one set of inputs."""
    names = ("data.generate_synthetic", "data.save_csv", "ippg.synth_pulse_frames")
    return {name + ".total_s": stats.get(name, (0, 0.0, 0.0))[1] for name in names}
