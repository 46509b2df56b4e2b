"""The benchmark's four workloads.

Each workload has ``setup(mods, seed, workdir)``, which generates its
inputs from the seed and writes them to files, and ``run(mods, state)``,
one operation over those files through sparksel's public entry points.
``mods`` maps module names ("cli", "data", ...) to the imported sparksel
modules, so a traced run sees the patched attributes.

An operation returns an ``Outcome``: the work its outputs report
(feature columns of the evaluated masks, swarm evaluations, or capture
pairs), the correctness checks it failed, a digest of its outputs with
wall-clock fields removed, and a few result figures for the detail
line.  Repeating an operation on the same inputs must give the same
digest, traced or not.

Why these workloads:

* ``select`` -- IFA selection on the test_07 table shape (200x25, 50
  rounds) with 3 seeds of 200 evaluations each: one 800-evaluation
  selection takes over 20 s and its cost moves by +-15% with the seed,
  too slow to average within a run.  AdaBoost does about 90% of the
  work and ~40% of evaluated masks repeat, so an evaluator fast path
  or a mask memo shows here.
* ``select_wide`` -- PSO on a taller, wider table with almost no repeated
  masks: the same layers on bigger arrays, where a memo gains nothing.
* ``swarm_bench`` -- four swarms on near-free test functions: swarm
  operators and per-spark streams dominate, boosting does nothing.
* ``ippg_pca`` -- stored captures through the signal pipeline and PCA;
  neither swarm nor boosting runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

@dataclass
class Outcome:
    work: int
    digest: str
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def masked(doc):
    """Report with every ``wall_time_s`` removed, for digesting."""
    if isinstance(doc, dict):
        return {k: masked(v) for k, v in doc.items() if k != "wall_time_s"}
    if isinstance(doc, list):
        return [masked(v) for v in doc]
    return doc


def digest_of(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def write_config(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write("%s = %s\n" % (key, value))


def run_cli(mods, argv):
    """``sparksel <argv>`` in-process; its stdout chatter is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mods["cli"].main(list(argv))


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Selection:
    """``sparksel select`` or ``sparksel baseline <algo>`` on a generated
    CSV table, ``n_seeds`` swarm seeds per operation."""

    command: tuple
    report: str
    n_samples: int
    d_informative: int
    d_noise: int
    evaluations: int
    rounds: int
    n_seeds: int

    def setup(self, mods, seed, workdir):
        data = mods["data"]
        ds = data.generate_synthetic(
            data.SynthSpec(
                n_samples=self.n_samples,
                d_informative=self.d_informative,
                d_noise=self.d_noise,
                class_imbalance=0.17,
                noise_sigma=1.0,
                seed=seed,
            )
        )
        table = os.path.join(workdir, "table.csv")
        data.save_csv(ds, table)
        config = os.path.join(workdir, "run.cfg")
        write_config(
            config,
            {
                "data.path": table,
                "seeds": ",".join(str(self.n_seeds * seed + i) for i in range(self.n_seeds)),
                "threads": 1,
                "swarm.max_evaluations": self.evaluations,
                "adaboost.rounds": self.rounds,
            },
        )
        return {"config": config, "out": workdir}

    def run(self, mods, state):
        code = run_cli(mods, self.command + ("--config", state["config"], "--out", state["out"]))
        if code != 0:
            return Outcome(0, "", ["exit code %d" % code])
        doc = read_report(os.path.join(state["out"], self.report))
        d = self.d_informative + self.d_noise
        floor = math.ceil(doc["config"]["selection.lambda_fraction"] * d)
        failures = []
        for r in doc["runs"]:
            if r["evaluations"] != self.evaluations:
                failures.append("seed %d: %d evaluations, budget %d"
                                % (r["seed"], r["evaluations"], self.evaluations))
            if r["min_popcount"] < floor:
                failures.append("seed %d: min_popcount %d < %d"
                                % (r["seed"], r["min_popcount"], floor))
        info = {
            "recall": statistics.median(
                sum(r["best_mask"][: self.d_informative]) / self.d_informative
                for r in doc["runs"]
            ),
            "best_avg": statistics.median(r["metrics"]["avg"] for r in doc["runs"]),
        }
        # Work is the feature columns of every evaluated mask, which the
        # importance counters sum.  The cost of an evaluation grows with
        # its popcount, which differs from seed to seed; counting columns
        # keeps the throughput comparable across seeds.
        work = sum(sum(r["importance"]) for r in doc["runs"])
        return Outcome(work, digest_of(masked(doc)), failures, info)


class SwarmBench:
    """``sparksel bench sphere`` and ``sparksel bench rastrigin`` with all
    four algorithms, d=10 and 20k evaluations per run."""

    algorithms = ("ifa", "fa", "pso", "ba")
    evaluations = 20000

    def setup(self, mods, seed, workdir):
        config = os.path.join(workdir, "run.cfg")
        write_config(
            config,
            {
                "seeds": seed,
                "threads": 1,
                "bench.algorithms": ",".join(self.algorithms),
                "bench.dimensions": 10,
                "swarm.max_evaluations": self.evaluations,
            },
        )
        return {"config": config, "out": workdir}

    def run(self, mods, state):
        failures, docs, info, work = [], [], {}, 0
        for function in ("sphere", "rastrigin"):
            code = run_cli(mods, ("bench", function, "--config", state["config"],
                                  "--out", state["out"]))
            if code != 0:
                return Outcome(0, "", ["bench %s: exit code %d" % (function, code)])
            doc = read_report(os.path.join(state["out"], "bench_%s.json" % function))
            docs.append(masked(doc))
            for r in doc["runs"]:
                work += r["evaluations_used"]
                if r["evaluations_used"] != self.evaluations:
                    failures.append("%s %s: %d evaluations" % (function, r["algorithm"],
                                                               r["evaluations_used"]))
            agg = doc["aggregate"]
            ifa, fa = agg["median_best_fitness.ifa"], agg["median_best_fitness.fa"]
            info[function] = {a: agg["median_best_fitness.%s" % a] for a in self.algorithms}
            if not ifa <= fa:
                failures.append("%s: IFA median %g worse than FA %g" % (function, ifa, fa))
            if function == "sphere" and not ifa <= 1e-2:
                failures.append("sphere: IFA median %g > 1e-2" % ifa)
        return Outcome(work, digest_of(docs), failures, info)


class IppgPca:
    """Stored capture pairs: ``read_frames`` x2, ``extract_features`` and
    HR/RR peak estimation per pair (the path ``sparksel ippg`` takes on
    stored captures), then ``pca.fit`` on the 60-column time-domain block."""

    pairs = 24
    fps, seconds, roi = 25, 30.0, 8
    hr_tol_hz, rr_tol_hz = 0.05, 0.03

    def setup(self, mods, seed, workdir):
        ippg = mods["ippg"]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE7C4)))
        subjects = []
        for i in range(self.pairs):
            hr = float(rng.uniform(0.9, 2.5))  # 54-150 beats/min
            rr = float(rng.uniform(0.2, 0.33))  # 12-20 breaths/min
            paths = []
            for k, tag in enumerate(("fore", "nose")):
                frames = ippg.synth_pulse_frames(
                    fps=self.fps, seconds=self.seconds, height=self.roi, width=self.roi,
                    hr_hz=hr, rr_hz=rr, seed=2 * (self.pairs * seed + i) + k,
                )
                path = os.path.join(workdir, "%s_%02d.ippg" % (tag, i))
                ippg.write_frames(frames, path)
                paths.append(path)
            subjects.append((paths[0], paths[1], hr, rr))
        return {"subjects": subjects}

    def run(self, mods, state):
        ippg, pca = mods["ippg"], mods["pca"]
        failures, vectors, estimates, hits = [], [], [], 0
        schema = ()
        for fore_path, nose_path, hr, rr in state["subjects"]:
            fore = ippg.read_frames(fore_path)
            nose = ippg.read_frames(nose_path)
            vec = ippg.extract_features(fore, nose)
            schema = ippg.feature_schema(fore.fps, fore.n_frames)
            if len(schema) != vec.size:
                failures.append("%s: %d features, schema names %d"
                                % (fore_path, vec.size, len(schema)))
            green = ippg.build_signal(fore, "fore").samples[1]
            peaks = [
                ippg.spectrum(ippg.bandpass(green, band, fore.fps), fore.fps, band).peak_hz
                for band in (ippg.HR_BAND, ippg.RR_BAND)
            ]
            hits += abs(peaks[0] - hr) <= self.hr_tol_hz and abs(peaks[1] - rr) <= self.rr_tol_hz
            vectors.append(vec)
            estimates.append(peaks)
        if hits < 0.95 * len(vectors):
            failures.append("HR/RR within tolerance on %d of %d pairs" % (hits, len(vectors)))

        td = [i for i, name in enumerate(schema) if "_td_" in name]
        block = np.vstack(vectors)[:, td]
        model = pca.fit(block)
        trace = float(block.var(axis=0, ddof=1).sum())
        gap = abs(float(model.eigenvalues.sum()) - trace)
        if gap > 1e-8 * max(1.0, trace):
            failures.append("PCA eigenvalue sum misses the trace by %g" % gap)
        info = {"pairs_in_tolerance": hits, "td_columns": len(td), "pca_k": model.k}
        digest = digest_of(np.vstack(vectors), np.array(estimates), model.mean,
                           model.components, model.eigenvalues, model.k)
        return Outcome(len(vectors), digest, failures, info)


WORKLOADS = {
    "select": Selection(("select",), "select.json", 200, 5, 20,
                        evaluations=200, rounds=50, n_seeds=3),
    "select_wide": Selection(("baseline", "pso"), "baseline_pso.json", 600, 8, 52,
                             evaluations=200, rounds=20, n_seeds=2),
    "swarm_bench": SwarmBench(),
    "ippg_pca": IppgPca(),
}
