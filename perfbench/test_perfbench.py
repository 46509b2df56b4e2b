"""Tests of the benchmark's own arithmetic: span self time, mask
ratios, throughput, absent wrap targets and the metric catalogue."""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        wrapped_leaf(2.0)
        wrapped_leaf(0.5)
        clock.now += 0.25

    def outer():
        wrapped_middle()
        wrapped_leaf(4.0)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.stats["leaf"] == [3, 6.5, 6.5]
    assert tracer.stats["middle"] == [1, 3.75, 1.25]
    assert tracer.stats["outer"] == [1, 7.75, 0.0]
    spans = {s[1]: s for s in tracer.spans if s[1] != "leaf"}
    assert spans["middle"][5] == spans["outer"][0]
    assert spans["outer"][5] is None


def test_hot_spans_are_aggregated_only():
    tracer = tracing.Tracer(clock=FakeClock())
    tracer.wrap("swarm.child_rng", lambda: None)()
    tracer.wrap("boosting.train", lambda: None)()
    assert [s[1] for s in tracer.spans] == ["boosting.train"]
    assert tracer.stats["swarm.child_rng"][0] == 1


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.stats["boom"][0] == 1 and not tracer._stack


def _fake_selection_module(masks):
    mod = types.SimpleNamespace()

    def fitness(mask, split, cfg):
        return 0.0, None

    def select_features(ds, cfg, threads=1):
        for m in masks:
            mod.fitness(np.array(m), None, None)

    mod.fitness = fitness
    mod.select_features = select_features
    return mod


def test_distinct_mask_ratio_counts_per_selection_run():
    masks = [[1, 0, 1], [1, 0, 1], [0, 1, 1], [1, 0, 1]]
    mod = _fake_selection_module(masks)
    tracer = tracing.Tracer()
    tracer.install({"selection": mod})
    mod.select_features(None, None)
    mod.select_features(None, None)  # a new run: its masks count again
    tracer.uninstall()
    m = tracing.layer_metrics(tracer.stats, tracer.counters, ops=2)
    assert m["selection.fitness.calls"] == 4
    assert m["selection.distinct_mask_ratio"] == pytest.approx(4 / 8)


def test_missing_targets_are_reported_absent_and_restored():
    mod = _fake_selection_module([[1, 1]])
    original = mod.fitness
    tracer = tracing.Tracer()
    tracer.install({"selection": mod, "boosting": types.SimpleNamespace()})
    assert "boosting.train_stump" in tracer.absent
    assert "boosting.AdaBoostModel.margins" in tracer.absent
    assert "selection.fitness" not in tracer.absent
    assert mod.fitness is not original
    tracer.uninstall()
    assert mod.fitness is original
    m = tracing.layer_metrics(tracer.stats, tracer.counters, ops=1)
    assert m["boosting.train_stump.calls"] == 0.0
    assert m["boosting.train_stump.mean_us"] == 0.0


def test_install_patches_names_bound_by_from_import():
    def load_csv(path):
        return path

    data = types.SimpleNamespace(load_csv=load_csv)
    cli = types.SimpleNamespace(load_csv=load_csv)
    tracer = tracing.Tracer()
    tracer.install({"data": data, "cli": cli})
    cli.load_csv("x")
    tracer.uninstall()
    assert tracer.stats["data.load_csv"][0] == 1
    assert cli.load_csv is load_csv


def test_swarm_self_time_and_objective_self_time():
    stats = {
        "swarm.optimize": [1, 10.0, 1.0],
        "objective": [100, 8.0, 0.5],
        "selection.fitness": [100, 7.0, 0.1],
    }
    m = tracing.layer_metrics(stats, {}, ops=1)
    assert m["swarm.self_us_per_eval"] == pytest.approx(2.0 / 100 * 1e6)
    assert m["selection.objective_self_us"] == pytest.approx(1.0 / 100 * 1e6)


def _report(evaluations, importance):
    return {
        "config": {"selection.lambda_fraction": 0.2},
        "runs": [
            {
                "seed": 0,
                "evaluations": evaluations,
                "min_popcount": 5,
                "best_mask": [1] * 5 + [0] * 20,
                "metrics": {"avg": 0.9},
                "importance": importance,
                "wall_time_s": 1.0,
            }
        ],
        "wall_time_s": 2.0,
    }


def test_throughput_counts_reported_work_when_a_memo_skips_fitness(tmp_path):
    """A memo answers repeated masks without calling fitness; the
    report still gives every evaluation, so the work stays the same and
    only the time shrinks."""
    importance = [800] * 5 + [200] * 20  # 8000 columns over 800 evaluations
    doc = _report(800, importance)

    def main(argv):
        (tmp_path / "select.json").write_text(json.dumps(doc))
        return 0

    mods = {"cli": types.SimpleNamespace(main=main)}
    load = workloads.Selection(("select",), "select.json", 200, 5, 20,
                               evaluations=800, rounds=50, n_seeds=1)
    outcome = load.run(mods, {"config": "unused", "out": str(tmp_path)})
    assert outcome.failures == []
    assert outcome.work == 8000
    without_memo = run.throughput([outcome], [20.0])
    with_memo = run.throughput([outcome], [20.0 * 428 / 800])
    assert without_memo == pytest.approx(400.0)
    assert with_memo == pytest.approx(8000 / (20.0 * 428 / 800))


def test_selection_checks_budget_and_popcount_floor(tmp_path):
    doc = _report(799, [1] * 25)
    doc["runs"][0]["min_popcount"] = 4

    def main(argv):
        (tmp_path / "select.json").write_text(json.dumps(doc))
        return 0

    load = workloads.Selection(("select",), "select.json", 200, 5, 20,
                               evaluations=800, rounds=50, n_seeds=1)
    outcome = load.run({"cli": types.SimpleNamespace(main=main)},
                       {"config": "unused", "out": str(tmp_path)})
    assert len(outcome.failures) == 2


def test_digest_ignores_wall_time_only():
    a = _report(800, [1] * 25)
    b = _report(800, [1] * 25)
    b["wall_time_s"] = 99.0
    b["runs"][0]["wall_time_s"] = 7.0
    assert workloads.digest_of(workloads.masked(a)) == workloads.digest_of(workloads.masked(b))
    b["runs"][0]["importance"][0] = 2
    assert workloads.digest_of(workloads.masked(a)) != workloads.digest_of(workloads.masked(b))


def test_failed_ops_include_digest_mismatches():
    ok = workloads.Outcome(1, "d")
    other = workloads.Outcome(1, "e")
    bad = workloads.Outcome(1, "d", ["check"])
    assert run.failed_ops([ok, other, bad], "d") == [other, bad]


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layer_names = list(tracing.layer_metrics({}, {}, ops=1))
    layer_names += list(tracing.setup_layer_metrics({}))
    layer_names += ["trace.wall_s", "trace.overhead_s", "trace.absent"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: run.unit_of(name) for name in layer_names}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_host_slowdown_is_the_harmonic_mean_over_nominal():
    import hostspeed

    host = hostspeed.HostSpeed()
    assert host.slowdown() == 1.0
    n = hostspeed.NOMINAL_S
    host.samples = [n, 2 * n, 2 * n, 100 * n]  # one stalled sample
    assert host.slowdown() == pytest.approx(4 / (1 + 0.5 + 0.5 + 0.01))


def test_host_sampler_samples_on_a_timer_and_restores_the_handler():
    import signal
    import time

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(interval=0.02) as host:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_time_is_scaled_by_the_samples_around_each_setup():
    import hostspeed

    n = hostspeed.NOMINAL_S
    # set-up 0 sits between samples at twice the nominal time (slowdown
    # 2); set-up 1 between two such samples and two nominal ones, whose
    # harmonic mean is 4/3 of nominal.
    samples = [2 * n, 2 * n, 2 * n, 2 * n, n, n]
    times = [0.4, 0.2]
    assert run.scaled_setup_s(times, samples) == pytest.approx((0.4 / 2 + 0.2 / (4 / 3)) / 2)


def test_operation_slowdown_uses_the_samples_taken_during_it():
    import hostspeed

    n = hostspeed.NOMINAL_S
    host = hostspeed.HostSpeed()
    host.samples = [n, 3 * n, 3 * n, n]
    host.stamps = [0.5, 1.5, 2.5, 3.5]
    assert host.slowdown_between(1.0, 3.0) == pytest.approx(3.0)
    assert host.slowdown_between(5.0, 6.0) == pytest.approx(host.slowdown())
    outcomes = [workloads.Outcome(30, "d"), workloads.Outcome(30, "d"), workloads.Outcome(30, "d")]
    assert run.throughput(outcomes, [1.0, 3.0, 2.0], [1.0, 3.0, 1.0]) == pytest.approx(30.0)
