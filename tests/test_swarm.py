"""Swarm optimizer unit behavior: spark allocation, explosion radii,
bound mapping, elitist selection, budget accounting, and determinism."""

import numpy as np
import pytest

from sparksel import swarm
from sparksel.cli import main
from sparksel.errors import ConfigError, InvariantError
from sparksel.swarm import (
    Streams,
    SwarmConfig,
    explode,
    explode_around_best,
    fa_radius,
    gaussian_mutate,
    ifa_radius,
    map_to_bounds,
    optimize,
    rastrigin,
    select_next,
    spark_count,
    sphere,
    update_pbest,
)


def cfg(**kw):
    base = dict(dimensions=4)
    base.update(kw)
    return SwarmConfig(**base)


class TestObjectives:
    def test_sphere_known_points(self):
        assert sphere(np.zeros(6)) == 0.0
        assert sphere(np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_rastrigin_global_minimum_at_origin(self):
        assert rastrigin(np.zeros(7)) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(size=7)
            assert rastrigin(x) >= 0.0

    def test_rastrigin_known_points(self):
        # each coordinate at 1 contributes 10 + 1 - 10*cos(2*pi) = 1
        assert rastrigin(np.ones(5)) == pytest.approx(5.0, abs=1e-9)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(size=5)
            direct = 10.0 * 5 + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x))
            assert rastrigin(x) == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("d", [1, 10, 39])
    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e-50])
    def test_batch_rows_equal_single_calls(self, d, scale):
        # each row of a batch is bit-equal to the one-point call, and the
        # one-point calls are bit-equal to the scalar formulas (np.dot,
        # a flat np.sum) the objectives used before they took batches
        rng = np.random.default_rng(d)
        X = rng.uniform(-0.5, 1.5, size=(300, d)) * scale
        for fn in (sphere, rastrigin):
            got = fn(X)
            assert got.shape == (300,) and got.dtype == np.float64
            assert got.tobytes() == np.array([fn(x) for x in X]).tobytes()
        assert [sphere(x).hex() for x in X] == [float(np.dot(x, x)).hex() for x in X]
        assert [rastrigin(x).hex() for x in X] == [
            float(10.0 * d + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x))).hex()
            for x in X]


class TestSparkCount:
    def test_two_fireworks_extremes(self):
        counts = spark_count([0.0, 1.0], cfg(s_max=10, s_min=1))
        assert counts.tolist() == [10, 1]

    def test_best_holds_population_max(self):
        c = cfg(s_max=20, s_min=1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.uniform(size=8)
            counts = spark_count(f, c)
            assert counts[np.argmin(f)] == counts.max()

    def test_bounds_respected(self):
        c = cfg(s_max=7, s_min=2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            counts = spark_count(rng.uniform(size=6), c)
            assert counts.min() >= 2 and counts.max() <= 7

    def test_equal_fitness_splits_evenly(self):
        counts = spark_count(np.full(5, 3.0), cfg(s_max=20, s_min=1))
        assert len(set(counts.tolist())) == 1


class TestRadii:
    def test_classic_best_radius_collapses(self):
        r = fa_radius([1.0, 2.0, 5.0], cfg(r_max=0.4))
        assert r[0] < 1e-10
        assert r[1] == pytest.approx(0.4 * 1.0 / 5.0)
        assert r[2] == pytest.approx(0.4 * 4.0 / 5.0)

    def test_history_radius_known_values(self):
        counts = np.array([5, 3, 1])
        radii, around = ifa_radius([1.0, 2.0, 5.0], counts, cfg(r_max=0.4))
        assert radii[1] == pytest.approx(0.08, abs=1e-12)
        assert radii[2] == pytest.approx(0.32, abs=1e-12)
        # only the holder of the population-maximum count is flagged
        assert around.tolist() == [True, False, False]

    def test_all_equal_history_gives_full_radius(self):
        radii, _ = ifa_radius(np.full(6, 2.0), np.ones(6, dtype=int),
                              cfg(r_max=0.4))
        np.testing.assert_allclose(radii, 0.4, atol=1e-12)

    def test_tied_spark_counts_all_flagged(self):
        _, around = ifa_radius([1.0, 2.0, 3.0], np.array([4, 4, 2]), cfg())
        assert around.tolist() == [True, True, False]

    def test_flag_follows_realized_max_not_cap(self):
        # 12 is the largest count present, so it alone is flagged even
        # though the config would allow counts up to 20
        _, around = ifa_radius([1.0, 2.0, 3.0], np.array([12, 5, 3]), cfg())
        assert around.tolist() == [True, False, False]


class TestPbest:
    def test_strict_improvement_only(self):
        px = np.zeros((3, 2))
        pf = np.array([1.0, 1.0, 1.0])
        x = np.ones((3, 2))
        f = np.array([0.5, 1.0, 2.0])
        nx, nf = update_pbest(px, pf, x, f)
        assert nf.tolist() == [0.5, 1.0, 1.0]
        assert nx[0].tolist() == [1.0, 1.0]
        assert nx[1].tolist() == [0.0, 0.0]  # tie keeps the old point

    def test_trace_non_increasing_over_many_rounds(self):
        rng = np.random.default_rng(4)
        pf = rng.uniform(size=8)
        px = rng.uniform(size=(8, 3))
        for _ in range(200):
            x = rng.uniform(size=(8, 3))
            f = rng.uniform(size=8)
            px, nf = update_pbest(px, pf, x, f)
            assert np.all(nf <= pf)
            pf = nf


class TestSpatialOperators:
    def test_explode_moves_only_chosen_dims(self):
        x = np.full(6, 0.5)
        sparks = explode(x, 0.2, 40, Streams(0)(1, 1))
        assert sparks.shape == (40, 6)
        for row in sparks:
            moved = row != 0.5
            assert moved.any()  # subset is never empty
            assert np.all(np.abs(row[moved] - 0.5) <= 0.2 + 1e-12)

    def test_explode_replay_is_deterministic(self):
        x = np.array([0.2, 0.8, 0.5])
        a = explode(x, 0.1, 10, Streams(7)(3, 2))
        b = explode(x, 0.1, 10, Streams(7)(3, 2))
        assert np.array_equal(a, b)

    def test_explode_around_best_is_multiplicative(self):
        """Sparks scale coordinates, so a zero coordinate stays zero."""
        x = np.array([0.0, 0.5, 0.25, 0.1])
        sparks = explode_around_best(x, 200, Streams(0)(1, 1))
        mapped_zero = sparks[:, 0]
        assert np.all((mapped_zero == 0.0) | (mapped_zero >= 0.0))
        inside = sparks[:, 1][(sparks[:, 1] >= 0) & (sparks[:, 1] <= 1)]
        assert inside.size > 0

    def test_gaussian_mutate_changes_a_nonempty_subset(self):
        x = np.full(5, 0.3)
        rng = Streams(1)(2, 3)
        for _ in range(30):
            y = gaussian_mutate(x, rng)
            assert y.shape == (5,)
            assert np.any(y != 0.3)
            assert np.all((y >= 0.0) & (y <= 1.0))

    def test_map_to_bounds(self):
        rng = Streams(0)(9)
        x = np.array([[0.5, -0.2], [1.7, 0.3]])
        y = map_to_bounds(x, rng)
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert y[0, 0] == 0.5 and y[1, 1] == 0.3  # in-bounds untouched
        assert not np.array_equal(x, y)

    def test_map_to_bounds_replay(self):
        x = np.array([[2.0, 0.1, -1.0]])
        a = map_to_bounds(x, Streams(5)(1))
        b = map_to_bounds(x, Streams(5)(1))
        assert np.array_equal(a, b)


class TestSelection:
    def test_keep_one_returns_argmin(self):
        sel = select_next([3.0, 1.0, 2.0], 1, Streams(0)(0))
        assert sel.tolist() == [1]

    def test_elite_always_first(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            f = rng.uniform(size=12)
            sel = select_next(f, 5, Streams(0)(trial))
            assert sel[0] == np.argmin(f)
            assert len(set(sel.tolist())) == 5  # no duplicates

    def test_tie_keeps_first_index(self):
        sel = select_next([2.0, 1.0, 1.0, 3.0], 2, Streams(0)(1))
        assert sel[0] == 1

    def test_non_elite_picks_are_uniform(self):
        """Chi-squared test at the 0.01 level: each non-elite candidate
        should fill the second slot equally often."""
        f = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        trials = 4000
        counts = np.zeros(5)
        for t in range(trials):
            sel = select_next(f, 2, Streams(42)(t))
            counts[sel[1]] += 1
        assert counts[0] == 0
        expected = trials / 4.0
        chi2 = float(np.sum((counts[1:] - expected) ** 2 / expected))
        # 3 degrees of freedom, critical value at p=0.01
        assert chi2 < 11.345

    def test_too_few_candidates_rejected(self):
        with pytest.raises(ConfigError):
            select_next([1.0, 2.0], 3, Streams(0)(0))


class TestChildRng:
    def test_same_path_same_stream(self):
        a = Streams(3)(1, 2).uniform(size=8)
        b = Streams(3)(1, 2).uniform(size=8)
        assert np.array_equal(a, b)

    def test_distinct_paths_distinct_streams(self):
        draws = {
            tuple(np.round(Streams(3)(*path).uniform(size=4), 12))
            for path in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 5)]
        }
        assert len(draws) == 5

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("gen", [1, 7, 2**32])
    def test_rekey_matches_streams(self, seed, gen):
        # a Philox keyed by hand from the little-endian uint32 words of
        # seed, generation and slot, counter at zero, is what Streams
        # draws; this pins the key layout for seeds and generations
        # past 32 bits, and the three fireworks roles stay apart
        def words(n):
            out = [n & 0xFFFFFFFF]
            while n >> 32:
                n >>= 32
                out.append(n & 0xFFFFFFFF)
            return out

        seen = {1: set(), 2: set()}
        for slot in [(i, j) for i in (1, 2, 9) for j in range(3)] + [(2**32 - 1, 0)] + [
                (role,) for role in (1, 2, 3)]:
            ss = np.random.SeedSequence(words(seed) + words(gen) + list(slot))
            rng = np.random.Generator(
                np.random.Philox(key=ss.generate_state(2, np.uint64)))
            got, want = (
                np.concatenate([r.integers(0, 2, size=3), r.uniform(size=2),
                                r.standard_normal(3), r.permutation(5)])
                for r in (rng, Streams(seed)(gen, *slot))
            )
            assert np.array_equal(got, want)
            seen[len(slot)].add(got.tobytes())
        assert len(seen[1]) == 3 and len(seen[2]) == 10

    def test_one_source_rekeys_through_many_paths(self):
        # each call re-keys the source's one Generator; the stream before
        # it is left part-way through a 64-bit word (three bits, a float32)
        big = (0, 2**32 - 1, 2**32, 2**64 + 5)
        paths = [(a, b) for a in big for b in big] + [(7,), (1, 2, 3), (2**32, 0, 9), ()]
        for seed in big:
            source = swarm.Streams(seed)
            for path in paths:
                want = np.random.Generator(
                    np.random.Philox(np.random.SeedSequence((seed, *path))))
                got = source(*path)
                a, b = (np.concatenate([r.integers(0, 1000, size=4), r.random(3),
                                        r.standard_normal(3), r.permutation(6)])
                        for r in (got, want))
                assert np.array_equal(a, b)
                got.integers(0, 2, size=3)
                got.random(dtype=np.float32)

    def test_fireworks_runs_are_frozen(self):
        # recorded with three streams per generation (report schema 2)
        want = {"ifa": ("0x1.d8600d0ecb800p-4", 24, "0x1.f77de265111b4p-6"),
                "fa": ("0x1.1bbdc68f91800p+0", 24, "0x1.0d06248aead23p-3")}
        for algo, (best, gens, x_sum) in want.items():
            r = optimize(rastrigin, cfg(dimensions=5, max_evaluations=600,
                                        seed=2**32 + 3, algorithm=algo))
            assert r.best_fitness.hex() == best
            assert (r.evaluations_used, len(r.fitness_trace)) == (600, gens)
            assert float(np.sum(r.best_x)).hex() == x_sum


class TestFireworksStreams:
    @pytest.mark.parametrize("algo", ["ifa", "fa"])
    def test_three_streams_per_generation(self, algo, monkeypatch):
        """After the (seed, 0, 0) initial population, each generation
        draws from exactly (seed, gen, 1) explosion sparks, (seed, gen, 2)
        Gaussian-mutation sparks and (seed, gen, 3) survivors, never a
        stream per spark; the run ends with the last generation's sparks,
        so that generation draws no survivors; two same-seed runs agree
        bit for bit."""
        paths = []
        keyed = swarm.Streams.__call__

        def counting(source, *path):
            paths.append(path)
            return keyed(source, *path)

        monkeypatch.setattr(swarm.Streams, "__call__", counting)
        c = cfg(dimensions=6, max_evaluations=900, seed=5, algorithm=algo)
        a = optimize(rastrigin, c)
        generations = len(a.fitness_trace) - 1
        assert generations > 10
        assert len(paths) == 3 * generations
        assert paths == [(0, 0)] + [(g, role) for g in range(1, generations + 1)
                                    for role in (1, 2, 3)][:-1]
        b = optimize(rastrigin, c)
        assert a.best_x.tobytes() == b.best_x.tobytes()
        assert a.best_fitness.hex() == b.best_fitness.hex()
        assert a.fitness_trace.tobytes() == b.fitness_trace.tobytes()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            cfg(population=1)
        with pytest.raises(ConfigError):
            cfg(s_min=5, s_max=3)
        with pytest.raises(ConfigError):
            cfg(r_max=0.0)
        with pytest.raises(ConfigError):
            cfg(r_max=1.5)
        with pytest.raises(ConfigError):
            cfg(epsilon=0.0)
        with pytest.raises(ConfigError):
            cfg(max_evaluations=0)
        with pytest.raises(ConfigError):
            cfg(algorithm="annealing")
        with pytest.raises(ConfigError):
            cfg(ba_freq_min=2.0, ba_freq_max=1.0)


class TestOptimize:
    def test_budget_is_exact(self):
        rows = []

        def counted(X):
            rows.append(len(X))
            return np.sum(X, axis=1)

        for algo in ("ifa", "fa", "pso", "ba"):
            rows.clear()
            res = optimize(counted, cfg(algorithm=algo, max_evaluations=137,
                                        seed=1))
            assert res.evaluations_used == 137
            assert sum(rows) == 137

    def test_constant_objective_terminates(self):
        res = optimize(lambda X: np.ones(len(X)), cfg(max_evaluations=300, seed=0))
        assert res.best_fitness == 1.0
        assert res.evaluations_used == 300

    def test_trace_non_increasing_and_consistent(self):
        for algo in ("ifa", "fa", "pso", "ba"):
            res = optimize(sphere, cfg(algorithm=algo, max_evaluations=800,
                                       seed=3))
            assert np.all(np.diff(res.fitness_trace) <= 0.0)
            assert res.fitness_trace[-1] == res.best_fitness
            assert sphere(res.best_x) == pytest.approx(res.best_fitness)

    def test_same_seed_same_result(self):
        a = optimize(rastrigin, cfg(max_evaluations=600, seed=11))
        b = optimize(rastrigin, cfg(max_evaluations=600, seed=11))
        assert np.array_equal(a.best_x, b.best_x)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.fitness_trace, b.fitness_trace)

    def test_seed_matters(self):
        a = optimize(sphere, cfg(max_evaluations=400, seed=0))
        b = optimize(sphere, cfg(max_evaluations=400, seed=1))
        assert not np.array_equal(a.best_x, b.best_x)

    def test_all_algorithms_improve_on_sphere(self):
        for algo in ("ifa", "fa", "pso", "ba"):
            res = optimize(sphere, cfg(algorithm=algo, dimensions=5,
                                       max_evaluations=2000, seed=2))
            start = res.fitness_trace[0]
            assert res.best_fitness < start
            assert res.best_fitness < 0.5, algo

    def test_iterates_stay_in_unit_box(self):
        seen = []

        def spy(X):
            seen.append(np.array(X))
            return sphere(X)

        for algo in ("ifa", "fa", "pso", "ba"):
            seen.clear()
            optimize(spy, cfg(algorithm=algo, max_evaluations=500, seed=4))
            pts = np.vstack(seen)
            assert np.all((pts >= 0.0) & (pts <= 1.0)), algo

    @pytest.mark.parametrize("algo", ["ifa", "fa", "pso", "ba"])
    @pytest.mark.parametrize("budget", [3, 10])
    def test_budget_spent_by_initial_population(self, algo, budget):
        # the population is 10: the budget ends during (3) or exactly at
        # (10) generation 0, so no generation runs
        calls = []

        def spy(X):
            calls.append(len(X))
            return sphere(X)

        res = optimize(spy, cfg(algorithm=algo, max_evaluations=budget, seed=5))
        assert calls == [budget]
        assert res.evaluations_used == budget
        assert res.fitness_trace.tolist() == [res.best_fitness]

    def test_pso_and_ba_runs_are_frozen(self):
        # recorded before objectives took whole batches; 605 leaves a
        # five-row last batch
        want = {("sphere", "pso"): ("0x1.05e7211e895f0p-5", "0x1.8a3611e7dbf1bp-2"),
                ("sphere", "ba"): ("0x1.dc40da378565bp-3", "0x1.bdbb2dc5a0baep-1"),
                ("rastrigin", "pso"): ("0x1.892e85bc8e110p+3", "0x1.5c1f924f15773p+1"),
                ("rastrigin", "ba"): ("0x1.d64c3ea7c5690p+2", "0x1.0d85d0c9f28f0p+1")}
        for (name, algo), (best, x_sum) in want.items():
            r = optimize(swarm.BENCHMARKS[name], cfg(dimensions=5, max_evaluations=605,
                                                     seed=2**32 + 3, algorithm=algo))
            assert r.best_fitness.hex() == best
            assert (r.evaluations_used, len(r.fitness_trace)) == (605, 61)
            assert float(np.sum(r.best_x)).hex() == x_sum


class TestNonFiniteObjective:
    """A NaN or infinite objective value is a bug in the objective and
    must stop the run, not become the best point or a silent inf."""

    def test_all_nan_raises(self):
        for algo in ("ifa", "fa", "pso", "ba"):
            with pytest.raises(InvariantError):
                optimize(lambda X: np.full(len(X), np.nan),
                         cfg(algorithm=algo, max_evaluations=50))

    def test_single_nan_raises(self):
        calls = []  # one entry per evaluated row

        def one_nan(X):
            f = sphere(X)
            for i in range(len(X)):
                calls.append(1)
                if len(calls) == 17:
                    f[i] = float("nan")
            return f

        with pytest.raises(InvariantError):
            optimize(one_nan, cfg(max_evaluations=100))
        assert len(calls) < 100

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_inf_raises(self, value):
        calls = []  # one entry per evaluated row

        def one_inf(X):
            f = sphere(X)
            for i in range(len(X)):
                calls.append(1)
                if len(calls) == 3:
                    f[i] = value
            return f

        with pytest.raises(InvariantError):
            optimize(one_inf, cfg(max_evaluations=100))

    def test_cli_maps_non_finite_to_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setitem(swarm.BENCHMARKS, "sphere", lambda X: np.full(len(X), np.nan))
        assert main(["bench", "sphere", "--out", str(tmp_path)]) == 3


class TestBatchContract:
    """The objective takes an (m, d) float64 batch in one call and must
    return exactly m values; truncation to the budget happens first."""

    @pytest.mark.parametrize("algo", ["ifa", "fa", "pso", "ba"])
    def test_batches_are_2d_float64_within_budget(self, algo):
        batches = []
        left = [137]

        def spy(X):
            assert X.ndim == 2 and X.dtype == np.float64 and X.shape[1] == 4
            assert 1 <= len(X) <= left[0]
            batches.append(len(X))
            left[0] -= len(X)
            return sphere(X)

        res = optimize(spy, cfg(algorithm=algo, max_evaluations=137, seed=1))
        assert sum(batches) == res.evaluations_used == 137
        assert len(batches) == len(res.fitness_trace)

    @pytest.mark.parametrize("algo", ["ifa", "fa", "pso", "ba"])
    def test_nothing_runs_after_the_last_batch(self, algo, monkeypatch):
        """A budget of 137 ends inside a generation: the run stops at the
        objective call that spends it, with no stream keyed after."""
        events = []
        keyed = swarm.Streams.__call__

        def recording(source, *path):
            events.append(("stream", path))
            return keyed(source, *path)

        def spy(X):
            events.append(("objective", len(X)))
            return sphere(X)

        monkeypatch.setattr(swarm.Streams, "__call__", recording)
        res = optimize(spy, cfg(algorithm=algo, max_evaluations=137, seed=1))
        calls = [n for kind, n in events if kind == "objective"]
        assert sum(calls) == res.evaluations_used == 137
        assert events[0] == ("stream", (0, 0))
        assert events[-1] == ("objective", calls[-1])

    @pytest.mark.parametrize("algo", ["ifa", "fa", "pso", "ba"])
    @pytest.mark.parametrize("bad", [
        lambda X: 1.0,
        lambda X: sphere(X)[:, None],
        lambda X: sphere(X)[1:],
    ], ids=["scalar", "column", "one_short"])
    def test_wrong_shape_raises(self, algo, bad):
        with pytest.raises(InvariantError):
            optimize(bad, cfg(algorithm=algo, max_evaluations=50))

    def test_cli_maps_wrong_shape_to_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setitem(swarm.BENCHMARKS, "sphere", lambda X: sphere(X)[:, None])
        assert main(["bench", "sphere", "--out", str(tmp_path)]) == 3
