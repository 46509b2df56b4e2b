"""Swarm optimizers minimizing a black-box objective over [0,1]^d.

Four algorithms share one interface: the fireworks algorithm (FA), an
improved variant (IFA) that scales each explosion radius by
personal-best fitness history and re-centers the best firework's
sparks with multiplicative Gaussian spread, global-best PSO with
inertia, and the standard bat algorithm (BA).  Each algorithm is a
generator that starts from the evaluated generation 0, yields each
generation's candidates as one batch and receives their fitness back
(``f = yield batch``).  ``optimize`` alone evaluates: it draws
generation 0, cuts each batch to the evaluations left, calls the
objective, checks its values, keeps the best point and the best-so-far
trace, and ends the run after the batch that spends the budget.

Determinism: every random draw comes from a counter-based Philox
stream keyed by (seed, generation, role).  A fireworks generation draws
its explosion sparks from role 1, its Gaussian-mutation sparks from
role 2 and, once they are evaluated, its survivors from role 3, each as
whole arrays (the run's last generation draws none); PSO and BA draw a
generation from role 0.  A run holds one Generator (a ``Streams``
source) and re-keys it in place for each (seed, generation, role); the
streams are the ones a fresh Generator per key would draw.

Objectives take rows at once: each batch of candidates (the initial
population, a fireworks generation's sparks, a PSO or BA generation)
goes to the objective in one call on the calling thread, as an (m, d)
array, and must come back as m finite values in row order.  Equal seeds
give bit-identical results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, InvariantError, at_least, between, check_fields, choice, fraction, positive,
    setting,
)

ALGORITHMS = ("ifa", "fa", "pso", "ba")


@dataclass(frozen=True)
class SwarmConfig:
    """Parameters for one optimizer run.

    ``r_max`` is the largest explosion radius as a fraction of the unit
    cube edge; ``epsilon`` guards the radius and spark-count ratios
    against zero denominators; ``s_min``/``s_max`` bound per-firework
    spark counts.  PSO and BA fields carry the usual textbook meanings
    and are ignored by the fireworks variants.  Each ``setting`` names
    the field's config key and range check; config.REGISTRY is built
    from them.
    """

    dimensions: int = setting(check=at_least(1))
    algorithm: str = setting("ifa", "swarm.algorithm", choice(*ALGORITHMS))
    population: int = setting(10, "swarm.population", between(2, 10**4))
    s_max: int = setting(20, "swarm.s_max", between(1, 10**4))
    s_min: int = setting(1, "swarm.s_min", at_least(1))
    r_max: float = setting(0.4, "swarm.r_max", fraction(0, 1, hi_open=False))
    epsilon: float = setting(1e-12, "swarm.epsilon", positive)
    gaussian_sparks: int = setting(5, "swarm.gaussian_sparks", between(0, 10**4))
    max_evaluations: int = setting(2000, "swarm.max_evaluations", at_least(1))
    seed: int = setting(0, check=at_least(0))
    pso_inertia: float = setting(0.729, "pso.inertia")
    pso_cognitive: float = setting(1.49445, "pso.cognitive")
    pso_social: float = setting(1.49445, "pso.social")
    pso_velocity_clamp: float = setting(0.5, "pso.velocity_clamp", positive)
    ba_freq_min: float = setting(0.0, "ba.freq_min", at_least(0))
    ba_freq_max: float = setting(2.0, "ba.freq_max", positive)
    ba_loudness: float = setting(1.0, "ba.loudness", positive)
    ba_loudness_decay: float = setting(0.9, "ba.loudness_decay", fraction(0, 1, hi_open=False))
    ba_pulse_rate: float = setting(
        0.5, "ba.pulse_rate", fraction(0, 1, lo_open=False, hi_open=False)
    )
    ba_pulse_growth: float = setting(0.9, "ba.pulse_growth", positive)

    def __post_init__(self):
        check_fields(self)
        if self.s_max < self.s_min:
            raise ConfigError("need 1 <= s_min <= s_max")
        if not self.ba_freq_min < self.ba_freq_max:
            raise ConfigError("need ba_freq_min < ba_freq_max")


@dataclass(frozen=True, eq=False)
class OptResult:
    best_x: np.ndarray
    best_fitness: float
    evaluations_used: int
    fitness_trace: np.ndarray


def _words(n) -> list:
    """Little-endian uint32 words of a non-negative int, as SeedSequence
    reads an int entropy entry (0 is one word)."""
    n = int(n)
    if n < 0:
        raise ValueError("stream keys must be non-negative, got %d" % n)
    out = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        out.append(n & 0xFFFFFFFF)
    return out


_ZEROS = np.zeros(4, dtype=np.uint64)


class Streams:
    """A source of counter-based Philox streams keyed by (seed, *path),
    all drawn from one Generator.

    Calling the source with a path installs the Philox key that
    ``SeedSequence((seed, *path))`` gives, with the counter and buffer
    at zero, so the stream draws exactly what a Generator built from
    that SeedSequence draws.  Every call returns the same Generator: a
    stream stays valid only until the next call on the same source,
    which re-keys it.  Code that may run while another holds a stream
    (an objective inside a swarm generation, say) keeps its own source.
    """

    def __init__(self, seed: int):
        self._seed_words = _words(seed)
        self._bits = np.random.Philox(0)
        self._rng = np.random.Generator(self._bits)
        self._key = {"counter": _ZEROS, "key": None}
        self._state = {"bit_generator": "Philox", "state": self._key, "buffer": _ZEROS,
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def __call__(self, *path: int) -> np.random.Generator:
        words = self._seed_words.copy()
        for p in path:
            words += _words(p)
        ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        # the two little-endian uint64 key words, as generate_state(2, np.uint64)
        # builds them from four uint32 words
        self._key["key"] = ss.generate_state(4, np.uint32).view("<u8")
        self._bits.state = self._state
        return self._rng


# --- benchmark objectives ------------------------------------------------

# Both reduce along the last axis, so one point gives a scalar and an
# (m, d) batch gives m values, each bit-equal to the one-point call.

def sphere(x):
    """Sum of squares; minimum 0 at the origin corner of the unit cube."""
    x = np.asarray(x)
    return np.vecdot(x, x)


def rastrigin(x):
    """Rastrigin evaluated directly on the unit cube; like sphere its
    minimum 0 sits at the origin corner."""
    x = np.asarray(x)
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


BENCHMARKS = {"sphere": sphere, "rastrigin": rastrigin}


# --- fireworks operators -------------------------------------------------

def spark_count(fitnesses, cfg: SwarmConfig):
    """Sparks per firework, more for better (lower) fitness.

    S_i = clamp(round(s_max * (Y_max - f_i + eps) / (sum_k(Y_max - f_k) + eps)),
    s_min, s_max) where Y_max is the worst fitness in the population.
    The best firework always holds the population maximum.
    """
    f = np.asarray(fitnesses, dtype=np.float64)
    y_max = f.max()
    share = (y_max - f + cfg.epsilon) / ((y_max - f).sum() + cfg.epsilon)
    s = np.floor(cfg.s_max * share + 0.5)
    s = np.clip(s, cfg.s_min, cfg.s_max).astype(np.int64)
    s[int(np.argmin(f))] = s.max()
    return s


def fa_radius(fitnesses, cfg: SwarmConfig):
    """Classic explosion radii from current fitness: better fireworks
    explode tighter, and the best one's radius collapses toward 0."""
    f = np.asarray(fitnesses, dtype=np.float64)
    y_min = f.min()
    return cfg.r_max * (f - y_min + cfg.epsilon) / ((f - y_min).sum() + cfg.epsilon)


def ifa_radius(pbest_fitnesses, spark_counts, cfg: SwarmConfig):
    """Radius description for the improved variant.

    Scalar radii are computed from personal-best fitness instead of
    current fitness.  Fireworks holding the population-maximum spark
    count (the best firework and any count ties) are flagged for the
    multiplicative-Gaussian branch around the core firework; callers
    build those sparks with ``explode_around_best``.

    Returns (radii, around_best) where ``around_best`` marks the
    flagged fireworks.
    """
    s = np.asarray(spark_counts)
    return fa_radius(pbest_fitnesses, cfg), s == s.max()


def update_pbest(pbest_x, pbest_f, x, f):
    """Personal-best update: replace only on strictly smaller fitness."""
    better = np.asarray(f) < np.asarray(pbest_f)
    new_x = np.where(better[:, None], x, pbest_x)
    new_f = np.where(better, f, pbest_f)
    return new_x, new_f


def _nonempty_dim_subsets(count, d, rng):
    """Each row drawn uniformly over the nonempty subsets of {1..d}."""
    m = rng.integers(0, 2, size=(count, d)).astype(bool)
    while True:
        empty = ~m.any(axis=1)
        k = np.count_nonzero(empty)
        if not k:
            return m
        m[empty] = rng.integers(0, 2, size=(k, d)).astype(bool)


def map_to_bounds(x, rng):
    """Redraw every out-of-range coordinate uniformly in [0,1];
    in-range coordinates pass through untouched."""
    x = np.array(x, dtype=np.float64)
    bad = (x < 0.0) | (x > 1.0)
    n_bad = np.count_nonzero(bad)
    if n_bad:
        x[bad] = rng.uniform(0.0, 1.0, size=n_bad)
    return x


def explode(x, radius, count, rng):
    """Scalar-radius explosion: ``count`` sparks, each offsetting a
    uniformly chosen nonempty dimension subset by radius*U(-1,1) per
    chosen dimension, then bound-mapped.  ``x`` and ``radius`` are one
    firework's, or one row and one radius per spark."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    chosen = _nonempty_dim_subsets(count, d, rng)
    offsets = np.reshape(radius, (-1, 1)) * rng.uniform(-1.0, 1.0, size=(count, d))
    return map_to_bounds(x + np.where(chosen, offsets, 0.0), rng)


def explode_around_best(best_x, count, rng):
    """Explosion branch for the top spark earner: sparks at
    best_x*(1+g) with g drawn N(0,1) independently per dimension per
    spark, then bound-mapped."""
    best_x = np.asarray(best_x, dtype=np.float64)
    g = rng.standard_normal(size=(count, best_x.size))
    return map_to_bounds(best_x[None, :] * (1.0 + g), rng)


def gaussian_mutate(x, rng):
    """Gaussian mutation sparks: per row of ``x`` (one point, or one
    donor per spark), one draw g~N(1,1) scales a uniformly chosen
    nonempty dimension subset, then bound-mapping."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    chosen = _nonempty_dim_subsets(len(rows), x.shape[-1], rng)
    g = 1.0 + rng.standard_normal(len(rows))
    return map_to_bounds(np.where(chosen, rows * g[:, None], rows).reshape(x.shape), rng)


def select_next(fitnesses, n_keep, rng):
    """Elitist selection: index of the best candidate (first on ties)
    plus n_keep - 1 drawn uniformly without replacement from the rest.

    Returns candidate indices; slot 0 is the elite.
    """
    f = np.asarray(fitnesses)
    if f.size < n_keep:
        raise ConfigError("selection needs at least %d candidates" % n_keep)
    best = int(np.argmin(f))
    others = np.concatenate([np.arange(best), np.arange(best + 1, f.size)])
    picked = rng.permutation(others.size)[: n_keep - 1]
    return np.concatenate([[best], others[picked]])


# --- shared run machinery ------------------------------------------------

def optimize(objective, cfg: SwarmConfig) -> OptResult:
    """Minimize ``objective`` over [0,1]^d under cfg.max_evaluations.

    ``optimize`` alone evaluates.  It draws generation 0, then sends
    each batch's fitness to the algorithm's runner (primed with None)
    and takes the next batch it yields.  One ``evaluate`` step serves
    every batch: it cuts the batch to the evaluations left, calls the
    objective, checks the values, keeps the best point (ties keep the
    earlier row) and appends the best fitness so far to the trace.  The
    run ends right after the batch that spends the budget, so only the
    last batch can be cut and no runner sees its fitness.

    Parameters
    ----------
    objective : callable
        Maps an (m, d) float64 array of points in [0,1]^d to m finite
        values, one per row in row order.  Called once per batch, on at
        most as many rows as the budget has left; a result of any other
        shape, or holding NaN or +-inf, raises InvariantError.
    cfg : SwarmConfig
        Algorithm choice and parameters; cfg.seed fixes the run exactly.

    Returns
    -------
    OptResult
        Best point found, its fitness, exact evaluation count, and the
        per-batch best-so-far trace (generation 0 first).
    """
    used, best_f, best_x, trace = 0, math.inf, None, []

    def evaluate(X):
        nonlocal used, best_f, best_x
        X = X[: cfg.max_evaluations - used]
        f = np.asarray(objective(X), dtype=np.float64)
        if f.shape != (len(X),):
            raise InvariantError(
                "objective returned shape %s for %d rows" % (f.shape, len(X)))
        bad = np.flatnonzero(~np.isfinite(f))
        if bad.size:
            k = int(bad[0])
            raise InvariantError("objective returned %r at %s" % (float(f[k]), X[k].tolist()))
        used += len(X)
        k = int(np.argmin(f))
        if f[k] < best_f:
            best_f, best_x = float(f[k]), X[k].copy()
        trace.append(best_f)
        return f

    stream = Streams(cfg.seed)
    X = stream(0, 0).uniform(size=(cfg.population, cfg.dimensions))
    runner = _RUNNERS[cfg.algorithm](cfg, stream, X, evaluate(X))
    f = None
    while used < cfg.max_evaluations:
        f = evaluate(runner.send(f))
    return OptResult(best_x=best_x, best_fitness=best_f, evaluations_used=used,
                     fitness_trace=np.asarray(trace))


def _fireworks(cfg, stream, X, f):
    n = cfg.population
    pbest_f = f
    for gen in itertools.count(1):
        pbest_f = np.where(f < pbest_f, f, pbest_f)
        counts = spark_count(f, cfg)
        if cfg.algorithm == "ifa":
            radii, around_best = ifa_radius(pbest_f, counts, cfg)
        else:
            radii, around_best = fa_radius(f, cfg), np.zeros(n, dtype=bool)

        # one row per spark, in firework order; role 1 draws them all
        owner = np.repeat(np.arange(n), counts)
        near = around_best[owner]
        far = owner[~near]
        rng = stream(gen, 1)
        sparks = np.empty((owner.size, cfg.dimensions))
        sparks[~near] = explode(X[far], radii[far], far.size, rng)
        sparks[near] = explode_around_best(X[int(np.argmin(f))], owner.size - far.size, rng)
        rng = stream(gen, 2)
        donors = rng.integers(n, size=cfg.gaussian_sparks)
        sparks = np.vstack([sparks, gaussian_mutate(X[donors], rng)])

        f_sparks = yield sparks
        pool_x = np.vstack([X, sparks])
        pool_f = np.concatenate([f, f_sparks])
        sel = select_next(pool_f, n, stream(gen, 3))
        X, f = pool_x[sel], pool_f[sel]


def _pso(cfg, stream, X, f):
    n, d = cfg.population, cfg.dimensions
    V = np.zeros((n, d))
    pb_x, pb_f = X.copy(), f.copy()
    for gen in itertools.count(1):
        gb_x = pb_x[np.argmin(pb_f)]
        rng = stream(gen, 0)
        r1 = rng.uniform(size=(n, d))
        r2 = rng.uniform(size=(n, d))
        V = (
            cfg.pso_inertia * V
            + cfg.pso_cognitive * r1 * (pb_x - X)
            + cfg.pso_social * r2 * (gb_x - X)
        )
        V = np.clip(V, -cfg.pso_velocity_clamp, cfg.pso_velocity_clamp)
        X = map_to_bounds(X + V, rng)
        f = yield X
        pb_x, pb_f = update_pbest(pb_x, pb_f, X, f)


def _bat(cfg, stream, X, f):
    n, d = cfg.population, cfg.dimensions
    V = np.zeros((n, d))
    loud = np.full(n, cfg.ba_loudness)
    for gen in itertools.count(1):
        gb_x = X[np.argmin(f)]
        rng = stream(gen, 0)
        beta = rng.uniform(size=n)
        freq = cfg.ba_freq_min + (cfg.ba_freq_max - cfg.ba_freq_min) * beta
        V = V + (X - gb_x) * freq[:, None]
        cand = X + V
        pulse = cfg.ba_pulse_rate * (1.0 - math.exp(-cfg.ba_pulse_growth * gen))
        local = rng.uniform(size=n) > pulse
        walk = gb_x + rng.uniform(-1.0, 1.0, size=(n, d)) * loud.mean()
        cand[local] = walk[local]
        cand = map_to_bounds(cand, rng)
        accept_draw = rng.uniform(size=n)
        f_cand = yield cand
        accept = (accept_draw < loud) & (f_cand <= f)
        X[accept] = cand[accept]
        f[accept] = f_cand[accept]
        loud[accept] *= cfg.ba_loudness_decay


_RUNNERS = {"ifa": _fireworks, "fa": _fireworks, "pso": _pso, "ba": _bat}
