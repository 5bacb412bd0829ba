"""Rare-event estimators for extinction and persistence probabilities.

Three complementary estimators, all unbiased for their target and all
reporting a standard error from independent replication.  Each one steps
the chain through ``dynamics.Kernel``, the one place the generation map is
prepared:

* ``ips_persistence`` -- an interacting particle system for small
  persistence probabilities: dead particles are regenerated onto uniformly
  chosen survivors each generation, and the persistence estimate is the
  product over generations of the surviving fractions ``1 - #E_t``.  (The
  product of the death fractions themselves, sometimes quoted as an
  extinction estimator, is not one: dying by the horizon means dying in
  *some* generation, not in all of them.)
* ``is_extinction`` -- importance sampling for small extinction
  probabilities: the extinction phase runs at twisted rates ``e_t`` and
  each trajectory carries the likelihood ratio
  ``(e / e_t)**d_t * ((1-e) / (1-e_t))**(k_t - d_t)`` per generation,
  where ``d_t`` of the ``k_t`` occupied patches died.
* ``split_extinction`` -- fixed-success multilevel splitting: occupancy
  thresholds ``S_1 >= ... >= S_p`` (with ``S_{p+1} = 0`` appended) define
  levels; each level re-simulates from uniformly chosen entry states of
  the previous level until ``n_success`` crossings, and the estimate is
  the product of ``(n_success - 1) / (k_m - 1)`` over levels, the unbiased
  inverse-binomial rate estimate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import BLOCK_REPS, Estimate, Kernel, Params, seed_sequence
from .netgen import Graph

__all__ = [
    "SplittingConfig",
    "WorkCapExceeded",
    "default_twist_schedule",
    "geometric_thresholds",
    "ips_persistence",
    "is_extinction",
    "split_extinction",
]


class WorkCapExceeded(RuntimeError):
    """A splitting level used up its attempt budget; the threshold gap is
    too wide (or the event is impossible under the given parameters)."""


# ---------------------------------------------------------------------------
# interacting particle system
# ---------------------------------------------------------------------------

def ips_persistence(
    graph: Graph,
    params: Params,
    z0: int,
    n_gen: int,
    n_particles: int,
    seed,
    n_batches: int = 20,
) -> Estimate:
    """Persistence probability by particle regeneration.

    Runs ``n_batches`` independent particle systems of ``n_particles`` each;
    the reported value is the mean of the per-batch products of surviving
    fractions and the standard error is the batch standard deviation over
    ``sqrt(n_batches)``.  A batch whose particles all die in one generation
    contributes an exact zero and is flagged in the diagnostics.
    """
    if n_particles < 2:
        raise ValueError("n_particles must be >= 2")
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    kernel = Kernel.prepare(graph, params)
    streams = seed_sequence(seed).spawn(n_batches)

    estimates = np.empty(n_batches)
    death_fractions = np.zeros((n_batches, n_gen))
    degenerate = 0
    for b in range(n_batches):
        rng = np.random.default_rng(streams[b])
        occ = kernel.start(z0, n_particles)
        product = 1.0
        for t in range(n_gen):
            _, occ = kernel.step(occ, rng)
            dead = kernel.counts(occ) == 0
            n_dead = int(np.count_nonzero(dead))
            frac = n_dead / n_particles
            death_fractions[b, t] = frac
            product *= 1.0 - frac
            if n_dead == n_particles:
                product = 0.0
                degenerate += 1
                break
            if n_dead:
                donors = np.flatnonzero(~dead)
                picks = donors[rng.integers(0, len(donors), size=n_dead)]
                occ[np.flatnonzero(dead)] = occ[picks]
        estimates[b] = product
    value = float(estimates.mean())
    se = float(estimates.std(ddof=1) / math.sqrt(n_batches))
    diag = {
        "batch_estimates": estimates.tolist(),
        "mean_death_fraction_series": death_fractions.mean(axis=0).tolist(),
        "degenerate_batches": degenerate,
    }
    if degenerate:
        diag["note"] = "some batches lost every particle; consider more particles"
    return Estimate(value, se, "ips", n_batches * n_particles * n_gen, diag)


# ---------------------------------------------------------------------------
# importance sampling on the extinction phase
# ---------------------------------------------------------------------------

def default_twist_schedule(e: float, n_gen: int, peak: float | None = None) -> tuple[float, ...]:
    """Linear ramp from the nominal rate to ``peak`` (default ``min(3e, 0.9)``)."""
    if peak is None:
        peak = min(3.0 * e, 0.9)
    if not 0.0 < e < 1.0 or not 0.0 < peak < 1.0:
        raise ValueError("rates must lie strictly inside (0, 1)")
    if n_gen == 1:
        return (peak,)
    return tuple(e + (peak - e) * t / (n_gen - 1) for t in range(n_gen))


def is_extinction(
    graph: Graph,
    params: Params,
    z0: int,
    n_gen: int,
    schedule: Sequence[float],
    n_sims: int,
    seed,
) -> Estimate:
    """Extinction probability by importance sampling.

    ``schedule`` is a sequence of ``n_gen`` extinction rates, one per
    generation, each strictly inside (0, 1); ``default_twist_schedule``
    builds a ramp.  Needs ``0 < e < 1``.  The reported standard error is the
    sample standard deviation of the per-trajectory weighted indicators over
    ``sqrt(n_sims)``.  With ``schedule`` identically equal to ``e`` every
    weight is exactly one and the estimator reduces to the crude frequency.
    """
    if not 0.0 < params.e < 1.0:
        raise ValueError("importance sampling needs 0 < e < 1")
    rates = tuple(float(r) for r in schedule)
    if any(not 0.0 < r < 1.0 for r in rates):
        raise ValueError("twisted rates must lie strictly inside (0, 1)")
    if len(rates) != n_gen:
        raise ValueError(f"schedule has {len(rates)} rates for {n_gen} generations")
    if n_sims < 2:
        raise ValueError("n_sims must be >= 2")
    kernel = Kernel.prepare(graph, params)
    e = params.e
    log_ratios = [
        (math.log(e) - math.log(et), math.log1p(-e) - math.log1p(-et))
        for et in rates
    ]
    n_blocks = -(-n_sims // BLOCK_REPS)
    streams = seed_sequence(seed).spawn(n_blocks)

    w_sum = 0.0
    w_sq_sum = 0.0
    n_hits = 0
    w_max = 0.0
    hit_weights: list[np.ndarray] = []
    for b in range(n_blocks):
        reps = min(BLOCK_REPS, n_sims - b * BLOCK_REPS)
        rng = np.random.default_rng(streams[b])
        occ = kernel.start(z0, reps)
        logw = np.zeros(reps)
        k = kernel.counts(occ)  # occupied before each extinction phase
        for t in range(n_gen):
            if not k.any():
                break  # all absorbed; every remaining ratio is one
            survivors, occ = kernel.step(occ, rng, rates[t])
            s = kernel.counts(survivors)
            d = k - s
            ld, ls = log_ratios[t]
            logw += d * ld + s * ls
            k = kernel.counts(occ)
        extinct = k == 0
        w = np.where(extinct, np.exp(logw), 0.0)
        w_sum += float(w.sum())
        w_sq_sum += float((w * w).sum())
        n_hits += int(extinct.sum())
        if extinct.any():
            w_max = max(w_max, float(w[extinct].max()))
            hit_weights.append(w[extinct])
    mean = w_sum / n_sims
    var = max(0.0, (w_sq_sum - n_sims * mean * mean) / (n_sims - 1))
    se = math.sqrt(var / n_sims)
    ess = w_sum * w_sum / w_sq_sum if w_sq_sum > 0.0 else 0.0  # Kish (Kong 1992)
    diag = {"n_extinct_trajectories": n_hits, "max_weight": w_max, "ess": ess}
    hits = np.concatenate(hit_weights) if hit_weights else np.empty(0)
    hits = hits[hits > 0.0]  # exp underflow would poison log10
    if hits.size:
        logs = np.log10(hits)
        counts, edges = np.histogram(logs, bins=min(20, hits.size))
        diag["weight_log10_histogram"] = {
            "edges": edges.tolist(), "counts": counts.tolist(),
        }
    return Estimate(mean, se, "is", n_sims * n_gen, diag)


# ---------------------------------------------------------------------------
# fixed-success multilevel splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingConfig:
    """Occupancy thresholds (strictly decreasing after dedup) and the number
    of successes collected per level."""

    thresholds: tuple[int, ...]
    n_success: int

    def __post_init__(self) -> None:
        if self.n_success < 2:
            raise ValueError("n_success must be >= 2")
        levels = tuple(sorted({int(s) for s in self.thresholds}, reverse=True))
        if levels and levels[-1] <= 0:
            raise ValueError("thresholds must be positive; level 0 is implicit")
        object.__setattr__(self, "thresholds", levels)


def geometric_thresholds(n: int, n_levels: int) -> tuple[int, ...]:
    """Roughly geometrically spaced occupancy thresholds below ``n``."""
    if n_levels < 1:
        return ()
    out = []
    for m in range(1, n_levels + 1):
        s = int(round(n ** (1.0 - m / (n_levels + 1))))
        if s < 1 or (out and s >= out[-1]):
            continue
        if s < n:
            out.append(s)
    return tuple(out)


_ATTEMPT_BATCH = 256
MAX_ATTEMPTS_PER_LEVEL = 1_000_000


def _batch_crossings(
    starts: np.ndarray,
    states: np.ndarray,
    threshold: int,
    n_gen: int,
    kernel: Kernel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate a batch of attempts; report each one's first generation with
    occupancy <= threshold (entry state checked at its own start time).

    Returns (crossed, cross_t, cross_states).  Rows are independent; a row
    entering at generation s takes its first step at s + 1.

    Every row is stepped every generation: the draws per generation are
    fixed by the block's size, not by which rows move, and a row's next
    state depends only on its own state and uniforms.  So a row that has not
    entered yet may evolve from anything, as long as its entry state is
    written back just before its first step at s + 1, and a crossed row may
    evolve on, since nothing reads it again.  Only rows that have entered
    and not crossed are tested for a hit.
    """
    cross_t = np.where(kernel.counts(states) <= threshold, starts, -1)
    cross_states = np.where((cross_t >= 0)[:, None], states, False)
    waiting = np.flatnonzero(cross_t < 0)
    n_pending = waiting.size
    # The waiting rows by entry generation: those entering at s are
    # order[first[s]:first[s + 1]].
    order = waiting[np.argsort(starts[waiting])]
    first = np.searchsorted(starts[order], np.arange(n_gen + 1)).tolist()
    # A row hits when its count is at most its ceiling: the threshold from
    # its entry to its hit, and -1 before and after.
    ceiling = np.full(len(starts), -1.0)
    occ = states.copy()
    for t in range(int(starts.min()) + 1, n_gen + 1):
        if not n_pending:
            break
        rows = order[first[t - 1]:first[t]]
        if rows.size:
            occ[rows] = states[rows]
            ceiling[rows] = threshold
        _, occ = kernel.step(occ, rng)
        hit = np.flatnonzero(kernel.counts(occ) <= ceiling)
        if hit.size:
            cross_t[hit] = t
            cross_states[hit] = occ[hit]
            ceiling[hit] = -1.0
            n_pending -= hit.size
    return cross_t >= 0, cross_t, cross_states


def split_extinction(
    graph: Graph,
    params: Params,
    z0: int,
    n_gen: int,
    config: SplittingConfig,
    seed,
    n_replications: int = 20,
) -> Estimate:
    """Extinction probability by fixed-success multilevel splitting.

    Runs ``n_replications`` independent copies of the whole algorithm; the
    value is their mean and the standard error their standard deviation
    over ``sqrt(n_replications)``.  Per copy: level ``m`` draws entry
    states uniformly from the previous level's recorded crossings and
    re-simulates to the horizon until ``n_success`` trajectories reach
    occupancy ``<= S_m``; the level estimate is
    ``(n_success - 1) / (k_m - 1)`` with ``k_m`` the attempts used.

    Raises
    ------
    WorkCapExceeded
        If a level needs more than ``MAX_ATTEMPTS_PER_LEVEL`` attempts.
    """
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    kernel = Kernel.prepare(graph, params)
    ns = config.n_success
    start_z = kernel.start(z0, ns)
    z0_count = int(start_z[0].sum())
    if not z0_count:
        raise ValueError("z0 must have at least one occupied patch")
    levels = list(config.thresholds) + [0]
    if levels[0] >= z0_count:
        raise ValueError("top threshold must lie below the initial occupancy")
    streams = seed_sequence(seed).spawn(n_replications)

    estimates = np.empty(n_replications)
    level_attempts = np.zeros((n_replications, len(levels)), dtype=np.int64)
    total_work = 0
    for rep in range(n_replications):
        rng = np.random.default_rng(streams[rep])
        pool_t = np.zeros(ns, dtype=np.int64)
        pool_z = start_z
        value = 1.0
        for m, threshold in enumerate(levels):
            # Attempts are drawn and simulated in batches but consumed in
            # order: k counts attempts up to and including the ns-th
            # success, exactly as if they ran one at a time.
            succ_t = np.empty(ns, dtype=np.int64)
            succ_z = np.empty((ns, kernel.n), dtype=bool)
            found = 0
            k = 0
            while found < ns:
                if k >= MAX_ATTEMPTS_PER_LEVEL:
                    raise WorkCapExceeded(
                        f"level {m + 1} (occupancy <= {threshold}) did not reach "
                        f"{ns} successes in {MAX_ATTEMPTS_PER_LEVEL} attempts"
                    )
                batch = min(_ATTEMPT_BATCH, MAX_ATTEMPTS_PER_LEVEL - k)
                picks = rng.integers(0, ns, size=batch)
                crossed, ct, cz = _batch_crossings(
                    pool_t[picks], pool_z[picks], threshold, n_gen, kernel, rng)
                hits = np.flatnonzero(crossed)[:ns - found]
                succ_t[found:found + hits.size] = ct[hits]
                succ_z[found:found + hits.size] = cz[hits]
                found += hits.size
                k += int(hits[-1]) + 1 if found == ns else batch
            value *= (ns - 1) / (k - 1)
            level_attempts[rep, m] = k
            pool_t, pool_z = succ_t, succ_z
        estimates[rep] = value
        total_work += int(level_attempts[rep].sum())
    value = float(estimates.mean())
    se = (float(estimates.std(ddof=1) / math.sqrt(n_replications))
          if n_replications > 1 else 0.0)
    diag = {
        "replication_estimates": estimates.tolist(),
        "thresholds": list(levels),
        "mean_attempts_per_level": level_attempts.mean(axis=0).tolist(),
        "level_estimates_first_replication": [
            (ns - 1) / (k - 1) for k in level_attempts[0]
        ],
    }
    return Estimate(value, se, "splitting", total_work, diag)
