"""Stochastic patch-occupancy kernel: extinction then colonisation.

One generation maps an occupancy state through two phases: every occupied
patch goes extinct independently with probability ``e``, then every patch
left empty is colonised with probability ``1 - (1 - c) ** o`` where ``o``
counts its occupied neighbours.  By default the colonisers are the patches
that survived the extinction phase of the same generation, which matches the
exact transition matrix built as extinction followed by colonisation; the
variant where colonisation pressure comes from the pre-extinction state is
available through ``Params.colonisation_source``.

``Kernel`` is the one place the generation map is prepared: it holds the
adjacency, the colonisation table and the source convention for a
``(graph, params)`` pair and steps blocks of replicates.  Every simulation
route, here and in ``rareevent``, advances the chain through it; a CSR
adjacency on large sparse graphs counts neighbours exactly as the dense one.

States are integer bitmasks (bit ``i`` set means patch ``i`` is occupied);
state ``0`` is absorbing.  ``step`` and ``simulate`` operate on single
states, ``estimate_crude`` runs a vectorised batch of replicates with
scheduler-independent RNG streams derived from a master seed.

``write_csv`` is the one result-table format: every CSV the package writes
(here, in ``exact``, ``experiment`` and the CLI) goes through it, with
``\n`` line ends, floats as ``repr`` of a Python float and ``None`` as an
empty cell.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .netgen import Graph

__all__ = [
    "BLOCK_REPS",
    "Estimate",
    "EstimateReport",
    "Kernel",
    "Params",
    "Trajectory",
    "all_occupied",
    "array_to_state",
    "estimate_crude",
    "seed_sequence",
    "simulate",
    "state_to_array",
    "step",
    "write_csv",
    "write_report_csv",
    "write_trajectory_csv",
]

SOURCES = ("post-extinction", "pre-extinction")

# Replicates are simulated in fixed-size blocks, one RNG stream per block,
# spawned from the master seed.  The block size is a protocol constant:
# changing it changes which sample you draw (never its law), so it is not a
# tuning knob and results never depend on how blocks are scheduled.
BLOCK_REPS = 1024

# ``Kernel`` counts neighbours by CSR from SPARSE_MIN_N patches up to this density.
# With integer CSR counts in C order, steps of 1024 replicates ran 1.4-2.5x faster
# than dense inside the bounds, 1.0-1.3x at n = 200 or density 0.05-0.3, and
# 0.97-1.05x at n = 100, density 0.1-0.3 (one BLAS thread).  Equal counts: a speed
# cut-off only.
SPARSE_MIN_N = 300
SPARSE_MAX_DENSITY = 0.025


@dataclass(frozen=True)
class Params:
    """Kernel parameters.

    ``e``: per-generation extinction probability of an occupied patch.
    ``c``: per-contact colonisation probability.
    ``colonisation_source``: whether colonisation pressure is computed from
    the survivors of the current generation's extinction phase (default) or
    from the pre-extinction state.
    """

    e: float
    c: float
    colonisation_source: str = "post-extinction"

    def __post_init__(self) -> None:
        if not 0.0 <= self.e <= 1.0:
            raise ValueError(f"e={self.e} outside [0, 1]")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c={self.c} outside [0, 1]")
        if self.colonisation_source not in SOURCES:
            raise ValueError(f"colonisation_source must be one of {SOURCES}")

    @property
    def post_source(self) -> bool:
        return self.colonisation_source == "post-extinction"


def state_to_array(state: int, n: int) -> np.ndarray:
    """Bitmask -> boolean occupancy vector of length n."""
    if state < 0 or state >> n:
        raise ValueError(f"state {state} out of range for n={n}")
    return np.array([(state >> i) & 1 for i in range(n)], dtype=bool)


def array_to_state(occ: np.ndarray) -> int:
    """Boolean occupancy vector -> bitmask."""
    state = 0
    for i in np.flatnonzero(occ):
        state |= 1 << int(i)
    return state


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else v


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write one result table: a header row, then ``rows``.

    Floats (numpy's included) are written as ``repr(float(v))`` so they
    round-trip exactly, ``None`` as an empty cell, and anything else as the
    csv module writes it.  Line ends are ``\n`` on every platform.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def all_occupied(n: int) -> int:
    return (1 << n) - 1


def seed_sequence(seed) -> np.random.SeedSequence:
    """An int seed or a ``SeedSequence`` as a ``SeedSequence``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass(frozen=True, eq=False)
class Kernel:
    """The generation map of one ``(graph, params)`` pair, prepared once.

    ``pcol[o]`` is the probability that an empty patch with ``o`` occupied
    neighbours is colonised.  ``post_source`` says whether those neighbours
    are counted after the extinction phase (default) or before it.
    ``adjacency`` is the graph's dense float64 matrix, or on sparse graphs its
    integer CSR ``Graph.sparse_adjacency``; ``source @ adjacency`` counts exactly
    in both, so draws match.
    """

    n: int
    adjacency: np.ndarray  # or a scipy.sparse.csr_array
    e: float
    pcol: np.ndarray
    post_source: bool

    @classmethod
    def prepare(cls, graph: Graph, params: Params) -> Kernel:
        max_degree = int(graph.degrees.max()) if graph.n_edges else 0
        pcol = 1.0 - (1.0 - params.c) ** np.arange(max_degree + 1)
        sparse = graph.n >= SPARSE_MIN_N and graph.density <= SPARSE_MAX_DENSITY
        adjacency = graph.sparse_adjacency if sparse else graph.adjacency_matrix
        return cls(graph.n, adjacency, params.e, pcol, params.post_source)

    def start(self, z0: int, reps: int) -> np.ndarray:
        """A writable (reps, n) block with every row in state ``z0``."""
        return np.broadcast_to(state_to_array(z0, self.n), (reps, self.n)).copy()

    def step(
        self, occ: np.ndarray, rng: np.random.Generator, e: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance a (reps, n) block one generation.

        Returns ``(survivors, next_occ)``.  ``e`` replaces the extinction
        rate for this generation (importance sampling twists it).  Uniforms
        are drawn for every patch regardless of occupancy so the stream
        consumption per generation is fixed.
        """
        survivors = occ & (rng.random(occ.shape) >= (self.e if e is None else e))
        source = survivors if self.post_source else occ
        # A block times a CSR comes back transposed (F-ordered): put the counts
        # in the block's C order before they meet the uniforms.
        o = (source @ self.adjacency).astype(np.intp, order="C")
        colonised = ~survivors & (rng.random(occ.shape) < self.pcol[o])
        return survivors, survivors | colonised


def step(graph: Graph, params: Params, state: int, rng: np.random.Generator) -> int:
    """One generation from a bitmask state; returns the next bitmask."""
    kernel = Kernel.prepare(graph, params)
    _, nxt = kernel.step(kernel.start(state, 1), rng)
    return array_to_state(nxt[0])


@dataclass(frozen=True)
class Trajectory:
    """A single realisation: states[t] is the bitmask after t generations."""

    n: int
    states: tuple[int, ...]

    @property
    def occupied_counts(self) -> np.ndarray:
        return np.array([s.bit_count() for s in self.states], dtype=np.intp)


def simulate(
    graph: Graph,
    params: Params,
    z0: int,
    n_gen: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Simulate ``n_gen`` generations from ``z0``.

    The empty state is absorbing; once reached, the remaining entries are
    filled without consuming further randomness.
    """
    if n_gen < 0:
        raise ValueError("n_gen must be >= 0")
    kernel = Kernel.prepare(graph, params)
    occ = kernel.start(z0, 1)
    states = [z0]
    state = z0
    for t in range(n_gen):
        if state == 0:
            states.extend([0] * (n_gen - t))
            break
        _, occ = kernel.step(occ, rng)
        state = array_to_state(occ[0])
        states.append(state)
    return Trajectory(graph.n, tuple(states))


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> None:
    """Columns: generation, occupied_count, state_hex."""
    write_csv(path, ["generation", "occupied_count", "state_hex"],
              ((t, s.bit_count(), format(s, "x")) for t, s in enumerate(trajectory.states)))


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a standard error and a method tag."""

    value: float
    se: float
    method: str
    n_work: int
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EstimateReport:
    """Crude Monte Carlo summary at the horizon plus per-generation series.

    ``occupancy`` averages over all replicates (extinct ones count zero);
    ``conditional_occupancy`` averages over surviving replicates only, so
    ``occupancy = conditional_occupancy * persistence`` holds exactly.
    """

    persistence: Estimate
    occupancy: Estimate
    conditional_occupancy: Estimate
    persistence_series: np.ndarray
    occupancy_series: np.ndarray
    conditional_occupancy_series: np.ndarray
    n_gen: int
    n_reps: int


def estimate_crude(
    graph: Graph,
    params: Params,
    z0: int,
    n_gen: int,
    n_reps: int,
    seed,
) -> EstimateReport:
    """Persistence and occupancy by direct simulation of ``n_reps`` replicates.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``.  Replicates
    are partitioned into fixed blocks of ``BLOCK_REPS``; block ``b`` uses the
    ``b``-th spawn of the seed, so the result is a pure function of
    ``(inputs, seed)`` no matter how the work is scheduled.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_gen < 0:
        raise ValueError("n_gen must be >= 0")
    kernel = Kernel.prepare(graph, params)
    n_blocks = -(-n_reps // BLOCK_REPS)
    streams = seed_sequence(seed).spawn(n_blocks)

    alive = np.zeros(n_gen + 1, dtype=np.int64)
    occ_sum = np.zeros(n_gen + 1, dtype=np.float64)
    final_sq_sum = 0.0  # sum of squared final occupancy counts

    for b in range(n_blocks):
        reps = min(BLOCK_REPS, n_reps - b * BLOCK_REPS)
        rng = np.random.default_rng(streams[b])
        occ = kernel.start(z0, reps)
        counts = occ.sum(axis=1)
        alive[0] += int((counts > 0).sum())
        occ_sum[0] += float(counts.sum())
        t_stop = n_gen
        for t in range(1, n_gen + 1):
            _, occ = kernel.step(occ, rng)
            counts = occ.sum(axis=1)
            alive[t] += int((counts > 0).sum())
            occ_sum[t] += float(counts.sum())
            if not counts.any():
                t_stop = t
                break
        if t_stop == n_gen:
            final_sq_sum += float((counts.astype(np.float64) ** 2).sum())
        # Blocks that died out contribute zeros to every later generation
        # and zero squared occupancy at the horizon.

    n_alive = int(alive[n_gen])
    p_hat = n_alive / n_reps
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / n_reps)
    occ_mean = occ_sum[n_gen] / n_reps
    if n_reps > 1:
        var_occ = max(0.0, (final_sq_sum - n_reps * occ_mean**2) / (n_reps - 1))
        se_occ = math.sqrt(var_occ / n_reps)
    else:
        se_occ = 0.0
    if n_alive > 0:
        cond_mean = occ_sum[n_gen] / n_alive
        if n_alive > 1:
            # Extinct replicates contribute zero to the squared sum, so the
            # survivor-only moments come from the same accumulators.
            var_cond = max(0.0, (final_sq_sum - n_alive * cond_mean**2) / (n_alive - 1))
            se_cond = math.sqrt(var_cond / n_alive)
        else:
            se_cond = 0.0
    else:
        cond_mean, se_cond = 0.0, 0.0

    with np.errstate(invalid="ignore", divide="ignore"):
        cond_series = np.where(alive > 0, occ_sum / np.maximum(alive, 1), 0.0)
    diag = {"n_survivors": n_alive, "n_extinct": n_reps - n_alive}
    return EstimateReport(
        persistence=Estimate(p_hat, se_p, "crude", n_reps, diag),
        occupancy=Estimate(occ_mean, se_occ, "crude", n_reps),
        conditional_occupancy=Estimate(cond_mean, se_cond, "crude", n_alive),
        persistence_series=alive / n_reps,
        occupancy_series=occ_sum / n_reps,
        conditional_occupancy_series=cond_series,
        n_gen=n_gen,
        n_reps=n_reps,
    )


def write_report_csv(report: EstimateReport, path: str | Path) -> None:
    """Per-generation series: t, p_persist, mean_occ, cond_mean_occ."""
    write_csv(path, ["t", "p_persist", "mean_occ", "cond_mean_occ"],
              zip(range(report.n_gen + 1), report.persistence_series,
                  report.occupancy_series, report.conditional_occupancy_series))
