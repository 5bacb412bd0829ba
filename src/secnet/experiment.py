"""Factorial experiment harness over parameters and network topologies.

A ``Design`` crosses extinction rate, colonisation rate, edge budget and
topology, with several replicate networks per cell.  ``run_factorial``
evaluates every (cell, replicate) with the exact chain when the patch count
allows it and crude simulation otherwise, escalating to a rare-event
estimator whenever the crude run observes fewer events than a cutoff.
Replicate networks are seeded from (master seed, edge budget, replicate)
only, so topology comparisons at matching edge budgets are paired draws;
a task is one network, built once (graph, λ1, one exact operator per c)
for all its rate pairs.  Estimator streams are pure functions of the
design and indices: results are byte-identical however work is scheduled.

``variance_decomposition`` performs the classical balanced ANOVA sum-of-
squares split (every main effect and interaction, shares of total) on
logit persistence or occupancy; ``scenario_presets`` returns ten
ready-made single-topology designs over two network sizes, and
``scenario_compare`` renders topology orderings with coarse relation
symbols.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import exact
from .dynamics import Estimate, Params, all_occupied, estimate_crude, write_csv
from .netgen import TopologySpec, density_to_n_edges, leading_adjacency_eigenvalue
from .rareevent import default_twist_schedule, ips_persistence, is_extinction

__all__ = [
    "ComparisonRow",
    "Design",
    "ResultRow",
    "TopologyFactor",
    "VarianceTable",
    "preset",
    "preset_names",
    "run_factorial",
    "scenario_compare",
    "scenario_presets",
    "variance_decomposition",
    "write_comparison_csv",
    "write_results_csv",
    "write_variance_csv",
]

LOGIT_CLAMP = 1e-6
RELATION_BINS = ((0.02, "~"), (0.10, "≳"), (0.50, ">"))  # else >>
RELATION_WIDE = "≫"


@dataclass(frozen=True)
class TopologyFactor:
    """One level of the topology factor; edge budget is supplied per cell."""

    label: str
    kind: str
    power: float | None = None
    n_communities: int | None = None
    intra_inter_ratio: float | None = None

    def spec(self, n: int, n_edges: int) -> TopologySpec:
        return TopologySpec(
            kind=self.kind, n=n, n_edges=n_edges, power=self.power,
            n_communities=self.n_communities,
            intra_inter_ratio=self.intra_inter_ratio, label=self.label,
        )

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class Design:
    """A factorial experiment over (e, c, edge budget, topology).

    Rate levels come either from the full grid ``e_values x c_values`` or
    from an explicit list of ``(e, c)`` pairs (for designs where the two
    move together).  Edge budgets come from ``densities`` (converted by
    round-half-up) or explicit ``n_edges_values``.  The initial state is
    the fully occupied landscape.
    """

    name: str
    n: int
    topologies: tuple[TopologyFactor, ...]
    n_gen: int
    e_values: tuple[float, ...] = ()
    c_values: tuple[float, ...] = ()
    ec_pairs: tuple[tuple[float, float], ...] = ()
    densities: tuple[float, ...] = ()
    n_edges_values: tuple[int, ...] = ()
    n_network_replicates: int = 10
    n_sim_reps: int = 10_000
    estimator: str = "auto"  # auto | exact | crude
    exact_cap: int = exact.EXACT_CAP_DEFAULT
    escalate_below_events: int = 10
    master_seed: int = 0
    initial: str = "all_occupied"

    def __post_init__(self) -> None:
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(self, "e_values", tuple(self.e_values))
        object.__setattr__(self, "c_values", tuple(self.c_values))
        object.__setattr__(self, "densities", tuple(self.densities))
        object.__setattr__(self, "n_edges_values", tuple(self.n_edges_values))
        counts = {name: getattr(self, name) for name in (
            "n", "n_gen", "n_network_replicates", "n_sim_reps", "exact_cap",
            "escalate_below_events", "master_seed")}
        counts.update((f"n_edges_values[{i}]", v) for i, v in enumerate(self.n_edges_values))
        not_int = [k for k, v in counts.items()
                   if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
        if not_int:
            raise ValueError(f"{', '.join(not_int)} must be integers")
        # bool is an int to Python, so a JSON true would otherwise run as rate 1.
        rates = {f"{name}[{i}]": v for name in ("e_values", "c_values", "densities")
                 for i, v in enumerate(getattr(self, name))}
        rates.update((f"ec_pairs[{i}]", v) for i, pair in enumerate(self.ec_pairs) for v in pair)
        not_real = [k for k, v in rates.items() if isinstance(v, bool)
                    or not isinstance(v, (int, float, np.integer, np.floating))]
        if not_real:
            raise ValueError(f"{', '.join(not_real)} must be numbers")
        # Floats throughout, so an integer rate writes the same CSV bytes in either form.
        for name in ("e_values", "c_values", "densities"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        object.__setattr__(self, "ec_pairs",
                           tuple((float(e), float(c)) for e, c in self.ec_pairs))
        if bool(self.ec_pairs) == bool(self.e_values):
            raise ValueError("give either e_values x c_values or ec_pairs")
        if self.e_values and not self.c_values:
            raise ValueError("e_values needs c_values")
        if bool(self.densities) == bool(self.n_edges_values):
            raise ValueError("give either densities or n_edges_values")
        if not self.topologies:
            raise ValueError("at least one topology level is required")
        if self.estimator not in ("auto", "exact", "crude"):
            raise ValueError("estimator must be auto, exact or crude")
        if self.initial != "all_occupied":
            raise ValueError("only the all_occupied initial state is supported")
        if self.n_network_replicates < 1 or self.n_sim_reps < 1 or self.n_gen < 0:
            raise ValueError("replicate counts and horizon must be positive")
        if self.n < 2:
            raise ValueError(f"a design needs at least two patches, got n={self.n}")
        for e, c in self.rate_pairs:  # reject what every row would fail on
            Params(e, c)
        for n_edges in self.edge_budgets:
            for topo in self.topologies:
                topo.spec(self.n, n_edges)

    @property
    def rate_pairs(self) -> tuple[tuple[float, float], ...]:
        if self.ec_pairs:
            return self.ec_pairs
        return tuple((e, c) for e in self.e_values for c in self.c_values)

    @property
    def edge_budgets(self) -> tuple[int, ...]:
        if self.n_edges_values:
            return self.n_edges_values
        return tuple(density_to_n_edges(d, self.n) for d in self.densities)

    def cells(self) -> list["Cell"]:
        out = []
        idx = 0
        for e, c in self.rate_pairs:
            for n_edges in self.edge_budgets:
                for topo in self.topologies:
                    out.append(Cell(idx, e, c, n_edges, topo))
                    idx += 1
        return out

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "topologies":
                v = [t.to_dict() for t in v]
            elif isinstance(v, tuple):
                v = [list(x) if isinstance(x, tuple) else x for x in v]
            d[f.name] = v
        return d

    @staticmethod
    def from_dict(d: dict) -> "Design":
        d = dict(d)
        d["topologies"] = tuple(TopologyFactor(**t) for t in d["topologies"])
        d["ec_pairs"] = tuple(tuple(p) for p in d.get("ec_pairs", ()))
        return Design(**d)


@dataclass(frozen=True)
class Cell:
    index: int
    e: float
    c: float
    n_edges: int
    topology: TopologyFactor


@dataclass(frozen=True)
class ResultRow:
    """One (cell, replicate network) outcome; defaults mark values not obtained."""

    design: str
    cell_index: int
    replicate: int
    e: float
    c: float
    n_edges: int
    density: float
    topology: str
    graph_fingerprint: str = ""
    lambda1: float = math.nan
    persistence: float = math.nan
    persistence_se: float = math.nan
    persistence_method: str = "failed"
    occupancy: float = math.nan
    occupancy_se: float = math.nan
    cond_occupancy: float = math.nan
    n_survivors: int = -1
    n_extinct: int = -1
    error: str | None = None
    runtime_s: float = 0.0


def _network_seed(design: Design, n_edges: int, replicate: int) -> np.random.SeedSequence:
    # Topology is deliberately absent: replicate r at a given edge budget is
    # a paired draw across topology levels.
    return np.random.SeedSequence(design.master_seed, spawn_key=(1, n_edges, replicate))


def _estimator_seed(design: Design, cell_index: int, replicate: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(design.master_seed, spawn_key=(2, cell_index, replicate))


def _network_rows(task) -> list[ResultRow]:
    """Every rate pair of one (edge budget, topology, replicate) network."""
    design, cells, replicate = task
    n_edges, topology = cells[0].n_edges, cells[0].topology
    use_exact = design.estimator == "exact" or (
        design.estimator == "auto" and design.n <= design.exact_cap
    )
    z0 = all_occupied(design.n)
    operators: dict[float, exact.TransitionMatrices] = {}  # by c; e is set per row

    def estimates(cell: Cell, graph) -> dict:
        params = Params(e=cell.e, c=cell.c)
        if use_exact:
            if cell.c not in operators:
                operators[cell.c] = exact.build_transition(graph, params, cap=design.exact_cap)
            table = exact.finite_horizon(replace(operators[cell.c], e=cell.e), z0, design.n_gen)
            return dict(persistence=float(table.p_persist[-1]), persistence_se=0.0,
                        persistence_method="exact", occupancy=float(table.mean_occ[-1]),
                        occupancy_se=0.0, cond_occupancy=float(table.cond_mean_occ[-1]))
        seed = _estimator_seed(design, cell.index, replicate)
        report = estimate_crude(graph, params, z0, design.n_gen, design.n_sim_reps, seed)
        pers = report.persistence
        survivors = pers.diagnostics["n_survivors"]
        extinct = pers.diagnostics["n_extinct"]
        # at e = 0 or 1 the outcome is certain, so a lack of events is no reason to escalate
        cutoff = design.escalate_below_events if 0.0 < cell.e < 1.0 else 0
        sub_seeds = seed.spawn(2)
        if survivors < cutoff:
            pers = ips_persistence(graph, params, z0, design.n_gen,
                                   max(64, design.n_sim_reps // 20), sub_seeds[0])
        elif extinct < cutoff:
            ext = is_extinction(graph, params, z0, design.n_gen,
                                default_twist_schedule(cell.e, design.n_gen),
                                design.n_sim_reps, sub_seeds[1])
            pers = Estimate(1.0 - ext.value, ext.se, "is", ext.n_work, ext.diagnostics)
        return dict(persistence=pers.value, persistence_se=pers.se,
                    persistence_method=pers.method, occupancy=report.occupancy.value,
                    occupancy_se=report.occupancy.se,
                    cond_occupancy=report.conditional_occupancy.value,
                    n_survivors=survivors, n_extinct=extinct)

    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(_network_seed(design, n_edges, replicate))
        graph = topology.spec(design.n, n_edges).generate(rng)
        network = dict(graph_fingerprint=graph.fingerprint(),
                       lambda1=leading_adjacency_eigenvalue(graph))
    except Exception as err:  # a failed network fails each of its rows
        network = err
    rows = []
    for cell in cells:
        try:
            if isinstance(network, Exception):
                raise network
            values = dict(network, **estimates(cell, graph))
        except Exception as err:  # per-row failures must not sink the run
            values = dict(error=f"{type(err).__name__}: {err}")
        rows.append(ResultRow(
            design=design.name, cell_index=cell.index, replicate=replicate,
            e=cell.e, c=cell.c, n_edges=n_edges,
            density=n_edges / (design.n * (design.n - 1) // 2),
            topology=topology.label, **values, runtime_s=time.perf_counter() - t0,
        ))
        t0 = time.perf_counter()
    return rows


def run_factorial(design: Design, workers: int = 1, progress=None) -> list[ResultRow]:
    """Evaluate every (cell, replicate); rows come back in enumeration order.

    A task is one network and all its rate pairs: a row's ``runtime_s``
    starts where its network's previous row ended (the first includes the
    build), ``progress(done, total)`` counts networks, and ``workers > 1``
    spreads networks over a process pool, so no more workers than networks
    are busy.  The output is identical for any worker count.
    """
    networks: dict[tuple, list[Cell]] = {}
    for cell in design.cells():
        networks.setdefault((cell.n_edges, cell.topology), []).append(cell)
    tasks = [(design, cells, rep)
             for cells in networks.values()
             for rep in range(design.n_network_replicates)]
    rows: list[ResultRow] = []
    with (multiprocessing.get_context().Pool(workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        done = (pool.imap(_network_rows, tasks, chunksize=1) if pool
                else map(_network_rows, tasks))
        for i, network_rows in enumerate(done, 1):
            rows += network_rows
            if progress:
                progress(i, len(tasks))
    return sorted(rows, key=lambda r: (r.cell_index, r.replicate))


RESULT_COLUMNS = [f.name for f in fields(ResultRow) if f.name != "runtime_s"]


def write_results_csv(rows: list[ResultRow], path: str | Path,
                      include_runtime: bool = False) -> None:
    """Fixed column order: factors, then estimates, then diagnostics.

    Runtimes are excluded by default so reruns are byte-identical.
    """
    cols = RESULT_COLUMNS + (["runtime_s"] if include_runtime else [])
    write_csv(path, cols, ([getattr(row, c) for c in cols] for row in rows))


# ---------------------------------------------------------------------------
# balanced ANOVA sum-of-squares decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceTable:
    """Sum-of-squares shares for main effects and interactions.

    ``terms`` holds (name, sum of squares, share of total); the residual is
    the replicate-level remainder.  Shares including the residual sum to
    one.  ``degenerate`` flags a constant response.
    """

    response: str
    terms: tuple[tuple[str, float, float], ...]
    residual_ss: float
    residual_share: float
    ss_total: float
    r_squared: float
    degenerate: bool


def _response_value(row: ResultRow, response: str) -> float:
    if response == "logit_persistence":
        p = min(max(row.persistence, LOGIT_CLAMP), 1.0 - LOGIT_CLAMP)
        return math.log(p / (1.0 - p))
    if response == "occupancy":
        return row.occupancy
    if response == "persistence":
        return row.persistence
    raise ValueError(f"unknown response {response!r}")


def variance_decomposition(
    rows: list[ResultRow],
    response: str = "logit_persistence",
) -> VarianceTable:
    """Balanced factorial ANOVA decomposition of a response.

    Factors are e, c, edge budget and topology (those with at least two
    levels among the rows).  When the e and c levels pair one-to-one, as
    in ``ec_pairs`` designs that move both rates together, they enter as
    a single ``rates`` factor: a crossed e x c grid would have only its
    diagonal present.  The design must be complete and balanced: every
    factor-level combination present with the same replicate count.  Rows
    carrying errors are rejected.
    """
    if not rows:
        raise ValueError("no rows")
    bad = [r for r in rows if r.error]
    if bad:
        raise ValueError(f"{len(bad)} rows carry errors; decomposition needs a clean run")
    n_pairs = len({(r.e, r.c) for r in rows})
    if n_pairs > 1 and len({r.e for r in rows}) == len({r.c for r in rows}) == n_pairs:
        rate_factors = {"rates": lambda r: (r.e, r.c)}
    else:
        rate_factors = {"e": lambda r: r.e, "c": lambda r: r.c}
    factor_of = {
        **rate_factors,
        "edges": lambda r: r.n_edges,
        "topology": lambda r: r.topology,
    }
    levels = {name: sorted({f(r) for r in rows}) for name, f in factor_of.items()}
    factors = [name for name in factor_of if len(levels[name]) > 1]
    if not factors:
        raise ValueError("no factor varies across the rows")
    combos: dict[tuple, int] = {}
    for r in rows:
        key = tuple(factor_of[f](r) for f in factors)
        combos[key] = combos.get(key, 0) + 1
    n_cells = math.prod(len(levels[f]) for f in factors)
    if len(combos) != n_cells or len(set(combos.values())) != 1:
        raise ValueError(
            f"unbalanced design: {len(combos)} of {n_cells} cells present "
            f"with replicate counts {sorted(set(combos.values()))}"
        )

    y = np.array([_response_value(r, response) for r in rows])
    grand = float(y.mean())
    ss_total = float(((y - grand) ** 2).sum())
    if ss_total <= 0.0:
        return VarianceTable(response, (), 0.0, 0.0, 0.0, float("nan"), True)

    # One array indexed by level: axis k runs over factor k's levels and the
    # last axis over a cell's replicates.
    index = [np.array([levels[f].index(factor_of[f](r)) for r in rows]) for f in factors]
    cube = y[np.lexsort(index[::-1])].reshape(*(len(levels[f]) for f in factors), -1)
    terms = []
    ss_explained = 0.0
    for order in range(1, len(factors) + 1):
        for axes in itertools.combinations(range(len(factors)), order):
            effect = cube.mean(axis=tuple(a for a in range(cube.ndim) if a not in axes))
            # Centring along each of the term's axes is the inclusion-exclusion
            # over its lower-order terms.
            for a in range(order):
                effect = effect - effect.mean(axis=a, keepdims=True)
            ss = float(y.size / effect.size * (effect ** 2).sum())
            ss_explained += ss
            terms.append((":".join(factors[a] for a in axes), ss, ss / ss_total))
    residual = max(0.0, ss_total - ss_explained)
    return VarianceTable(
        response=response,
        terms=tuple(terms),
        residual_ss=residual,
        residual_share=residual / ss_total,
        ss_total=ss_total,
        r_squared=ss_explained / ss_total,
        degenerate=False,
    )


def write_variance_csv(table: VarianceTable, path: str | Path) -> None:
    write_csv(path, ["term", "sum_sq", "share"], [
        *table.terms,
        ("residual", table.residual_ss, table.residual_share),
        ("total", table.ss_total, 0.0 if table.degenerate else 1.0),
    ])


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _five_topologies(n_communities: int) -> tuple[TopologyFactor, ...]:
    return (
        TopologyFactor("ER", "ER"),
        TopologyFactor("COM", "COM", n_communities=n_communities,
                       intra_inter_ratio=100.0),
        TopologyFactor("LAT", "LAT"),
        TopologyFactor("PA1", "PA", power=1.0),
        TopologyFactor("PA3", "PA", power=3.0),
    )


def preset_grid_n10(master_seed: int = 10) -> Design:
    """Full 3x3x3 grid on ten patches, five topologies, exact chain."""
    return Design(
        name="grid-n10", n=10,
        topologies=_five_topologies(n_communities=2),
        e_values=(0.05, 0.10, 0.15), c_values=(0.01, 0.05, 0.10),
        densities=(0.30, 0.50, 0.70),
        n_gen=100, n_network_replicates=10, estimator="auto",
        master_seed=master_seed,
    )


def preset_grid_n100(master_seed: int = 100) -> Design:
    """Full 3x3x3 grid on a hundred patches, five topologies, simulation."""
    return Design(
        name="grid-n100", n=100,
        topologies=_five_topologies(n_communities=5),
        e_values=(0.10, 0.20, 0.25), c_values=(0.001, 0.005, 0.010),
        densities=(0.05, 0.10, 0.30),
        n_gen=100, n_network_replicates=10, n_sim_reps=10_000,
        estimator="auto", master_seed=master_seed,
    )


def preset_contrast_n100(master_seed: int = 300) -> Design:
    """Single harsh cell where only hub-dominated networks persist."""
    return Design(
        name="contrast-n100", n=100,
        topologies=_five_topologies(n_communities=5),
        ec_pairs=((0.25, 0.01),), densities=(0.30,),
        n_gen=100, n_network_replicates=20, n_sim_reps=10_000,
        estimator="auto", master_seed=master_seed,
    )


def scenario_presets(master_seed: int = 500) -> list[Design]:
    """Ten single-topology designs over two network sizes.

    Each crosses e in {0.1, 0.5, 0.8} with c tied as c = e / ratio for a
    ratio of 1 or 5, over a 30-generation horizon; small networks have 50
    nodes and 263 edges, large ones 500 nodes and 2682 edges, and the
    community networks use ten communities with a 10:1 weight ratio.  The
    hub-dominated designs use strongly concentrated attachment (power 3):
    with even attachment the large networks lose the hub that carries
    persistence through harsh extinction regimes.
    """
    er = TopologyFactor("ER", "ER")
    pa = TopologyFactor("PA", "PA", power=3.0)
    com = TopologyFactor("COM", "COM", n_communities=10, intra_inter_ratio=10.0)
    sizes = {50: (263, (er, pa)), 500: (2682, (er, pa, com))}
    out = []
    for n, (n_edges, topos) in sizes.items():
        for topo in topos:
            for ratio in (1, 5):
                out.append(Design(
                    name=f"{topo.label.lower()}{n}-r{ratio}",
                    n=n, topologies=(topo,),
                    ec_pairs=tuple((e, e / ratio) for e in (0.1, 0.5, 0.8)),
                    n_edges_values=(n_edges,),
                    n_gen=30, n_network_replicates=10, n_sim_reps=10_000,
                    estimator="auto", master_seed=master_seed,
                ))
    return out


_PRESET_BUILDERS = {
    "grid-n10": preset_grid_n10,
    "grid-n100": preset_grid_n100,
    "contrast-n100": preset_contrast_n100,
}


def preset_names() -> list[str]:
    return [*_PRESET_BUILDERS, *(d.name for d in scenario_presets())]


def preset(name: str, master_seed: int | None = None) -> Design:
    if name in _PRESET_BUILDERS:
        build = _PRESET_BUILDERS[name]
        return build() if master_seed is None else build(master_seed)
    for d in scenario_presets() if master_seed is None else scenario_presets(master_seed):
        if d.name == name:
            return d
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")


# ---------------------------------------------------------------------------
# topology comparison summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    """Topology means for one (e, e/c) cell, ordered large to small."""

    e: float
    ec_ratio: float
    response: str
    ordering: tuple[tuple[str, float], ...]
    symbols: tuple[str, ...]
    text: str


def _relation(larger: float, smaller: float) -> str:
    if larger <= 0.0:
        return RELATION_BINS[0][1]
    rel = (larger - smaller) / larger
    for cutoff, symbol in RELATION_BINS:
        if rel < cutoff:
            return symbol
    return RELATION_WIDE


def scenario_compare(rows: list[ResultRow]) -> list[ComparisonRow]:
    """Order topologies within each (e, e/c) cell and attach relation symbols,
    for persistence and then occupancy.

    Relative differences are taken against the larger value: under 2% reads
    as equivalent, then increasing, strong and dominant bins at 10% and
    50%.
    """
    out = []
    keys = sorted({(r.e, round(r.e / r.c, 9)) for r in rows if r.c > 0})
    for response in ("persistence", "occupancy"):
        for e, ratio in keys:
            cell = [r for r in rows if r.e == e and r.c > 0
                    and round(r.e / r.c, 9) == ratio]
            by_topo: dict[str, list[float]] = {}
            for r in cell:
                by_topo.setdefault(r.topology, []).append(
                    _response_value(r, response))
            vals = {t: float(np.mean(v)) for t, v in by_topo.items()}
            ordering = tuple(sorted(vals.items(), key=lambda kv: -kv[1]))
            symbols = tuple(
                _relation(ordering[i][1], ordering[i + 1][1])
                for i in range(len(ordering) - 1)
            )
            parts = [f"{ordering[0][0]}={ordering[0][1]:.3g}"]
            for sym, (topo, val) in zip(symbols, ordering[1:]):
                parts.append(f"{sym} {topo}={val:.3g}")
            out.append(ComparisonRow(e, ratio, response, ordering, symbols,
                                     " ".join(parts)))
    return out


def write_comparison_csv(comparisons: list[ComparisonRow], path: str | Path) -> None:
    write_csv(path, ["response", "e", "ec_ratio", "ordering"],
              ((c.response, c.e, c.ec_ratio, c.text) for c in comparisons))
