"""Random graph generators with exact edge counts and a connectivity guarantee.

Four families are supported, all returning simple undirected graphs on a
fixed number of nodes with an exact number of edges and a single connected
component:

* ``gen_erdos_renyi``   -- uniform draw over all edge subsets of the given size
* ``gen_community``     -- planted communities, intra-community pairs upweighted
* ``gen_lattice``       -- cycle (or path) backbone filled to near-regular
  degree targets
* ``gen_pref_attach``   -- sequential arrivals attaching proportionally to
  degree raised to a power

Generators that sample edge sets in one shot (ER, community) enforce
connectivity by rejection: the whole edge set is redrawn until it spans a
single component or the draw cap is hit.  The lattice and preferential
attachment constructions are connected by design.

Also provided: the leading adjacency eigenvalue via power iteration, summary
metrics, a density-to-edge-count conversion, and canonical JSON / edge-list
file formats.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ConvergenceError",
    "GenerationError",
    "Graph",
    "GraphMetrics",
    "TopologySpec",
    "TOPOLOGY_KINDS",
    "density_to_n_edges",
    "gen_community",
    "gen_erdos_renyi",
    "gen_lattice",
    "gen_pref_attach",
    "graph_metrics",
    "leading_adjacency_eigenvalue",
    "read_graph_json",
    "write_graph_json",
]

# Rejection caps and iteration limits.
MAX_DRAWS = 10_000
EIG_TOL = 1e-10
EIG_MAX_ITER = 100_000


class GenerationError(RuntimeError):
    """A generator could not produce a valid graph within its work cap."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonical edge storage.

    Edges are stored as ``(u, v)`` with ``u < v``, sorted lexicographically,
    with no duplicates and no self-loops.  Any iterable of pairs is accepted
    by the constructor and canonicalised; duplicates raise.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        canon = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def density(self) -> float:
        pairs = self.n * (self.n - 1) // 2
        return self.n_edges / pairs if pairs else 0.0

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (n_edges, 2) int array (empty-safe)."""
        if not self.edges:
            return np.empty((0, 2), dtype=np.intp)
        return np.asarray(self.edges, dtype=np.intp)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64)."""
        a = np.zeros((self.n, self.n))
        ea = self.edge_array
        a[ea[:, 0], ea[:, 1]] = 1.0
        a[ea[:, 1], ea[:, 0]] = 1.0
        return a

    @cached_property
    def sparse_adjacency(self):
        """Symmetric 0/1 adjacency as a ``scipy.sparse.csr_array`` with integer
        data: int16 while every degree is below 2**15, else int32, so a boolean
        block times it counts neighbours exactly."""
        from scipy.sparse import csr_array
        dtype = np.int16 if self.degrees.max() < 1 << 15 else np.int32
        ends = np.concatenate([self.edge_array, self.edge_array[:, ::-1]]).T
        return csr_array((np.ones(ends.shape[1], dtype), ends), shape=(self.n, self.n))

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.intp)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def is_connected(self) -> bool:
        return _edges_connect(self.n, self.edge_array)

    def fingerprint(self) -> str:
        """Short stable hash of (n, edge set), for result provenance."""
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        h.update(self.edge_array.tobytes())
        return h.hexdigest()[:12]


def _edges_connect(n: int, edge_array: np.ndarray) -> bool:
    """True if the edge set spans a single component over n nodes."""
    if n == 1:
        return True
    if len(edge_array) < n - 1:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_array:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def _check_counts(n: int, n_edges: int) -> None:
    pairs = n * (n - 1) // 2
    if n < 1:
        raise ValueError("n must be positive")
    if n_edges < n - 1:
        raise ValueError(f"n_edges={n_edges} cannot connect {n} nodes")
    if n_edges > pairs:
        raise ValueError(f"n_edges={n_edges} exceeds the {pairs} available pairs")


def density_to_n_edges(density: float, n: int) -> int:
    """Convert an edge density to an edge count, rounding half up.

    A one-in-a-billion slack keeps short decimals on the intended side of
    the boundary (0.7 * 45 evaluates just below 31.5 in floating point).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return int(math.floor(density * (n * (n - 1) // 2) + 0.5 + 1e-9))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_erdos_renyi(n: int, n_edges: int, rng: np.random.Generator) -> Graph:
    """Uniform connected graph with exactly ``n_edges`` edges.

    The edge set is a uniform draw over all ``n_edges``-subsets of the
    ``n (n-1) / 2`` node pairs; draws are rejected until the graph is
    connected.  The accepted graph is therefore uniform over connected
    graphs with that edge count.

    Raises
    ------
    GenerationError
        If no connected draw is found within ``MAX_DRAWS`` attempts.
    """
    _check_counts(n, n_edges)
    uu, vv = np.triu_indices(n, k=1)
    for _ in range(MAX_DRAWS):
        idx = rng.choice(len(uu), size=n_edges, replace=False)
        ea = np.column_stack((uu[idx], vv[idx]))
        if _edges_connect(n, ea):
            return Graph(n, tuple(map(tuple, ea)))
    raise GenerationError(
        f"no connected draw in {MAX_DRAWS} attempts (n={n}, n_edges={n_edges})"
    )


def _community_labels(n: int, n_communities: int) -> np.ndarray:
    """Community id per node; sizes as equal as possible."""
    base, extra = divmod(n, n_communities)
    sizes = [base + (1 if i < extra else 0) for i in range(n_communities)]
    return np.repeat(np.arange(n_communities), sizes)


def gen_community(
    n: int,
    n_edges: int,
    n_communities: int,
    intra_inter_ratio: float,
    rng: np.random.Generator,
) -> Graph:
    """Community-structured graph: intra-community pairs are upweighted.

    The edge set is a weighted sample without replacement of ``n_edges``
    pairs, where a pair inside a community carries weight
    ``intra_inter_ratio`` and a pair across communities carries weight 1.
    Sampling uses the exponential-race scheme, which is equivalent to
    successive weighted draws without replacement.  Connectivity is enforced
    by redrawing, as in ``gen_erdos_renyi``.
    """
    _check_counts(n, n_edges)
    if not 1 <= n_communities <= n:
        raise ValueError("n_communities must lie in [1, n]")
    if intra_inter_ratio < 1.0:
        raise ValueError("intra_inter_ratio must be >= 1")
    labels = _community_labels(n, n_communities)
    uu, vv = np.triu_indices(n, k=1)
    weights = np.where(labels[uu] == labels[vv], float(intra_inter_ratio), 1.0)
    n_pairs = len(uu)
    for _ in range(MAX_DRAWS):
        if n_edges == n_pairs:
            idx = np.arange(n_pairs)
        else:
            keys = rng.exponential(size=n_pairs) / weights
            idx = np.argpartition(keys, n_edges)[:n_edges]
        ea = np.column_stack((uu[idx], vv[idx]))
        if _edges_connect(n, ea):
            return Graph(n, tuple(map(tuple, ea)))
    raise GenerationError(
        f"no connected draw in {MAX_DRAWS} attempts "
        f"(n={n}, n_edges={n_edges}, k={n_communities})"
    )


def gen_lattice(
    n: int,
    n_edges: int,
    rng: np.random.Generator,
    allow_fallback: bool = True,
    max_restarts: int = 100,
) -> Graph:
    """Near-regular graph: ring backbone plus degree-targeted uniform fill.

    Every node is assigned a target degree equal to one of the two integers
    bracketing ``2 * n_edges / n`` (exactly ``2 * n_edges mod n`` nodes take
    the larger value, chosen at random), so the realised degree spread is at
    most one.  Starting from a cycle through all nodes (a path when
    ``n_edges == n - 1``), the remaining edges are placed uniformly among
    pairs of nodes with unmet targets; a fill that dead-ends is restarted
    with a fresh target assignment.  If ``max_restarts`` fills all fail, a
    deterministic ring-distance construction takes over (degree spread at
    most two) unless ``allow_fallback`` is False, in which case the
    generator raises.
    """
    _check_counts(n, n_edges)
    if n_edges == n - 1:
        # a path realises the bracketing targets (two ends low, rest high)
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    if n < 3:
        raise ValueError("a cycle backbone needs n >= 3")
    base = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    low = 2 * n_edges // n
    n_high = 2 * n_edges - n * low
    remaining = n_edges - n
    for _ in range(max_restarts):
        targets = np.full(n, low, dtype=np.intp)
        if n_high:
            targets[rng.choice(n, size=n_high, replace=False)] += 1
        extra = _fill_to_targets(n, base, remaining, targets, rng)
        if extra is not None:
            return Graph(n, tuple(base) + tuple(extra))
    if not allow_fallback:
        raise GenerationError(
            f"could not realise degrees {{{low}, {low + 1}}} in "
            f"{max_restarts} fills (n={n}, n_edges={n_edges})"
        )
    return _ring_distance_graph(n, n_edges, rng)


def _fill_to_targets(n, base, remaining, targets, rng):
    """One fill attempt; returns the extra edges or None on a dead end."""
    deg = np.zeros(n, dtype=np.intp)
    present = set(base)
    for u, v in base:
        deg[u] += 1
        deg[v] += 1
    if np.any(deg > targets):
        return None
    eligible = [i for i in range(n) if deg[i] < targets[i]]
    extra: list[tuple[int, int]] = []
    for _ in range(remaining):
        placed = False
        # Rejection sampling is uniform over admissible pairs; scan for a
        # dead end only after a long miss streak.
        misses, miss_cap = 0, 50 + 8 * len(eligible)
        while not placed:
            if len(eligible) < 2:
                return None
            if misses > miss_cap:
                if not _any_admissible(eligible, present):
                    return None
                misses = 0
            i, j = rng.choice(len(eligible), size=2, replace=False)
            u, v = eligible[i], eligible[j]
            if u > v:
                u, v = v, u
            if (u, v) in present:
                misses += 1
                continue
            present.add((u, v))
            extra.append((u, v))
            for x in (u, v):
                deg[x] += 1
                if deg[x] >= targets[x]:
                    eligible.remove(x)
            placed = True
    return extra


def _ring_distance_graph(n, n_edges, rng):
    """Fallback lattice: fill ring-distance classes in order.

    Distance classes 1, 2, ... are taken whole while the budget allows; the
    final class is a consecutive run starting at a random offset.  Degrees
    land within two of each other and the distance-1 ring keeps the graph
    connected.
    """
    edges: list[tuple[int, int]] = []
    remaining = n_edges
    for d in range(1, n // 2 + 1):
        if 2 * d == n:
            cls = [(i, i + d) for i in range(n - d)]
        else:
            cls = [tuple(sorted((i, (i + d) % n))) for i in range(n)]
        if remaining >= len(cls):
            edges.extend(cls)
            remaining -= len(cls)
        else:
            start = int(rng.integers(len(cls)))
            edges.extend(cls[(start + t) % len(cls)] for t in range(remaining))
            remaining = 0
        if remaining == 0:
            break
    return Graph(n, tuple(edges))


def _any_admissible(eligible, present) -> bool:
    for a in range(len(eligible)):
        for b in range(a + 1, len(eligible)):
            u, v = eligible[a], eligible[b]
            if u > v:
                u, v = v, u
            if (u, v) not in present:
                return True
    return False


def gen_pref_attach(
    n: int,
    n_edges: int,
    power: float,
    rng: np.random.Generator,
) -> Graph:
    """Preferential attachment with an exact total edge count.

    Nodes arrive one at a time; arrival ``k`` connects to ``m_k`` distinct
    existing nodes chosen without replacement with probability proportional
    to ``degree ** power``.  Every arrival places at least one edge and the
    excess budget is spread evenly over the arrivals (capped by the number
    of nodes already present), so the per-arrival counts land exactly on
    ``n_edges`` while staying near-constant, as in classic growth models.
    Connected by construction.
    """
    _check_counts(n, n_edges)
    if power <= 0:
        raise ValueError("power must be positive")
    if n == 1:
        return Graph(1, ())
    ms = _pa_arrival_counts(n, n_edges, rng)
    deg = np.zeros(n)
    edges: list[tuple[int, int]] = []
    for k in range(1, n):
        m = ms[k - 1]
        # Within one arrival only taken nodes gain degree, so weights at
        # arrival time and "current" weights agree for the untaken.
        w = deg[:k] ** power
        taken = np.zeros(k, dtype=bool)
        for _ in range(m):
            w_eff = np.where(taken, 0.0, w)
            total = w_eff.sum()
            if total <= 0.0:
                # Only the very first attachment sees an all-zero degree pool.
                t = int(rng.choice(np.flatnonzero(~taken)))
            else:
                t = int(rng.choice(k, p=w_eff / total))
            edges.append((t, k))
            taken[t] = True
            deg[t] += 1
        deg[k] = m
    return Graph(n, tuple(edges))


def _pa_arrival_counts(n: int, n_edges: int, rng: np.random.Generator) -> list[int]:
    """Edge counts per arrival: one guaranteed edge, excess spread evenly.

    Arrival ``k`` can reach at most ``k`` earlier nodes.  Drawing each count
    uniformly from its whole feasible range would front-load the budget into
    a dense clique-like core among the earliest arrivals, which stops
    looking like preferential attachment well before the budget runs out;
    spreading the excess keeps the counts near ``n_edges / (n - 1)``.
    """
    ms = np.ones(n - 1, dtype=np.int64)
    caps = np.arange(1, n)
    excess = n_edges - (n - 1)
    while excess > 0:
        room = np.flatnonzero(ms < caps)
        picks = rng.choice(room, size=min(excess, room.size), replace=False)
        ms[picks] += 1
        excess -= picks.size
    return [int(m) for m in ms]


# ---------------------------------------------------------------------------
# spectral / metrics
# ---------------------------------------------------------------------------

def leading_adjacency_eigenvalue(graph: Graph) -> float:
    """Largest adjacency eigenvalue by power iteration.

    Iterates on ``A + I`` so that bipartite graphs (where ``-lambda_1`` is
    also an eigenvalue) still converge, and stops when successive Rayleigh
    quotients of ``A`` differ by less than ``EIG_TOL``.
    """
    a = graph.adjacency_matrix
    x = np.full(graph.n, 1.0 / math.sqrt(graph.n))
    r_prev = math.inf
    for _ in range(EIG_MAX_ITER):
        ax = a @ x
        r = float(x @ ax)
        if abs(r - r_prev) < EIG_TOL:
            return r
        r_prev = r
        y = ax + x
        x = y / np.linalg.norm(y)
    raise ConvergenceError(
        f"power iteration did not reach tol={EIG_TOL} in {EIG_MAX_ITER} steps")


@dataclass(frozen=True)
class GraphMetrics:
    """Summary statistics of a graph."""

    n: int
    n_edges: int
    density: float
    degree_sequence: tuple[int, ...]
    max_degree: int
    mean_degree: float
    lambda1: float
    connected: bool


def graph_metrics(graph: Graph) -> GraphMetrics:
    """Compute density, degree statistics and the leading eigenvalue."""
    deg = graph.degrees
    return GraphMetrics(
        n=graph.n,
        n_edges=graph.n_edges,
        density=graph.density,
        degree_sequence=tuple(sorted((int(d) for d in deg), reverse=True)),
        max_degree=int(deg.max()) if graph.n else 0,
        mean_degree=float(deg.mean()),
        lambda1=leading_adjacency_eigenvalue(graph),
        connected=graph.is_connected(),
    )


# ---------------------------------------------------------------------------
# declarative topology specs (used by the experiment harness)
# ---------------------------------------------------------------------------

TOPOLOGY_KINDS = ("ER", "COM", "LAT", "PA")


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a generator call.

    ``kind`` is one of ``ER``, ``COM``, ``LAT``, ``PA``.  ``power`` applies
    to PA; ``n_communities`` and ``intra_inter_ratio`` apply to COM.
    """

    kind: str
    n: int
    n_edges: int
    power: float | None = None
    n_communities: int | None = None
    intra_inter_ratio: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}")
        _check_counts(self.n, self.n_edges)
        if self.kind == "PA" and (self.power is None or self.power <= 0):
            raise ValueError("PA needs a positive power")
        if self.kind == "COM":
            if not self.n_communities or not 1 <= self.n_communities <= self.n:
                raise ValueError("COM needs n_communities in [1, n]")
            if self.intra_inter_ratio is None or self.intra_inter_ratio < 1:
                raise ValueError("COM needs intra_inter_ratio >= 1")
        if self.label is None:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.kind == "PA":
            p = self.power
            return f"PA{p:g}" if p != 1 else "PA"
        return self.kind

    def generate(self, rng: np.random.Generator) -> Graph:
        if self.kind == "ER":
            return gen_erdos_renyi(self.n, self.n_edges, rng)
        if self.kind == "COM":
            return gen_community(self.n, self.n_edges, self.n_communities,
                                 self.intra_inter_ratio, rng)
        if self.kind == "LAT":
            return gen_lattice(self.n, self.n_edges, rng)
        return gen_pref_attach(self.n, self.n_edges, self.power, rng)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_graph_json(graph: Graph, path: str | Path) -> None:
    """Canonical JSON: ``{"n": n, "edges": [[u, v], ...]}`` sorted, u < v."""
    payload = {"n": graph.n, "edges": [[u, v] for u, v in graph.edges]}
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def read_graph_json(path: str | Path) -> Graph:
    payload = json.loads(Path(path).read_text())
    return Graph(int(payload["n"]), tuple((int(u), int(v)) for u, v in payload["edges"]))

