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

Also provided: the leading adjacency eigenvalue via power iteration, a
density-to-edge-count conversion, and a canonical JSON file format.
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
    "TopologySpec",
    "TOPOLOGY_KINDS",
    "density_to_n_edges",
    "gen_community",
    "gen_erdos_renyi",
    "gen_lattice",
    "gen_pref_attach",
    "leading_adjacency_eigenvalue",
    "read_graph_json",
    "write_graph_json",
]

# Rejection caps and iteration limits.
MAX_DRAWS = 10_000
LATTICE_FILLS = 100
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
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

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
    if not intra_inter_ratio >= 1.0:  # written so that NaN fails
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


def gen_lattice(n: int, n_edges: int, rng: np.random.Generator) -> Graph:
    """Near-regular graph: ring backbone plus degree-targeted uniform fill.

    Every node is assigned a target degree equal to one of the two integers
    bracketing ``2 * n_edges / n`` (exactly ``2 * n_edges mod n`` nodes take
    the larger value, chosen at random), so the realised degree spread is at
    most one.  Starting from a cycle through all nodes (a path when
    ``n_edges == n - 1``), the remaining edges are placed uniformly among
    pairs of nodes with unmet targets; a fill that dead-ends is restarted
    with a fresh target assignment.  If ``LATTICE_FILLS`` fills all fail, a
    deterministic ring-distance construction takes over (degree spread at
    most two).
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
    for _ in range(LATTICE_FILLS):
        targets = np.full(n, low, dtype=np.intp)
        if n_high:
            targets[rng.choice(n, size=n_high, replace=False)] += 1
        extra = _fill_to_targets(n, base, remaining, targets, rng)
        if extra is not None:
            return Graph(n, tuple(base) + tuple(extra))
    return _ring_distance_graph(n, n_edges, rng)


def _fill_to_targets(n, base, remaining, targets, rng):
    """One fill attempt; returns the extra edges or None on a dead end.

    Each pick is the pair ``rng.choice(len(eligible), size=2,
    replace=False)`` would return, computed by ``_Words.pair`` from 32-bit
    words drawn in bulk, and ``rng`` is left exactly where those calls would
    have left it.  numpy does not promise that ``Generator.choice`` keeps its
    algorithm across versions (NEP 19); fixing the words each pick reads
    fixes the graphs.
    """
    deg = [0] * n
    targets = targets.tolist()
    present = set(base)
    for u, v in base:
        deg[u] += 1
        deg[v] += 1
    if any(d > t for d, t in zip(deg, targets)):
        return None
    eligible = [i for i in range(n) if deg[i] < targets[i]]
    extra: list[tuple[int, int]] = []
    with _Words(rng, 4 * remaining) as words:
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
                i, j = words.pair(len(eligible))
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


_WORD_MASK = 0xFFFFFFFF


class _Words:
    """numpy's bounded-integer draws, computed from 32-bit words drawn in bulk.

    Inside ``Generator.integers`` and ``Generator.choice``, numpy bounds a
    range that fits in 32 bits with Lemire's method (Lemire 2019, ACM TOMACS
    29:3) on one 32-bit word per try.  ``bounded`` repeats that arithmetic on
    words taken from ``rng.integers(0, 2**32, size=k, dtype=np.uint32)``,
    which reads the same stream, so one bulk draw replaces many calls.
    Leaving the ``with`` block rewinds ``rng`` and redraws only the words
    used, so it sits where the one-at-a-time calls would have left it.
    """

    def __init__(self, rng: np.random.Generator, chunk: int) -> None:
        self.rng = rng
        self.start = rng.bit_generator.state
        self.size = max(chunk, 64)
        self.chunks: list = []
        # The word stream must not hold self: a cycle would keep every
        # fill's words alive until the garbage collector runs.
        self.next_word = _word_stream(rng, self.size, self.chunks).__next__

    def bounded(self, r: int) -> int:
        """What ``rng.integers(r + 1)`` returns, for ``0 <= r < 2**32 - 1``;
        ``r == 0`` reads no word."""
        if r == 0:
            return 0
        span = r + 1
        prod = self.next_word() * span
        if prod & _WORD_MASK < span:
            threshold = (_WORD_MASK - r) % span
            while prod & _WORD_MASK < threshold:
                prod = self.next_word() * span
        return prod >> 32

    def pair(self, m: int) -> tuple[int, int]:
        """What ``rng.choice(m, size=2, replace=False)`` returns: numpy takes
        a 2-subset by Floyd's algorithm (Bentley & Floyd 1987, CACM 30:754)
        at every ``m`` and then shuffles it with one bounded draw."""
        a = self.bounded(m - 2)
        b = self.bounded(m - 1)
        if b == a:
            b = m - 1
        return (b, a) if self.bounded(1) == 0 else (a, b)

    def __enter__(self) -> "_Words":
        return self

    def __exit__(self, *exc) -> None:
        used = self.size * len(self.chunks) - (
            self.chunks[-1].__length_hint__() if self.chunks else 0)
        self.rng.bit_generator.state = self.start
        self.rng.integers(0, 1 << 32, size=used, dtype=np.uint32)


def _word_stream(rng, size, chunks):
    """``rng``'s 32-bit words, drawn ``size`` at a time; each chunk's
    iterator is also appended to ``chunks`` so the words used can be
    counted."""
    while True:
        chunks.append(iter(rng.integers(0, 1 << 32, size=size, dtype=np.uint32).tolist()))
        yield from chunks[-1]


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

    Each arrival draws its ``m_k`` uniforms at once with ``rng.random(m_k)``;
    these are the doubles that ``m_k`` calls of ``rng.choice(k, p=...)``
    would read, one per pick, and each pick inverts the cdf exactly as that
    call does (cumulative sum of the normalised weights, rescaled by its
    last entry, ``searchsorted`` to the right).  The graphs are therefore
    the ones per-pick ``choice`` calls give, without depending on numpy
    keeping ``Generator.choice``'s algorithm across versions (NEP 19).
    """
    _check_counts(n, n_edges)
    if not power > 0:  # written so that NaN fails
        raise ValueError("power must be positive")
    if n == 1:
        return Graph(1, ())
    ms = _pa_arrival_counts(n, n_edges, rng)
    # The first arrival can only join node 0 (numpy's choice from a
    # one-node pool reads no random word).
    edges: list[tuple[int, int]] = [(0, 1)]
    deg = np.zeros(n)
    deg[:2] = 1
    for k in range(2, n):
        m = ms[k - 1]
        # Within one arrival only taken nodes gain degree, so weights at
        # arrival time and "current" weights agree for the untaken; a taken
        # node's weight drops to zero.
        w = deg[:k] ** power
        for u in rng.random(m):
            cdf = np.cumsum(w / w.sum())
            cdf /= cdf[-1]
            if math.isnan(cdf[-1]):
                raise ValueError(f"degree weights overflow float64 at power {power}")
            t = int(cdf.searchsorted(u, side="right"))
            w[t] = 0.0
            edges.append((t, k))
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
# spectral
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
        if self.kind == "PA" and (self.power is None or not self.power > 0):
            raise ValueError("PA needs a positive power")
        if self.kind == "COM":
            if not self.n_communities or not 1 <= self.n_communities <= self.n:
                raise ValueError("COM needs n_communities in [1, n]")
            if self.intra_inter_ratio is None or not self.intra_inter_ratio >= 1:
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
    """The format ``write_graph_json`` writes; ``n`` and every endpoint must
    be a JSON integer (``1.9`` or ``true`` would otherwise load as 1)."""
    payload = json.loads(Path(path).read_text())
    n, edges = payload["n"], [tuple(pair) for pair in payload["edges"]]
    values = [n, *(x for pair in edges for x in pair)]
    if any(type(x) is not int for x in values):
        raise ValueError("n and edge endpoints must be integers")
    return Graph(n, edges)

