"""Exact finite-chain analysis of the extinction-colonisation kernel.

The occupancy process on ``n`` patches is a Markov chain on the ``2**n``
bitmask states, with state 0 absorbing.  One generation is two phases:

* extinction, ``E[z, z']`` -- nonzero only for ``z'`` a subset of ``z``,
  with probability ``e**(|z|-|z'|) * (1-e)**|z'|``.  It is the Kronecker
  power of one 2 x 2 factor per patch, never stored whole;
* colonisation, ``C[z, z']`` -- nonzero only for ``z`` a subset of ``z'``:
  each empty patch turns on independently with probability
  ``1 - (1-c)**o`` where ``o`` counts its occupied neighbours in ``z``.

``TransitionMatrices`` is that generation as one operator.  Its ``apply``
gathers the vector into split order, applies the extinction there in
Kronecker blocks of four patches (the shuffle algorithm; Fernandes, Plateau
& Stewart 1998), then a colonisation sweep that eliminates the patches one
at a time in that order (bucket elimination, Dechter 1999), and gathers the
result back.  Each patch's source bit is split into a (source, target)
digit, which collapses to the target bit once all the patch's neighbours are
split, so only the frontier between split and unsplit patches is held as
pairs.  ``apply`` drives every propagation here -- finite horizons and an
extinction-probability grid over ``(e, c)``.  The quasi-stationary
distribution (left Perron eigenvector of the transient block ``R``) with its
spectral diagnostics, and mean extinction times, come from Krylov solvers
that only call ``apply``: implicitly restarted Arnoldi (ARPACK) and GMRES,
through ``scipy.sparse.linalg``, which is imported only when they run.  No
path forms a ``2**n x 2**n`` array; the dense ``E``, ``C`` and
``M = E @ C`` are built only on demand, as test oracles (``R`` is
``M[1:, 1:]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .dynamics import Params, estimate_crude, write_csv
from .netgen import ConvergenceError, Graph, leading_adjacency_eigenvalue

__all__ = [
    "HorizonTable",
    "QsdResult",
    "ConvergenceReport",
    "HeatmapResult",
    "TransitionMatrices",
    "build_transition",
    "convergence_diagnostics",
    "extinction_heatmap",
    "finite_horizon",
    "finite_horizon_matrix_free",
    "mean_extinction_time",
    "qsd",
    "write_heatmap_csv",
    "write_horizon_csv",
    "write_qsd_csv",
]

# build_transition's default cap, and the largest n of any exact path.  The
# sweep holds about 2**n * 1.5**f floats for a frontier of f patches: 208 MiB
# at n = 17 on an ER graph of density 0.3, about 2.3 GiB on K17 by count.
EXACT_CAP_DEFAULT = 12
MAX_N = 17
# Krylov solvers: ARPACK's relative residual and restart cap for the QSD;
# for mean times GMRES's backward error (residual relative to the size of
# the solution), cycle cap and Krylov dimension per cycle.  A cycle of 50
# took 0.74 s at n = 12 against 1.08 s for scipy's default of 20 (2-vCPU
# Xeon VM, one BLAS thread).
QSD_TOL = 1e-12
QSD_MAX_ITER = 100_000
MEAN_TIME_TOL = 1e-13
MEAN_TIME_MAX_CYCLES = 100
GMRES_RESTART = 50
# convergence_diagnostics: tail-ratio window and two-scale threshold.
TAIL_WINDOW = 10
TWO_SCALE_THRESHOLD = 0.5


def _check_cap(n: int, cap: int) -> None:
    if not 1 <= cap <= MAX_N:
        raise ValueError(f"exact state cap must lie in [1, {MAX_N}]")
    if n > cap:
        raise ValueError(f"n={n} exceeds the exact cap {cap}; raise it (max {MAX_N}) or simulate")


def _popcounts(n_states: int, n: int) -> np.ndarray:
    idx = np.arange(n_states, dtype=np.int64)
    pc = np.zeros(n_states, dtype=np.int64)
    for i in range(n):
        pc += (idx >> i) & 1
    return pc


def _apply_extinction_inplace(v: np.ndarray, n: int, e: float) -> np.ndarray:
    """v <- v @ E, one patch at a time, for a C-contiguous vector or matrix
    (acted on row by row)."""
    for i in range(n):
        a = v.reshape(-1, 2, 1 << i)
        a[:, 0, :] += e * a[:, 1, :]
        a[:, 1, :] *= 1.0 - e
    return v


def _left_extinction_inplace(w: np.ndarray, n: int, e: float) -> np.ndarray:
    """w <- E @ w for a C-contiguous vector, or a matrix whose rows are states.

    Builds the ``M`` oracle from ``C`` in O(n 4**n), where ``E @ C`` would
    cost O(8**n)."""
    width = w.size // w.shape[0]
    for i in range(n):
        a = w.reshape(-1, 2, width << i)
        a[:, 1, :] *= 1.0 - e
        a[:, 1, :] += e * a[:, 0, :]
    return w


def _colonisation_probabilities(graph: Graph, c: float) -> np.ndarray:
    """(n_states, n): P(bit i set after colonisation | source state z)."""
    idx = np.arange(1 << graph.n, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(graph.n)[None, :]) & 1).astype(np.float64)
    occupied_neighbours = bits @ graph.adjacency_matrix
    q = np.power(1.0 - c, occupied_neighbours)  # P(patch i not colonised)
    return np.where(bits > 0, 1.0, 1.0 - q)


@dataclass(frozen=True)
class TransitionMatrices:
    """One generation as an operator on distributions; coffin at index 0.

    ``p_set[z, i]`` is P(bit i set after colonisation | source state z).
    The colonisation sweep splits the patches in ``order``: ``tables[k]``
    holds ``p_set[z, order[k]]`` by the source bits of the unsplit patches
    (row) and the digits of the split ones (column), and ``retire[k]`` the
    inner block size of each digit that collapses after that split.
    ``E``, ``C`` and ``M = E @ C`` are dense copies built on each access,
    for tests to check against; no computation here reads them.  They keep
    the per-patch extinction, an oracle independent of ``apply``'s blocks.
    """

    n: int
    e: float
    c: float
    p_set: np.ndarray
    order: tuple[int, ...]
    tables: tuple[np.ndarray, ...]
    retire: tuple[tuple[int, ...], ...]

    @property
    def n_states(self) -> int:
        return 1 << self.n

    def apply(self, v: np.ndarray) -> np.ndarray:
        """One generation of a distribution (row vector): ``v @ E @ C``."""
        return self._propagate(v, self._extinction_blocks)

    def colonise(self, v: np.ndarray) -> np.ndarray:
        """``v @ C``."""
        return self._propagate(v, ())

    @cached_property
    def _sweep_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The sweep's two work arrays, each as large as its widest split."""
        size = 3 * max(p.size for p in self.tables)
        return np.empty(size), np.empty(size)

    @cached_property
    def _split_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather indices into split order (bit k is patch ``order[k]``) and back."""
        axes = [self.n - 1 - x for x in reversed(self.order)]
        states = np.arange(self.n_states).reshape((2,) * self.n)
        return states.transpose(axes).ravel(), states.transpose(np.argsort(axes)).ravel()

    @cached_property
    def _extinction_blocks(self) -> tuple[tuple[int, np.ndarray], ...]:
        """``E`` as (lowest bit, block) for each 4 bits of a state; a block is
        ``E`` on up to 4 patches, a Kronecker power of the one-patch factor."""
        powers = [np.array([[1.0, 0.0], [self.e, 1.0 - self.e]])]
        for _ in range(3):
            powers.append(np.kron(powers[-1], powers[0]))
        return tuple((lo, powers[min(4, self.n - lo) - 1]) for lo in range(0, self.n, 4))

    def _propagate(self, v: np.ndarray, blocks: tuple[tuple[int, np.ndarray], ...]) -> np.ndarray:
        """``v`` gathered into split order, times the extinction ``blocks``,
        then ``C`` by variable elimination along ``order``: a split turns a
        source bit into a digit, empty (weight ``1 - p``), colonised (``p``)
        or occupied, which collapses to its target bit once every neighbour
        is split.  Returns a new array; the work arrays are reused, so calls
        must not overlap."""
        work, i, s = self._sweep_buffers, 0, self.n_states
        # the indices are in range; with out=, mode "raise" would copy first
        a = np.take(np.asarray(v, dtype=float).reshape(s), self._split_order[0], mode="clip",
                    out=work[0][:s])
        for lo, block in blocks:
            a = a.reshape(-1, len(block), 1 << lo)
            i ^= 1
            b = work[i][:s].reshape(a.shape)
            if lo:
                a = np.matmul(block.T, a, out=b)
            else:  # one matrix product, not one per row
                a = np.matmul(a[..., 0], block, out=b[..., 0])
        for p, inners in zip(self.tables, self.retire):
            # own: the patch collapses as it splits (only its view is this wide)
            (rows, width), own = p.shape, p.shape[1] in inners
            i ^= 1
            b = work[i][:rows * (3 - own) * width].reshape(rows, 3 - own, width)
            a = a.reshape(rows, 2, width)
            np.multiply(a[:, 0], p, out=b[:, 1])
            np.subtract(a[:, 0], b[:, 1], out=b[:, 0])
            if own:
                b[:, 1] += a[:, 1]
            else:
                b[:, 2] = a[:, 1]
            for inner in inners[own:]:
                i ^= 1
                a, b = b.reshape(-1, 3, inner), work[i][:2 * b.size // 3].reshape(-1, 2, inner)
                b[:, 0] = a[:, 0]
                np.add(a[:, 1], a[:, 2], out=b[:, 1])
            a = b
        return np.take(a.ravel(), self._split_order[1])

    @property
    def E(self) -> np.ndarray:
        return _apply_extinction_inplace(np.eye(self.n_states), self.n, self.e)

    @property
    def C(self) -> np.ndarray:
        """Row ``z``: the outer product of ``(1 - p_set[z, i], p_set[z, i])``."""
        factors = np.stack((1.0 - self.p_set, self.p_set), axis=2)
        cm = np.ones((self.n_states, 1))
        for i in range(self.n):
            cm = (factors[:, i, :, None] * cm[:, None, :]).reshape(self.n_states, -1)
        return cm

    @property
    def M(self) -> np.ndarray:
        return _left_extinction_inplace(self.C, self.n, self.e)


def _times_r(tm: TransitionMatrices, x: np.ndarray) -> np.ndarray:
    """``x R``: one generation of a sub-distribution over the non-empty states."""
    return tm.apply(np.concatenate(([0.0], x)))[1:]


def _operator(graph: Graph, params: Params) -> TransitionMatrices:
    """The operator and its sweep plan.  Each split takes the patch that
    leaves the fewest split patches with an unsplit neighbour, then the one
    with the fewest unsplit neighbours, then the lowest."""
    n = graph.n
    p_set = _colonisation_probabilities(graph, params.c)
    nbrs = [np.flatnonzero(row).tolist() for row in graph.adjacency_matrix]
    left = [len(nb) for nb in nbrs]  # unsplit neighbours of each patch
    order, retire, radix = [], [], []  # radix[m]: 3, or 2 once digit m collapses
    for _ in range(n):
        x = min(set(range(n)).difference(order), key=lambda i: (
            (left[i] > 0) - sum(j in order and left[j] == 1 for j in nbrs[i]), left[i], i))
        order.append(x)
        radix.append(3)
        for j in nbrs[x]:
            left[j] -= 1
        # the digits that collapse, highest (latest split, widest blocks) first
        done = sorted((order.index(j) for j in (x, *nbrs[x]) if j in order and left[j] == 0),
                      reverse=True)
        retire.append(tuple(int(np.prod(radix[:pos])) for pos in done))
        for pos in done:
            radix[pos] = 2
    axes = [n - 1 - x for x in reversed(order)]  # state bits in split order
    p_split = p_set.reshape((2,) * n + (n,)).transpose(axes + [n]).reshape(-1, n)
    low, tables = np.zeros(1, dtype=np.int64), []  # column source bits, split order
    for k, (x, inners) in enumerate(zip(order, retire)):
        tables.append(p_split[:, x].reshape(-1, 2 << k)[:, low])
        low = np.concatenate((low, low, low + (1 << k)))
        for inner in inners:
            low = low.reshape(-1, 3, inner)[:, :2].ravel()
    return TransitionMatrices(n, params.e, params.c, p_set, tuple(order), tuple(tables),
                              tuple(retire))


def build_transition(
    graph: Graph,
    params: Params,
    cap: int = EXACT_CAP_DEFAULT,
) -> TransitionMatrices:
    """The one-generation operator for a graph and parameters."""
    _check_cap(graph.n, cap)
    return _operator(graph, params)


# ---------------------------------------------------------------------------
# finite-horizon propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorizonTable:
    """Per-generation summary of the exact state distribution.

    ``tail_conditioned`` optionally holds the distribution over non-empty
    states conditioned on survival for the last generations (keyed by t),
    which the convergence diagnostics compare against the quasi-stationary
    distribution.
    """

    n: int
    t: np.ndarray
    p_extinct: np.ndarray
    p_persist: np.ndarray
    mean_occ: np.ndarray
    cond_mean_occ: np.ndarray
    tail_conditioned: dict = field(default_factory=dict)


def finite_horizon(
    tm: TransitionMatrices,
    z0: int,
    n_gen: int,
    keep_tail: int = 0,
) -> HorizonTable:
    """Propagate the exact distribution ``n_gen`` generations from ``z0``.

    ``keep_tail`` retains the survival-conditioned distribution for that
    many final generations (needed by ``convergence_diagnostics``).
    """
    s = tm.n_states
    if not 0 <= z0 < s:
        raise ValueError(f"z0={z0} out of range")
    if n_gen < 0:
        raise ValueError("n_gen must be >= 0")
    pc = _popcounts(s, tm.n).astype(float)
    v = np.zeros(s)
    v[z0] = 1.0
    p0s, occs = np.empty(n_gen + 1), np.empty(n_gen + 1)
    tail: dict[int, np.ndarray] = {}
    for t in range(n_gen + 1):
        if t > 0:
            v = tm.apply(v)
        p0s[t], occs[t] = v[0], v @ pc
        if keep_tail and t > n_gen - keep_tail and p0s[t] < 1.0:
            tail[t] = v[1:] / (1.0 - p0s[t])
    persist = 1.0 - p0s
    cond = np.divide(occs, persist, out=np.zeros_like(occs), where=persist > 0.0)
    return HorizonTable(tm.n, np.arange(n_gen + 1), p0s, persist, occs, cond, tail)


def finite_horizon_matrix_free(graph: Graph, params: Params, z0: int, n_gen: int) -> HorizonTable:
    """``finite_horizon`` from a graph, for any ``n`` up to ``MAX_N``.

    On ER graphs of density 0.3 a generation took 0.004 s at ``n = 14``,
    0.026 s at 16 and 0.2 s at 17 (2-vCPU Xeon VM, one BLAS thread).
    """
    _check_cap(graph.n, MAX_N)
    return finite_horizon(_operator(graph, params), z0, n_gen)


# ---------------------------------------------------------------------------
# quasi-stationary distribution and spectral quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QsdResult:
    """Left Perron data of the transient block ``R``.

    ``alpha`` is the quasi-stationary distribution over non-empty states
    (index ``z - 1`` holds state ``z``); ``lambda1`` its eigenvalue, which
    equals the second-largest eigenvalue of the full chain, and
    ``lambda2_abs`` the modulus of the subdominant eigenvalue of ``R``,
    all from one Arnoldi run.  ``residual`` is
    ``max |alpha R - lambda1 alpha|`` and ``iterations`` the number of
    products ``x R`` that run made, not counting the residual's.
    """

    n: int
    lambda1: float
    alpha: np.ndarray
    lambda2_abs: float
    residual: float
    iterations: int

    @property
    def mean_occ(self) -> float:
        """Mean number of occupied patches under the QSD."""
        return float(self.alpha @ _popcounts(1 << self.n, self.n)[1:])


def qsd(tm: TransitionMatrices) -> QsdResult:
    """Quasi-stationary distribution of the chain and its spectral gap.

    Requires ``0 < e < 1`` and ``c > 0`` on a connected graph so that the
    transient block is irreducible and aperiodic and the left Perron vector
    is the unique limit of survival-conditioned distributions.  ``R`` is
    only ever applied, as ``x R = apply([0, x])[1:]``.  Implicitly restarted
    Arnoldi (ARPACK) on that map finds its two eigenvalues of largest
    modulus and gives ``lambda1``, ``alpha`` and ``lambda2_abs`` (a complex
    subdominant pair is native to it); it needs ``s > 3`` states, so
    smaller maps are assembled row by row and solved densely.  Round-off
    can leave entries of ``alpha`` with almost no mass slightly negative
    (-7e-19 on a preferential-attachment graph, ``n = 10``, ``e = 0.01``,
    ``c = 0.9``); they are clipped to 0 before ``alpha`` is normalised to
    sum 1.  Where ``1 - lambda1`` is below double precision, ``lambda1`` is
    clipped to 1, the bound of a sub-stochastic ``R``.
    """
    if not 0.0 < tm.e < 1.0:
        raise ValueError("the quasi-stationary distribution needs 0 < e < 1")
    if tm.c <= 0.0:
        raise ValueError("the quasi-stationary distribution needs c > 0")
    s = tm.n_states - 1
    iterations = 0

    def times_r(x):
        nonlocal iterations
        iterations += 1
        return _times_r(tm, x)

    if s > 3:
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

        # A fixed generic start: runs are deterministic, and it is not
        # confined to an invariant subspace the way a uniform vector is on
        # graphs with symmetries.
        v0 = np.random.default_rng(0x5EC2).uniform(0.5, 1.5, s)
        try:
            vals, vecs = eigs(LinearOperator((s, s), matvec=times_r, dtype=float), k=2,
                              v0=v0, tol=QSD_TOL, maxiter=QSD_MAX_ITER)
        except ArpackNoConvergence as err:
            raise ConvergenceError(
                f"Arnoldi iteration did not converge in {QSD_MAX_ITER} restarts") from err
    else:
        vals, vecs = np.linalg.eig(np.column_stack([times_r(x) for x in np.eye(s)]))
    order = np.argsort(-np.abs(vals))[:2]
    lam1 = min(float(vals[order[0]].real), 1.0)
    alpha = vecs[:, order[0]].real
    alpha = np.maximum(alpha / alpha.sum(), 0.0)
    alpha /= alpha.sum()
    lam2 = float(abs(vals[order[1]])) if order.size > 1 else 0.0
    residual = float(np.max(np.abs(_times_r(tm, alpha) - lam1 * alpha)))
    return QsdResult(tm.n, lam1, alpha, lam2, residual, iterations)


def mean_extinction_time(tm: TransitionMatrices, z0: int) -> float:
    """Expected generations to absorption from ``z0`` (must be non-empty).

    The mean times are ``m = (I - R)^-1 1``, so ``m(z0) = sum(x)`` for the
    row ``x = e_z0 (I - R)^-1``.  Restarted GMRES finds ``x`` from the
    products ``x - x R`` alone, so no dense matrix is formed.  It stops on
    the backward error: a residual of at most ``MEAN_TIME_TOL * (1 + |x|)``.
    A residual relative to ``|b| = 1`` alone cannot be reached once the
    mean time is large, because the residual of ``x`` is computed with
    rounding errors of order ``eps * |x|``.  The forward error grows with
    the condition number of ``I - R``, about the mean time itself, as it
    does for a dense solve.
    """
    if z0 <= 0 or z0 >= tm.n_states:
        raise ValueError("z0 must be a non-empty state")
    if tm.e <= 0.0:
        raise ValueError("extinction time is infinite for e = 0")
    from scipy.sparse.linalg import LinearOperator, gmres

    s = tm.n_states - 1
    op = LinearOperator((s, s), matvec=lambda x: x - _times_r(tm, x), dtype=float)
    b = np.zeros(s)
    b[z0 - 1] = 1.0
    x = np.zeros(s)
    for _ in range(MEAN_TIME_MAX_CYCLES):
        x = gmres(op, b, x0=x, rtol=MEAN_TIME_TOL, atol=0.0, restart=GMRES_RESTART,
                  maxiter=1)[0]
        if np.linalg.norm(b - op.matvec(x)) <= MEAN_TIME_TOL * (1.0 + np.linalg.norm(x)):
            return float(x.sum())
    raise ConvergenceError(f"GMRES did not converge in {MEAN_TIME_MAX_CYCLES} cycles")


@dataclass(frozen=True)
class ConvergenceReport:
    """How far the horizon behaviour is from its asymptotic regime.

    ``tail_ratio_mean`` averages successive persistence ratios over the last
    ``TAIL_WINDOW`` generations; asymptotically this equals ``lambda1``.
    ``tv_to_qsd`` is the total-variation distance between the
    survival-conditioned distribution at the horizon and the quasi-stationary
    distribution, with the series over kept generations in ``tv_series``.
    ``two_scale_regime`` flags a clean separation between the survival
    timescale and the mixing timescale:
    ``(lambda2_abs / lambda1) < threshold * lambda1``.
    """

    lambda1: float
    lambda2_abs: float
    tail_ratio_mean: float
    tail_ratio_deviation: float
    tv_to_qsd: float
    tv_series: dict
    two_scale_regime: bool
    threshold: float


def convergence_diagnostics(result: QsdResult, table: HorizonTable) -> ConvergenceReport:
    """Compare finite-horizon decay against the spectral prediction.

    The horizon must cover at least 50 generations so tail ratios mean
    anything.
    """
    n_gen = int(table.t[-1])
    if n_gen < 50:
        raise ValueError("diagnostics need a horizon of at least 50 generations")
    ratios = []
    for t in range(n_gen - TAIL_WINDOW + 1, n_gen + 1):
        prev = table.p_persist[t - 1]
        if prev > 0.0:
            ratios.append(table.p_persist[t] / prev)
    tail_mean = float(np.mean(ratios)) if ratios else float("nan")
    tv_series = {
        t: 0.5 * float(np.abs(dist - result.alpha).sum())
        for t, dist in sorted(table.tail_conditioned.items())
    }
    tv_last = tv_series[max(tv_series)] if tv_series else float("nan")
    ratio = result.lambda2_abs / result.lambda1
    return ConvergenceReport(
        lambda1=result.lambda1,
        lambda2_abs=result.lambda2_abs,
        tail_ratio_mean=tail_mean,
        tail_ratio_deviation=abs(tail_mean - result.lambda1),
        tv_to_qsd=tv_last,
        tv_series=tv_series,
        two_scale_regime=bool(ratio < TWO_SCALE_THRESHOLD * result.lambda1),
        threshold=TWO_SCALE_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# (e, c) extinction grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatmapResult:
    """Extinction probability at a fixed horizon over an (e, c) grid.

    ``p_extinct[i, j]`` corresponds to ``(e_grid[i], c_grid[j])``.
    ``contour_c`` gives, per ``e``, the colonisation rate where ``e / c``
    equals the leading adjacency eigenvalue (the mean-field frontier).
    """

    e_grid: np.ndarray
    c_grid: np.ndarray
    p_extinct: np.ndarray
    lambda1: float
    contour_c: np.ndarray
    n_gen: int
    method: str


def extinction_heatmap(
    graph: Graph,
    e_grid,
    c_grid,
    n_gen: int,
    z0: int | None = None,
    cap: int = EXACT_CAP_DEFAULT,
    method: str = "auto",
    n_reps: int = 10_000,
    seed=0,
) -> HeatmapResult:
    """Extinction probability after ``n_gen`` generations over a grid.

    ``method='exact'`` builds the colonisation sweep tables once per ``c``
    and runs ``finite_horizon`` on them for every ``e``.  ``method='sim'``
    estimates each cell with ``n_reps`` crude simulations.  ``'auto'``
    picks exact when the state space fits under ``cap``.
    """
    e_grid = np.asarray(list(e_grid), dtype=float)
    c_grid = np.asarray(list(c_grid), dtype=float)
    for e in e_grid:  # the exact path sets e by ``replace``, past this check
        Params(float(e), 0.0)
    n = graph.n
    if z0 is None:
        z0 = (1 << n) - 1
    if method == "auto":
        method = "exact" if n <= cap else "sim"
    lam1 = leading_adjacency_eigenvalue(graph)
    p = np.empty((len(e_grid), len(c_grid)))
    if method == "exact":
        _check_cap(n, cap)
        for j, c in enumerate(c_grid):
            base = _operator(graph, Params(0.0, float(c)))  # e is set per cell
            for i, e in enumerate(e_grid):
                p[i, j] = finite_horizon(replace(base, e=float(e)), z0, n_gen).p_extinct[-1]
    elif method == "sim":
        ss = np.random.SeedSequence(seed)
        cells = ss.spawn(len(e_grid) * len(c_grid))
        for i, e in enumerate(e_grid):
            for j, c in enumerate(c_grid):
                rep = estimate_crude(
                    graph, Params(e=float(e), c=float(c)), z0, n_gen,
                    n_reps, cells[i * len(c_grid) + j],
                )
                p[i, j] = 1.0 - rep.persistence.value
    else:
        raise ValueError("method must be 'auto', 'exact' or 'sim'")
    contour = e_grid / lam1 if lam1 > 0 else np.full_like(e_grid, np.nan)
    return HeatmapResult(e_grid, c_grid, p, lam1, contour, n_gen, method)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def write_horizon_csv(table: HorizonTable, path: str | Path) -> None:
    """Columns: t, p_extinct, p_persist, mean_occ, cond_mean_occ."""
    write_csv(path, ["t", "p_extinct", "p_persist", "mean_occ", "cond_mean_occ"],
              zip(table.t, table.p_extinct, table.p_persist, table.mean_occ,
                  table.cond_mean_occ))


def write_qsd_csv(result: QsdResult, path: str | Path) -> None:
    """Columns: state_hex, alpha (non-empty states in index order)."""
    write_csv(path, ["state_hex", "alpha"],
              ((format(z, "x"), a) for z, a in enumerate(result.alpha, 1)))


def write_heatmap_csv(result: HeatmapResult, path: str | Path,
                      contour_path: str | Path | None = None) -> None:
    """Long-format grid: e, c, p_extinct; optional contour file: e, c_contour."""
    write_csv(path, ["e", "c", "p_extinct"],
              ((e, c, result.p_extinct[i, j])
               for i, e in enumerate(result.e_grid)
               for j, c in enumerate(result.c_grid)))
    if contour_path is not None:
        write_csv(contour_path, ["e", "c_contour"], zip(result.e_grid, result.contour_c))
