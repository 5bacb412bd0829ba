"""Exact finite-chain analysis of the extinction-colonisation kernel.

The occupancy process on ``n`` patches is a Markov chain on the ``2**n``
bitmask states, with state 0 absorbing.  One generation is two phases:

* extinction, ``E[z, z']`` -- nonzero only for ``z'`` a subset of ``z``,
  with probability ``e**(|z|-|z'|) * (1-e)**|z'|``.  It factorises into one
  2 x 2 step per patch and is applied factor by factor, never stored;
* colonisation, ``C[z, z']`` -- nonzero only for ``z`` a subset of ``z'``:
  each empty patch turns on independently with probability
  ``1 - (1-c)**o`` where ``o`` counts its occupied neighbours in ``z``.

``TransitionMatrices`` is that generation as one operator: its ``apply``
runs the factored extinction and then ``C``, and drives every propagation
here -- finite horizons, the quasi-stationary distribution (left Perron
eigenvector of the transient block) with its spectral diagnostics, and an
extinction-probability grid over ``(e, c)``.  The dense ``M = E @ C`` is
built only on demand, for the direct solve of mean extinction times and as
a test oracle.

``C`` is the one dense ``2**n x 2**n`` array, limited to ``2**n <= 4096``
states by default.  Above that cap the matrix-free horizon (up to
``n = 20``) walks each state's empty patches instead; its cost grows like
``3**n`` per generation, so the last few sizes are slow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
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

DENSE_CAP_DEFAULT = 12
DENSE_CAP_MAX = 14
MATRIX_FREE_CAP = 20
QSD_TOL = 1e-10
QSD_MAX_ITER = 1_000_000
# convergence_diagnostics: tail-ratio window and two-scale threshold.
TAIL_WINDOW = 10
TWO_SCALE_THRESHOLD = 0.5


def _check_cap(n: int, cap: int) -> None:
    if not 1 <= cap <= DENSE_CAP_MAX:
        raise ValueError(f"dense state cap must lie in [1, {DENSE_CAP_MAX}]")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the dense cap of {cap} patches "
            f"({2 ** n} states); raise the cap (max {DENSE_CAP_MAX}) or use "
            "the matrix-free horizon / simulation instead"
        )
    if n > DENSE_CAP_DEFAULT:
        warnings.warn(
            f"building a dense {2 ** n} x {2 ** n} colonisation matrix "
            f"(~{(2 ** n) ** 2 * 8 / 1e9:.1f} GB)",
            ResourceWarning,
            stacklevel=3,
        )


def _popcounts(n_states: int, n: int) -> np.ndarray:
    idx = np.arange(n_states, dtype=np.int64)
    pc = np.zeros(n_states, dtype=np.int64)
    for i in range(n):
        pc += (idx >> i) & 1
    return pc


def _apply_extinction_inplace(v: np.ndarray, n: int, e: float) -> np.ndarray:
    """v <- v @ E using the per-bit factorisation of the extinction phase.

    ``v`` is C-contiguous; a matrix is acted on row by row.
    """
    for i in range(n):
        a = v.reshape(-1, 2, 1 << i)
        a[:, 0, :] += e * a[:, 1, :]
        a[:, 1, :] *= 1.0 - e
    return v


def _left_extinction_inplace(w: np.ndarray, n: int, e: float) -> np.ndarray:
    """w <- E @ w for a C-contiguous vector, or a matrix whose rows are states."""
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


def _colonisation_row(z: int, p_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets ``z' - z`` and values of the nonzero entries of ``C[z]``.

    Occupied patches stay occupied; each empty one doubles both arrays.
    """
    offsets = np.zeros(1, dtype=np.int64)
    weights = np.ones(1)
    for i, p in enumerate(p_row):
        if not (z >> i) & 1:
            weights = np.concatenate((weights * (1.0 - p), weights * p))
            offsets = np.concatenate((offsets, offsets + (1 << i)))
    return offsets, weights


def _colonisation_matrix(p_set: np.ndarray) -> np.ndarray:
    s = p_set.shape[0]
    cm = np.zeros((s, s))
    for z in range(s):
        offsets, weights = _colonisation_row(z, p_set[z])
        cm[z, z + offsets] = weights
    return cm


@dataclass(frozen=True)
class TransitionMatrices:
    """One generation as an operator on distributions; coffin at index 0.

    ``C`` is the dense colonisation matrix, or None for the matrix-free
    operator, whose ``apply`` walks each state's empty patches with
    ``p_set[z, i]`` = P(bit i set after colonisation | source state z).
    ``E``, ``M = E @ C`` and ``R`` are dense copies built on each access.
    """

    n: int
    e: float
    c: float
    C: np.ndarray | None
    p_set: np.ndarray

    @property
    def n_states(self) -> int:
        return 1 << self.n

    def apply(self, v: np.ndarray) -> np.ndarray:
        """One generation of a distribution (row vector): ``v @ E @ C``."""
        v = _apply_extinction_inplace(np.array(v, dtype=float), self.n, self.e)
        if self.C is not None:
            return v @ self.C
        w = np.zeros_like(v)
        for z in np.flatnonzero(v):
            offsets, weights = _colonisation_row(z, self.p_set[z])
            w[z + offsets] += v[z] * weights
        return w

    @property
    def E(self) -> np.ndarray:
        return _apply_extinction_inplace(np.eye(self.n_states), self.n, self.e)

    @property
    def M(self) -> np.ndarray:
        return _left_extinction_inplace(self.C.copy(), self.n, self.e)

    @property
    def R(self) -> np.ndarray:
        """Transient block: M restricted to the non-empty states."""
        return self.M[1:, 1:]


def _operator(graph: Graph, params: Params, dense: bool) -> TransitionMatrices:
    if not params.post_source:
        raise ValueError(
            "exact propagation is defined for the post-extinction colonisation "
            "source; the pre-extinction variant is simulation-only"
        )
    p_set = _colonisation_probabilities(graph, params.c)
    cm = _colonisation_matrix(p_set) if dense else None
    return TransitionMatrices(graph.n, params.e, params.c, cm, p_set)


def build_transition(
    graph: Graph,
    params: Params,
    cap: int = DENSE_CAP_DEFAULT,
) -> TransitionMatrices:
    """The one-generation operator for a graph and parameters, with dense ``C``.

    Requires the default post-extinction colonisation source: ``apply``
    feeds the survivors of the extinction phase into the colonisation
    phase, which is exactly that convention.
    """
    _check_cap(graph.n, cap)
    return _operator(graph, params, dense=True)


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
    """Exact horizon summaries without building any 2**n x 2**n matrix.

    ``finite_horizon`` on the operator with no stored ``C``: the extinction
    phase costs ``n * 2**n`` per generation and the colonisation walk on
    the order of ``3**n``.  Measured: 0.64-0.97 s per generation at
    ``n = 14`` in traced exact-chain benchmark runs (2-vCPU Xeon VM, one
    BLAS thread), growing as ``3**n``.
    """
    if graph.n > MATRIX_FREE_CAP:
        raise ValueError(f"matrix-free propagation supports n <= {MATRIX_FREE_CAP}")
    return finite_horizon(_operator(graph, params, dense=False), z0, n_gen)


# ---------------------------------------------------------------------------
# quasi-stationary distribution and spectral quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QsdResult:
    """Left Perron data of the transient block ``R``.

    ``alpha`` is the quasi-stationary distribution over non-empty states
    (index ``z - 1`` holds state ``z``); ``lambda1`` its eigenvalue, which
    equals the second-largest eigenvalue of the full chain.  ``right``
    is the matching right eigenvector (survival capacity per state,
    normalised to unit maximum) and ``lambda2_abs`` the modulus of the
    subdominant eigenvalue of ``R``, found by deflated power iteration.
    """

    n: int
    lambda1: float
    alpha: np.ndarray
    right: np.ndarray
    lambda2_abs: float
    residual: float
    iterations: int

    @property
    def mean_occ(self) -> float:
        """Mean number of occupied patches under the QSD."""
        return float(self.alpha @ _popcounts(1 << self.n, self.n)[1:])


def _power_left(left, s: int) -> tuple[np.ndarray, float, int]:
    x = np.full(s, 1.0 / s)
    lam = 0.0
    for it in range(1, QSD_MAX_ITER + 1):
        y = left(x)
        lam_new = float(y.sum())
        if lam_new <= 0.0:
            raise ValueError("transient block has no mass; e=1 collapses every state")
        y /= lam_new
        if abs(lam_new - lam) < QSD_TOL and np.max(np.abs(y - x)) < QSD_TOL:
            return y, lam_new, it
        x, lam = y, lam_new
    raise ConvergenceError(f"QSD power iteration did not converge in {QSD_MAX_ITER} steps")


def _power_right(right, s: int) -> np.ndarray:
    x = np.full(s, 1.0 / math.sqrt(s))
    lam = 0.0
    for _ in range(QSD_MAX_ITER):
        y = right(x)
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:
            return x
        y /= nrm
        if abs(nrm - lam) < QSD_TOL and np.max(np.abs(y - x)) < QSD_TOL:
            return y
        x, lam = y, nrm
    raise ConvergenceError(
        f"right eigenvector iteration did not converge in {QSD_MAX_ITER} steps")


def _lambda2_abs(left, alpha, right, lam1) -> float:
    """Modulus of the subdominant eigenvalue via single deflation.

    The deflated product is ``y R - (y . right) (lam1 / <alpha, right>) alpha``.
    Power iteration on it drifts forever when the subdominant eigenvalue is
    a complex conjugate pair, so instead of the raw growth ratio this fits
    the two-term recurrence ``y_{k+2} = a y_{k+1} + b y_k`` satisfied by the
    iterates and reads the modulus off the companion roots of
    ``z^2 - a z - b``.  A real dominant direction makes the fit collapse to
    the ordinary one-term ratio.
    """
    s = alpha.shape[0]
    if s == 1:
        return 0.0
    scale = lam1 / float(alpha @ right)

    def deflated(y):
        return left(y) - (float(y @ right) * scale) * alpha

    # A structured start can be exactly orthogonal to the subdominant
    # eigenvector on symmetric graphs; a fixed pseudo-random start is not.
    y0 = np.random.default_rng(0x5EC2).standard_normal(s)
    y0 /= float(np.linalg.norm(y0))
    y1 = deflated(y0)
    est = 0.0
    stable = 0
    for _ in range(QSD_MAX_ITER):
        n1 = float(np.linalg.norm(y1))
        if n1 < 1e-300:
            return 0.0
        y2 = deflated(y1)
        g00 = float(y0 @ y0)
        g01 = float(y0 @ y1)
        g11 = float(y1 @ y1)
        det = g11 * g00 - g01 * g01
        if det > 1e-12 * g11 * g00:
            # least-squares fit of y2 against (y1, y0)
            r1 = float(y1 @ y2)
            r0 = float(y0 @ y2)
            a = (g00 * r1 - g01 * r0) / det
            b = (g11 * r0 - g01 * r1) / det
            roots = np.roots([1.0, -a, -b])
            est_new = float(np.max(np.abs(roots)))
        else:
            # iterates are collinear: the dominant direction is real
            est_new = n1 / float(np.linalg.norm(y0))
        if abs(est_new - est) < QSD_TOL * (1.0 + est_new):
            stable += 1
            if stable >= 3:
                return est_new
        else:
            stable = 0
        est = est_new
        y0, y1 = y1 / n1, y2 / n1
    raise ConvergenceError(
        f"subdominant eigenvalue iteration did not converge in {QSD_MAX_ITER} steps"
    )


def qsd(tm: TransitionMatrices) -> QsdResult:
    """Quasi-stationary distribution of the chain by left power iteration.

    Requires ``0 < e < 1`` and ``c > 0`` on a connected graph so that the
    transient block is irreducible and aperiodic and the left Perron vector
    is the unique limit of survival-conditioned distributions.  ``R`` is
    only ever applied: ``x R`` is ``apply([0, x])[1:]`` and ``R x`` is
    ``(E @ C @ [0, x])[1:]``.
    """
    if not 0.0 < tm.e < 1.0:
        raise ValueError("the quasi-stationary distribution needs 0 < e < 1")
    if tm.c <= 0.0:
        raise ValueError("the quasi-stationary distribution needs c > 0")
    s = tm.n_states - 1

    def left(x):
        return tm.apply(np.concatenate(([0.0], x)))[1:]

    def right(x):
        w = tm.C @ np.concatenate(([0.0], x))
        return _left_extinction_inplace(w, tm.n, tm.e)[1:]

    alpha, lam1, iters = _power_left(left, s)
    right_vec = _power_right(right, s)
    right_vec = right_vec / right_vec.max()
    lam2 = _lambda2_abs(left, alpha, right_vec, lam1)
    residual = float(np.max(np.abs(left(alpha) - lam1 * alpha)))
    return QsdResult(tm.n, lam1, alpha, right_vec, lam2, residual, iters)


def mean_extinction_time(tm: TransitionMatrices, z0: int) -> float:
    """Expected generations to absorption from ``z0`` (must be non-empty).

    Solves ``(I - R) m = 1`` directly, forming ``I - R`` in place on a
    freshly built ``M``.
    """
    if z0 <= 0 or z0 >= tm.n_states:
        raise ValueError("z0 must be a non-empty state")
    if tm.e <= 0.0:
        raise ValueError("extinction time is infinite for e = 0")
    a = tm.M[1:, 1:]
    a *= -1.0
    diag = np.arange(a.shape[0])
    a[diag, diag] += 1.0
    m = np.linalg.solve(a, np.ones(a.shape[0]))
    return float(m[z0 - 1])


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
    cap: int = DENSE_CAP_DEFAULT,
    method: str = "auto",
    n_reps: int = 10_000,
    seed=0,
) -> HeatmapResult:
    """Extinction probability after ``n_gen`` generations over a grid.

    ``method='exact'`` builds one dense colonisation matrix per ``c`` and
    runs ``finite_horizon`` on it for every ``e`` (extinction is applied
    factor by factor, so no other matrix is formed).  ``method='sim'``
    estimates each cell with ``n_reps`` crude simulations.  ``'auto'``
    picks exact when the state space fits under ``cap``.
    """
    e_grid = np.asarray(list(e_grid), dtype=float)
    c_grid = np.asarray(list(c_grid), dtype=float)
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
            p_set = _colonisation_probabilities(graph, c)
            cm = _colonisation_matrix(p_set)
            for i, e in enumerate(e_grid):
                tm = TransitionMatrices(n, float(e), float(c), cm, p_set)
                p[i, j] = finite_horizon(tm, z0, n_gen).p_extinct[-1]
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
