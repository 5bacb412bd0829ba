"""Deterministic mean-field iteration and the persistence threshold.

Writing ``p[i, t]`` for the occupancy probability of patch ``i`` and
``zeta[i, t+1]`` for the probability that no neighbour colonises it, the
independence approximation of the kernel iterates

    p[i, t+1] = 1 - zeta[i, t+1] * (1 - p[i, t] * (1 - e))

i.e. a patch is empty next generation exactly when it is empty after the
extinction phase and no neighbour colonises it.  The colonisation-escape
factor is a product over neighbours ``j`` of ``(1 - c * s[j, t])`` where
``s`` is the occupancy of the colonisation source: ``(1 - e) * p[j, t]``
under the default post-extinction convention (survivors colonise, matching
the exact chain) or ``p[j, t]`` under the pre-extinction variant.

Linearising at zero gives the classic spectral threshold: occupancy decays
to zero when ``e / c`` exceeds the leading adjacency eigenvalue, and under
the stronger condition ``e / (c * (1 - e)) > lambda_1`` the decay is
geometric with ratio at most ``1 - e + c * (1 - e) * lambda_1``, which is
exactly the spectral radius of the post-extinction linearisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Params
from .netgen import ConvergenceError, Graph, leading_adjacency_eigenvalue

__all__ = [
    "MeanFieldTrajectory",
    "ThresholdReport",
    "mf_iterate",
    "mf_threshold",
]

CRITICAL_TOL = 1e-9
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 100_000
DECAY_SLACK = 1e-9
DECAY_HORIZON = 200
TAIL_START = 50
TAIL_WINDOW = 25


@dataclass(frozen=True)
class MeanFieldTrajectory:
    """Occupancy probabilities ``p[t, i]`` of patch ``i`` after ``t``
    generations; ``p[0]`` is the start."""

    p: np.ndarray

    @property
    def n_gen(self) -> int:
        return self.p.shape[0] - 1


def _mf_step(p: np.ndarray, adjacency, params: Params) -> np.ndarray:
    """One generation of the map; ``adjacency`` is the graph's sparse one."""
    source = (1.0 - params.e) * p if params.post_source else p
    # Work with the colonisation probability omega = 1 - zeta through
    # log1p/expm1 and combine as survive + omega * (1 - survive): the naive
    # 1 - zeta * (1 - p(1-e)) cancels catastrophically once occupancies
    # reach machine epsilon and freezes the decay at a spurious fixed point.
    # The escape sum runs over stored edges only: at c * s = 1 a dense
    # product would add 0 * log1p(-1) = nan for every non-edge.
    with np.errstate(divide="ignore"):
        log_zeta = adjacency @ np.log1p(-params.c * source)
    omega = -np.expm1(log_zeta)
    survive = (1.0 - params.e) * p
    return survive + omega * (1.0 - survive)


def mf_iterate(graph: Graph, params: Params, p0, n_gen: int) -> MeanFieldTrajectory:
    """Iterate the mean-field map ``n_gen`` generations from ``p0``.

    ``p0`` may be a scalar or a length-``n`` vector of probabilities.
    All iterates stay in ``[0, 1]`` by construction.
    """
    if n_gen < 0:
        raise ValueError("n_gen must be >= 0")
    p = np.broadcast_to(np.asarray(p0, dtype=float), (graph.n,)).copy()
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("p0 entries must lie in [0, 1]")
    adjacency = graph.sparse_adjacency
    ps = np.empty((n_gen + 1, graph.n))
    ps[0] = p
    for t in range(n_gen):
        ps[t + 1] = _mf_step(ps[t], adjacency, params)
    return MeanFieldTrajectory(ps)


@dataclass(frozen=True)
class ThresholdReport:
    """Spectral classification of the mean-field dynamics.

    ``regime`` compares ``e / c`` with the leading adjacency eigenvalue
    (``critical`` within ``1e-9``); ``e = 1`` is always subcritical.  In the
    subcritical regime, ``decay_bound`` carries the geometric ratio
    ``1 - e + c (1 - e) lambda1`` whenever its precondition
    ``e / (c (1 - e)) > lambda1`` holds (the bound is also reported if the
    precondition holds outside the subcritical label), and
    ``decay_verified`` states whether iterated tail ratios stayed under the
    bound.  In the supercritical regime ``fixed_point`` holds the nonzero
    equilibrium reached from all-ones, unless the iteration collapsed to
    zero (possible in the band between the two spectral conditions under
    the post-extinction source), in which case it is None and
    ``fixed_point_degenerate`` is set.
    """

    lambda1: float
    e_over_c: float
    regime: str
    decay_bound: float | None
    decay_verified: bool | None
    tail_ratio_max: float | None
    fixed_point: np.ndarray | None
    fixed_point_degenerate: bool
    iterations: int

    def to_dict(self) -> dict:
        d = {
            "lambda1": self.lambda1,
            "e_over_c": self.e_over_c,
            "regime": self.regime,
            "decay_bound": self.decay_bound,
            "decay_verified": self.decay_verified,
            "tail_ratio_max": self.tail_ratio_max,
            "fixed_point": None if self.fixed_point is None else [float(x) for x in self.fixed_point],
            "fixed_point_degenerate": self.fixed_point_degenerate,
            "iterations": self.iterations,
        }
        return d


def _tail_ratios(graph: Graph, params: Params) -> list[float]:
    traj = mf_iterate(graph, params, 1.0, DECAY_HORIZON)
    peaks = traj.p.max(axis=1)
    ratios = []
    for t in range(TAIL_START, DECAY_HORIZON):
        if peaks[t] <= 1e-280:  # keep ratios clear of the denormal floor
            break
        ratios.append(peaks[t + 1] / peaks[t])
    return ratios


def mf_threshold(graph: Graph, params: Params,
                 max_iter: int = FIXED_POINT_MAX_ITER) -> ThresholdReport:
    """Classify the regime and verify the matching asymptotic behaviour.

    Subcritical: iterates the map from all-ones over ``DECAY_HORIZON``
    generations, collects one-step peak ratios from ``TAIL_START`` on, and
    checks that the last ``TAIL_WINDOW`` of them stay within ``1e-9`` of the
    geometric bound.  Supercritical: iterates to a fixed point (tolerance
    ``FIXED_POINT_TOL``, cap ``max_iter``).
    """
    lam1 = leading_adjacency_eigenvalue(graph)
    e, c = params.e, params.c
    e_over_c = e / c if c > 0.0 else float("inf")
    if e >= 1.0:
        regime = "subcritical"
    elif abs(e_over_c - lam1) < CRITICAL_TOL:
        regime = "critical"
    elif e_over_c > lam1:
        regime = "subcritical"
    else:
        regime = "supercritical"

    strong = e / (c * (1.0 - e)) > lam1 if (c > 0.0 and e < 1.0) else (e > 0.0 or lam1 < 0)
    decay_bound = 1.0 - e + c * (1.0 - e) * lam1 if strong else None
    decay_verified = None
    tail_ratio_max = None
    iterations = 0
    fixed_point = None
    degenerate = False

    if regime == "subcritical" and decay_bound is not None:
        ratios = _tail_ratios(graph, params)
        # Only the last few ratios measure the asymptotic rate: right after
        # the burn-in, subdominant modes still inflate single-step ratios a
        # few parts in 1e8 above the geometric bound.
        ratios = ratios[-TAIL_WINDOW:]
        tail_ratio_max = float(max(ratios)) if ratios else 0.0
        decay_verified = bool(tail_ratio_max <= decay_bound + DECAY_SLACK)
        iterations = DECAY_HORIZON
    elif regime == "supercritical":
        p = np.ones(graph.n)
        adjacency = graph.sparse_adjacency
        for it in range(1, max_iter + 1):
            p_next = _mf_step(p, adjacency, params)
            delta = float(np.max(np.abs(p_next - p)))
            p = p_next
            if delta < FIXED_POINT_TOL:
                iterations = it
                break
        else:
            raise ConvergenceError(
                f"fixed-point iteration did not reach tol={FIXED_POINT_TOL} in {max_iter} "
                "steps; parameters near e = c(1-e)*lambda1 converge "
                "sub-geometrically"
            )
        if p.max() < 1e-9:
            degenerate = True
        else:
            fixed_point = p
    return ThresholdReport(
        lambda1=lam1,
        e_over_c=e_over_c,
        regime=regime,
        decay_bound=decay_bound,
        decay_verified=decay_verified,
        tail_ratio_max=tail_ratio_max,
        fixed_point=fixed_point,
        fixed_point_degenerate=degenerate,
        iterations=iterations,
    )
