"""Mean-field recursion tests: exact small cases, bounds, regime labels."""

import numpy as np
import pytest

from secnet import meanfield
from secnet.dynamics import Params, state_to_array
from secnet.exact import build_transition
from secnet.meanfield import mf_iterate, mf_threshold
from secnet.netgen import Graph, TopologySpec, gen_erdos_renyi


P2 = Graph(2, ((0, 1),))
C10 = Graph(10, tuple((i, (i + 1) % 10) for i in range(10)))
K10 = Graph(10, tuple((i, j) for i in range(10) for j in range(i + 1, 10)))
STAR10 = Graph(10, tuple((0, i) for i in range(1, 10)))


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def test_single_patch_is_exact():
    g = Graph(1, ())
    e = 0.25
    traj = mf_iterate(g, Params(e, 0.9), 1.0, 30)
    expected = (1 - e) ** np.arange(31)
    assert np.allclose(traj[:, 0], expected, atol=1e-14)


def test_trajectory_shapes_and_conventions():
    traj = mf_iterate(C10, Params(0.3, 0.2), 0.5, 7)
    assert traj.shape == (8, 10)


def test_zero_is_a_fixed_point_and_one_stays_one_without_extinction():
    traj = mf_iterate(K10, Params(0.5, 0.5), 0.0, 10)
    assert np.all(traj == 0.0)
    traj = mf_iterate(K10, Params(0.0, 0.3), 1.0, 10)
    assert np.all(traj == 1.0)


def test_certain_colonisation_stays_exact_across_non_edges():
    # c * s = 1 puts log1p(-1) = -inf on every edge of the escape sum; a
    # non-edge must add 0, never 0 * -inf = nan.
    traj = mf_iterate(C10, Params(0.0, 1.0), 1.0, 5)
    assert np.all(traj == 1.0)
    traj = mf_iterate(C10, Params(0.0, 1.0), np.eye(10)[0], 5)
    ring_distance = np.minimum(np.arange(10), 10 - np.arange(10))
    reached = ring_distance[None, :] <= np.arange(6)[:, None]
    assert np.array_equal(traj, reached.astype(float))


def test_sparse_escape_sum_matches_the_dense_formula():
    # The dense n x n form of the map, as it ran before the escape sum moved
    # onto the edges; only the order of the sums differs.
    graph = TopologySpec(kind="PA", n=500, n_edges=2682, power=3.0).generate(
        np.random.default_rng(7))
    params = Params(0.1, 0.02)
    p0 = np.random.default_rng(8).random(500)
    traj = mf_iterate(graph, params, p0, 40)
    a, p = graph.adjacency_matrix, p0
    for t in range(1, 41):
        survive = (1.0 - params.e) * p
        log_zeta = np.sum(np.log1p(-a * (params.c * survive)[None, :]), axis=1)
        p = survive - np.expm1(log_zeta) * (1.0 - survive)
        assert np.max(np.abs(traj[t] - p)) <= 1e-12


def test_iterates_stay_in_unit_interval_and_map_is_monotone():
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        g = gen_erdos_renyi(n, int(rng.integers(n - 1, n * (n - 1) // 2 + 1)), rng)
        params = Params(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        p_lo = rng.uniform(0, 1, size=n)
        p_hi = np.clip(p_lo + rng.uniform(0, 1 - p_lo.max(), size=n), 0, 1)
        lo = mf_iterate(g, params, p_lo, 5)
        hi = mf_iterate(g, params, p_hi, 5)
        assert lo.min() >= 0.0 and lo.max() <= 1.0
        assert np.all(lo <= hi + 1e-12)  # componentwise monotone map


def test_one_generation_from_a_known_state_matches_the_exact_marginals():
    # From a deterministic state the patches' survivals are independent, so
    # one mean-field generation is exact: it must equal the per-patch
    # marginals of one step of the exact chain under the same convention.
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = gen_erdos_renyi(n, int(rng.integers(n - 1, n * (n - 1) // 2 + 1)), rng)
        params = Params(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        z = int(rng.integers(0, 1 << n))
        tm = build_transition(g, params)
        dist = tm.apply(np.eye(tm.n_states)[z])
        bits = (np.arange(tm.n_states)[:, None] >> np.arange(n)) & 1
        mf = mf_iterate(g, params, state_to_array(z, n).astype(float), 1)[1]
        assert np.max(np.abs(mf - dist @ bits)) <= 1e-12


def test_validation():
    with pytest.raises(ValueError):
        mf_iterate(P2, Params(0.5, 0.5), 1.5, 3)
    with pytest.raises(ValueError):
        mf_iterate(P2, Params(0.5, 0.5), 0.5, -1)


# ---------------------------------------------------------------------------
# threshold classification
# ---------------------------------------------------------------------------

def test_subcritical_cycle_decay_bound_holds():
    # cycle: lambda1 = 2; e/c = 3 > 2, strong condition 0.3/0.07 > 2
    rep = mf_threshold(C10, Params(0.3, 0.1))
    assert rep.regime == "subcritical"
    assert rep.decay_bound == pytest.approx(1 - 0.3 + 0.1 * 0.7 * 2, abs=1e-12)
    assert rep.decay_verified
    assert rep.tail_ratio_max <= rep.decay_bound + 1e-9
    assert rep.fixed_point is None


def test_supercritical_complete_graph_fixed_point():
    rep = mf_threshold(K10, Params(0.5, 0.5))
    assert rep.regime == "supercritical"
    assert rep.fixed_point is not None
    assert not rep.fixed_point_degenerate
    assert rep.fixed_point.min() > 0.1
    # fixed point must actually be fixed
    nxt = mf_iterate(K10, Params(0.5, 0.5), rep.fixed_point, 1)[1]
    assert np.allclose(nxt, rep.fixed_point, atol=1e-9)


def test_critical_detection_on_the_star():
    # star lambda1 = 3 exactly; e/c = 3
    rep = mf_threshold(STAR10, Params(0.3, 0.1))
    assert rep.regime == "critical"
    assert rep.e_over_c == pytest.approx(3.0, abs=1e-12)


def test_degenerate_band_collapses_to_zero():
    # cycle: e/c = 1.956 < 2 labels supercritical, yet the survivor-based
    # linearisation 1 - e + c(1-e)*2 = 0.192 contracts to the empty state
    rep = mf_threshold(C10, Params(0.9, 0.46))
    assert rep.regime == "supercritical"
    assert rep.fixed_point is None
    assert rep.fixed_point_degenerate


def test_certain_extinction_is_always_subcritical():
    rep = mf_threshold(K10, Params(1.0, 1.0))
    assert rep.regime == "subcritical"


def test_critical_manifold_raises_convergence_error(monkeypatch):
    # e = c(1-e)*lambda1 exactly: the fixed-point iteration is sub-geometric
    from secnet.netgen import ConvergenceError
    monkeypatch.setattr(meanfield, "FIXED_POINT_MAX_ITER", 5000)
    with pytest.raises(ConvergenceError, match="in 5000 steps"):
        mf_threshold(C10, Params(0.5, 0.5))

