"""Mean-field recursion tests: exact small cases, bounds, regime labels."""

import json

import numpy as np
import pytest

from secnet.dynamics import Params
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
    assert np.allclose(traj.p[:, 0], expected, atol=1e-14)


def test_trajectory_shapes_and_conventions():
    traj = mf_iterate(C10, Params(0.3, 0.2), 0.5, 7)
    assert traj.p.shape == (8, 10)
    assert traj.n_gen == 7


def test_zero_is_a_fixed_point_and_one_stays_one_without_extinction():
    traj = mf_iterate(K10, Params(0.5, 0.5), 0.0, 10)
    assert np.all(traj.p == 0.0)
    traj = mf_iterate(K10, Params(0.0, 0.3), 1.0, 10)
    assert np.all(traj.p == 1.0)


def test_certain_colonisation_stays_exact_across_non_edges():
    # c * s = 1 puts log1p(-1) = -inf on every edge of the escape sum; a
    # non-edge must add 0, never 0 * -inf = nan.
    traj = mf_iterate(C10, Params(0.0, 1.0), 1.0, 5)
    assert np.all(traj.p == 1.0)
    traj = mf_iterate(C10, Params(0.0, 1.0), np.eye(10)[0], 5)
    ring_distance = np.minimum(np.arange(10), 10 - np.arange(10))
    reached = ring_distance[None, :] <= np.arange(6)[:, None]
    assert np.array_equal(traj.p, reached.astype(float))


@pytest.mark.parametrize("source", ["post-extinction", "pre-extinction"])
def test_sparse_escape_sum_matches_the_dense_formula(source):
    # The dense n x n form of the map, as it ran before the escape sum moved
    # onto the edges; only the order of the sums differs.
    graph = TopologySpec(kind="PA", n=500, n_edges=2682, power=3.0).generate(
        np.random.default_rng(7))
    params = Params(0.1, 0.02, source)
    p0 = np.random.default_rng(8).random(500)
    traj = mf_iterate(graph, params, p0, 40)
    a, p = graph.adjacency_matrix, p0
    for t in range(1, 41):
        s = (1.0 - params.e) * p if params.post_source else p
        log_zeta = np.sum(np.log1p(-a * (params.c * s)[None, :]), axis=1)
        survive = (1.0 - params.e) * p
        p = survive - np.expm1(log_zeta) * (1.0 - survive)
        assert np.max(np.abs(traj.p[t] - p)) <= 1e-12


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
        assert lo.p.min() >= 0.0 and lo.p.max() <= 1.0
        assert np.all(lo.p <= hi.p + 1e-12)  # componentwise monotone map


def test_validation():
    with pytest.raises(ValueError):
        mf_iterate(P2, Params(0.5, 0.5), 1.5, 3)
    with pytest.raises(ValueError):
        mf_iterate(P2, Params(0.5, 0.5), 0.5, -1)


def test_pre_extinction_source_can_rescue_certain_extinction():
    # e=1 kills both patches, but pre-extinction sources still colonise
    params = Params(1.0, 1.0, colonisation_source="pre-extinction")
    traj = mf_iterate(P2, params, np.array([1.0, 0.0]), 1)
    assert np.allclose(traj.p[1], [0.0, 1.0], atol=1e-14)
    post = mf_iterate(P2, Params(1.0, 1.0), np.array([1.0, 0.0]), 1)
    assert np.all(post.p[1] == 0.0)


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
    nxt = mf_iterate(K10, Params(0.5, 0.5), rep.fixed_point, 1).p[1]
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


def test_report_to_dict_is_json_serialisable():
    for params in (Params(0.3, 0.1), Params(0.2, 0.5), Params(0.9, 0.46)):
        rep = mf_threshold(C10, params)
        payload = json.dumps(rep.to_dict())
        assert "regime" in json.loads(payload)


def test_post_source_critical_manifold_raises_convergence_error():
    # e = c(1-e)*lambda1 exactly: the fixed-point iteration is sub-geometric
    from secnet.netgen import ConvergenceError
    with pytest.raises(ConvergenceError):
        mf_threshold(C10, Params(0.5, 0.5), max_iter=5000)


def test_pre_source_persists_where_post_source_dies():
    # between the two spectral conditions: e/c < lambda1 < e/(c(1-e))
    e, c = 0.35, 0.2  # cycle: 1.75 < 2 < 2.692
    post = mf_iterate(C10, Params(e, c), 1.0, 400)
    pre = mf_iterate(C10, Params(e, c, colonisation_source="pre-extinction"), 1.0, 400)
    assert post.p[-1].max() < 1e-6
    assert pre.p[-1].min() > 0.05