"""Network generator tests: canonical form, file formats, per-kind contracts."""

import numpy as np
import pytest

from secnet import experiment, netgen
from secnet.netgen import (
    Graph,
    TopologySpec,
    density_to_n_edges,
    gen_community,
    gen_erdos_renyi,
    gen_lattice,
    gen_pref_attach,
    leading_adjacency_eigenvalue,
)


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n):
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    return Graph(n, tuple((0, i) for i in range(1, n)))


# ---------------------------------------------------------------------------
# Graph container
# ---------------------------------------------------------------------------

def test_graph_canonicalises_edge_order():
    g = Graph(4, ((2, 1), (0, 1), (3, 2)))
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.n_edges == 3


def test_graph_rejects_malformed_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 5),))
    with pytest.raises(ValueError):
        Graph(0, ())


def test_graph_views_agree():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)))
    a = g.adjacency_matrix
    assert np.array_equal(a, a.T)
    assert a.diagonal().sum() == 0
    assert int(a.sum()) == 2 * g.n_edges
    assert np.array_equal(g.degrees, a.sum(axis=0).astype(int))
    assert g.degrees.dtype == np.intp
    assert np.array_equal(Graph(3, ()).degrees, [0, 0, 0])
    assert g.density == pytest.approx(6 / 10)


def test_connectivity_detection():
    assert path_graph(6).is_connected()
    disconnected = Graph(4, ((0, 1), (2, 3)))
    assert not disconnected.is_connected()
    assert Graph(1, ()).is_connected()


def test_fingerprint_ignores_input_order_and_separates_graphs():
    g1 = Graph(4, ((2, 1), (0, 1), (3, 2)))
    g2 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    g3 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert g1.fingerprint() == g2.fingerprint()
    assert g1.fingerprint() != g3.fingerprint()
    assert len(g1.fingerprint()) == 12


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_graph_json_round_trip(tmp_path):
    g = gen_erdos_renyi(9, 14, np.random.default_rng(5))
    path = tmp_path / "g.json"
    netgen.write_graph_json(g, path)
    back = netgen.read_graph_json(path)
    assert back.n == g.n
    assert back.edges == g.edges
    assert back.fingerprint() == g.fingerprint()


# ---------------------------------------------------------------------------
# density helper
# ---------------------------------------------------------------------------

def test_density_to_n_edges_rounds_half_up():
    assert density_to_n_edges(0.3, 10) == 14   # 13.5 rounds up
    assert density_to_n_edges(0.5, 10) == 23   # 22.5 rounds up
    assert density_to_n_edges(0.7, 10) == 32
    assert density_to_n_edges(1.0, 10) == 45
    assert density_to_n_edges(0.3, 100) == 1485
    assert density_to_n_edges(0.05, 100) == 248  # 247.5 rounds up


def test_density_to_n_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        density_to_n_edges(-0.1, 10)
    with pytest.raises(ValueError):
        density_to_n_edges(1.2, 10)


# ---------------------------------------------------------------------------
# Erdos-Renyi (fixed edge count, connected)
# ---------------------------------------------------------------------------

def test_er_full_density_is_complete():
    g = gen_erdos_renyi(10, 45, np.random.default_rng(0))
    assert g.edges == complete_graph(10).edges


def test_er_contract_sweep():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        lo = n - 1
        hi = n * (n - 1) // 2
        m = int(rng.integers(lo, hi + 1))
        g = gen_erdos_renyi(n, m, rng)
        assert g.n_edges == m
        assert g.is_connected()


def test_er_edge_frequency_uniform():
    # every pair should appear with probability m / C(n,2)
    n, m, draws = 10, 13, 1000
    rng = np.random.default_rng(123)
    counts = np.zeros((n, n))
    for _ in range(draws):
        for i, j in gen_erdos_renyi(n, m, rng).edges:
            counts[i, j] += 1
    p = m / 45
    sigma = np.sqrt(draws * p * (1 - p))
    seen = counts[np.triu_indices(n, 1)]
    assert np.all(np.abs(seen - draws * p) <= 3 * sigma)


def test_er_rejects_infeasible_budgets():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, 3, rng)
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, 11, rng)


# ---------------------------------------------------------------------------
# community graphs
# ---------------------------------------------------------------------------

def test_community_full_density_is_complete():
    g = gen_community(4, 6, 2, 10.0, np.random.default_rng(1))
    assert g.edges == complete_graph(4).edges


def test_community_bias_concentrates_edges_within_blocks():
    # 5 blocks of 20; with ratio 100 most edges should be intra-community
    n, m = 100, 1485
    rng = np.random.default_rng(17)
    fractions = []
    for _ in range(100):
        g = gen_community(n, m, 5, 100.0, rng)
        e = g.edge_array
        intra = np.sum(e[:, 0] // 20 == e[:, 1] // 20)
        fractions.append(intra / m)
    # unbiased placement would put only ~19% of edges within blocks
    assert min(fractions) > 0.5


def test_community_ratio_one_matches_er_statistics():
    rng = np.random.default_rng(2)
    g = gen_community(30, 60, 3, 1.0, rng)
    assert g.n_edges == 60
    assert g.is_connected()


def test_community_large_instance_valid():
    g = gen_community(500, 2682, 10, 10.0, np.random.default_rng(3))
    assert g.n == 500
    assert g.n_edges == 2682
    assert g.is_connected()


# ---------------------------------------------------------------------------
# near-regular lattices
# ---------------------------------------------------------------------------

def test_lattice_ring_budget_gives_a_two_regular_graph():
    g = gen_lattice(10, 10, np.random.default_rng(4))
    assert np.all(g.degrees == 2)
    assert g.is_connected()


def test_lattice_exact_budget_gives_regular_degrees():
    g = gen_lattice(6, 9, np.random.default_rng(5))  # 2m/n = 3 exactly
    assert np.all(g.degrees == 3)


def test_lattice_degree_spread_sweep():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(4, 16))
        m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        g = gen_lattice(n, m, rng)
        assert g.n_edges == m
        assert g.is_connected()
        assert g.degrees.max() - g.degrees.min() <= 2


def test_lattice_dense_instance_nearly_regular():
    g = gen_lattice(100, 1485, np.random.default_rng(7))  # 2m/n = 29.7
    assert set(np.unique(g.degrees)) <= {29, 30}
    assert float(np.var(g.degrees)) <= 0.5


def test_lattice_fallback_construction_holds_the_contract():
    # the ring-distance fallback must satisfy the same guarantees
    rng = np.random.default_rng(14)
    for n, m in [(9, 23), (10, 10), (12, 40), (100, 1485), (7, 21)]:
        g = netgen._ring_distance_graph(n, m, rng)
        assert g.n_edges == m
        assert g.is_connected()
        assert g.degrees.max() - g.degrees.min() <= 2


def test_lattice_falls_back_when_fills_are_exhausted(monkeypatch):
    monkeypatch.setattr(netgen, "LATTICE_FILLS", 0)
    g = gen_lattice(12, 40, np.random.default_rng(15))
    assert g == netgen._ring_distance_graph(12, 40, np.random.default_rng(15))


# ---------------------------------------------------------------------------
# preferential attachment
# ---------------------------------------------------------------------------

def test_pa_tree_budget_gives_spanning_tree():
    g = gen_pref_attach(5, 4, 1.0, np.random.default_rng(8))
    assert g.n_edges == 4
    assert g.is_connected()


def test_pa_contract_sweep():
    rng = np.random.default_rng(9)
    for power in (1.0, 2.0, 3.0):
        for _ in range(20):
            n = int(rng.integers(3, 20))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            g = gen_pref_attach(n, m, power, rng)
            assert g.n_edges == m
            assert g.is_connected()


def test_pa_rejects_a_power_whose_weights_overflow():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
        gen_pref_attach(200, 300, 400.0, np.random.default_rng(11))


def test_pa_higher_power_concentrates_degree():
    rng = np.random.default_rng(10)
    hub1, hub3 = [], []
    for _ in range(60):
        hub1.append(gen_pref_attach(60, 90, 1.0, rng).degrees.max())
        hub3.append(gen_pref_attach(60, 90, 3.0, rng).degrees.max())
    assert np.mean(hub3) > np.mean(hub1)


# ---------------------------------------------------------------------------
# bulk draws: the same graphs and generator state as per-pick numpy calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,fingerprint,next_draw", [
    ("ER", "fcdfcdda7960", 0.20318367975545848),
    ("COM", "1319cb3b25bd", 0.2913525497593046),
    ("LAT", "330ec95bfc4e", 0.014833188074238945),
    ("PA1", "b192500a629a", 0.7218795534978515),
    ("PA3", "e44973fb4566", 0.7218795534978515),
])
def test_generators_pinned_at_benchmark_size(label, fingerprint, next_draw):
    # contrast-n100's first network of each topology (n = 100, 1485 edges);
    # the lattice takes about 40 fills, so dead ends and the admissibility
    # scan are on this path.
    design = experiment.preset("contrast-n100", master_seed=300)
    (n_edges,) = design.edge_budgets
    topology = next(t for t in design.topologies if t.label == label)
    rng = np.random.default_rng(experiment._network_seed(design, n_edges, 0))
    g = topology.spec(design.n, n_edges).generate(rng)
    assert (n_edges, g.fingerprint()) == (1485, fingerprint)
    assert rng.random() == next_draw


def test_pref_attach_pinned_at_n2000():
    rng = np.random.default_rng(0)
    g = gen_pref_attach(2000, 4000, 1.0, rng)
    assert g.fingerprint() == "263d816fe725"
    assert rng.random() == 0.9092549074769746


def _fill_to_targets_choice(n, base, remaining, targets, rng):
    """The lattice fill as one ``rng.choice`` call per pick: the oracle."""
    deg = np.zeros(n, dtype=np.intp)
    present = set(base)
    for u, v in base:
        deg[u] += 1
        deg[v] += 1
    if np.any(deg > targets):
        return None
    eligible = [i for i in range(n) if deg[i] < targets[i]]
    extra = []
    for _ in range(remaining):
        placed = False
        misses, miss_cap = 0, 50 + 8 * len(eligible)
        while not placed:
            if len(eligible) < 2:
                return None
            if misses > miss_cap:
                if not netgen._any_admissible(eligible, present):
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


def _pref_attach_choice(n, n_edges, power, rng):
    """Preferential attachment as one ``rng.choice(k, p=...)`` per pick."""
    ms = netgen._pa_arrival_counts(n, n_edges, rng)
    deg = np.zeros(n)
    edges = []
    for k in range(1, n):
        m = ms[k - 1]
        w = deg[:k] ** power
        taken = np.zeros(k, dtype=bool)
        for _ in range(m):
            w_eff = np.where(taken, 0.0, w)
            total = w_eff.sum()
            if total <= 0.0:
                t = int(rng.choice(np.flatnonzero(~taken)))
            else:
                t = int(rng.choice(k, p=w_eff / total))
            edges.append((t, k))
            taken[t] = True
            deg[t] += 1
        deg[k] = m
    return Graph(n, tuple(edges))


def test_lattice_fill_matches_choice_oracle_draw_for_draw():
    # gen_lattice's fill loop, run side by side with the oracle on twin
    # generators: every fill, dead end or not, must agree, and so must the
    # generator state after it.
    outcomes = {"filled": 0, "dead end": 0}
    for seed in range(20):
        for n, density in [(10, 0.5), (12, 0.7), (20, 0.3), (25, 0.5), (40, 0.3), (50, 0.2)]:
            n_edges = density_to_n_edges(density, n)
            base = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
            low = 2 * n_edges // n
            n_high = 2 * n_edges - n * low
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                targets = np.full(n, low, dtype=np.intp)
                pick = rng.choice(n, size=n_high, replace=False)
                assert np.array_equal(pick, twin.choice(n, size=n_high, replace=False))
                targets[pick] += 1
                got = netgen._fill_to_targets(n, base, n_edges - n, targets, rng)
                want = _fill_to_targets_choice(n, base, n_edges - n, targets, twin)
                assert got == want
                assert rng.bit_generator.state == twin.bit_generator.state
                outcomes["dead end" if got is None else "filled"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_pref_attach_matches_choice_oracle_draw_for_draw():
    sizes = np.random.default_rng(22)
    for seed in range(48):
        n = int(sizes.integers(2, 70))
        n_edges = int(sizes.integers(n - 1, n * (n - 1) // 2 + 1))
        power = (0.5, 1.0, 2.0, 3.0)[seed % 4]
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        g = gen_pref_attach(n, n_edges, power, rng)
        assert g == _pref_attach_choice(n, n_edges, power, twin)
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("r", [0, 1, 2, 99, 2**31, 3 * 2**30, 2**32 - 2])
def test_bounded_draw_matches_integers_word_for_word(r):
    # 3 * 2**30 rejects about a quarter of its words, so the rejection loop runs.
    rng, twin = np.random.default_rng(r), np.random.default_rng(r)
    with netgen._Words(rng, 16) as words:
        got = [words.bounded(r) for _ in range(500)]
    assert got == [int(twin.integers(r + 1)) for _ in range(500)]
    assert rng.bit_generator.state == twin.bit_generator.state
    if r == 0:
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_pair_matches_two_subset_choice():
    # For size 2 numpy takes Floyd's algorithm at every population size.
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    for m in [*range(2, 201), 10_000]:
        with netgen._Words(rng, 8) as words:
            got = [words.pair(m) for _ in range(5)]
        assert got == [tuple(twin.choice(m, size=2, replace=False)) for _ in range(5)]
        assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_leading_eigenvalue_closed_forms():
    assert leading_adjacency_eigenvalue(complete_graph(6)) == pytest.approx(5.0, abs=1e-9)
    assert leading_adjacency_eigenvalue(star_graph(10)) == pytest.approx(3.0, abs=1e-9)
    assert leading_adjacency_eigenvalue(cycle_graph(10)) == pytest.approx(2.0, abs=1e-9)
    assert leading_adjacency_eigenvalue(path_graph(3)) == pytest.approx(np.sqrt(2), abs=1e-9)


def test_leading_eigenvalue_matches_dense_solver_and_bounds():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        g = gen_erdos_renyi(n, m, rng)
        lam = leading_adjacency_eigenvalue(g)
        dense = max(abs(np.linalg.eigvalsh(g.adjacency_matrix)))
        assert lam == pytest.approx(dense, abs=1e-8)
        assert lam <= g.degrees.max() + 1e-9
        assert lam >= g.degrees.mean() - 1e-9


# ---------------------------------------------------------------------------
# TopologySpec dispatch
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        TopologySpec(kind="XX", n=5, n_edges=4)
    with pytest.raises(ValueError):
        TopologySpec(kind="PA", n=5, n_edges=4)          # power missing
    with pytest.raises(ValueError):
        TopologySpec(kind="COM", n=10, n_edges=9, n_communities=3)  # ratio missing
    with pytest.raises(ValueError):
        TopologySpec(kind="ER", n=5, n_edges=3)
    with pytest.raises(ValueError):
        TopologySpec(kind="ER", n=5, n_edges=11)


def test_nan_power_and_ratio_are_rejected():
    # NaN fails every comparison, so a check written as "x < 1 raises"
    # would let it through.
    nan = float("nan")
    with pytest.raises(ValueError, match="positive power"):
        TopologySpec(kind="PA", n=10, n_edges=20, power=nan)
    with pytest.raises(ValueError, match="intra_inter_ratio"):
        TopologySpec(kind="COM", n=10, n_edges=20, n_communities=2, intra_inter_ratio=nan)
    with pytest.raises(ValueError, match="power must be positive"):
        gen_pref_attach(10, 20, nan, np.random.default_rng(1))
    with pytest.raises(ValueError, match="intra_inter_ratio"):
        gen_community(10, 20, 2, nan, np.random.default_rng(1))


@pytest.mark.parametrize("kind,extra", [
    ("ER", {}),
    ("COM", {"n_communities": 2, "intra_inter_ratio": 10.0}),
    ("LAT", {}),
    ("PA", {"power": 2.0}),
])
def test_spec_generate_dispatch_and_determinism(kind, extra):
    spec = TopologySpec(kind=kind, n=12, n_edges=20, **extra)
    g1 = spec.generate(np.random.default_rng(99))
    g2 = spec.generate(np.random.default_rng(99))
    g3 = spec.generate(np.random.default_rng(100))
    assert g1.n_edges == 20
    assert g1.is_connected()
    assert g1.fingerprint() == g2.fingerprint()
    assert g3.fingerprint() != g1.fingerprint() or kind == "LAT"  # LAT can coincide


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_graph_metrics_fields():
    # The summary `secnet generate` prints is read straight off the graph.
    g = gen_erdos_renyi(10, 13, np.random.default_rng(13))
    assert g.n == 10
    assert g.n_edges == 13
    assert g.density == pytest.approx(13 / 45)
    assert g.degrees.max() == max(sum(v in e for e in g.edges) for v in range(10))
    assert g.degrees.mean() == pytest.approx(2 * 13 / 10)
    assert g.is_connected()
    lam1 = np.linalg.eigvalsh(g.adjacency_matrix)[-1]
    assert leading_adjacency_eigenvalue(g) == pytest.approx(lam1, abs=1e-10)
