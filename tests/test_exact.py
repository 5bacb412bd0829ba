"""Exact chain tests against closed forms and brute-force enumeration."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from secnet import exact, netgen
from secnet.cli import EXIT_COMPUTE, main
from secnet.dynamics import Params, all_occupied, estimate_crude
from secnet.exact import (
    build_transition,
    convergence_diagnostics,
    extinction_heatmap,
    finite_horizon,
    finite_horizon_matrix_free,
    mean_extinction_time,
    qsd,
)
from secnet.netgen import ConvergenceError, Graph, gen_erdos_renyi


P1 = Graph(1, ())
P2 = Graph(2, ((0, 1),))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def oracle_transition_matrix(graph, e, c):
    """Brute-force kernel: enumerate every death set and colonisation set."""
    n = graph.n
    size = 1 << n
    nbrs = [list(np.nonzero(graph.adjacency_matrix[i])[0]) for i in range(n)]
    m = np.zeros((size, size))
    for s in range(size):
        occ = [i for i in range(n) if s >> i & 1]
        for deaths in range(1 << len(occ)):
            surv = [p for k, p in enumerate(occ) if not deaths >> k & 1]
            p_phase1 = e ** (len(occ) - len(surv)) * (1 - e) ** len(surv)
            mid = sum(1 << p for p in surv)
            empties = [i for i in range(n) if not mid >> i & 1]
            gain = [1 - (1 - c) ** sum(mid >> int(j) & 1 for j in nbrs[i])
                    for i in empties]
            for fill in range(1 << len(empties)):
                prob = p_phase1
                new = mid
                for k, i in enumerate(empties):
                    if fill >> k & 1:
                        prob *= gain[k]
                        new |= 1 << i
                    else:
                        prob *= 1 - gain[k]
                m[s, new] += prob
    return m


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

def test_single_patch_matrix():
    tm = build_transition(P1, Params(e=0.3, c=0.9))
    assert np.allclose(tm.M, [[1.0, 0.0], [0.3, 0.7]], atol=1e-15)


def test_matrices_are_stochastic_and_factorised():
    tm = build_transition(C4, Params(e=0.35, c=0.45))
    for mat in (tm.E, tm.C, tm.M):
        assert np.all(mat >= -1e-15)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(tm.M, tm.E @ tm.C, atol=1e-14)
    assert tm.M[0, 0] == 1.0  # empty state is absorbing
    assert np.all(tm.M[0, 1:] == 0.0)


def test_two_patch_kernel_row_closed_form():
    tm = build_transition(P2, Params(e=0.5, c=0.5))
    assert np.allclose(tm.M[0b11], [1 / 4, 1 / 8, 1 / 8, 1 / 2], atol=1e-15)


@pytest.mark.parametrize("e,c", [(0.2, 0.7), (0.5, 0.5), (0.9, 0.05)])
def test_kernel_matches_brute_force_enumeration(e, c):
    for graph in (P2, C4, gen_erdos_renyi(5, 7, np.random.default_rng(21))):
        tm = build_transition(graph, Params(e=e, c=c))
        assert np.allclose(tm.M, oracle_transition_matrix(graph, e, c), atol=1e-13)


@pytest.mark.parametrize("e,c", [(0.0, 0.3), (0.2, 0.7), (0.9, 0.05)])
def test_colonisation_sweep_matches_dense_oracles(e, c):
    rng = np.random.default_rng(40)
    graphs = (P1, P2, C4, gen_erdos_renyi(5, 7, np.random.default_rng(21)),
              gen_erdos_renyi(8, 13, np.random.default_rng(24)))
    for graph in graphs:
        tm = build_transition(graph, Params(e, c))
        cm = tm.C
        rows = np.array([tm.colonise(x) for x in np.eye(tm.n_states)])
        assert np.allclose(rows, cm, rtol=0.0, atol=1e-15)
        assert np.allclose(rows, oracle_transition_matrix(graph, 0.0, c), rtol=0.0, atol=1e-15)
        v = rng.random(tm.n_states)
        v /= v.sum()
        assert np.allclose(tm.apply(v), v @ tm.M, rtol=0.0, atol=1e-15)


# Graphs whose split order matters: patches that collapse as soon as they
# split (P1, no edges), a hub, a long chain, nothing collapsing before the
# end (K6), and two components.
ORDER_GRAPHS = {
    "P1": P1,
    "edgeless-5": Graph(5, ()),
    "star-7": Graph(8, tuple((0, i) for i in range(1, 8))),
    "path-8": Graph(8, tuple((i, i + 1) for i in range(7))),
    "K6": Graph(6, tuple((i, j) for i in range(6) for j in range(i + 1, 6))),
    "two-triangles": Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))),
}


@pytest.mark.parametrize("name", list(ORDER_GRAPHS))
def test_frontier_sweep_matches_oracles_on_every_order_shape(name):
    graph, c = ORDER_GRAPHS[name], 0.35
    tm = build_transition(graph, Params(0.2, c))
    rows = np.array([tm.colonise(x) for x in np.eye(tm.n_states)])
    assert np.allclose(rows, tm.C, rtol=0.0, atol=1e-15)
    assert np.allclose(rows, oracle_transition_matrix(graph, 0.0, c), rtol=0.0, atol=1e-15)
    v = np.random.default_rng(41).random(tm.n_states)
    first = tm.apply(v)
    second = tm.apply(v)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    for out in (first, second):
        assert not any(np.shares_memory(out, buf) for buf in tm._sweep_buffers)


# Extinction runs in Kronecker blocks of 4 patches: one block is the whole of
# E at n = 3 and 4, and the top block is partial at n = 5, 9 and 10.
@pytest.mark.parametrize("n", [3, 4, 5, 9, 10])
@pytest.mark.parametrize("e", [0.0, 0.3, 1.0])
def test_block_extinction_matches_the_dense_oracle_at_block_edges(n, e):
    graph = gen_erdos_renyi(n, max(n - 1, n * (n - 1) // 6), np.random.default_rng(50 + n))
    tm = build_transition(graph, Params(e, 0.3))
    v = np.random.default_rng(51).random(tm.n_states)
    v /= v.sum()
    out = tm.apply(v)
    assert np.allclose(out, v @ tm.M, rtol=0.0, atol=1e-15)
    kept = [block for _, block in tm._extinction_blocks]
    kept += [*tm._split_order, *tm._sweep_buffers]
    assert not any(np.shares_memory(out, a) for a in kept)


def test_relabelled_graph_gives_the_same_horizon():
    g = gen_erdos_renyi(9, 14, np.random.default_rng(42))
    perm = np.random.default_rng(43).permutation(9)
    h = Graph(9, [(perm[u], perm[v]) for u, v in g.edges])
    z0 = 0b101100101
    z0_h = sum(1 << int(perm[i]) for i in range(9) if z0 >> i & 1)
    params = Params(0.3, 0.2)
    a = finite_horizon(build_transition(g, params), z0, 40)
    b = finite_horizon(build_transition(h, params), z0_h, 40)
    assert np.allclose(a.p_extinct, b.p_extinct, rtol=0.0, atol=1e-15)
    assert np.allclose(a.mean_occ, b.mean_occ, rtol=0.0, atol=1e-15)


def test_sweep_tables_stay_small_on_a_path():
    # The split-everything sweep held 3**16 - 2**16 (about 43 M) floats here.
    n = 16
    path = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    tm = build_transition(path, Params(0.2, 0.3), cap=exact.MAX_N)
    assert sum(p.size for p in tm.tables) <= n * 2 ** n


def test_dense_caps():
    g13 = gen_erdos_renyi(13, 14, np.random.default_rng(22))
    with pytest.raises(ValueError):
        build_transition(g13, Params(0.5, 0.5))  # beyond the default cap
    tm = build_transition(g13, Params(0.5, 0.5), cap=13)
    assert tm.n_states == 8192
    with pytest.raises(ValueError):
        build_transition(gen_erdos_renyi(15, 16, np.random.default_rng(23)),
                         Params(0.5, 0.5), cap=exact.MAX_N + 1)


def test_no_dense_extinction_or_generation_matrix_on_any_propagation_path(monkeypatch):
    g = gen_erdos_renyi(6, 9, np.random.default_rng(37))
    params = Params(0.3, 0.25)
    tm = build_transition(g, params)
    fields = [getattr(tm, f.name) for f in dataclasses.fields(tm)]
    assert sum(isinstance(a, np.ndarray) and a.shape == (64, 64) for a in fields) == 0

    def refuse(self):
        raise AssertionError("a dense E, C or M was built on a propagation path")

    for name in ("E", "C", "M"):
        monkeypatch.setattr(exact.TransitionMatrices, name, property(refuse))
    z0 = all_occupied(6)
    assert 0.0 < finite_horizon(tm, z0, 20).p_extinct[-1] < 1.0
    assert qsd(tm).residual <= 1e-8
    hm = extinction_heatmap(g, [0.3], [0.25], n_gen=20, method="exact")
    assert 0.0 < hm.p_extinct[0, 0] < 1.0
    assert 0.0 < finite_horizon_matrix_free(g, params, z0, 20).p_extinct[-1] < 1.0
    assert mean_extinction_time(tm, z0) >= 1.0


# ---------------------------------------------------------------------------
# finite horizon
# ---------------------------------------------------------------------------

def test_single_patch_horizon_closed_form():
    e, t_max = 0.25, 40
    table = finite_horizon(build_transition(P1, Params(e, 0.8)), 1, t_max)
    t = np.arange(t_max + 1)
    assert np.allclose(table.p_persist, (1 - e) ** t, atol=1e-12)
    assert np.allclose(table.p_extinct, 1 - (1 - e) ** t, atol=1e-12)
    assert np.allclose(table.cond_mean_occ, 1.0, atol=1e-12)


def test_independent_patches_closed_form():
    # c = 0 decouples the patches: persistence is 1 - (1 - (1-e)^t)^n
    e, n, t_max = 0.3, 5, 30
    g = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    table = finite_horizon(build_transition(g, Params(e, 0.0)), all_occupied(n), t_max)
    t = np.arange(t_max + 1)
    expected = 1 - (1 - (1 - e) ** t) ** n
    assert np.allclose(table.p_persist, expected, atol=1e-12)
    assert np.allclose(table.mean_occ, n * (1 - e) ** t, atol=1e-12)


def test_horizon_table_consistency():
    tm = build_transition(C4, Params(0.4, 0.3))
    table = finite_horizon(tm, 0b0101, 60)
    assert table.p_persist[0] == 1.0
    assert np.all(np.diff(table.p_persist) <= 1e-15)
    assert np.allclose(table.p_persist + table.p_extinct, 1.0, atol=1e-14)
    assert np.allclose(table.mean_occ, table.cond_mean_occ * table.p_persist,
                       atol=1e-14)


def test_matrix_free_horizon_matches_dense():
    g = gen_erdos_renyi(8, 13, np.random.default_rng(24))
    params = Params(0.35, 0.2)
    m = build_transition(g, params).M
    pc = np.array([bin(z).count("1") for z in range(256)], dtype=float)
    for z0 in (all_occupied(8), 0b10011010, 0b1):
        v = np.zeros(256)
        v[z0] = 1.0
        dense = [v]
        for _ in range(25):
            dense.append(dense[-1] @ m)
        dense = np.array(dense)
        p_persist = 1.0 - dense[:, 0]
        mean_occ = dense @ pc
        free = finite_horizon_matrix_free(g, params, z0, 25)
        assert np.allclose(free.p_persist, p_persist, atol=1e-12)
        assert np.allclose(free.mean_occ, mean_occ, atol=1e-12)
        assert np.allclose(free.cond_mean_occ, mean_occ / p_persist, atol=1e-12)


def test_matrix_free_cap():
    g = gen_erdos_renyi(21, 30, np.random.default_rng(25))
    with pytest.raises(ValueError):
        finite_horizon_matrix_free(g, Params(0.5, 0.5), all_occupied(21), 5)


def test_horizon_matches_crude_simulation():
    g = gen_erdos_renyi(6, 9, np.random.default_rng(26))
    params = Params(0.45, 0.25)
    table = finite_horizon(build_transition(g, params), all_occupied(6), 15)
    report = estimate_crude(g, params, all_occupied(6), 15, 40_000, seed=27)
    for t in (1, 5, 15):
        p = table.p_persist[t]
        se = math.sqrt(p * (1 - p) / 40_000)
        assert abs(report.persistence_series[t] - p) < 4 * se


# ---------------------------------------------------------------------------
# quasi-stationary distribution and spectrum
# ---------------------------------------------------------------------------

def test_spectrum_of_m_is_one_plus_spectrum_of_r():
    tm = build_transition(gen_erdos_renyi(5, 7, np.random.default_rng(28)),
                          Params(0.4, 0.3))
    m = tm.M
    ev_m = np.sort_complex(np.linalg.eigvals(m))
    ev_r = np.sort_complex(np.concatenate([np.linalg.eigvals(m[1:, 1:]), [1.0]]))
    assert np.allclose(ev_m, ev_r, atol=1e-10)


def test_qsd_two_patch_closed_form():
    tm = build_transition(P2, Params(0.5, 0.5))
    res = qsd(tm)
    s5 = math.sqrt(5.0)
    assert res.lambda1 == pytest.approx((3 + s5) / 8, abs=1e-9)
    assert res.lambda2_abs == pytest.approx(0.25, abs=1e-8)
    expected_alpha = np.array([1.0, 1.0, 1 + s5]) / (3 + s5)
    assert np.allclose(res.alpha, expected_alpha, atol=1e-8)


def test_qsd_invariants_and_residual():
    tm = build_transition(gen_erdos_renyi(6, 10, np.random.default_rng(29)),
                          Params(0.3, 0.25))
    res = qsd(tm)
    assert res.alpha.shape == (tm.n_states - 1,)
    assert np.all(res.alpha >= 0)
    assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-8
    r = tm.M[1:, 1:]
    assert np.max(np.abs(res.alpha @ r - res.lambda1 * res.alpha)) <= 1e-8
    # spectral cross-check against a dense solver
    ev = np.abs(np.linalg.eigvals(r))
    ev.sort()
    assert res.lambda1 == pytest.approx(ev[-1], abs=1e-10)
    assert res.lambda2_abs == pytest.approx(ev[-2], abs=1e-8)


def test_qsd_lambda2_handles_complex_subdominant_pairs():
    # On this graph the deflated matrix has a complex conjugate subdominant
    # pair, so a raw growth-ratio iteration would oscillate forever.
    graph = gen_erdos_renyi(6, 9, np.random.default_rng(11))
    for e, c in [(0.3, 0.3), (0.2, 0.5), (0.5, 0.1)]:
        tm = build_transition(graph, Params(e, c))
        res = qsd(tm)
        ev = np.sort(np.abs(np.linalg.eigvals(tm.M[1:, 1:])))
        assert res.lambda2_abs == pytest.approx(ev[-2], abs=1e-8)
        assert res.lambda2_abs < res.lambda1


def test_qsd_and_mean_time_match_dense_oracles():
    g = gen_erdos_renyi(10, netgen.density_to_n_edges(0.3, 10), np.random.default_rng(39))
    tm = build_transition(g, Params(0.1, 0.05))
    res = qsd(tm)
    r = tm.M[1:, 1:]
    ev = np.sort(np.abs(np.linalg.eigvals(r)))
    assert abs(res.lambda1 - ev[-1]) <= 1e-12
    assert abs(res.lambda2_abs - ev[-2]) <= 1e-12
    m = np.linalg.solve(np.eye(r.shape[0]) - r, np.ones(r.shape[0]))
    for z0 in (all_occupied(10), 0b1, 0b1000100010):
        assert mean_extinction_time(tm, z0) == pytest.approx(m[z0 - 1], rel=1e-10)


@pytest.mark.parametrize("e, c", [(0.05, 0.2), (0.05, 0.5)])
def test_mean_time_matches_dense_solve_in_persistent_chains(e, c):
    # Mean times of about 4e4 and 3e7 generations.  The residual of a long
    # mean time cannot fall below rounding of order eps * |x|, and the
    # forward error of GMRES and of a dense solve alike grows with the
    # condition number of I - R, about the mean time itself.
    g = gen_erdos_renyi(8, netgen.density_to_n_edges(0.3, 8), np.random.default_rng(39))
    tm = build_transition(g, Params(e, c))
    r = tm.M[1:, 1:]
    m = np.linalg.solve(np.eye(r.shape[0]) - r, np.ones(r.shape[0]))
    assert m.min() >= 1e4
    for z0 in (all_occupied(8), 0b1, 0b10010):
        assert mean_extinction_time(tm, z0) == pytest.approx(m[z0 - 1], rel=1e-15 * m[z0 - 1])


@pytest.mark.parametrize("c", [0.6, 0.9])
@pytest.mark.parametrize("kind, power", [("ER", None), ("PA", 1.0)])
def test_qsd_is_a_distribution_when_lambda1_rounds_to_one(kind, power, c):
    # Unclipped, the Arnoldi vector puts -7e-19 on a state with almost no
    # mass, and lambda1 reads a few ulps above 1.
    spec = netgen.TopologySpec(kind=kind, n=10, power=power,
                               n_edges=netgen.density_to_n_edges(0.3, 10))
    res = qsd(build_transition(spec.generate(np.random.default_rng(39)), Params(0.01, c)))
    assert res.lambda1 <= 1.0
    assert res.alpha.min() >= 0.0
    assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-12


def test_mean_time_non_convergence_raises(monkeypatch):
    g = gen_erdos_renyi(8, 13, np.random.default_rng(24))
    monkeypatch.setattr(exact, "GMRES_RESTART", 1)
    monkeypatch.setattr(exact, "MEAN_TIME_MAX_CYCLES", 1)
    with pytest.raises(ConvergenceError):
        mean_extinction_time(build_transition(g, Params(0.3, 0.25)), all_occupied(8))


def test_qsd_non_convergence_raises_and_exits_4(monkeypatch, tmp_path):
    g = gen_erdos_renyi(8, 13, np.random.default_rng(24))
    monkeypatch.setattr(exact, "QSD_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        qsd(build_transition(g, Params(0.3, 0.25)))
    graph_path = tmp_path / "g.json"
    netgen.write_graph_json(g, graph_path)
    rc = main(["exact", "--graph", str(graph_path), "--e", "0.3", "--c", "0.25",
               "--gens", "5", "--out", str(tmp_path / "h.csv"),
               "--qsd", str(tmp_path / "q.csv")])
    assert rc == EXIT_COMPUTE


def test_qsd_runs_one_krylov_solve(monkeypatch):
    # n = 4 has 15 transient states, enough for ARPACK rather than the
    # dense fallback; every product with R goes through ``apply``.
    applications = 0
    apply = exact.TransitionMatrices.apply

    def counted(self, v):
        nonlocal applications
        applications += 1
        return apply(self, v)

    monkeypatch.setattr(exact.TransitionMatrices, "apply", counted)
    res = qsd(build_transition(C4, Params(0.45, 0.35)))
    assert res.iterations == applications - 1  # the residual takes one more


def test_qsd_rejects_degenerate_rates():
    with pytest.raises(ValueError):
        qsd(build_transition(P2, Params(0.0, 0.5)))
    with pytest.raises(ValueError):
        qsd(build_transition(P2, Params(0.5, 0.0)))


# ---------------------------------------------------------------------------
# mean extinction time
# ---------------------------------------------------------------------------

def test_mean_extinction_time_single_patch():
    for e in (0.1, 0.5, 0.9):
        tm = build_transition(P1, Params(e, 0.4))
        assert mean_extinction_time(tm, 1) == pytest.approx(1 / e, rel=1e-12)


def test_mean_extinction_time_independent_pair():
    # two isolated patches: E[max of two geometrics] = 2/e - 1/(1-(1-e)^2)
    e = 0.4
    g = Graph(2, ())
    tm = build_transition(g, Params(e, 0.7))  # c is irrelevant without edges
    expected = 2 / e - 1 / (1 - (1 - e) ** 2)
    assert mean_extinction_time(tm, 0b11) == pytest.approx(expected, rel=1e-12)
    assert mean_extinction_time(tm, 0b01) == pytest.approx(1 / e, rel=1e-12)
    with pytest.raises(ValueError):
        mean_extinction_time(tm, 0)


def test_mean_extinction_time_dominates_horizon_mass():
    tm = build_transition(C4, Params(0.5, 0.2))
    mt = mean_extinction_time(tm, all_occupied(4))
    table = finite_horizon(tm, all_occupied(4), 400)
    # discrete tail-sum identity: E[T] = sum_t P(T > t)
    assert mt == pytest.approx(float(table.p_persist.sum()), abs=1e-6)


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------

def test_convergence_diagnostics_reaches_the_qsd_regime():
    g = gen_erdos_renyi(5, 7, np.random.default_rng(30))
    tm = build_transition(g, Params(0.25, 0.4))
    res = qsd(tm)
    table = finite_horizon(tm, all_occupied(5), 120, keep_tail=12)
    rep = convergence_diagnostics(res, table)
    assert rep.tail_ratio_mean == pytest.approx(res.lambda1, abs=1e-6)
    assert rep.tail_ratio_deviation <= 1e-6
    assert rep.tv_to_qsd <= 1e-6
    assert len(rep.tv_series) == 12
    assert rep.lambda1 == res.lambda1


def test_convergence_diagnostics_needs_a_long_horizon():
    tm = build_transition(P2, Params(0.5, 0.5))
    res = qsd(tm)
    table = finite_horizon(tm, 0b11, 20, keep_tail=5)
    with pytest.raises(ValueError):
        convergence_diagnostics(res, table)


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------

def test_heatmap_monotone_in_both_rates():
    g = gen_erdos_renyi(6, 9, np.random.default_rng(31))
    e_grid = np.linspace(0.1, 0.8, 5)
    c_grid = np.linspace(0.05, 0.6, 5)
    hm = extinction_heatmap(g, e_grid, c_grid, n_gen=40)
    assert hm.method == "exact"
    assert hm.p_extinct.shape == (5, 5)
    assert np.all(np.diff(hm.p_extinct, axis=0) >= -1e-12)  # worse with e
    assert np.all(np.diff(hm.p_extinct, axis=1) <= 1e-12)   # better with c
    assert np.allclose(hm.contour_c, e_grid / hm.lambda1, atol=1e-12)


def test_heatmap_cells_are_finite_horizons():
    g = gen_erdos_renyi(6, 9, np.random.default_rng(38))
    e_grid, c_grid, z0 = (0.1, 0.4, 0.7), (0.05, 0.3), 0b101101
    hm = extinction_heatmap(g, e_grid, c_grid, n_gen=25, z0=z0, method="exact")
    for i, e in enumerate(e_grid):
        for j, c in enumerate(c_grid):
            table = finite_horizon(build_transition(g, Params(e, c)), z0, 25)
            assert hm.p_extinct[i, j] == pytest.approx(table.p_extinct[-1], abs=1e-12)


def test_heatmap_sim_agrees_with_exact():
    g = gen_erdos_renyi(5, 6, np.random.default_rng(32))
    e_grid = np.array([0.3, 0.6])
    c_grid = np.array([0.1, 0.4])
    ex = extinction_heatmap(g, e_grid, c_grid, n_gen=15)
    sim = extinction_heatmap(g, e_grid, c_grid, n_gen=15, method="sim",
                             n_reps=20_000, seed=33)
    assert sim.method == "sim"
    se = np.sqrt(ex.p_extinct * (1 - ex.p_extinct) / 20_000)
    assert np.all(np.abs(sim.p_extinct - ex.p_extinct) < 4 * se + 1e-9)


def test_heatmap_auto_switches_to_sim_for_large_n():
    g = gen_erdos_renyi(16, 24, np.random.default_rng(34))
    hm = extinction_heatmap(g, np.array([0.5]), np.array([0.2]), n_gen=5,
                            n_reps=200, seed=35)
    assert hm.method == "sim"


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_horizon_csv_round_trip(tmp_path):
    tm = build_transition(P2, Params(0.5, 0.5))
    table = finite_horizon(tm, 0b11, 8)
    path = tmp_path / "horizon.csv"
    exact.write_horizon_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 10
    values = [float(x) for x in lines[-1].split(",")[1:]]
    assert values[0] == pytest.approx(table.p_extinct[-1], rel=1e-15)


def test_qsd_csv(tmp_path):
    tm = build_transition(P2, Params(0.5, 0.5))
    res = qsd(tm)
    path = tmp_path / "qsd.csv"
    exact.write_qsd_csv(res, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + three transient states
    total = sum(float(ln.split(",")[-1]) for ln in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-10)


def test_heatmap_csv(tmp_path):
    g = gen_erdos_renyi(5, 6, np.random.default_rng(36))
    hm = extinction_heatmap(g, np.array([0.2, 0.5]), np.array([0.1, 0.3]), n_gen=10)
    grid_path = tmp_path / "grid.csv"
    contour_path = tmp_path / "contour.csv"
    exact.write_heatmap_csv(hm, grid_path, contour_path)
    grid_lines = grid_path.read_text().splitlines()
    assert len(grid_lines) == 5  # 2x2 grid
    assert grid_lines[0].split(",")[:3] == ["e", "c", "p_extinct"]
    assert len(contour_path.read_text().splitlines()) == 3