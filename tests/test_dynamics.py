"""Kernel-level tests: one-step law, trajectories, crude Monte Carlo, the
pinned RNG protocols, the two neighbour-count forms and the kernel's module
boundary."""

import ast
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from secnet import dynamics, exact
from secnet.dynamics import (
    BLOCK_REPS,
    RNG_PROTOCOL,
    Kernel,
    Params,
    all_occupied,
    array_to_state,
    estimate_crude,
    simulate,
    state_to_array,
    write_report_csv,
    write_trajectory_csv,
)
from secnet.meanfield import mf_iterate
from secnet.netgen import Graph
from secnet.rareevent import (
    SplittingConfig,
    default_twist_schedule,
    ips_persistence,
    is_extinction,
    split_extinction,
)


P2 = Graph(2, ((0, 1),))
STAR5 = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))


# ---------------------------------------------------------------------------
# parameters and state codecs
# ---------------------------------------------------------------------------

def test_params_validation():
    Params(e=0.0, c=1.0)
    with pytest.raises(ValueError):
        Params(e=-0.1, c=0.5)
    with pytest.raises(ValueError):
        Params(e=0.5, c=1.5)


def test_state_codec_round_trip():
    for n in (1, 3, 7):
        for state in range(1 << n):
            arr = state_to_array(state, n)
            assert arr.shape == (n,)
            assert array_to_state(arr) == state
    assert all_occupied(4) == 0b1111
    assert state_to_array(0b101, 3).tolist() == [1, 0, 1]


# ---------------------------------------------------------------------------
# one-step law
# ---------------------------------------------------------------------------

def test_empty_state_is_absorbing():
    rng = np.random.default_rng(0)
    for params in (Params(0.3, 0.7), Params(0.0, 1.0), Params(1.0, 1.0)):
        kernel = Kernel.prepare(P2, params)
        survivors, nxt = kernel.step(kernel.start(0, 8), rng)
        assert not survivors.any() and not nxt.any()


def test_no_extinction_means_monotone_growth():
    rng = np.random.default_rng(1)
    params = Params(e=0.0, c=0.6)
    state = 1
    for _ in range(30):
        new = simulate(STAR5, params, state, 1, rng).states[1]
        assert new & state == state  # occupied patches never vanish
        state = new
    assert state == all_occupied(5)  # c > 0 eventually fills the star


def test_no_colonisation_means_monotone_decay():
    rng = np.random.default_rng(2)
    params = Params(e=0.4, c=0.0)
    state = all_occupied(5)
    for _ in range(200):
        new = simulate(STAR5, params, state, 1, rng).states[1]
        assert new & ~state == 0  # empty patches stay empty
        state = new
    assert state == 0


def test_certain_extinction_kills_everything():
    rng = np.random.default_rng(3)
    params = Params(e=1.0, c=1.0)
    assert simulate(P2, params, 0b11, 1, rng).states[1] == 0


def test_full_colonisation_from_hub():
    rng = np.random.default_rng(5)
    params = Params(e=0.0, c=1.0)
    assert simulate(STAR5, params, 0b00001, 1, rng).states[1] == all_occupied(5)


def test_two_patch_kernel_frequencies():
    # from (1,1) with e=c=1/2: stay w.p. 1/2, die w.p. 1/4, each single 1/8
    rng = np.random.default_rng(6)
    params = Params(e=0.5, c=0.5)
    draws = 20_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[simulate(P2, params, 0b11, 1, rng).states[1]] += 1
    expected = np.array([0.25, 0.125, 0.125, 0.5])
    sigma = np.sqrt(draws * expected * (1 - expected))
    assert np.all(np.abs(counts - draws * expected) < 4 * sigma)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_simulate_shape_and_absorption():
    params = Params(e=0.8, c=0.1)
    traj = simulate(STAR5, params, all_occupied(5), 50, np.random.default_rng(8))
    assert traj.n == 5
    assert len(traj.states) == 51
    assert traj.states[0] == all_occupied(5)
    hit = False
    for s in traj.states:
        if hit:
            assert s == 0
        hit = hit or s == 0
    assert hit  # e=0.8 on five patches dies well before t=50


def test_simulate_deterministic_under_seed():
    params = Params(e=0.3, c=0.4)
    t1 = simulate(STAR5, params, 0b10101, 40, np.random.default_rng(9))
    t2 = simulate(STAR5, params, 0b10101, 40, np.random.default_rng(9))
    assert t1.states == t2.states


def test_trajectory_csv(tmp_path):
    traj = simulate(P2, Params(0.5, 0.5), 0b11, 5, np.random.default_rng(10))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,occupied_count,state_hex"
    assert len(lines) == 7
    assert lines[1] == "0,2,3"


# ---------------------------------------------------------------------------
# crude Monte Carlo
# ---------------------------------------------------------------------------

def test_crude_validation():
    with pytest.raises(ValueError):
        estimate_crude(P2, Params(0.5, 0.5), 0b11, 10, 0, 0)
    with pytest.raises(ValueError):
        estimate_crude(P2, Params(0.5, 0.5), 0b11, -1, 10, 0)


def test_crude_single_patch_matches_closed_form():
    g = Graph(1, ())
    e, t, reps = 0.2, 12, 20_000
    report = estimate_crude(g, Params(e, 0.9), 1, t, reps, seed=11)
    truth = (1 - e) ** t
    se = math.sqrt(truth * (1 - truth) / reps)
    assert abs(report.persistence.value - truth) < 4 * se
    # one patch: occupancy count equals survival indicator
    assert report.occupancy.value == pytest.approx(report.persistence.value)
    assert report.conditional_occupancy.value in (0.0, 1.0)


def test_crude_consistency_identities():
    report = estimate_crude(STAR5, Params(0.3, 0.2), all_occupied(5), 25, 4000, seed=12)
    p = report.persistence.value
    occ = report.occupancy.value
    cond = report.conditional_occupancy.value
    assert occ == pytest.approx(cond * p, rel=1e-12)
    assert np.all(np.diff(report.persistence_series) <= 1e-15)
    assert report.persistence_series[0] == 1.0
    assert report.occupancy_series[0] == 5.0
    assert report.persistence.diagnostics["n_survivors"] + \
        report.persistence.diagnostics["n_extinct"] == 4000


def test_crude_deterministic_and_seed_type_agnostic():
    args = (STAR5, Params(0.25, 0.3), all_occupied(5), 15, BLOCK_REPS + 77)
    r1 = estimate_crude(*args, seed=13)
    r2 = estimate_crude(*args, seed=13)
    r3 = estimate_crude(*args, seed=np.random.SeedSequence(13))
    r4 = estimate_crude(*args, seed=14)
    assert np.array_equal(r1.occupancy_series, r2.occupancy_series)
    assert np.array_equal(r1.occupancy_series, r3.occupancy_series)
    assert r1.persistence.value != r4.persistence.value
    assert r1.persistence.method == "crude"
    assert r1.persistence.n_work == BLOCK_REPS + 77


def test_crude_empty_start_and_zero_horizon():
    report = estimate_crude(P2, Params(0.5, 0.5), 0, 5, 100, seed=15)
    assert report.persistence.value == 0.0
    assert report.occupancy.value == 0.0
    report = estimate_crude(P2, Params(0.5, 0.5), 0b11, 0, 100, seed=16)
    assert report.persistence.value == 1.0
    assert report.occupancy.value == 2.0


def test_report_csv(tmp_path):
    report = estimate_crude(P2, Params(0.4, 0.4), 0b11, 3, 500, seed=17)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_persist,mean_occ,cond_mean_occ"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[1]) == 1.0
    assert float(first[2]) == 2.0


# ---------------------------------------------------------------------------
# RNG protocol v1
# ---------------------------------------------------------------------------

G6 = Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))

# Fixed-seed outputs of RNG protocol v1.
# They pin which sample each route draws, not only its law: a refactor of
# the kernel or of an estimator must reproduce them bit for bit, and a
# deliberate protocol change must get a new version rather than new values.
PROTOCOL_V1 = {
"crude": (0.9297153024911032, 0.007624690577992279,
          3.9955516014234878, 0.05195311779486412,
          4.297607655502392, 0.043352641440421336),
"persistence_series": (1.0, 1.0, 0.9919928825622776, 0.9786476868327402,
                       0.9608540925266904, 0.9297153024911032),
"occupancy_series": (6.0, 5.1361209964412815, 4.627224199288256,
                     4.364768683274021, 4.114768683274021, 3.9955516014234878),
"conditional_occupancy_series": (6.0, 5.1361209964412815, 4.66457399103139,
                                 4.46, 4.282407407407407, 4.297607655502392),
"simulate": (45, 53, 60, 62, 52, 47, 47, 63, 31, 26, 11, 15, 13),
"ips": (0.5201408288041205, 0.035953637009514955),
"is": (0.04775819601231724, 0.005955430861086739),
"split": (0.06841867228880959, 0.01451425332968939),
}


def test_rng_protocol_v1_outputs_are_pinned():
    full = all_occupied(6)
    want = PROTOCOL_V1
    crude_params = Params(0.3, 0.4)
    rare_params = Params(0.2, 0.3)
    r = estimate_crude(G6, crude_params, full, 5, BLOCK_REPS + 100, seed=2024, protocol=1)
    got_crude = tuple(float(x) for est in (r.persistence, r.occupancy,
                                           r.conditional_occupancy)
                      for x in (est.value, est.se))
    assert got_crude == want["crude"]
    assert tuple(r.persistence_series) == want["persistence_series"]
    assert tuple(r.occupancy_series) == want["occupancy_series"]
    assert tuple(r.conditional_occupancy_series) == want["conditional_occupancy_series"]
    traj = simulate(G6, crude_params, 0b101101, 12, np.random.default_rng(7), protocol=1)
    assert traj.states == want["simulate"]
    ips = ips_persistence(G6, Params(0.35, 0.3), full, 10, 50, seed=3, n_batches=4,
                          protocol=1)
    assert (ips.value, ips.se) == want["ips"]
    is_ = is_extinction(G6, rare_params, full, 8,
                        default_twist_schedule(0.2, 8), 300, seed=4, protocol=1)
    assert (is_.value, is_.se) == want["is"]
    sp = split_extinction(G6, rare_params, full, 10, SplittingConfig((4, 2), 10),
                          seed=5, n_replications=3, protocol=1)
    assert (sp.value, sp.se) == want["split"]


def _random_graph(n: int, n_edges: int, seed: int) -> Graph:
    """``n_edges`` distinct pairs drawn uniformly, with no connectivity check."""
    iu, iv = np.triu_indices(n, 1)
    pick = np.random.default_rng(seed).choice(iu.size, n_edges, replace=False)
    return Graph(n, zip(iu[pick].tolist(), iv[pick].tolist()))


# 300 patches and 900 edges (density 0.020, one isolated patch): a graph the
# kernel counts by CSR.  The values were recorded with the dense count, so
# they pin that the CSR form draws the same sample bit for bit.
G300 = _random_graph(300, 900, seed=300)

PROTOCOL_V1_SPARSE = {
"crude": (0.2571174377224199, 0.013035950187036406,
          0.6272241992882562, 0.04058205594303322,
          2.4394463667820068, 0.09811212432505345),
"persistence_series": (1.0, 0.99644128113879, 0.9395017793594306,
                       0.7784697508896797, 0.5889679715302492,
                       0.4012455516014235, 0.2571174377224199),
"occupancy_series": (12.0, 7.604982206405694, 4.668149466192171,
                     2.8905693950177938, 1.7072953736654803,
                     0.9884341637010676, 0.6272241992882562),
"conditional_occupancy_series": (12.0, 7.632142857142857, 4.96875,
                                 3.713142857142857, 2.8987915407854983,
                                 2.4634146341463414, 2.4394463667820068),
"simulate_counts": (12, 8, 9, 6, 2, 1, 0, 0, 0, 0, 0, 0, 0),
"simulate_sha256": "8f5e4596006ae0c7d372a994f69bac4c408882a1733e46cc0e4d339e1c308837",
"ips": (0.28844361408, 0.030221358242019707),
"is": (0.1890580239690377, 0.007341705017806918),
"split": (0.25510750119445774, 0.029838506145677197),
}


def test_rng_protocol_v1_outputs_are_pinned_on_a_sparse_graph():
    assert not isinstance(Kernel.prepare(G300, Params(0.6, 0.08)).adjacency, np.ndarray)
    z0 = (1 << 12) - 1
    want = PROTOCOL_V1_SPARSE
    params = Params(0.6, 0.08)
    rare_params = Params(0.45, 0.08)
    r = estimate_crude(G300, params, z0, 6, BLOCK_REPS + 100, seed=2025, protocol=1)
    got_crude = tuple(float(x) for est in (r.persistence, r.occupancy,
                                           r.conditional_occupancy)
                      for x in (est.value, est.se))
    assert got_crude == want["crude"]
    assert tuple(r.persistence_series) == want["persistence_series"]
    assert tuple(r.occupancy_series) == want["occupancy_series"]
    assert tuple(r.conditional_occupancy_series) == want["conditional_occupancy_series"]
    traj = simulate(G300, params, z0, 12, np.random.default_rng(8), protocol=1)
    assert tuple(traj.occupied_counts) == want["simulate_counts"]
    assert hashlib.sha256(repr(traj.states).encode()).hexdigest() == \
        want["simulate_sha256"]
    ips = ips_persistence(G300, params, z0, 6, 50, seed=3, n_batches=4, protocol=1)
    assert (ips.value, ips.se) == want["ips"]
    is_ = is_extinction(G300, rare_params, z0, 6, default_twist_schedule(0.45, 6),
                        BLOCK_REPS + 100, seed=4, protocol=1)
    assert (is_.value, is_.se) == want["is"]
    sp = split_extinction(G300, rare_params, z0, 6, SplittingConfig((6, 2), 10),
                          seed=5, n_replications=3, protocol=1)
    assert (sp.value, sp.se) == want["split"]


# ---------------------------------------------------------------------------
# RNG protocol v2
# ---------------------------------------------------------------------------

# Fixed-seed outputs of RNG protocol v2, from the same calls as the v1 tables.
PROTOCOL_V2 = {
"crude": (0.9306049822064056, 0.007579903501943359,
          3.9813167259786475, 0.0515830007390756,
          4.278202676864245, 0.04309517348314788),
"persistence_series": (1.0, 1.0, 0.9937722419928826, 0.9804270462633452,
                       0.9501779359430605, 0.9306049822064056),
"occupancy_series": (6.0, 5.1637010676156585, 4.725978647686833,
                     4.379003558718861, 4.181494661921708, 3.9813167259786475),
"conditional_occupancy_series": (6.0, 5.1637010676156585, 4.755595344673232,
                                 4.466424682395644, 4.400749063670412, 4.278202676864245),
"simulate": (45, 53, 29, 28, 48, 48, 24, 0, 0, 0, 0, 0, 0),
"ips": (0.5982524456133427, 0.04150554897756719),
"is": (0.04573106920802566, 0.004702147959158338),
"split": (0.07581571289724895, 0.020639553617103228),
}

PROTOCOL_V2_SPARSE = {
"crude": (0.251779359430605, 0.01294618321291308,
          0.6218861209964412, 0.040006915626348435,
          2.469964664310954, 0.09554224155520122),
"persistence_series": (1.0, 0.99644128113879, 0.9519572953736655,
                       0.7829181494661922, 0.5845195729537367,
                       0.398576512455516, 0.251779359430605),
"occupancy_series": (12.0, 7.5338078291814945, 4.737544483985765,
                     2.851423487544484, 1.6948398576512456,
                     1.0160142348754448, 0.6218861209964412),
"conditional_occupancy_series": (12.0, 7.560714285714286, 4.9766355140186915,
                                 3.6420454545454546, 2.8995433789954337,
                                 2.549107142857143, 2.469964664310954),
"simulate_counts": (12, 3, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0),
"simulate_sha256": "7373e58d91b35e600df3ebd5fcf9de2f21c42ab524a8f097192a76661cb3a35f",
"ips": (0.2271556832, 0.021915121387307467),
"is": (0.2137522347092843, 0.009482433343950864),
"split": (0.11782059404010625, 0.037916913991951365),
}


def _crude_outputs(r) -> dict:
    return {"crude": tuple(float(x) for est in (r.persistence, r.occupancy,
                                                r.conditional_occupancy)
                           for x in (est.value, est.se)),
            "persistence_series": tuple(r.persistence_series),
            "occupancy_series": tuple(r.occupancy_series),
            "conditional_occupancy_series": tuple(r.conditional_occupancy_series)}


def test_rng_protocol_v2_is_the_default():
    assert RNG_PROTOCOL == 2
    assert Kernel.prepare(G6, Params(0.3, 0.4)).protocol == 2
    for protocol in (0, 3, None):
        with pytest.raises(ValueError):
            Kernel.prepare(G6, Params(0.3, 0.4), protocol)


def test_rng_protocol_v2_outputs_are_pinned():
    full = all_occupied(6)
    crude_params, rare_params = Params(0.3, 0.4), Params(0.2, 0.3)
    got = _crude_outputs(estimate_crude(G6, crude_params, full, 5, BLOCK_REPS + 100,
                                        seed=2024, protocol=2))
    got["simulate"] = simulate(G6, crude_params, 0b101101, 12, np.random.default_rng(7),
                               protocol=2).states
    ips = ips_persistence(G6, Params(0.35, 0.3), full, 10, 50, seed=3, n_batches=4,
                          protocol=2)
    is_ = is_extinction(G6, rare_params, full, 8, default_twist_schedule(0.2, 8), 300,
                        seed=4, protocol=2)
    sp = split_extinction(G6, rare_params, full, 10, SplittingConfig((4, 2), 10),
                          seed=5, n_replications=3, protocol=2)
    got.update((name, (est.value, est.se)) for name, est in
               (("ips", ips), ("is", is_), ("split", sp)))
    assert got == PROTOCOL_V2


def test_rng_protocol_v2_outputs_are_pinned_on_a_sparse_graph():
    z0 = (1 << 12) - 1
    params, rare_params = Params(0.6, 0.08), Params(0.45, 0.08)
    got = _crude_outputs(estimate_crude(G300, params, z0, 6, BLOCK_REPS + 100,
                                        seed=2025, protocol=2))
    traj = simulate(G300, params, z0, 12, np.random.default_rng(8), protocol=2)
    got["simulate_counts"] = tuple(traj.occupied_counts)
    got["simulate_sha256"] = hashlib.sha256(repr(traj.states).encode()).hexdigest()
    ips = ips_persistence(G300, params, z0, 6, 50, seed=3, n_batches=4, protocol=2)
    is_ = is_extinction(G300, rare_params, z0, 6, default_twist_schedule(0.45, 6),
                        BLOCK_REPS + 100, seed=4, protocol=2)
    sp = split_extinction(G300, rare_params, z0, 6, SplittingConfig((6, 2), 10),
                          seed=5, n_replications=3, protocol=2)
    got.update((name, (est.value, est.se)) for name, est in
               (("ips", ips), ("is", is_), ("split", sp)))
    assert got == PROTOCOL_V2_SPARSE


@pytest.mark.parametrize("protocol", [1, 2])
@pytest.mark.parametrize("e", [0.0, 0.3, 1.0])
def test_one_step_frequencies_match_the_exact_row(e, protocol):
    # One uniform per patch under v2 must give the chain's law, including
    # recolonisation of a patch that died in the same generation.
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2)))
    params = Params(e, 0.5)
    kernel = Kernel.prepare(graph, params, protocol)
    rows = exact.build_transition(graph, params).M
    draws, weights = 20_000, 1 << np.arange(4)
    rng = np.random.default_rng(21)
    for z in (0b1111, 0b0101, 0b1000, 0b0110):
        _, nxt = kernel.step(kernel.start(z, draws), rng)
        counts = np.bincount(nxt @ weights, minlength=16)
        se = np.sqrt(draws * rows[z] * (1.0 - rows[z]))
        assert np.all(np.abs(counts - draws * rows[z]) <= 4 * se), (z, counts)


@pytest.mark.parametrize("protocol", [1, 2])
def test_null_twist_weights_are_one_and_give_the_crude_frequency(protocol):
    # With the schedule at e every likelihood ratio is exactly one, and IS
    # steps the same rows on the same streams as crude, so the two count the
    # same extinctions, replicate for replicate.
    params, z0, n_gen, n = Params(0.3, 0.25), all_occupied(6), 12, BLOCK_REPS + 300
    is_ = is_extinction(G6, params, z0, n_gen, (0.3,) * n_gen, n, seed=8, protocol=protocol)
    crude = estimate_crude(G6, params, z0, n_gen, n, seed=8, protocol=protocol)
    hits = is_.diagnostics["n_extinct_trajectories"]
    assert hits == crude.persistence.diagnostics["n_extinct"] > 0
    assert is_.value == hits / n
    assert is_.diagnostics["max_weight"] == 1.0
    assert is_.diagnostics["ess"] == hits


# ---------------------------------------------------------------------------
# neighbour counts: CSR and dense
# ---------------------------------------------------------------------------

def _hub_graph() -> Graph:
    # Patch 0 neighbours patches 1-300, so its count passes 255; patches
    # 350-399 have no edges at all.
    extra = _random_graph(350, 400, seed=12).edges
    return Graph(400, {(0, v) for v in range(1, 301)} | set(extra))


@pytest.mark.parametrize("graph", [_hub_graph(), Graph(300, ()), G300],
                         ids=["hub", "no-edges", "G300"])
def test_csr_and_dense_counts_step_alike(graph):
    occ = np.random.default_rng(1).random((BLOCK_REPS, graph.n)) < 0.97
    occ[::2, 0] = False  # an empty hub with most of its neighbours occupied
    for protocol in (1, 2):
        sparse = Kernel.prepare(graph, Params(0.05, 0.002), protocol)
        assert not isinstance(sparse.adjacency, np.ndarray)
        dense = dataclasses.replace(sparse, adjacency=graph.adjacency_matrix)
        occ_s, occ_d = occ, occ.copy()
        rng_s, rng_d = np.random.default_rng(2), np.random.default_rng(2)
        for e in (None, 0.3, None):  # 0.3: the twisted rate importance sampling passes
            surv_s, occ_s = sparse.step(occ_s, rng_s, e)
            surv_d, occ_d = dense.step(occ_d, rng_d, e)
            assert np.array_equal(surv_s, surv_d)
            assert np.array_equal(occ_s, occ_d)
    if graph.degrees.max() > 255:  # the hub's counts must not wrap at 256
        hub_counts = (occ @ sparse.adjacency)[:, 0]
        assert hub_counts.min() > 255
        assert np.array_equal(hub_counts, occ @ graph.adjacency_matrix[:, 0])


def test_sparse_graphs_never_form_the_dense_adjacency(monkeypatch):
    def refuse(self):
        raise AssertionError("dense adjacency formed")
    monkeypatch.setattr(Graph, "adjacency_matrix", property(refuse))
    graph = _random_graph(500, 2000, seed=5)
    Kernel.prepare(graph, Params(0.1, 0.1))
    r = estimate_crude(graph, Params(0.1, 0.1), all_occupied(500), 3, 10, seed=1)
    assert r.persistence.value == 1.0
    traj = mf_iterate(graph, Params(0.1, 0.1), 1.0, 3)
    assert traj.shape == (4, 500) and np.all((traj >= 0.0) & (traj <= 1.0))


def test_hub_counts_past_the_int16_range():
    # The hub has 32 999 neighbours, beyond int16; the dense adjacency
    # would take 8.7 GB, so the oracle counts occupied neighbours by edge.
    n = 33_000
    graph = Graph(n, tuple((0, v) for v in range(1, n)))
    # Every count of 32 999 colonises for certain: (1 - c)**32999 < 2**-53.
    kernel = Kernel.prepare(graph, Params(0.0, 0.002))
    occ = np.ones((2, n), dtype=bool)
    occ[:, 0] = False
    survivors, nxt = kernel.step(occ, np.random.default_rng(0))
    counts = survivors @ kernel.adjacency
    assert counts[:, 0].tolist() == [n - 1, n - 1]
    u, v = graph.edge_array.T
    for row, row_counts in zip(survivors, counts):
        by_edge = (np.bincount(u, weights=row[v], minlength=n)
                   + np.bincount(v, weights=row[u], minlength=n))
        assert np.array_equal(row_counts, by_edge)
    assert nxt.all()


def test_float32_dense_counts_are_exact():
    # 299 patches keep the dense path; the hub's 298 neighbours put its
    # count past 256.
    extra = _random_graph(299, 3000, seed=13).edges
    graph = Graph(299, {(0, v) for v in range(1, 299)} | set(extra))
    kernel = Kernel.prepare(graph, Params(0.1, 0.01))
    assert isinstance(kernel.adjacency, np.ndarray)
    assert kernel.adjacency.dtype == np.float32
    occ = np.random.default_rng(3).random((BLOCK_REPS, graph.n)) < 0.98
    survivors, _ = kernel.step(occ, np.random.default_rng(4))
    counts = survivors @ kernel.adjacency
    assert counts[:, 0].max() > 256
    u, v = graph.edge_array.T
    for row, row_counts in zip(survivors, counts):
        by_edge = (np.bincount(u, weights=row[v], minlength=graph.n)
                   + np.bincount(v, weights=row[u], minlength=graph.n))
        assert np.array_equal(row_counts, by_edge)
    copy = dataclasses.replace(kernel, adjacency=graph.adjacency_matrix)
    assert kernel._work and copy._work == {} and copy._work is not kernel._work


@pytest.mark.parametrize("graph", [_random_graph(100, 1500, seed=7), G300],
                         ids=["dense", "G300"])
def test_reused_buffers_draw_what_a_fresh_kernel_draws(graph):
    params = Params(0.3, 0.05)
    kernel = Kernel.prepare(graph, params)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    start = np.random.default_rng(6).random((BLOCK_REPS, graph.n)) < 0.6
    previous = ()
    for e in (None, 0.45):  # 0.45: the twisted rate importance sampling passes
        occ, ref_occ = start, start.copy()
        for reps in (0, BLOCK_REPS, 100, BLOCK_REPS):  # 0: the buffers then grow
            if reps < len(occ):  # keep the first rows, overwritten in place as IPS does
                occ, ref_occ = occ[:reps], ref_occ[:reps]
                occ[:reps // 2], ref_occ[:reps // 2] = occ[reps // 2:], ref_occ[reps // 2:]
            elif reps > len(occ):
                occ, ref_occ = start, start.copy()
            survivors, nxt = kernel.step(occ, rng, e)
            ref_survivors, ref_nxt = Kernel.prepare(graph, params).step(ref_occ, ref_rng, e)
            assert np.array_equal(survivors, ref_survivors)
            assert np.array_equal(nxt, ref_nxt)
            buffers = [b for b in kernel._work.values() if isinstance(b, np.ndarray)]
            others = [occ, *previous, *buffers]
            assert not np.shares_memory(survivors, nxt)
            assert not any(np.shares_memory(a, b) for a in (survivors, nxt) for b in others)
            previous = (survivors, nxt)
            occ, ref_occ = nxt, ref_nxt


@pytest.mark.parametrize("graph", [_random_graph(100, 1500, seed=7), _hub_graph(), G300],
                         ids=["dense", "hub", "G300"])
def test_counts_are_float64_row_sums(graph):
    kernel = Kernel.prepare(graph, Params(0.2, 0.1))
    block = np.random.default_rng(9).random((BLOCK_REPS, graph.n)) < 0.9
    block[::3] = False  # all-empty rows
    counts = kernel.counts(block)
    assert counts.dtype == np.float64
    assert np.array_equal(counts, block.sum(axis=1))
    if graph.n > 255:  # counts past the uint8 range
        assert counts.max() > 255
    assert np.array_equal(kernel.counts(block[:1]), block[:1].sum(axis=1))


@pytest.mark.parametrize("graph", [_random_graph(100, 1500, seed=7), G300],
                         ids=["dense", "G300"])
@pytest.mark.parametrize("k", [1, 256, BLOCK_REPS])
def test_a_step_reads_two_k_n_uniforms(graph, k):
    kernel = Kernel.prepare(graph, Params(0.2, 0.1), protocol=1)
    occ = np.random.default_rng(10).random((k, graph.n)) < 0.5
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for e in (None, 0.4):  # 0.4: the twisted rate importance sampling passes
        kernel.step(occ, rng, e)
        twin.random(2 * k * graph.n)
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("graph", [_random_graph(100, 1500, seed=7), G300],
                         ids=["dense", "G300"])
@pytest.mark.parametrize("k", [1, 256, BLOCK_REPS])
def test_a_protocol_2_step_reads_k_n_uniforms(graph, k):
    kernel = Kernel.prepare(graph, Params(0.2, 0.1), protocol=2)
    occ = np.random.default_rng(10).random((k, graph.n)) < 0.5
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for e in (None, 0.4):  # 0.4: the twisted rate importance sampling passes
        kernel.step(occ, rng, e)
        twin.random(k * graph.n)
        assert rng.bit_generator.state == twin.bit_generator.state


def _chunk_sizes(n: int, k: int):
    """``CHUNK_ELEMENTS`` for 1-row chunks (also when a row alone is larger),
    7-row chunks and one whole block."""
    return {"1 row": n, "half a row": n // 2, "7 rows": 7 * n, "whole": k * n}


@pytest.mark.parametrize("graph", [_random_graph(100, 1500, seed=7), G300],
                         ids=["dense", "G300"])
def test_chunked_steps_draw_what_one_block_draws(graph, monkeypatch):
    k = BLOCK_REPS + 100  # 1124 rows: the 7-row chunks end on a ragged one of 4
    occ = np.random.default_rng(6).random((k, graph.n)) < 0.6
    got = {}
    for protocol in (1, 2):  # version 1 draws every extinction uniform first: never chunked
        for name, elements in _chunk_sizes(graph.n, k).items():
            monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", elements)
            kernel = Kernel.prepare(graph, Params(0.3, 0.05), protocol)
            rng = np.random.default_rng(5)
            steps = []
            for e in (None, 0.45):  # 0.45: the twisted rate importance sampling passes
                survivors, nxt = kernel.step(occ, rng, e)
                steps.append((survivors, nxt, rng.bit_generator.state))
            got[protocol, name] = steps
        whole = got[protocol, "whole"]
        for name in ("1 row", "half a row", "7 rows"):
            for (s, x, state), (s0, x0, state0) in zip(got[protocol, name], whole):
                assert np.array_equal(s, s0) and np.array_equal(x, x0)
                assert state == state0


def test_chunked_estimators_match_one_block(monkeypatch):
    z0 = (1 << 12) - 1
    schedule = default_twist_schedule(0.45, 6)
    got = {}
    for name, elements in _chunk_sizes(G300.n, BLOCK_REPS).items():
        monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", elements)
        r = estimate_crude(G300, Params(0.6, 0.08), z0, 6, BLOCK_REPS + 100, seed=2025)
        is_ = is_extinction(G300, Params(0.45, 0.08), z0, 6, schedule, BLOCK_REPS + 100,
                            seed=4)
        got[name] = (r.persistence, r.occupancy, r.conditional_occupancy,
                     r.persistence_series.tolist(), r.occupancy_series.tolist(), is_)
    assert all(got[name] == got["whole"] for name in got)


@pytest.mark.parametrize("graph", [_random_graph(100, 1500, seed=7), G300],
                         ids=["dense", "G300"])
def test_chunked_work_buffers_stay_chunk_sized(graph):
    kernel = Kernel.prepare(graph, Params(0.3, 0.05))
    occ = np.random.default_rng(6).random((BLOCK_REPS, graph.n)) < 0.6
    assert occ.size > dynamics.CHUNK_ELEMENTS
    for e in (None, 0.45):
        kernel.step(occ, np.random.default_rng(5), e)
    sizes = {name: b.size for name, b in kernel._work.items() if isinstance(b, np.ndarray)}
    assert sizes and max(sizes.values()) <= 2 * dynamics.CHUNK_ELEMENTS, sizes


def test_no_module_imports_another_modules_private_names():
    # The kernel is reached through ``Kernel`` and the exact chain's state
    # encoding stays inside ``exact``; a private helper reached from another
    # module, by import or as ``module._name``, is a second, unowned copy.
    paths = sorted(Path(__file__).parents[1].glob("src/secnet/*.py"))
    modules = {path.stem for path in paths}
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [f"{path.name}: from .{node.module} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules - {path.stem}
                  and node.attr.startswith("_") and not node.attr.startswith("__")):
                offenders.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert not offenders, offenders


def test_all_lists_name_each_modules_own_public_api():
    # Each public name has one home: its module's ``__all__`` lists what the
    # module defines (not what it imports), and every name that another
    # module or the benchmark imports from it.
    root = Path(__file__).parents[1]
    exported, defined = {}, {}
    for path in sorted(root.glob("src/secnet/*.py")):
        names = defined[path.stem] = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
                names |= targets
                if "__all__" in targets:
                    exported[path.stem] = set(ast.literal_eval(node.value))
    problems = [f"{mod}.__all__ names {name}, which it does not define"
                for mod, names in exported.items() for name in sorted(names - defined[mod])]
    importers = [*(root / "src/secnet").glob("*.py"), *(root / "perfbench").glob("*.py")]
    for path in importers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and (node.level or node.module.startswith("secnet."))):
                mod = node.module.removeprefix("secnet.")
                problems += [f"{path.name} imports {alias.name}, missing from {mod}.__all__"
                             for alias in node.names
                             if mod in exported and alias.name not in exported[mod]]
    assert not problems, problems


def test_result_tables_have_one_writer():
    # ``write_csv`` alone fixes the result-table format (line ends, float
    # and None cells); a ``csv.writer`` anywhere else is a second copy of it.
    sites = []
    for path in sorted(Path(__file__).parents[1].glob("src/secnet/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):  # breadth first: outer functions claim first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv"):
                sites.append(f"{path.stem}.{owner.get(node, '<module>')}")
    assert sites == ["dynamics.write_csv"], sites


def test_every_public_name_has_a_caller_outside_tests():
    # A name in ``__all__`` that only tests reach is API kept for its tests:
    # each must appear as a name, an attribute or an imported name somewhere
    # in the package or the benchmark.  Its own ``def`` or ``class`` and its
    # string in ``__all__`` do not count.
    root = Path(__file__).parents[1]
    exported, used = {}, set()
    for path in [*root.glob("src/secnet/*.py"), *root.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif (isinstance(node, ast.Assign) and path.parent.name == "secnet"
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                exported[path.stem] = ast.literal_eval(node.value)
    unused = [f"{mod}.{name}" for mod, names in sorted(exported.items())
              for name in names if name not in used]
    assert exported and not unused, unused
