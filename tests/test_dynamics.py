"""Kernel-level tests: one-step law, trajectories, crude Monte Carlo, the
pinned RNG protocol and the kernel's module boundary."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from secnet.dynamics import (
    BLOCK_REPS,
    Params,
    all_occupied,
    array_to_state,
    estimate_crude,
    simulate,
    state_to_array,
    step,
    write_report_csv,
    write_trajectory_csv,
)
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
    with pytest.raises(ValueError):
        Params(e=0.5, c=0.5, colonisation_source="sideways")
    assert Params(e=0.1, c=0.1).post_source
    assert not Params(e=0.1, c=0.1, colonisation_source="pre-extinction").post_source


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
        assert step(P2, params, 0, rng) == 0


def test_no_extinction_means_monotone_growth():
    rng = np.random.default_rng(1)
    params = Params(e=0.0, c=0.6)
    state = 1
    for _ in range(30):
        new = step(STAR5, params, state, rng)
        assert new & state == state  # occupied patches never vanish
        state = new
    assert state == all_occupied(5)  # c > 0 eventually fills the star


def test_no_colonisation_means_monotone_decay():
    rng = np.random.default_rng(2)
    params = Params(e=0.4, c=0.0)
    state = all_occupied(5)
    for _ in range(200):
        new = step(STAR5, params, state, rng)
        assert new & ~state == 0  # empty patches stay empty
        state = new
    assert state == 0


def test_certain_extinction_kills_everything_under_post_source():
    rng = np.random.default_rng(3)
    params = Params(e=1.0, c=1.0)
    assert step(P2, params, 0b11, rng) == 0


def test_pre_extinction_source_lets_the_dead_recolonise():
    # with e=1 and c=1, patch 1 sees its pre-extinction neighbour and is
    # recolonised even though every occupied patch dies
    rng = np.random.default_rng(4)
    params = Params(e=1.0, c=1.0, colonisation_source="pre-extinction")
    assert step(P2, params, 0b01, rng) == 0b10
    assert step(P2, params, 0b11, rng) == 0b11


def test_full_colonisation_from_hub():
    rng = np.random.default_rng(5)
    params = Params(e=0.0, c=1.0)
    assert step(STAR5, params, 0b00001, rng) == all_occupied(5)


def test_two_patch_kernel_frequencies_post_source():
    # from (1,1) with e=c=1/2: stay w.p. 1/2, die w.p. 1/4, each single 1/8
    rng = np.random.default_rng(6)
    params = Params(e=0.5, c=0.5)
    draws = 20_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[step(P2, params, 0b11, rng)] += 1
    expected = np.array([0.25, 0.125, 0.125, 0.5])
    sigma = np.sqrt(draws * expected * (1 - expected))
    assert np.all(np.abs(counts - draws * expected) < 4 * sigma)


def test_two_patch_kernel_frequencies_pre_source():
    # pre-extinction sources add the S=0 recolonisation branch:
    # P(0)=1/16, P(1)=P(2)=3/16, P(3)=9/16
    rng = np.random.default_rng(7)
    params = Params(e=0.5, c=0.5, colonisation_source="pre-extinction")
    draws = 20_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[step(P2, params, 0b11, rng)] += 1
    expected = np.array([1, 3, 3, 9]) / 16
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

# Fixed-seed outputs of RNG protocol v1, one entry per colonisation source.
# They pin which sample each route draws, not only its law: a refactor of
# the kernel or of an estimator must reproduce them bit for bit, and a
# deliberate protocol change must get a new version rather than new values.
PROTOCOL_V1 = {
    "post-extinction": {
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
    },
    "pre-extinction": {
        "crude": (0.9991103202846975, 0.0008892838622393913,
                  5.05338078291815, 0.029125981556804292,
                  5.057880676758682, 0.02880190661005617),
        "persistence_series": (1.0, 1.0, 1.0, 1.0, 1.0, 0.9991103202846975),
        "occupancy_series": (6.0, 5.406583629893238, 5.1788256227758005,
                             5.1263345195729535, 5.038256227758007, 5.05338078291815),
        "conditional_occupancy_series": (6.0, 5.406583629893238, 5.1788256227758005,
                                         5.1263345195729535, 5.038256227758007,
                                         5.057880676758682),
        "simulate": (45, 53, 60, 62, 53, 47, 47, 63, 31, 27, 11, 15, 13),
        "ips": (0.9563761599999999, 0.025094730662277846),
        "is": (0.003502553472203093, 0.0011207010010518173),
        "split": (0.002957205492872388, 0.00029436110417731227),
    },
}


def test_rng_protocol_v1_outputs_are_pinned():
    full = all_occupied(6)
    for source, want in PROTOCOL_V1.items():
        crude_params = Params(0.3, 0.4, source)
        rare_params = Params(0.2, 0.3, source)
        r = estimate_crude(G6, crude_params, full, 5, BLOCK_REPS + 100, seed=2024)
        got_crude = tuple(float(x) for est in (r.persistence, r.occupancy,
                                               r.conditional_occupancy)
                          for x in (est.value, est.se))
        assert got_crude == want["crude"], source
        assert tuple(r.persistence_series) == want["persistence_series"], source
        assert tuple(r.occupancy_series) == want["occupancy_series"], source
        assert tuple(r.conditional_occupancy_series) == \
            want["conditional_occupancy_series"], source
        traj = simulate(G6, crude_params, 0b101101, 12, np.random.default_rng(7))
        assert traj.states == want["simulate"], source
        ips = ips_persistence(G6, Params(0.35, 0.3, source), full, 10, 50,
                              seed=3, n_batches=4)
        assert (ips.value, ips.se) == want["ips"], source
        is_ = is_extinction(G6, rare_params, full, 8,
                            default_twist_schedule(0.2, 8), 300, seed=4)
        assert (is_.value, is_.se) == want["is"], source
        sp = split_extinction(G6, rare_params, full, 10, SplittingConfig((4, 2), 10),
                              seed=5, n_replications=3)
        assert (sp.value, sp.se) == want["split"], source


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
