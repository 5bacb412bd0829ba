"""End-to-end tests for the command line interface.

Everything runs in-process through ``main(argv)`` so exit codes and output
files can be asserted directly.
"""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from secnet import netgen
from secnet.cli import EXIT_COMPUTE, EXIT_INPUT, build_parser, main
from secnet.experiment import Design, TopologyFactor


@pytest.fixture()
def graph_file(tmp_path):
    graph = netgen.gen_erdos_renyi(6, 9, np.random.default_rng(11))
    path = tmp_path / "graph.json"
    netgen.write_graph_json(graph, path)
    return path


def read_manifest(out_path):
    with open(str(out_path) + ".manifest.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_graph_and_manifest(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(["generate", "--kind", "ER", "--n", "8", "--edges", "12",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    graph = netgen.read_graph_json(out)
    assert graph.n == 8 and graph.n_edges == 12
    lines = capsys.readouterr().out.splitlines()
    lam1 = netgen.leading_adjacency_eigenvalue(graph)
    assert lines == [
        "n = 8",
        "edges = 12",
        f"density = {12 / 28:.6g}",
        "connected = True",
        f"degree_mean/max = 3/{max(graph.degrees)}",
        f"leading_eigenvalue = {lam1:.10g}",
        f"fingerprint = {graph.fingerprint()}",
    ]
    manifest = read_manifest(out)
    assert manifest["tool"] == "secnet"
    assert manifest["command"] == "generate"
    assert manifest["args"]["seed"] == 5
    assert manifest["args"]["kind"] == "ER"
    # no timestamps anywhere in the manifest
    assert "time" not in json.dumps(manifest).lower()


def test_generate_density_is_converted(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["generate", "--kind", "ER", "--n", "10", "--density", "0.7",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert netgen.read_graph_json(out).n_edges == 32


def test_generate_missing_seed_draws_entropy_and_reruns(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["generate", "--kind", "PA", "--n", "12", "--edges", "20",
               "--power", "3", "--out", str(out)])
    assert rc == 0
    manifest = read_manifest(out)
    assert isinstance(manifest["args"]["seed"], int)  # resolved, not null
    first = out.read_bytes()
    out2 = tmp_path / "g2.json"
    rc = main(["rerun", "--manifest", str(out) + ".manifest.json",
               "--out", str(out2)])
    assert rc == 0
    assert out2.read_bytes() == first


def test_generate_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "ER", "--n", "8",
              "--out", str(tmp_path / "g.json")])  # no edge budget
    assert exc.value.code == 2


def test_generate_infeasible_exits_4(tmp_path, capsys):
    rc = main(["generate", "--kind", "ER", "--n", "4", "--edges", "10",
               "--seed", "0", "--out", str(tmp_path / "g.json")])
    assert rc == EXIT_COMPUTE
    assert "error:" in capsys.readouterr().err


def test_cheap_imports_do_not_load_scipy():
    # scipy serves the exact layer's Krylov solvers and the kernel's sparse
    # neighbour counts, and is imported when they run: importing it up front
    # costs every command start-up, and a dense graph never needs it.
    code = "import sys, secnet, secnet.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    code = ("import sys, numpy as np\n"
            "from secnet import dynamics, netgen\n"
            "g = netgen.gen_erdos_renyi(100, netgen.density_to_n_edges(0.3, 100),"
            " np.random.default_rng(1))\n"
            "dynamics.estimate_crude(g, dynamics.Params(0.25, 0.01), dynamics.all_occupied(100),"
            " 5, 50, seed=1)\n"
            "sys.exit('scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_small_graph_routes_do_not_load_scipy():
    # Small dense graphs never need scipy on these routes, and importing
    # scipy.sparse alone costs a process about 15 MiB and 0.2 s, against a
    # peak near 40 MiB for a small-graph factorial run.
    code = """
import sys
import numpy as np
import secnet.cli
from secnet import exact, netgen, rareevent
from secnet.dynamics import Params, all_occupied
from secnet.experiment import Design, TopologyFactor, run_factorial

base = dict(name="t", n=8, topologies=(TopologyFactor("ER", "ER"),), n_gen=40,
            n_edges_values=(12,), n_network_replicates=1, n_sim_reps=400)
rows = run_factorial(Design(**base, e_values=(0.3,), c_values=(0.3,), estimator="exact"))
rows += run_factorial(Design(**base, ec_pairs=((0.85, 0.02), (0.02, 0.6)), estimator="crude"))
g = netgen.gen_erdos_renyi(10, 20, np.random.default_rng(1))
params, z0 = Params(0.3, 0.3), all_occupied(10)
rareevent.is_extinction(g, params, z0, 10, rareevent.default_twist_schedule(0.3, 10), 200, 1)
rareevent.split_extinction(g, params, z0, 10, rareevent.SplittingConfig((5, 2), 20), 2,
                           n_replications=2)
rareevent.ips_persistence(g, params, z0, 10, 64, 3, n_batches=2)
exact.finite_horizon(exact.build_transition(g, params), z0, 10)
print(sorted({r.persistence_method for r in rows}))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["['exact', 'ips', 'is']", "[]"]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# exact


def test_exact_reports_horizon_qsd_and_mean_time(tmp_path, graph_file, capsys):
    out = tmp_path / "horizon.csv"
    qsd_out = tmp_path / "qsd.csv"
    rc = main(["exact", "--graph", str(graph_file), "--e", "0.3", "--c", "0.3",
               "--gens", "25", "--out", str(out), "--qsd", str(qsd_out),
               "--mean-time"])
    assert rc == 0
    printed = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines())
    p_ext = float(printed["p_extinct[25]"])
    p_per = float(printed["p_persist[25]"])
    assert p_ext + p_per == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < float(printed["lambda1"]) < 1.0
    assert float(printed["mean_extinction_time"]) > 0.0
    assert float(printed["qsd_residual"]) <= 1e-8
    assert int(printed["qsd_iterations"]) >= 1
    assert 1.0 <= float(printed["qsd_mean_occ"]) <= 6.0  # the graph has n = 6
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 26
    assert float(rows[-1]["p_extinct"]) == pytest.approx(p_ext)
    assert qsd_out.exists()
    manifest = read_manifest(out)
    assert manifest["command"] == "exact"
    assert manifest["args"]["mean_extinction_time"] == pytest.approx(
        float(printed["mean_extinction_time"]))


def test_exact_missing_graph_exits_3(tmp_path, capsys):
    rc = main(["exact", "--graph", str(tmp_path / "nope.json"),
               "--e", "0.3", "--c", "0.3", "--gens", "5",
               "--out", str(tmp_path / "h.csv")])
    assert rc == EXIT_INPUT
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"n": 3, "edges": [[0, 1.9], [1, 2]]},
    {"n": 3, "edges": [[0, True], [1, 2]]},
    {"n": 3.0, "edges": [[0, 1], [1, 2]]},
    {"n": True, "edges": []},
], ids=["float-endpoint", "bool-endpoint", "float-n", "bool-n"])
def test_exact_non_integer_graph_file_exits_3(tmp_path, capsys, payload):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(payload))
    out = tmp_path / "h.csv"
    rc = main(["exact", "--graph", str(gpath), "--e", "0.3", "--c", "0.3",
               "--gens", "5", "--out", str(out)])
    assert rc == EXIT_INPUT
    assert "bad graph file" in capsys.readouterr().err
    assert not out.exists()


def test_exact_over_cap_exits_4(tmp_path, capsys):
    big = netgen.gen_erdos_renyi(16, 30, np.random.default_rng(0))
    gpath = tmp_path / "big.json"
    netgen.write_graph_json(big, gpath)
    rc = main(["exact", "--graph", str(gpath), "--e", "0.3", "--c", "0.3",
               "--gens", "5", "--out", str(tmp_path / "h.csv")])
    assert rc == EXIT_COMPUTE
    assert "cap" in capsys.readouterr().err


def test_exact_mean_time_from_the_empty_state_writes_nothing(tmp_path, graph_file, capsys):
    out = tmp_path / "h.csv"
    rc = main(["exact", "--graph", str(graph_file), "--e", "0.3", "--c", "0.3",
               "--gens", "5", "--z0", "0", "--out", str(out),
               "--qsd", str(tmp_path / "q.csv"), "--mean-time"])
    assert rc == EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-empty" in captured.err
    assert list(tmp_path.iterdir()) == [graph_file]


def test_bad_initial_state_exits_3(tmp_path, graph_file, capsys):
    rc = main(["exact", "--graph", str(graph_file), "--e", "0.3", "--c", "0.3",
               "--gens", "5", "--z0", "zz", "--out", str(tmp_path / "h.csv")])
    assert rc == EXIT_INPUT
    rc = main(["exact", "--graph", str(graph_file), "--e", "0.3", "--c", "0.3",
               "--gens", "5", "--z0", "fff", "--out", str(tmp_path / "h.csv")])
    assert rc == EXIT_INPUT
    assert "out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_report_and_trajectory(tmp_path, graph_file, capsys):
    out = tmp_path / "report.csv"
    traj = tmp_path / "traj.csv"
    rc = main(["simulate", "--graph", str(graph_file), "--e", "0.2",
               "--c", "0.4", "--gens", "15", "--reps", "300", "--seed", "7",
               "--out", str(out), "--sample-trajectory", str(traj)])
    assert rc == 0
    assert "survived)" in capsys.readouterr().out
    assert traj.read_text().splitlines()[0] == "generation,occupied_count,state_hex"
    first = out.read_bytes()
    rc = main(["simulate", "--graph", str(graph_file), "--e", "0.2",
               "--c", "0.4", "--gens", "15", "--reps", "300", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == first  # same seed, byte-identical output


@pytest.mark.parametrize("e, survived", [(0.0, "300/300"), (1.0, "0/300")])
def test_simulate_reports_no_events_instead_of_a_zero_se(tmp_path, graph_file, capsys,
                                                         e, survived):
    # Every replicate surviving (or every one dying) makes sqrt(p(1-p)/n)
    # read 0: a zero-width error bar that says nothing.
    rc = main(["simulate", "--graph", str(graph_file), "--e", str(e), "--c", "0.4",
               "--gens", "5", "--reps", "300", "--seed", "7",
               "--out", str(tmp_path / "report.csv")])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert "no events, se not estimable" in line
    assert "se 0" not in line
    assert f"{survived} survived" in line


# ---------------------------------------------------------------------------
# rare


def test_rare_ips_writes_json_and_diagnostics(tmp_path, graph_file):
    out = tmp_path / "ips.json"
    diag = tmp_path / "ips.csv"
    rc = main(["rare", "--graph", str(graph_file), "--e", "0.6", "--c", "0.1",
               "--gens", "20", "--method", "ips", "--particles", "200",
               "--seed", "3", "--out", str(out), "--diagnostics", str(diag)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "ips"
    assert 0.0 <= payload["value"] <= 1.0
    lines = diag.read_text().splitlines()
    assert lines[0] == "t,mean_death_fraction"
    assert len(lines) == 21


def test_rare_is_writes_weight_histogram(tmp_path, graph_file, capsys):
    out = tmp_path / "is.json"
    diag = tmp_path / "is.csv"
    rc = main(["rare", "--graph", str(graph_file), "--e", "0.1", "--c", "0.45",
               "--gens", "15", "--method", "is", "--sims", "400",
               "--seed", "3", "--out", str(out), "--diagnostics", str(diag)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "is"
    assert payload["value"] > 0.0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    ess = payload["diagnostics"]["ess"]
    assert float(printed["ess"]) == pytest.approx(ess, rel=1e-5)
    assert 1.0 <= ess <= payload["diagnostics"]["n_extinct_trajectories"]
    assert diag.read_text().splitlines()[0] == \
        "weight_log10_lo,weight_log10_hi,count"


def test_rare_split_with_explicit_thresholds(tmp_path, graph_file):
    out = tmp_path / "split.json"
    diag = tmp_path / "split.csv"
    rc = main(["rare", "--graph", str(graph_file), "--e", "0.15", "--c", "0.4",
               "--gens", "15", "--method", "split", "--thresholds", "4,2,1",
               "--success", "30", "--replications", "5", "--seed", "3",
               "--out", str(out), "--diagnostics", str(diag)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "splitting"
    assert payload["diagnostics"]["thresholds"] == [4, 2, 1, 0]
    lines = diag.read_text().splitlines()
    assert lines[0] == "threshold,mean_attempts,first_run_estimate"
    # manifests written while the option was plain text still replay
    manifest = read_manifest(out)
    assert manifest["args"]["thresholds"] == [4, 2, 1]
    manifest["args"]["thresholds"] = "4,2,1"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    again = tmp_path / "again.json"
    assert main(["rerun", "--manifest", str(old), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_rare_split_bad_threshold_list_exits_2(tmp_path, graph_file):
    out = tmp_path / "split.json"
    with pytest.raises(SystemExit) as exc:
        main(["rare", "--graph", str(graph_file), "--e", "0.15", "--c", "0.4",
              "--gens", "15", "--method", "split", "--thresholds", "4,x",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# meanfield and heatmap


def test_meanfield_prints_report_and_writes_trajectory(tmp_path, graph_file, capsys):
    out = tmp_path / "mf.csv"
    rc = main(["meanfield", "--graph", str(graph_file), "--e", "0.6",
               "--c", "0.05", "--gens", "60", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "regime = subcritical" in printed
    header = out.read_text().splitlines()[0]
    assert header == "t," + ",".join(f"p{i}" for i in range(6))
    manifest = read_manifest(out)
    assert manifest["args"]["report"]["regime"] == "subcritical"
    assert manifest["args"]["report"]["fixed_point"] is None


def test_meanfield_nan_initial_occupancy_exits_4(tmp_path, graph_file, capsys):
    out = tmp_path / "mf.csv"
    rc = main(["meanfield", "--graph", str(graph_file), "--e", "0.1", "--c", "0.2",
               "--gens", "2", "--p0", "nan", "--out", str(out)])
    assert rc == EXIT_COMPUTE
    assert "p0 entries must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_meanfield_fixed_point_is_a_json_list(tmp_path, graph_file, capsys):
    out = tmp_path / "mf.csv"
    rc = main(["meanfield", "--graph", str(graph_file), "--e", "0.2",
               "--c", "0.5", "--out", str(out)])
    assert rc == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    report = read_manifest(out)["args"]["report"]
    assert report["regime"] == printed["regime"] == "supercritical"
    fixed = report["fixed_point"]
    assert isinstance(fixed, list) and len(fixed) == 6
    assert all(isinstance(x, float) and 0.0 < x < 1.0 for x in fixed)
    assert printed["fixed_point"] == str(fixed)


def test_heatmap_writes_grid_and_contour(tmp_path, graph_file, capsys):
    out = tmp_path / "heat.csv"
    contour = tmp_path / "contour.csv"
    rc = main(["heatmap", "--graph", str(graph_file),
               "--e-min", "0.1", "--e-max", "0.5", "--e-steps", "3",
               "--c-min", "0.1", "--c-max", "0.5", "--c-steps", "3",
               "--gens", "15", "--out", str(out), "--contour", str(contour)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "cells = 9" in printed
    assert "method = exact" in printed
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert contour.exists()


@pytest.mark.parametrize("e_steps,c_steps", [("0", "2"), ("2", "0")])
def test_heatmap_empty_grid_exits_2_before_writing(tmp_path, graph_file, e_steps, c_steps):
    out = tmp_path / "heat.csv"
    with pytest.raises(SystemExit) as exc:
        main(["heatmap", "--graph", str(graph_file),
              "--e-min", "0.1", "--e-max", "0.5", "--e-steps", e_steps,
              "--c-min", "0.1", "--c-max", "0.5", "--c-steps", c_steps,
              "--gens", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [graph_file]


@pytest.mark.parametrize("e_min,e_max", [("0.5", "1.5"), ("nan", "0.5")])
@pytest.mark.parametrize("method", ["exact", "sim"])
def test_heatmap_bad_extinction_rate_exits_4_before_writing(
        tmp_path, graph_file, capsys, e_min, e_max, method):
    out = tmp_path / "heat.csv"
    rc = main(["heatmap", "--graph", str(graph_file),
               "--e-min", e_min, "--e-max", e_max, "--e-steps", "2",
               "--c-min", "0.1", "--c-max", "0.5", "--c-steps", "2",
               "--gens", "5", "--method", method, "--reps", "20", "--out", str(out)])
    assert rc == EXIT_COMPUTE
    assert "outside [0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [graph_file]


def test_heatmap_records_a_seed_only_when_it_simulates(tmp_path, graph_file):
    grid = ["--e-min", "0.1", "--e-max", "0.5", "--e-steps", "2",
            "--c-min", "0.1", "--c-max", "0.5", "--c-steps", "2", "--gens", "5"]
    out = tmp_path / "heat.csv"
    for method in ("auto", "exact"):  # auto takes the exact branch at n = 6
        manifests = []
        for _ in range(2):
            assert main(["heatmap", "--graph", str(graph_file), *grid,
                         "--method", method, "--out", str(out)]) == 0
            manifests.append((tmp_path / "heat.csv.manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["args"]["seed"] is None
    assert main(["heatmap", "--graph", str(graph_file), *grid, "--method", "sim",
                 "--reps", "50", "--out", str(out)]) == 0
    assert isinstance(read_manifest(out)["args"]["seed"], int)  # drawn and recorded


# ---------------------------------------------------------------------------
# experiment and rerun


def small_design_dict():
    d = Design(
        name="cli-small", n=6,
        topologies=(TopologyFactor("ER", "ER"), TopologyFactor("LAT", "LAT")),
        n_gen=5, e_values=(0.2, 0.4), c_values=(0.3,), n_edges_values=(8,),
        n_network_replicates=2, n_sim_reps=100, estimator="exact",
        master_seed=99,
    )
    return d.to_dict()


def test_experiment_runs_design_file(tmp_path, capsys):
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(small_design_dict()))
    out = tmp_path / "rows.csv"
    anova = tmp_path / "anova.csv"
    rc = main(["experiment", "--design", str(design_path), "--out", str(out),
               "--anova", str(anova), "--response", "persistence"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "rows = 8" in printed
    assert "failed = 0" in printed
    assert "share[e] = " in printed
    assert len(out.read_text().splitlines()) == 1 + 8  # header and rows
    assert anova.read_text().startswith("term,sum_sq,share")
    manifest = read_manifest(out)
    assert manifest["command"] == "experiment"
    assert manifest["args"]["design_inline"]["name"] == "cli-small"


def test_experiment_rerun_is_byte_identical_across_workers(tmp_path):
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(small_design_dict()))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--design", str(design_path),
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    out2 = tmp_path / "rows2.csv"
    rc = main(["rerun", "--manifest", str(out) + ".manifest.json",
               "--out", str(out2), "--workers", "2"])
    assert rc == 0
    assert out2.read_bytes() == first


def test_experiment_bad_preset_exits_3(tmp_path, capsys):
    rc = main(["experiment", "--preset", "grid-n12",
               "--out", str(tmp_path / "r.csv")])
    assert rc == EXIT_INPUT
    assert "unknown preset" in capsys.readouterr().err


def test_experiment_one_patch_design_exits_3(tmp_path, capsys):
    d = small_design_dict()
    d.update(n=1, n_edges_values=[0])
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(d))
    rc = main(["experiment", "--design", str(design_path),
               "--out", str(tmp_path / "rows.csv")])
    assert rc == EXIT_INPUT
    assert "two patches" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"ec_pairs": [[1.5, 0.3]], "e_values": [], "c_values": []},
    {"topologies": [{"label": "PA", "kind": "PA"}]},
    {"topologies": [{"label": "X", "kind": "XYZ"}]},
    {"n_edges_values": [2]},
    {"n_edges_values": [], "densities": [0.01]},
    {"n_edges_values": [99]},
    {"n_network_replicates": 2.5},
    {"n": 6.0},
    {"master_seed": 1.5},
    {"n_sim_reps": 100.5, "estimator": "crude"},
    {"n_gen": True},
    {"n_edges_values": [8.0]},
    {"e_values": [True, 0.2]},
    {"c_values": [False]},
    {"ec_pairs": [[0.2, True]], "e_values": [], "c_values": []},
    {"n_edges_values": [], "densities": [True]},
    {"topologies": [{"label": "PA", "kind": "PA", "power": math.nan}]},
    {"topologies": [{"label": "COM", "kind": "COM", "n_communities": 2,
                     "intra_inter_ratio": math.nan}]},
], ids=["rate", "pa-power", "kind", "few-edges", "low-density", "many-edges",
        "float-replicates", "float-n", "float-seed", "float-sim-reps", "bool-n-gen",
        "float-edges", "bool-e", "bool-c", "bool-pair", "bool-density",
        "nan-power", "nan-ratio"])
def test_experiment_design_every_row_would_reject_exits_3(tmp_path, capsys, change):
    d = small_design_dict()
    d.update(change)
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(d))
    out = tmp_path / "rows.csv"
    rc = main(["experiment", "--design", str(design_path), "--out", str(out)])
    assert rc == EXIT_INPUT
    assert "bad design file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid,pairs", [
    ({"e_values": [1], "c_values": [0.3]}, {"ec_pairs": [[1, 0.3]]}),
    ({"e_values": [0.2], "c_values": [1]}, {"ec_pairs": [[0.2, 1.0]]}),
], ids=["int-e", "int-c"])
def test_integer_rates_write_the_same_bytes_in_either_design_form(tmp_path, grid, pairs):
    outs = []
    for i, change in enumerate((grid, dict(pairs, e_values=[], c_values=[]))):
        d = small_design_dict()
        d.update(change)
        design_path = tmp_path / f"design{i}.json"
        design_path.write_text(json.dumps(d))
        outs.append(tmp_path / f"rows{i}.csv")
        assert main(["experiment", "--design", str(design_path), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_experiment_with_failures_exits_4(tmp_path, capsys):
    d = small_design_dict()
    d.update(n=16, n_edges_values=[30], e_values=[0.2], c_values=[0.3],
             n_network_replicates=1,
             topologies=[{"label": "ER", "kind": "ER"}])
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(d))
    out = tmp_path / "rows.csv"
    rc = main(["experiment", "--design", str(design_path), "--out", str(out)])
    assert rc == EXIT_COMPUTE
    assert "failed = 1" in capsys.readouterr().out
    assert out.exists()  # failed rows are still recorded


def test_experiment_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SECNET_WORKERS", "2")
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(small_design_dict()))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--design", str(design_path),
                 "--out", str(out)]) == 0
    assert read_manifest(out)["args"]["workers"] == 2


def test_rerun_rejects_bad_manifests(tmp_path, graph_file, capsys):
    rc = main(["rerun", "--manifest", str(tmp_path / "missing.json")])
    assert rc == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "frobnicate", "args": {}}))
    rc = main(["rerun", "--manifest", str(bad)])
    assert rc == EXIT_INPUT
    assert "unknown command" in capsys.readouterr().err
    # a malformed inline design is a bad input file, not a crash
    inline = tmp_path / "inline.json"
    stored = vars(build_parser().parse_args(["experiment", "--out", str(tmp_path / "x.csv")]))
    del stored["func"]
    stored["design_inline"] = {"name": "x", "n": 6}
    inline.write_text(json.dumps({"command": "experiment", "args": stored}))
    rc = main(["rerun", "--manifest", str(inline)])
    assert rc == EXIT_INPUT
    assert "design_inline" in capsys.readouterr().err
    # so is a manifest that lacks one of its command's arguments
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"command": "exact", "args": {"e": 0.1}}))
    rc = main(["rerun", "--manifest", str(partial)])
    assert rc == EXIT_INPUT
    assert "lacks argument 'graph'" in capsys.readouterr().err
    # one missing late in the run is caught before anything is written
    out = tmp_path / "h.csv"
    assert main(["exact", "--graph", str(graph_file), "--e", "0.3", "--c", "0.3",
                 "--gens", "5", "--out", str(out), "--qsd", str(tmp_path / "q.csv"),
                 "--mean-time"]) == 0
    stored = read_manifest(out)
    assert "mean_extinction_time" in stored["args"]  # extra keys replay
    assert main(["rerun", "--manifest", str(out) + ".manifest.json",
                 "--out", str(tmp_path / "h1.csv")]) == 0
    assert (tmp_path / "h1.csv").read_bytes() == out.read_bytes()
    del stored["args"]["qsd"]
    partial.write_text(json.dumps(stored))
    capsys.readouterr()
    rc = main(["rerun", "--manifest", str(partial), "--out", str(tmp_path / "h2.csv")])
    assert rc == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lacks argument 'qsd'" in captured.err
    assert not (tmp_path / "h2.csv").exists()


def test_rerun_replays_simulate_manifest(tmp_path, graph_file):
    out = tmp_path / "report.csv"
    assert main(["simulate", "--graph", str(graph_file), "--e", "0.2",
                 "--c", "0.4", "--gens", "10", "--reps", "200",
                 "--out", str(out)]) == 0  # seed drawn from entropy
    first = out.read_bytes()
    out2 = tmp_path / "report2.csv"
    rc = main(["rerun", "--manifest", str(out) + ".manifest.json",
               "--out", str(out2)])
    assert rc == 0
    assert out2.read_bytes() == first


def test_manifests_without_a_protocol_replay_under_version_1(tmp_path, graph_file):
    # Manifests written before the RNG protocol was recorded drew under v1.
    argv = ["simulate", "--graph", str(graph_file), "--e", "0.3", "--c", "0.4",
            "--gens", "10", "--reps", "300", "--seed", "12"]
    fresh, v1 = tmp_path / "fresh.csv", tmp_path / "v1.csv"
    assert main(argv + ["--out", str(fresh), "--sample-trajectory",
                        str(tmp_path / "t2.csv")]) == 0
    assert main(argv + ["--out", str(v1), "--rng-protocol", "1", "--sample-trajectory",
                        str(tmp_path / "t1.csv")]) == 0
    assert fresh.read_bytes() != v1.read_bytes()
    manifest = read_manifest(fresh)
    assert manifest["args"]["rng_protocol"] == 2
    del manifest["args"]["rng_protocol"]
    manifest["args"]["sample_trajectory"] = str(tmp_path / "t_old.csv")
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    again = tmp_path / "again.csv"
    assert main(["rerun", "--manifest", str(old), "--out", str(again)]) == 0
    assert again.read_bytes() == v1.read_bytes()
    assert (tmp_path / "t_old.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()


def test_experiment_manifests_without_a_protocol_replay_under_version_1(tmp_path):
    design = dict(small_design_dict(), estimator="crude")
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design))
    fresh, v1 = tmp_path / "fresh.csv", tmp_path / "v1.csv"
    assert main(["experiment", "--design", str(design_path), "--out", str(fresh)]) == 0
    assert main(["experiment", "--design", str(design_path), "--out", str(v1),
                 "--rng-protocol", "1"]) == 0
    assert fresh.read_bytes() != v1.read_bytes()
    manifest = read_manifest(fresh)
    assert manifest["args"]["design_inline"]["rng_protocol"] == 2
    del manifest["args"]["rng_protocol"], manifest["args"]["design_inline"]["rng_protocol"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    again = tmp_path / "again.csv"
    assert main(["rerun", "--manifest", str(old), "--out", str(again)]) == 0
    assert again.read_bytes() == v1.read_bytes()
    assert read_manifest(v1)["args"]["design_inline"]["rng_protocol"] == 1
