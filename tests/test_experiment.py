"""Tests for the factorial experiment driver and its analysis helpers."""

import csv
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from secnet import exact, experiment
from secnet.experiment import (
    Design,
    ResultRow,
    TopologyFactor,
    RESULT_COLUMNS,
    preset,
    preset_names,
    run_factorial,
    scenario_compare,
    scenario_presets,
    variance_decomposition,
    write_comparison_csv,
    write_results_csv,
    write_variance_csv,
)
from secnet.netgen import ConvergenceError, GenerationError, TopologySpec

ER = TopologyFactor("ER", "ER")
LAT = TopologyFactor("LAT", "LAT")


def small_design(**overrides):
    kwargs = dict(
        name="small", n=6, topologies=(ER,), n_gen=5,
        e_values=(0.2, 0.4), c_values=(0.3,), n_edges_values=(8,),
        n_network_replicates=2, n_sim_reps=200, estimator="exact",
        master_seed=777,
    )
    kwargs.update(overrides)
    return Design(**kwargs)


def synth_row(cell, rep, e, c, n_edges, topo, pers, occ=0.0):
    """A hand-built result row for exercising the analysis functions."""
    return ResultRow(
        design="synth", cell_index=cell, replicate=rep, e=e, c=c,
        n_edges=n_edges, density=0.0, topology=topo,
        graph_fingerprint="0" * 12, lambda1=2.0,
        persistence=pers, persistence_se=0.0, persistence_method="exact",
        occupancy=occ, occupancy_se=0.0, cond_occupancy=occ,
        n_survivors=-1, n_extinct=-1, runtime_s=0.0,
    )


# ---------------------------------------------------------------------------
# Design


def test_design_rate_factors_are_exclusive():
    with pytest.raises(ValueError):
        small_design(ec_pairs=((0.2, 0.3),))  # both grid and pairs
    with pytest.raises(ValueError):
        small_design(e_values=(), c_values=())  # neither
    with pytest.raises(ValueError):
        small_design(c_values=())  # grid missing one axis
    d = small_design(e_values=(), c_values=(), ec_pairs=((0.5, 0.1), (0.8, 0.16)))
    assert d.rate_pairs == ((0.5, 0.1), (0.8, 0.16))


def test_design_edge_factors_are_exclusive():
    with pytest.raises(ValueError):
        small_design(densities=(0.3,))
    with pytest.raises(ValueError):
        small_design(n_edges_values=())
    d = small_design(n_edges_values=(), densities=(0.3, 0.5, 0.7), n=10)
    assert d.edge_budgets == (14, 23, 32)


def test_design_validates_counts_and_estimator():
    with pytest.raises(ValueError):
        small_design(n_network_replicates=0)
    with pytest.raises(ValueError):
        small_design(n_sim_reps=0)
    with pytest.raises(ValueError):
        small_design(estimator="exactly")
    with pytest.raises(ValueError):
        small_design(topologies=())
    with pytest.raises(ValueError):
        small_design(initial="empty")


def test_rate_pairs_follow_grid_order():
    d = small_design(e_values=(0.1, 0.2), c_values=(0.3, 0.4))
    assert d.rate_pairs == ((0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4))


def test_cells_enumerate_rates_then_edges_then_topologies():
    d = small_design(topologies=(ER, LAT), n_edges_values=(7, 8))
    cells = d.cells()
    assert len(cells) == 2 * 2 * 2
    assert [c.index for c in cells] == list(range(8))
    assert [(c.e, c.n_edges, c.topology.label) for c in cells[:4]] == [
        (0.2, 7, "ER"), (0.2, 7, "LAT"), (0.2, 8, "ER"), (0.2, 8, "LAT"),
    ]
    assert cells[4].e == 0.4


def test_design_dict_round_trip():
    d = small_design(topologies=(ER, TopologyFactor("PA3", "PA", power=3.0)))
    assert Design.from_dict(d.to_dict()) == d


# ---------------------------------------------------------------------------
# run_factorial


def test_row_count_and_ordering():
    d = small_design()
    rows = run_factorial(d)
    assert len(rows) == len(d.cells()) * d.n_network_replicates
    assert [(r.cell_index, r.replicate) for r in rows] == [
        (ci, rep) for ci in range(2) for rep in range(2)
    ]
    assert all(r.design == "small" for r in rows)


def test_networks_paired_across_rate_cells():
    # Replicate r at a fixed edge budget reuses the same network seed in
    # every rate cell, so rate effects are measured on identical graphs.
    d = small_design(topologies=(ER, LAT))
    rows = run_factorial(d)
    by = {(r.cell_index, r.replicate): r.graph_fingerprint for r in rows}
    cells = {(c.e, c.topology.label): c.index for c in d.cells()}
    for topo in ("ER", "LAT"):
        lo, hi = cells[(0.2, topo)], cells[(0.4, topo)]
        for rep in range(2):
            assert by[(lo, rep)] == by[(hi, rep)]
    # distinct replicates and distinct topologies give distinct graphs here
    assert by[(0, 0)] != by[(0, 1)]
    assert by[(cells[(0.2, "ER")], 0)] != by[(cells[(0.2, "LAT")], 0)]


def test_exact_rows_are_deterministic_with_zero_se():
    rows = run_factorial(small_design())
    for r in rows:
        assert r.persistence_method == "exact"
        assert r.persistence_se == 0.0 and r.occupancy_se == 0.0
        assert r.n_survivors == -1 and r.n_extinct == -1
        assert r.error is None
        assert 0.0 < r.persistence <= 1.0
        assert r.occupancy == pytest.approx(r.cond_occupancy * r.persistence)
    again = run_factorial(small_design())
    strip = lambda rs: [dataclasses.replace(r, runtime_s=0.0) for r in rs]
    assert strip(again) == strip(rows)


def test_auto_switches_to_simulation_above_the_cap():
    d = small_design(n=16, n_edges_values=(30,), estimator="auto", n_gen=10,
                     e_values=(0.5,), c_values=(0.2,),
                     n_network_replicates=1, n_sim_reps=400)
    row = run_factorial(d)[0]
    assert row.persistence_method == "crude"
    assert row.persistence_se > 0.0
    assert row.n_survivors + row.n_extinct == 400


def test_escalates_to_ips_when_survival_is_rare():
    d = small_design(n=8, n_edges_values=(12,), estimator="crude", n_gen=40,
                     e_values=(0.85,), c_values=(0.02,),
                     n_network_replicates=1, n_sim_reps=400)
    row = run_factorial(d)[0]
    assert row.persistence_method == "ips"
    assert row.n_survivors < d.escalate_below_events
    assert 0.0 < row.persistence < 1e-6


def test_escalates_to_is_when_extinction_is_rare():
    d = small_design(n=8, n_edges_values=(12,), estimator="crude", n_gen=40,
                     e_values=(0.02,), c_values=(0.6,),
                     n_network_replicates=1, n_sim_reps=400)
    row = run_factorial(d)[0]
    assert row.persistence_method == "is"
    assert row.n_extinct < d.escalate_below_events
    assert row.persistence > 0.999


def test_failures_are_captured_per_row():
    # n = 16 is over the dense cap, so the exact estimator fails; the run
    # must record the failure and keep going.
    d = small_design(n=16, n_edges_values=(30,), estimator="exact",
                     e_values=(0.2, 0.4), n_network_replicates=1)
    rows = run_factorial(d)
    assert len(rows) == 2
    for r in rows:
        assert r.persistence_method == "failed"
        assert math.isnan(r.persistence)
        assert r.error is not None and "cap" in r.error


@pytest.mark.parametrize("estimator", ["exact", "crude"])
def test_worker_pool_matches_serial_run(tmp_path, estimator):
    d = small_design(topologies=(ER, LAT), estimator=estimator)
    serial = run_factorial(d, workers=1)
    pooled = run_factorial(d, workers=2)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    write_results_csv(serial, p1)
    write_results_csv(pooled, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_results_csv_is_pinned(tmp_path):
    # Every route: exact rows, crude rows, crude rows escalated to IPS and
    # to IS, and a failed row (the exact estimator over the cap).  The exact
    # cells follow the exact operator's summation order, so a change to
    # that order moves them in the last bits and needs a new hash.
    designs = [
        small_design(topologies=(ER, LAT), c_values=(0.3, 0.5)),
        small_design(n=8, n_edges_values=(12,), estimator="crude", n_gen=40,
                     topologies=(ER, LAT), e_values=(), c_values=(),
                     ec_pairs=((0.3, 0.3), (0.85, 0.02), (0.02, 0.6)),
                     n_sim_reps=400),
        small_design(n=16, n_edges_values=(30,), e_values=(0.2,),
                     n_network_replicates=1),
    ]
    rows = [row for d in designs for row in run_factorial(d)]
    assert {r.persistence_method for r in rows} == {"exact", "crude", "ips", "is", "failed"}
    path = tmp_path / "rows.csv"
    write_results_csv(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "12a001f4759717e1994e84d5c5047162356040e463c106c14d9de49eec98bec7"


def test_each_network_is_built_once(monkeypatch):
    generated, built, calls = [], [], []
    generate, build = TopologySpec.generate, exact.build_transition

    def counting_generate(self, rng):
        generated.append(self.label)
        return generate(self, rng)

    def counting_build(graph, params, cap=exact.EXACT_CAP_DEFAULT):
        built.append((graph.fingerprint(), params.c))
        return build(graph, params, cap)

    monkeypatch.setattr(TopologySpec, "generate", counting_generate)
    monkeypatch.setattr(exact, "build_transition", counting_build)
    d = small_design(topologies=(ER, LAT), c_values=(0.3, 0.5))
    rows = run_factorial(d, progress=lambda done, total: calls.append((done, total)))
    n_networks = 2 * d.n_network_replicates
    assert len(rows) == 4 * n_networks
    assert sorted(generated) == ["ER", "ER", "LAT", "LAT"]
    assert len(built) == len(set(built)) == 2 * n_networks
    assert calls == [(i, n_networks) for i in range(1, n_networks + 1)]


@pytest.mark.parametrize("where", ["lambda1", "generate"])
def test_network_failures_reach_every_row(monkeypatch, where):
    generate, lambda1 = TopologySpec.generate, experiment.leading_adjacency_eigenvalue
    lattices = []

    def failing_generate(self, rng):
        if self.label == "LAT" and where == "generate":
            raise GenerationError("no lattice fits")
        graph = generate(self, rng)
        if self.label == "LAT":
            lattices.append(graph)
        return graph

    def failing_lambda1(graph):
        if any(graph is g for g in lattices):
            raise ConvergenceError("power iteration did not converge")
        return lambda1(graph)

    monkeypatch.setattr(TopologySpec, "generate", failing_generate)
    monkeypatch.setattr(experiment, "leading_adjacency_eigenvalue", failing_lambda1)
    message = {"generate": "GenerationError: no lattice fits",
               "lambda1": "ConvergenceError: power iteration did not converge"}[where]
    d = small_design(topologies=(ER, LAT), c_values=(0.3, 0.5))
    rows = run_factorial(d)
    assert [(r.cell_index, r.replicate) for r in rows] == [
        (ci, rep) for ci in range(8) for rep in range(2)
    ]
    for r in rows:
        if r.topology == "LAT":
            assert r.persistence_method == "failed"
            assert r.error == message
            assert r.graph_fingerprint == "" and math.isnan(r.lambda1)
        else:
            assert r.persistence_method == "exact" and r.error is None


# ---------------------------------------------------------------------------
# variance decomposition


def grid_rows(value, reps=2):
    """Balanced 2x2x2 factorial with `value(e, n_edges, topo, rep)`."""
    rows, cell = [], 0
    for e in (0.2, 0.4):
        for m in (5, 9):
            for topo in ("ER", "LAT"):
                for rep in range(reps):
                    rows.append(synth_row(cell, rep, e, 0.3, m, topo,
                                          pers=value(e, m, topo, rep)))
                cell += 1
    return rows


def test_anova_attributes_a_pure_main_effect():
    rows = grid_rows(lambda e, m, t, r: 0.9 if e == 0.2 else 0.5)
    vt = variance_decomposition(rows, response="persistence")
    shares = {name: share for name, _, share in vt.terms}
    ss = {name: s for name, s, _ in vt.terms}
    # 16 rows at +/-0.2 around the grand mean
    assert ss["e"] == pytest.approx(16 * 0.2**2, rel=1e-12)
    assert shares["e"] == pytest.approx(1.0, abs=1e-9)
    for name in ("edges", "topology", "e:edges", "e:topology",
                 "edges:topology", "e:edges:topology"):
        assert shares[name] == pytest.approx(0.0, abs=1e-9)
    assert vt.residual_ss == pytest.approx(0.0, abs=1e-12)
    assert vt.r_squared == pytest.approx(1.0)
    assert not vt.degenerate


def test_anova_splits_additive_effects_by_hand():
    # value = (+/-1 from e) + (+/-0.5 from topology) over 16 rows:
    # SS_e = 16, SS_topology = 4, nothing else
    rows = grid_rows(lambda e, m, t, r:
                     (1.0 if e == 0.2 else -1.0) + (0.5 if t == "ER" else -0.5))
    vt = variance_decomposition(rows, response="persistence")
    ss = {name: s for name, s, _ in vt.terms}
    assert ss["e"] == pytest.approx(16.0, rel=1e-12)
    assert ss["topology"] == pytest.approx(4.0, rel=1e-12)
    assert ss["edges"] == pytest.approx(0.0, abs=1e-12)
    assert vt.ss_total == pytest.approx(20.0, rel=1e-12)
    shares = {name: share for name, _, share in vt.terms}
    assert shares["e"] == pytest.approx(0.8, rel=1e-12)
    assert shares["topology"] == pytest.approx(0.2, rel=1e-12)


def test_anova_residual_collects_replicate_noise():
    delta = 0.01
    rows = grid_rows(lambda e, m, t, r:
                     (0.9 if e == 0.2 else 0.5) + (delta if r == 0 else -delta))
    vt = variance_decomposition(rows, response="persistence")
    assert vt.residual_ss == pytest.approx(16 * delta**2, rel=1e-9)
    assert vt.residual_share == pytest.approx(vt.residual_ss / vt.ss_total)
    assert vt.r_squared == pytest.approx(1.0 - vt.residual_share)
    total_share = sum(share for _, _, share in vt.terms) + vt.residual_share
    assert total_share == pytest.approx(1.0, abs=1e-9)


def test_anova_rejects_unbalanced_and_failed_runs():
    rows = grid_rows(lambda e, m, t, r: 0.5 + 0.1 * r)
    with pytest.raises(ValueError, match="unbalanced"):
        variance_decomposition(rows[:-1])
    bad = rows + [dataclasses.replace(
        rows[0], cell_index=99, persistence=float("nan"),
        persistence_method="failed", error="ValueError: boom")]
    with pytest.raises(ValueError, match="error"):
        variance_decomposition(bad)


def test_anova_flags_constant_response_as_degenerate():
    rows = grid_rows(lambda e, m, t, r: 0.5)
    vt = variance_decomposition(rows, response="persistence")
    assert vt.degenerate
    assert vt.terms == ()
    assert vt.ss_total == 0.0


def test_anova_interaction_is_cell_means_less_main_effects():
    # Random 2 x 3 design (e x topology) with 2 replicates, rows shuffled:
    # SS[e:topology] = r * sum over cells of (cell mean - grand)^2 - SS[e] - SS[topology].
    rng = np.random.default_rng(15)
    y = rng.random((2, 3, 2))
    rows = [synth_row(3 * i + j, k, e, 0.3, 5, topo, pers=float(y[i, j, k]))
            for i, e in enumerate((0.2, 0.4)) for j, topo in enumerate(("COM", "ER", "LAT"))
            for k in range(2)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    vt = variance_decomposition(rows, response="persistence")
    ss = {name: s for name, s, _ in vt.terms}
    assert list(ss) == ["e", "topology", "e:topology"]
    cells = 2 * ((y.mean(axis=2) - y.mean()) ** 2).sum()
    assert ss["e:topology"] == pytest.approx(cells - ss["e"] - ss["topology"], rel=1e-12)
    assert ss["e"] == pytest.approx(6 * ((y.mean(axis=(1, 2)) - y.mean()) ** 2).sum(),
                                    rel=1e-12)


def test_anova_logit_response_clamps_boundary_values():
    rows, cell = [], 0
    for e in (0.2, 0.4):
        for rep in range(2):
            rows.append(synth_row(cell, rep, e, 0.3, 5, "ER",
                                  pers=1.0 if e == 0.2 else 0.0))
        cell += 1
    vt = variance_decomposition(rows, response="logit_persistence")
    assert all(np.isfinite(s) for _, s, _ in vt.terms)
    edge = math.log((1 - 1e-6) / 1e-6)  # clamped logit of 0 and 1
    ss = dict((name, s) for name, s, _ in vt.terms)
    assert ss["e"] == pytest.approx(4 * edge**2, rel=1e-9)


def test_anova_enters_paired_rates_as_one_factor():
    # scenario-preset shape: (e, e / 5) pairs crossed with two topologies;
    # e and c as separate factors would fill 6 of 18 cells
    rows, cell = [], 0
    for e in (0.1, 0.5, 0.8):
        for topo in ("ER", "PA"):
            for rep in range(3):
                rows.append(synth_row(cell, rep, e, e / 5, 263, topo,
                                      pers=1.0 - e + (0.2 if topo == "PA" else 0.0)
                                      + 0.01 * rep))
            cell += 1
    vt = variance_decomposition(rows, response="persistence")
    shares = {name: share for name, _, share in vt.terms}
    assert list(shares) == ["rates", "topology", "rates:topology"]
    assert shares["rates"] > shares["topology"] > 0.0
    assert sum(shares.values()) + vt.residual_share == pytest.approx(1.0, abs=1e-12)


def test_anova_shares_sum_to_one_on_a_real_run():
    rows = run_factorial(small_design(topologies=(ER, LAT)))
    vt = variance_decomposition(rows, response="occupancy")
    assert sum(s for _, _, s in vt.terms) + vt.residual_share == pytest.approx(1.0)
    assert 0.0 <= vt.r_squared <= 1.0


# ---------------------------------------------------------------------------
# scenario comparison


def test_compare_groups_by_rates_and_orders_descending():
    rows = []
    for rep in range(3):
        rows.append(synth_row(0, rep, 0.5, 0.1, 50, "PA", pers=0.80, occ=30.0))
        rows.append(synth_row(1, rep, 0.5, 0.1, 50, "ER", pers=0.79, occ=10.0))
        rows.append(synth_row(2, rep, 0.8, 0.16, 50, "PA", pers=0.50, occ=20.0))
        rows.append(synth_row(3, rep, 0.8, 0.16, 50, "ER", pers=0.05, occ=19.0))
    out = scenario_compare(rows)
    assert [(r.e, r.response) for r in out] == [
        (0.5, "persistence"), (0.8, "persistence"),
        (0.5, "occupancy"), (0.8, "occupancy"),
    ]
    assert all(r.ec_ratio == pytest.approx(5.0) for r in out)
    by = {(r.e, r.response): r for r in out}
    near = by[(0.5, "persistence")]
    assert [t for t, _ in near.ordering] == ["PA", "ER"]
    assert near.symbols == ("~",)
    assert near.text == "PA=0.8 ~ ER=0.79"
    assert by[(0.8, "persistence")].symbols == ("≫",)
    assert by[(0.5, "occupancy")].symbols == ("≫",)
    assert by[(0.8, "occupancy")].symbols == ("≳",)


def test_compare_symbol_bins():
    # Gaps of 1%, 8%, 30% and 70% relative to the larger mean.
    gaps = {0.1: 0.01, 0.2: 0.08, 0.3: 0.30, 0.4: 0.70}
    rows = []
    for cell, (e, gap) in enumerate(gaps.items()):
        rows.append(synth_row(2 * cell, 0, e, 0.05, 50, "A", pers=0.5))
        rows.append(synth_row(2 * cell + 1, 0, e, 0.05, 50, "B",
                              pers=0.5 * (1 - gap)))
    out = [r for r in scenario_compare(rows) if r.response == "persistence"]
    assert [r.symbols[0] for r in out] == ["~", "≳", ">", "≫"]


# ---------------------------------------------------------------------------
# presets


def test_preset_catalogue():
    assert preset_names() == [
        "grid-n10", "grid-n100", "contrast-n100",
        "er50-r1", "er50-r5", "pa50-r1", "pa50-r5",
        "er500-r1", "er500-r5", "pa500-r1", "pa500-r5",
        "com500-r1", "com500-r5",
    ]
    with pytest.raises(KeyError, match="unknown preset"):
        preset("grid-n12")


def test_grid_presets_cover_the_full_factorial():
    g10 = preset("grid-n10")
    assert g10.n == 10
    assert g10.e_values == (0.05, 0.1, 0.15)
    assert g10.c_values == (0.01, 0.05, 0.1)
    assert g10.densities == (0.3, 0.5, 0.7)
    assert g10.edge_budgets == (14, 23, 32)
    assert [t.label for t in g10.topologies] == ["ER", "COM", "LAT", "PA1", "PA3"]
    assert len(g10.cells()) == 135
    assert g10.n_network_replicates == 10
    assert g10.estimator == "auto"
    g100 = preset("grid-n100")
    assert g100.n == 100
    assert g100.edge_budgets == (248, 495, 1485)
    assert len(g100.cells()) == 135
    pa3 = [t for t in g100.topologies if t.label == "PA3"][0]
    assert pa3.kind == "PA" and pa3.power == 3.0


def test_contrast_preset_pins_one_harsh_cell():
    d = preset("contrast-n100")
    assert d.rate_pairs == ((0.25, 0.01),)
    assert d.edge_budgets == (1485,)
    assert d.n_network_replicates == 20
    assert d.n_sim_reps == 10_000
    assert [t.label for t in d.topologies] == ["ER", "COM", "LAT", "PA1", "PA3"]


def test_scenario_presets_move_rates_together():
    designs = scenario_presets(master_seed=500)
    assert [d.name for d in designs] == [
        "er50-r1", "er50-r5", "pa50-r1", "pa50-r5",
        "er500-r1", "er500-r5", "pa500-r1", "pa500-r5",
        "com500-r1", "com500-r5",
    ]
    by = {d.name: d for d in designs}
    assert by["er50-r5"].rate_pairs == ((0.1, 0.02), (0.5, 0.1), (0.8, 0.16))
    assert by["er50-r1"].rate_pairs == ((0.1, 0.1), (0.5, 0.5), (0.8, 0.8))
    assert by["er50-r5"].edge_budgets == (263,)
    assert by["er500-r5"].edge_budgets == (2682,)
    com = by["com500-r1"].topologies[0]
    assert com.kind == "COM"
    assert com.n_communities == 10 and com.intra_inter_ratio == 10.0
    for name in ("pa50-r1", "pa50-r5", "pa500-r1", "pa500-r5"):
        pa = by[name].topologies[0]
        assert pa.kind == "PA" and pa.power == 3.0
    assert all(d.master_seed == 500 for d in designs)
    assert all(d.n_sim_reps == 10_000 for d in designs)


# ---------------------------------------------------------------------------
# CSV output


def read_back(path):
    """The rows of a results file, each cell parsed by its field's type."""
    parse = {"int": int, "float": float, "str": str, "str | None": lambda s: s or None}
    types = {f.name: parse[f.type] for f in dataclasses.fields(ResultRow)}
    with open(path, newline="") as fh:
        return [ResultRow(**{k: types[k](v) for k, v in rec.items()})
                for rec in csv.DictReader(fh)]


@pytest.mark.parametrize("estimator, include_runtime", [
    ("exact", False), ("crude", False), ("exact", True),
], ids=["exact", "crude", "exact-runtime"])
def test_results_csv_round_trip(tmp_path, estimator, include_runtime):
    # Crude rows carry numpy scalars (occupancy, cond_occupancy); they must
    # be written as plain floats that read back exactly.
    rows = run_factorial(small_design(estimator=estimator))
    assert all((r.persistence_method == "exact") == (estimator == "exact") for r in rows)
    path = tmp_path / "rows.csv"
    write_results_csv(rows, path, include_runtime=include_runtime)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == list(RESULT_COLUMNS) + ["runtime_s"] * include_runtime
    back = read_back(path)
    assert back == (rows if include_runtime
                    else [dataclasses.replace(r, runtime_s=0.0) for r in rows])
    # a second serialisation is byte-identical
    path2 = tmp_path / "rows2.csv"
    write_results_csv(rows, path2, include_runtime=include_runtime)
    assert path.read_bytes() == path2.read_bytes()


def test_results_csv_runtime_is_opt_in(tmp_path):
    rows = run_factorial(small_design())
    path = tmp_path / "rows.csv"
    write_results_csv(rows, path, include_runtime=True)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[-1] == "runtime_s"


def test_variance_and_comparison_csv_writers(tmp_path):
    rows = grid_rows(lambda e, m, t, r: 0.9 if e == 0.2 else 0.5)
    vt = variance_decomposition(rows, response="persistence")
    vpath = tmp_path / "variance.csv"
    write_variance_csv(vt, vpath)
    lines = vpath.read_text().splitlines()
    assert lines[0] == "term,sum_sq,share"
    assert len(lines) == 1 + len(vt.terms) + 2  # terms, residual, total
    assert lines[-2].startswith("residual,")
    assert lines[-1].startswith("total,")

    comp = scenario_compare(rows)
    cpath = tmp_path / "compare.csv"
    write_comparison_csv(comp, cpath)
    clines = cpath.read_text().splitlines()
    assert clines[0] == "response,e,ec_ratio,ordering"
    assert len(clines) == 1 + len(comp)
    assert all("~" in ln or "≫" in ln or ">" in ln or "≳" in ln
               for ln in clines[1:])
