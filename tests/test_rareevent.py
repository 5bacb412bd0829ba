"""Rare-event estimator tests: exact degenerate cases, closed forms,
cross-validation against the exact chain."""

import math

import numpy as np
import pytest

from secnet import rareevent
from secnet.dynamics import Kernel, Params, all_occupied
from secnet.exact import build_transition, finite_horizon
from secnet.netgen import Graph, density_to_n_edges, gen_erdos_renyi
from secnet.rareevent import (
    SplittingConfig,
    WorkCapExceeded,
    default_twist_schedule,
    geometric_thresholds,
    ips_persistence,
    is_extinction,
    split_extinction,
)


P1 = Graph(1, ())
ER6 = gen_erdos_renyi(6, 9, np.random.default_rng(50))


def exact_extinction(graph, params, z0, n_gen):
    tm = build_transition(graph, params)
    return float(finite_horizon(tm, z0, n_gen).p_extinct[-1])


# ---------------------------------------------------------------------------
# interacting particle system
# ---------------------------------------------------------------------------

def test_ips_no_extinction_is_exactly_one():
    est = ips_persistence(ER6, Params(0.0, 0.3), all_occupied(6), 10, 50, seed=60)
    assert est.value == 1.0
    assert est.se == 0.0
    assert est.method == "ips"


def test_ips_certain_extinction_is_exactly_zero_and_degenerate():
    est = ips_persistence(ER6, Params(1.0, 1.0), all_occupied(6), 10, 50, seed=61)
    assert est.value == 0.0
    assert est.diagnostics["degenerate_batches"] == 20
    assert "note" in est.diagnostics


def test_ips_single_patch_closed_form():
    # one patch: persistence over 3 generations is (1-e)^3 = 1/8
    est = ips_persistence(P1, Params(0.5, 0.9), 1, 3, 2000, seed=62)
    truth = 0.125
    assert abs(est.value - truth) < 4 * est.se
    assert est.se < 0.02


def test_ips_matches_exact_chain():
    params = Params(0.25, 0.35)
    truth = 1.0 - exact_extinction(ER6, params, all_occupied(6), 25)
    est = ips_persistence(ER6, params, all_occupied(6), 25, 400, seed=53)
    assert abs(est.value - truth) < 4 * est.se


def test_ips_validation_and_determinism():
    with pytest.raises(ValueError):
        ips_persistence(P1, Params(0.5, 0.5), 1, 5, 1, seed=0)
    with pytest.raises(ValueError):
        ips_persistence(P1, Params(0.5, 0.5), 1, 5, 10, seed=0, n_batches=1)
    a = ips_persistence(ER6, Params(0.4, 0.2), all_occupied(6), 15, 200, seed=64)
    b = ips_persistence(ER6, Params(0.4, 0.2), all_occupied(6), 15, 200, seed=64)
    c = ips_persistence(ER6, Params(0.4, 0.2), all_occupied(6), 15, 200, seed=65)
    assert a.value == b.value and a.se == b.se
    assert a.value != c.value


def test_ips_death_fraction_series_diagnostic():
    est = ips_persistence(ER6, Params(0.5, 0.1), all_occupied(6), 8, 100, seed=66)
    series = est.diagnostics["mean_death_fraction_series"]
    assert len(series) == 8
    assert all(0.0 <= f <= 1.0 for f in series)


# ---------------------------------------------------------------------------
# importance sampling
# ---------------------------------------------------------------------------

def test_twist_schedule_validation():
    for rates in [(0.5, 1.0), (0.0, 0.5), (0.5, math.nan)]:
        with pytest.raises(ValueError, match="strictly inside"):
            is_extinction(P1, Params(0.5, 0.5), 1, 2, rates, 100, 0)


def test_default_twist_schedule_shape():
    sch = default_twist_schedule(0.1, 5)
    assert len(sch) == 5
    assert sch[0] == pytest.approx(0.1)
    assert sch[-1] == pytest.approx(0.3)
    assert all(b >= a for a, b in zip(sch, sch[1:]))
    assert default_twist_schedule(0.4, 8)[-1] == pytest.approx(0.9)
    assert default_twist_schedule(0.2, 1) == (pytest.approx(0.6),)
    with pytest.raises(ValueError):
        default_twist_schedule(0.0, 5)


def test_is_null_twist_reduces_to_crude_frequency():
    params = Params(0.3, 0.25)
    sch = (0.3,) * 12
    est = is_extinction(ER6, params, all_occupied(6), 12, sch, 4000, seed=67)
    hits = est.diagnostics["n_extinct_trajectories"]
    assert est.value == pytest.approx(hits / 4000, abs=1e-12)
    assert est.diagnostics["max_weight"] == pytest.approx(1.0, abs=1e-12)
    assert est.diagnostics["ess"] == pytest.approx(hits, rel=1e-12)  # equal weights


def test_is_effective_sample_size_on_the_rare_tail_fixture():
    # The criterion 04 fixture: exact extinction probability ~7e-7, so the
    # hits carry unequal weights and Kish's ESS lies strictly below them.
    graph = gen_erdos_renyi(10, density_to_n_edges(0.7, 10), np.random.default_rng(42))
    params = Params(0.05, 0.10)
    schedule = default_twist_schedule(params.e, 30, peak=0.25)
    est = is_extinction(graph, params, all_occupied(10), 30, schedule, 2000, seed=9000)
    d = est.diagnostics
    # Sum of squared weights, recovered from the reported mean and variance.
    w_sq_sum = est.se ** 2 * 2000 * 1999 + 2000 * est.value ** 2
    assert d["ess"] == pytest.approx((2000 * est.value) ** 2 / w_sq_sum, rel=1e-6)
    assert 1.0 <= d["ess"] < d["n_extinct_trajectories"]


def test_is_single_patch_closed_form():
    # P(extinct within 6 gens) = 1 - (1-e)^6 with e = 0.2
    truth = 1 - 0.8 ** 6
    sch = default_twist_schedule(0.2, 6)
    est = is_extinction(P1, Params(0.2, 0.4), 1, 6, sch, 20_000, seed=68)
    assert abs(est.value - truth) < 4 * est.se
    assert est.se < 0.01


def test_is_matches_exact_chain_under_twisting():
    params = Params(0.1, 0.45)
    truth = exact_extinction(ER6, params, all_occupied(6), 20)  # ~4.3e-4
    sch = default_twist_schedule(0.1, 20)
    est = is_extinction(ER6, params, all_occupied(6), 20, sch, 30_000, seed=56)
    assert abs(est.value - truth) < 4 * est.se
    assert est.value > 0.0
    assert "weight_log10_histogram" in est.diagnostics


def test_is_validation():
    sch = default_twist_schedule(0.5, 5)
    with pytest.raises(ValueError):
        is_extinction(P1, Params(0.0, 0.5), 1, 5, (0.5,) * 5, 100, 0)
    with pytest.raises(ValueError):
        is_extinction(P1, Params(1.0, 0.5), 1, 5, (0.5,) * 5, 100, 0)
    with pytest.raises(ValueError):
        is_extinction(P1, Params(0.5, 0.5), 1, 4, sch, 100, 0)  # length mismatch
    with pytest.raises(ValueError):
        is_extinction(P1, Params(0.5, 0.5), 1, 5, sch, 1, 0)


def test_is_accepts_plain_rate_sequences_and_is_deterministic():
    params = Params(0.3, 0.3)
    a = is_extinction(ER6, params, all_occupied(6), 8, [0.4] * 8, 2000, seed=69)
    b = is_extinction(ER6, params, all_occupied(6), 8, np.full(8, 0.4), 2000, seed=69)
    c = is_extinction(ER6, params, all_occupied(6), 8, (0.4,) * 8, 2000, seed=69)
    assert a.value == b.value == c.value


# ---------------------------------------------------------------------------
# multilevel splitting
# ---------------------------------------------------------------------------

def test_splitting_config_dedups_and_validates():
    cfg = SplittingConfig(thresholds=(3, 5, 3, 1), n_success=10)
    assert cfg.thresholds == (5, 3, 1)
    with pytest.raises(ValueError):
        SplittingConfig(thresholds=(3, 0), n_success=10)
    with pytest.raises(ValueError):
        SplittingConfig(thresholds=(3,), n_success=1)


def test_geometric_thresholds():
    assert geometric_thresholds(10, 4) == (6, 4, 3, 2)
    levels = geometric_thresholds(100, 4)
    assert all(b < a for a, b in zip(levels, levels[1:]))
    assert all(1 <= s < 100 for s in levels)
    assert geometric_thresholds(10, 0) == ()


def test_splitting_single_patch_inverse_binomial():
    # no intermediate levels: plain fixed-success estimate of 1 - 0.7^5
    truth = 1 - 0.7 ** 5
    est = split_extinction(P1, Params(0.3, 0.5), 1, 5,
                           SplittingConfig((), 50), seed=54, n_replications=40)
    assert abs(est.value - truth) < 4 * est.se
    assert est.method == "splitting"


def test_splitting_matches_exact_chain_moderately_rare():
    params = Params(0.25, 0.35)
    truth = exact_extinction(ER6, params, all_occupied(6), 25)  # ~0.21
    cfg = SplittingConfig(thresholds=(4, 2), n_success=60)
    est = split_extinction(ER6, params, all_occupied(6), 25, cfg, seed=51,
                           n_replications=10)
    assert abs(est.value - truth) < 4 * est.se


def test_splitting_matches_exact_chain_rare():
    # the estimator is right-skewed, so the replication count must be large
    # enough for the replication-based standard error to be trustworthy
    params = Params(0.1, 0.45)
    truth = exact_extinction(ER6, params, all_occupied(6), 20)  # ~4.3e-4
    cfg = SplittingConfig(thresholds=(4, 2), n_success=50)
    est = split_extinction(ER6, params, all_occupied(6), 20, cfg, seed=57,
                           n_replications=60)
    assert abs(est.value - truth) < 4 * est.se


def test_splitting_level_product_identity():
    params = Params(0.2, 0.3)
    cfg = SplittingConfig(thresholds=(4, 2), n_success=25)
    est = split_extinction(ER6, params, all_occupied(6), 15, cfg, seed=70,
                           n_replications=1)
    assert est.se == 0.0
    level_estimates = est.diagnostics["level_estimates_first_replication"]
    assert len(level_estimates) == 3  # two thresholds plus the implicit zero
    assert est.value == pytest.approx(math.prod(level_estimates), rel=1e-12)
    assert est.diagnostics["thresholds"] == [4, 2, 0]


def _batch_crossings_oracle(starts, states, threshold, n_gen, kernel, rng):
    """Steps every row and freezes the rows not yet entered or already
    crossed with a per-generation ``np.where``."""
    occ = states.copy()
    cross_t = np.where(occ.sum(axis=1) <= threshold, starts, -1)
    cross_states = np.where((cross_t >= 0)[:, None], occ, False)
    pending = cross_t < 0
    for t in range(int(starts.min()) + 1, n_gen + 1):
        if not pending.any():
            break
        stepping = pending & (starts < t)
        _, stepped = kernel.step(occ, rng)
        occ = np.where(stepping[:, None], stepped, occ)
        hit = stepping & (occ.sum(axis=1) <= threshold)
        if hit.any():
            cross_t[hit] = t
            cross_states[hit] = occ[hit]
            pending &= ~hit
    return cross_t >= 0, cross_t, cross_states


@pytest.mark.parametrize("case", ["equal-starts", "spread-starts", "cross-at-entry",
                                  "all-cross-at-entry", "unreached"])
def test_batch_crossings_match_the_per_generation_loop(case):
    n_gen, rows = 12, 256
    # e = 0: occupancy never falls, so a full start never reaches the threshold.
    kernel = Kernel.prepare(ER6, Params(0.0 if case == "unreached" else 0.3, 0.3))
    threshold = {"all-cross-at-entry": 6, "unreached": 5}.get(case, 2)
    for seed in range(40):
        draw = np.random.default_rng(seed)
        if case == "equal-starts":
            starts = np.full(rows, draw.integers(0, n_gen))
        else:  # spread over 0..n_gen, a few rows entering at the horizon itself
            starts = np.r_[draw.integers(0, n_gen + 1, rows - 4), [n_gen] * 4]
        density = {"cross-at-entry": 0.4, "unreached": 1.0}.get(case, 0.8)
        states = draw.random((rows, ER6.n)) < density
        rng, twin = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        got = rareevent._batch_crossings(starts, states.copy(), threshold, n_gen, kernel, rng)
        want = _batch_crossings_oracle(starts, states, threshold, n_gen, kernel, twin)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert rng.bit_generator.state == twin.bit_generator.state
        crossed, cross_t, _ = got
        if case == "cross-at-entry":
            assert (cross_t == starts).any() and (crossed & (cross_t > starts)).any()
        elif case == "all-cross-at-entry":
            assert np.array_equal(cross_t, starts)
        elif case == "unreached":
            assert not crossed.any()


def test_splitting_impossible_event_hits_the_work_cap(monkeypatch):
    monkeypatch.setattr(rareevent, "MAX_ATTEMPTS_PER_LEVEL", 500)
    with pytest.raises(WorkCapExceeded, match="in 500 attempts"):
        split_extinction(ER6, Params(0.0, 0.5), all_occupied(6), 10,
                         SplittingConfig((4,), 5), seed=71, n_replications=1)


def test_splitting_validation():
    cfg = SplittingConfig(thresholds=(4, 2), n_success=10)
    with pytest.raises(ValueError):
        split_extinction(ER6, Params(0.5, 0.5), 0, 10, cfg, seed=0)
    with pytest.raises(ValueError):  # top threshold not below |z0|
        split_extinction(ER6, Params(0.5, 0.5), 0b001111, 10,
                         SplittingConfig((4, 2), 10), seed=0)
    with pytest.raises(ValueError):
        split_extinction(ER6, Params(0.5, 0.5), all_occupied(6), 10, cfg,
                         seed=0, n_replications=0)


def test_splitting_deterministic_under_seed():
    cfg = SplittingConfig(thresholds=(4, 2), n_success=20)
    a = split_extinction(ER6, Params(0.3, 0.3), all_occupied(6), 12, cfg,
                         seed=72, n_replications=3)
    b = split_extinction(ER6, Params(0.3, 0.3), all_occupied(6), 12, cfg,
                         seed=72, n_replications=3)
    c = split_extinction(ER6, Params(0.3, 0.3), all_occupied(6), 12, cfg,
                         seed=73, n_replications=3)
    assert a.value == b.value
    assert a.value != c.value


# ---------------------------------------------------------------------------
# three-way agreement on one fixture
# ---------------------------------------------------------------------------

def test_three_estimators_agree_with_the_exact_chain():
    params = Params(0.25, 0.35)
    z0 = all_occupied(6)
    p_ext = exact_extinction(ER6, params, z0, 25)
    ips = ips_persistence(ER6, params, z0, 25, 400, seed=53)
    imp = is_extinction(ER6, params, z0, 25,
                        default_twist_schedule(0.25, 25), 20_000, seed=52)
    spl = split_extinction(ER6, params, z0, 25,
                           SplittingConfig((4, 2), 60), seed=51, n_replications=10)
    assert abs((1.0 - ips.value) - p_ext) < 4 * ips.se
    assert abs(imp.value - p_ext) < 4 * imp.se
    assert abs(spl.value - p_ext) < 4 * spl.se