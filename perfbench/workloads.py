"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Each workload class builds its inputs in ``__init__`` (this is set-up),
runs one pass of fixed work in ``run(ops)``, and turns the passes' times
and returned figures into its own ungated figures in ``summary``.  A pass
calls secnet through module attributes (``exact.build_transition``, not a
name bound at import) so that the tracer's rebinding sees every call.
``ops`` counts operations -- a factorial row, an estimator call or an
exact stage -- and records the ones that raised or failed an output check.
The checks test the law of the outputs (ranges, identities, agreement with
exact values or a recorded reference within standard errors), never their
bytes.

See README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from secnet import dynamics, exact, experiment, meanfield, netgen, rareevent
from secnet.dynamics import Params, all_occupied

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
SE_TOLERANCE = 4.0  # pooled standard errors allowed between estimate and reference


class Ops:
    """Operations attempted and the reasons each failed one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.pass_index = 0
        self.failures: dict[str, list[str]] = {}

    def call(self, key: str, fn, *args, **kwargs):
        """Run one operation; an exception fails it and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # a failed operation is counted, not fatal
            self.fail(key, f"{type(err).__name__}: {err}")
            return None

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(f"pass {self.pass_index}: {key}", []).append(reason)

    def expect(self, key: str, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(key, reason)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def within_se(value: float, se: float, ref: float, ref_se: float,
              k: float = SE_TOLERANCE) -> bool:
    """True when ``value`` lies within ``k`` pooled SEs of ``ref``; with both
    SEs zero the two must be equal."""
    pooled = math.hypot(se, ref_se)
    if pooled == 0.0:
        return value == ref
    return abs(value - ref) <= k * pooled


def _probability(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _load_reference(workload: str) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


def _check_reference(ops: Ops, key: str, got: dict, ref: dict) -> None:
    """Compare ``{quantity: [value, se]}`` maps within ``SE_TOLERANCE``."""
    for q, (ref_v, ref_se) in ref.items():
        v, se = got[q]
        ops.expect(key, within_se(v, se, ref_v, ref_se),
                   f"{q}={v!r}±{se!r} vs reference {ref_v!r}±{ref_se!r}")


def _five_topologies(n_communities: int) -> tuple[experiment.TopologyFactor, ...]:
    tf = experiment.TopologyFactor
    return (tf("ER", "ER"),
            tf("COM", "COM", n_communities=n_communities, intra_inter_ratio=100.0),
            tf("LAT", "LAT"),
            tf("PA1", "PA", power=1.0),
            tf("PA3", "PA", power=3.0))


# ---------------------------------------------------------------------------
# factorial-mixed
# ---------------------------------------------------------------------------

class FactorialMixed:
    """``run_factorial`` on a cut-down ``contrast-n100`` design.

    The design keeps the preset's master seed, so the graphs are a fixed
    fixture: the lattice fill's restart time varies 0.05-2.3 s per graph
    with the draw, which no run of this length can average out.
    """

    name = "factorial-mixed"
    PRESET_SEED = 300

    def __init__(self, seed: int, scale: str = "full") -> None:
        n, n_gen, sims = (100, 100, 1000) if scale == "full" else (20, 20, 200)
        self.design = experiment.Design(
            name=self.name, n=n, topologies=_five_topologies(5),
            ec_pairs=((0.1, 0.01), (0.25, 0.01), (0.4, 0.01)), densities=(0.30,),
            n_gen=n_gen, n_network_replicates=1, n_sim_reps=sims,
            master_seed=self.PRESET_SEED,
        )
        self.reference = _load_reference(self.name) if scale == "full" else None

    def run(self, ops: Ops) -> dict:
        n_rows = len(self.design.cells()) * self.design.n_network_replicates
        ops.attempted += n_rows  # run_factorial turns a row's exception into an error row
        rows = experiment.run_factorial(self.design, workers=1)
        for i, r in enumerate(rows):
            key = f"row {i}"
            if r.error:
                ops.fail(key, r.error)
                continue
            ops.expect(key, _probability(r.persistence), f"persistence {r.persistence}")
            ops.expect(key, r.persistence_se >= 0.0 and r.occupancy >= 0.0,
                       "negative SE or occupancy")
            if r.persistence_method == "crude":
                ops.expect(key, math.isclose(r.occupancy, r.cond_occupancy * r.persistence,
                                             rel_tol=1e-9, abs_tol=1e-12),
                           "occupancy != conditional occupancy x persistence")
        self.last_outputs = [{"persistence": [r.persistence, r.persistence_se],
                              "occupancy": [r.occupancy, r.occupancy_se]} for r in rows]
        if self.reference is not None:
            for i, (got, ref) in enumerate(zip(self.last_outputs, self.reference)):
                _check_reference(ops, f"row {i}", got, ref)
        return {"rows": len(rows)}

    @staticmethod
    def summary(times: list[float], infos: list[dict]) -> dict:
        return {"rows_per_s": [sum(i["rows"] for i in infos) / sum(times), "1/s"]}


# ---------------------------------------------------------------------------
# crude-large
# ---------------------------------------------------------------------------

class CrudeLarge:
    """Crude Monte Carlo at the paper's scenario rates on sparse graphs.

    Graphs and estimator streams both come from the seed.  Mean field runs
    on the two n=500 graphs only (it takes about 22 s at n=2000).
    """

    name = "crude-large"
    PARAMS = Params(0.1, 0.02)

    def __init__(self, seed: int, scale: str = "full") -> None:
        if scale == "full":
            cases = (("ER", 500, 2682, None, 2048), ("PA", 500, 2682, 3.0, 2048),
                     ("PA", 2000, 4000, 1.0, 512))
            self.n_gen = 30
        else:
            cases = (("ER", 50, 263, None, 128), ("PA", 50, 263, 3.0, 128),
                     ("PA", 100, 300, 1.0, 64))
            self.n_gen = 10
        self.graphs = []
        self.reps = []
        for i, (kind, n, m, power, reps) in enumerate(cases):
            spec = netgen.TopologySpec(kind=kind, n=n, n_edges=m, power=power)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, i)))
            self.graphs.append(spec.generate(rng))
            self.reps.append(reps)
        self.seeds = [np.random.SeedSequence(seed, spawn_key=(2, i)) for i in range(len(cases))]
        self.reference = (_load_reference(self.name)
                          if scale == "full" and seed == DEFAULT_SEED else None)

    def run(self, ops: Ops) -> dict:
        outputs = []
        rep_gens = 0
        for i, (g, reps, ss) in enumerate(zip(self.graphs, self.reps, self.seeds)):
            key = f"crude {i} n={g.n}"
            rep_gens += reps * self.n_gen
            rep = ops.call(key, dynamics.estimate_crude, g, self.PARAMS,
                           all_occupied(g.n), self.n_gen, reps, ss)
            if rep is None:
                outputs.append(None)
                continue
            p, occ, cond = rep.persistence, rep.occupancy, rep.conditional_occupancy
            ops.expect(key, _probability(p.value), f"persistence {p.value}")
            ops.expect(key, bool(np.all((rep.persistence_series >= 0)
                                        & (rep.persistence_series <= 1))),
                       "persistence series outside [0, 1]")
            ops.expect(key, math.isclose(occ.value, cond.value * p.value,
                                         rel_tol=1e-12, abs_tol=1e-12),
                       "occupancy != conditional occupancy x persistence")
            outputs.append({"persistence": [p.value, p.se], "occupancy": [occ.value, occ.se],
                            "cond_occupancy": [cond.value, cond.se]})
        for i, g in enumerate(self.graphs):
            if g.n > 500:
                continue
            key = f"mf_threshold n={g.n} graph {i}"
            th = ops.call(key, meanfield.mf_threshold, g, self.PARAMS)
            if th is None:
                outputs.append(None)
                continue
            if th.fixed_point is not None:
                ops.expect(key, bool(np.all((th.fixed_point >= 0) & (th.fixed_point <= 1))),
                           "fixed point outside [0, 1]")
            outputs.append({"lambda1": th.lambda1, "regime": th.regime})
        if self.reference is not None:
            for i, (got, ref) in enumerate(zip(outputs, self.reference)):
                if got is None:
                    continue
                key = f"reference {i}"
                if "regime" in ref:
                    ops.expect(key, got["regime"] == ref["regime"],
                               f"regime {got['regime']} vs {ref['regime']}")
                    ops.expect(key, math.isclose(got["lambda1"], ref["lambda1"], rel_tol=1e-9),
                               f"lambda1 {got['lambda1']} vs {ref['lambda1']}")
                else:
                    _check_reference(ops, key, got, ref)
        self.last_outputs = outputs
        return {"rep_gens": rep_gens}

    @staticmethod
    def summary(times: list[float], infos: list[dict]) -> dict:
        return {"rep_gens_per_s": [sum(i["rep_gens"] for i in infos) / sum(times), "1/s"]}


# ---------------------------------------------------------------------------
# exact-chain
# ---------------------------------------------------------------------------

def _check_table(ops: Ops, key: str, table, e: float, n: int) -> None:
    ops.expect(key, bool(np.all((table.p_extinct >= 0) & (table.p_extinct <= 1 + 1e-12))),
               "p_extinct outside [0, 1]")
    ops.expect(key, bool(np.allclose(table.mean_occ, table.cond_mean_occ * table.p_persist,
                                     rtol=1e-9, atol=1e-12)),
               "mean occupancy != conditional occupancy x persistence")
    if len(table.p_extinct) > 1:
        # From the full landscape, one generation empties it only if every
        # patch dies: colonisation then has no source.
        ops.expect(key, math.isclose(table.p_extinct[1], e ** n, rel_tol=1e-9),
                   f"p_extinct[1]={table.p_extinct[1]!r} vs e^n={e ** n!r}")


def relabel(graph: netgen.Graph, rng: np.random.Generator) -> netgen.Graph:
    """An isomorphic copy of ``graph`` with its node labels permuted."""
    perm = rng.permutation(graph.n)
    return netgen.Graph(graph.n, tuple((int(perm[u]), int(perm[v])) for u, v in graph.edges))


class ExactChain:
    """The ``secnet exact`` pipeline on small graphs, plus the reach cases.

    The graphs are fixed draws whose node labels the seed permutes.  Every
    seed so gets other edge lists and state orderings but the same chain up
    to relabelling: QSD convergence, which varies by graph, stays put.
    """

    name = "exact-chain"
    PARAMS = Params(0.1, 0.05)
    QSD_RESIDUAL = 1e-8
    HORIZON_AGREEMENT = 1e-12
    FIXTURE_SEED = 11

    def __init__(self, seed: int, scale: str = "full") -> None:
        n_main, n_big, n_mf, n_heat = (11, 12, 14, 10) if scale == "full" else (6, 7, 8, 6)
        self.n_gen = 100 if scale == "full" else 60
        self.mf_gens = 3 if scale == "full" else 2
        shuffle = np.random.default_rng(seed)

        def graph(i, kind, n, power=None):
            spec = netgen.TopologySpec(kind=kind, n=n, power=power,
                                       n_edges=netgen.density_to_n_edges(0.3, n))
            ss = np.random.SeedSequence(self.FIXTURE_SEED, spawn_key=(1, i))
            return relabel(spec.generate(np.random.default_rng(ss)), shuffle)

        self.main = [graph(0, "ER", n_main), graph(1, "LAT", n_main),
                     graph(2, "PA", n_main, 1.0)]
        self.big = graph(3, "ER", n_big)
        self.mf = graph(4, "ER", n_mf)
        self.heat = graph(5, "ER", n_heat)

    def _chain(self, ops: Ops, g: netgen.Graph, with_qsd: bool):
        """Build, horizon, [QSD,] mean time [and diagnostics] on one graph;
        returns the horizon table, or None if it failed."""
        p, z0 = self.PARAMS, all_occupied(g.n)
        key = f"n={g.n} {g.fingerprint()}"
        tm = ops.call(key + " build", exact.build_transition, g, p)
        if tm is None:
            return None
        table = ops.call(key + " horizon", exact.finite_horizon, tm, z0, self.n_gen,
                         keep_tail=10 if with_qsd else 0)
        if table is not None:
            _check_table(ops, key + " horizon", table, p.e, g.n)
        q = ops.call(key + " qsd", exact.qsd, tm) if with_qsd else None
        if q is not None:
            ops.expect(key + " qsd", q.residual <= self.QSD_RESIDUAL,
                       f"QSD residual {q.residual:g}")
            ops.expect(key + " qsd", 0.0 < q.lambda1 < 1.0 and q.lambda2_abs < q.lambda1,
                       f"lambda1={q.lambda1} lambda2_abs={q.lambda2_abs}")
        mt = ops.call(key + " mean time", exact.mean_extinction_time, tm, z0)
        if mt is not None:
            ops.expect(key + " mean time", math.isfinite(mt) and mt >= 1.0,
                       f"mean extinction time {mt}")
        if q is not None and table is not None:
            diag = ops.call(key + " diagnostics", exact.convergence_diagnostics, q, table)
            if diag is not None:
                ops.expect(key + " diagnostics", 0.0 <= diag.tv_to_qsd <= 1.0,
                           f"TV distance {diag.tv_to_qsd}")
        return table

    def run(self, ops: Ops) -> dict:
        p, e = self.PARAMS, self.PARAMS.e
        dense = [self._chain(ops, g, with_qsd=True) for g in self.main][0]

        g = self.main[0]
        key = f"matrix-free n={g.n}"
        free = ops.call(key, exact.finite_horizon_matrix_free, g, p, all_occupied(g.n),
                        self.mf_gens)
        if free is not None and dense is not None:
            k = self.mf_gens + 1
            gap = max(np.max(np.abs(free.p_extinct - dense.p_extinct[:k])),
                      np.max(np.abs(free.mean_occ - dense.mean_occ[:k])))
            ops.expect(key, gap <= self.HORIZON_AGREEMENT,
                       f"dense and matrix-free horizons differ by {gap:g}")

        self._chain(ops, self.big, with_qsd=False)

        g = self.mf
        key = f"matrix-free n={g.n}"
        free = ops.call(key, exact.finite_horizon_matrix_free, g, p, all_occupied(g.n), 1)
        if free is not None:
            _check_table(ops, key, free, e, g.n)

        key = f"heatmap n={self.heat.n}"
        hm = ops.call(key, exact.extinction_heatmap, self.heat, (0.05, 0.10, 0.15),
                      (0.01, 0.05, 0.10), 30, method="exact")
        if hm is not None:
            pe = hm.p_extinct
            ops.expect(key, bool(np.all((pe >= 0) & (pe <= 1))), "p_extinct outside [0, 1]")
            # more extinction or less colonisation never lowers P(extinct)
            ops.expect(key, bool(np.all(np.diff(pe, axis=0) >= -1e-12)
                                 and np.all(np.diff(pe, axis=1) <= 1e-12)),
                       "p_extinct not monotone in (e, c)")
        return {}

    @staticmethod
    def summary(times: list[float], infos: list[dict]) -> dict:
        return {}


# ---------------------------------------------------------------------------
# rare-tails
# ---------------------------------------------------------------------------

class RareTails:
    """The three rare-event estimators on the fixed acceptance-test fixtures.

    Fixtures, exact references and estimator streams are all fixed (the
    streams are the first of the acceptance test's own), so each pass gives
    the same estimates and standard errors and only the timing varies.
    """

    name = "rare-tails"

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.calls = 5 if scale == "full" else 2
        self.split_reps = 10 if scale == "full" else 3
        z0 = all_occupied(10)
        self.z0 = z0
        self.graph = netgen.gen_erdos_renyi(10, netgen.density_to_n_edges(0.7, 10),
                                            np.random.default_rng(42))
        self.params = Params(0.05, 0.10)
        self.mirror = netgen.gen_erdos_renyi(10, netgen.density_to_n_edges(0.3, 10),
                                             np.random.default_rng(42))
        self.mirror_params = Params(0.15, 0.01)
        tm = exact.build_transition(self.graph, self.params)
        self.p_extinct = float(exact.finite_horizon(tm, z0, 30).p_extinct[-1])
        tm = exact.build_transition(self.mirror, self.mirror_params)
        self.p_persist = float(exact.finite_horizon(tm, z0, 100).p_persist[-1])
        self.schedule = rareevent.default_twist_schedule(self.params.e, 30, peak=0.25)
        self.split_config = rareevent.SplittingConfig(thresholds=(7, 5, 3, 1), n_success=40)

    def _pool(self, ops: Ops, label: str, fn, seeds, exact_value: float) -> dict:
        t0 = time.perf_counter()
        ests = [ops.call(f"{label} seed {s}", fn, s) for s in seeds]
        elapsed = time.perf_counter() - t0
        if None in ests:
            return {}
        value = float(np.mean([e.value for e in ests]))
        se = math.sqrt(sum(e.se ** 2 for e in ests)) / len(ests)
        key = f"{label} pooled"
        ops.expect(key, _probability(value) and se > 0.0, f"pooled {value}±{se}")
        ops.expect(key, within_se(value, se, exact_value, 0.0),
                   f"pooled {value:.4g}±{se:.3g} vs exact {exact_value:.4g}")
        return {"time_to_rse10_s": elapsed * (se / value / 0.1) ** 2} if value > 0.0 else {}

    def run(self, ops: Ops) -> dict:
        g, p, z0, k = self.graph, self.params, self.z0, range(self.calls)
        return {
            "is": self._pool(
                ops, "is", lambda s: rareevent.is_extinction(
                    g, p, z0, 30, self.schedule, 2000, seed=s),
                [9000 + i for i in k], self.p_extinct),
            "split": self._pool(
                ops, "split", lambda s: rareevent.split_extinction(
                    g, p, z0, 30, self.split_config, seed=s,
                    n_replications=self.split_reps),
                [7000 + i for i in k], self.p_extinct),
            "ips": self._pool(
                ops, "ips", lambda s: rareevent.ips_persistence(
                    self.mirror, self.mirror_params, z0, 100, 400, seed=s),
                [5000 + i for i in k], self.p_persist),
        }

    @staticmethod
    def summary(times: list[float], infos: list[dict]) -> dict:
        out = {}
        for est in ("is", "split", "ips"):
            vals = [i[est]["time_to_rse10_s"] for i in infos if "time_to_rse10_s" in i[est]]
            if vals:
                out[f"{est}.time_to_rse10_s"] = [statistics.median(vals), "s"]
        return out


WORKLOADS = {w.name: w for w in (FactorialMixed, CrudeLarge, ExactChain, RareTails)}
