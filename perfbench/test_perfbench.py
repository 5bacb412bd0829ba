"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),    # overlaps a: covered once
        Span(3, "a.child", 2.0, 3.0, 1, 0),
        Span(4, "c", 9.0, 12.0, 0, 0),   # runs past its parent: clipped
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_layer_metrics_per_pass_and_ratios():
    spans = [
        Span(0, "experiment.run_factorial", 0.0, 10.0, None, 0, {"rows": 4, "escalated": 1}),
        Span(1, "netgen.generate", 0.0, 1.0, 0, 0, {"n": 100, "fingerprint": "a"}),
        Span(2, "netgen.generate", 1.0, 2.0, 0, 0, {"n": 100, "fingerprint": "a"}),
        Span(3, "dynamics.estimate_crude", 2.0, 6.0, 0, 0,
             {"n": 100, "reps": 1000, "gens": 100, "extinct": 250}),
        Span(4, "experiment.run_factorial", 20.0, 30.0, None, 1, {"rows": 4, "escalated": 1}),
    ]
    m = tracing.layer_metrics(spans, n_passes=2, overhead_s=0.5)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["netgen.generate.calls"] == 1.0
    assert m["netgen.generate.distinct_ratio"] == 1.0  # one graph per pass
    assert m["experiment.run_factorial.self_s"] == pytest.approx((10 - 6 + 10) / 2)
    assert m["experiment.escalated_share"] == 0.25
    assert m["dynamics.absorbed_share"] == 0.25
    assert m["dynamics.ns_per_rep_patch_gen.n100"] == pytest.approx(4e9 / 1e7)
    assert m["exact.qsd.self_s"] == 0.0  # unused layer reads zero
    assert m["trace.overhead_s"] == 0.5


def test_tracer_records_nesting_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.outer
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "inner", lambda a, r: {"x": a["x"], "r": r})
    tracer.wrap(mod, "outer", "outer")
    tracer.task = 7
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.outer is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert inner.attrs == {"x": 1, "r": 2} and inner.task == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_within_se():
    assert workloads.within_se(1.0, 0.1, 1.3, 0.0)
    assert not workloads.within_se(1.0, 0.1, 1.5, 0.0)
    assert workloads.within_se(1.0, 0.0, 1.0, 0.0)
    assert not workloads.within_se(1.0, 0.0, 1.0 + 1e-15, 0.0)


def test_perturbed_reference_fails():
    w = workloads.FactorialMixed(seed=1, scale="toy")
    ops = workloads.Ops()
    w.run(ops)
    assert ops.failed == 0
    w.reference = json.loads(json.dumps(w.last_outputs))
    ops = workloads.Ops()
    w.run(ops)
    assert ops.failed == 0
    value, se = w.reference[3]["occupancy"]
    w.reference[3]["occupancy"] = [value + 10 * max(se, 1e-3), se]
    ops = workloads.Ops()
    w.run(ops)
    assert ops.failed == 1 and "row 3" in next(iter(ops.failures))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_at_toy_size(name):
    w = workloads.WORKLOADS[name](seed=3, scale="toy")
    ops = workloads.Ops()
    w.run(ops)
    assert ops.attempted > 0
    assert ops.failures == {}


def test_declared_workloads_match_the_code():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(["--workload", "exact-chain", "--seed", "2", "--seconds", "0.5",
                "--trace", trace, "--scale", "toy"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "rare-tails", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
