"""Outside-in tracing: spans around calls into secnet's public layer functions.

The tracer rebinds module attributes (and ``TopologySpec.generate``) in the
benchmark process only, records one span per call -- name, start, end,
parent span, task id and a few counts read from the call's arguments and
result -- and restores the originals when it is uninstalled.  Nothing under
``src/`` changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-bounds children are not counted
    twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        ivals = sorted((max(c.start, s.start), min(c.end, s.end))
                       for c in children.get(s.id, ()))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


class Tracer:
    """Records spans for wrapped callables; single-threaded, one task at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Rebind ``owner.attr`` to a wrapper that records a span ``name``.

        ``observe(bound_arguments, result)`` returns counts stored on the
        span.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = Span(sid, name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.task)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = observe(bound.arguments, result)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# ---------------------------------------------------------------------------
# secnet's layer boundaries
# ---------------------------------------------------------------------------

def _generate(a, g):
    return {"n": g.n, "fingerprint": g.fingerprint()}


def _crude(a, r):
    return {"n": a["graph"].n, "reps": a["n_reps"], "gens": a["n_gen"],
            "extinct": r.persistence.diagnostics["n_extinct"]}


def _is(a, r):
    return {"sims": a["n_sims"], "hits": r.diagnostics["n_extinct_trajectories"]}


def _split(a, r):
    levels = len(r.diagnostics["thresholds"])
    return {"successes": a["config"].n_success * levels * a["n_replications"],
            "attempts": r.n_work}


def _ips(a, r):
    return {"degenerate": r.diagnostics["degenerate_batches"]}


def _build(a, tm):
    return {"n": tm.n, "nbytes": tm.E.nbytes + tm.C.nbytes + tm.M.nbytes}


def _matrix_free(a, r):
    return {"n": a["graph"].n, "gens": a["n_gen"]}


def _iterations(a, r):
    return {"iterations": r.iterations}


def _factorial(a, rows):
    return {"rows": len(rows),
            "escalated": sum(r.persistence_method in ("is", "ips") for r in rows)}


def install_secnet(tracer: Tracer) -> None:
    """Wrap every public layer boundary the workloads reach.

    Names that a module imported from another are wrapped in the importing
    module too, so calls made inside ``run_factorial``, ``mf_threshold``
    and ``extinction_heatmap`` are seen.
    """
    from secnet import dynamics, exact, experiment, meanfield, netgen, rareevent

    tracer.wrap(netgen.TopologySpec, "generate", "netgen.generate", _generate)
    for mod in (netgen, experiment, meanfield, exact):
        tracer.wrap(mod, "leading_adjacency_eigenvalue", "netgen.lambda1")
    for mod in (dynamics, experiment):
        tracer.wrap(mod, "estimate_crude", "dynamics.estimate_crude", _crude)
    for mod in (rareevent, experiment):
        tracer.wrap(mod, "is_extinction", "rareevent.is", _is)
        tracer.wrap(mod, "ips_persistence", "rareevent.ips", _ips)
    tracer.wrap(rareevent, "split_extinction", "rareevent.split", _split)
    tracer.wrap(exact, "build_transition", "exact.build_transition", _build)
    tracer.wrap(exact, "finite_horizon", "exact.finite_horizon")
    tracer.wrap(exact, "finite_horizon_matrix_free", "exact.matrix_free", _matrix_free)
    tracer.wrap(exact, "qsd", "exact.qsd", _iterations)
    tracer.wrap(exact, "mean_extinction_time", "exact.mean_extinction_time")
    tracer.wrap(exact, "convergence_diagnostics", "exact.convergence_diagnostics")
    tracer.wrap(exact, "extinction_heatmap", "exact.heatmap")
    tracer.wrap(meanfield, "mf_threshold", "meanfield.mf_threshold", _iterations)
    tracer.wrap(experiment, "run_factorial", "experiment.run_factorial", _factorial)


# Every traced run reports all of these; a layer the workload does not reach
# reads 0, which is the "no change" prediction for that workload.
LAYER_METRICS = {
    "netgen.generate.calls": "count",
    "netgen.generate.self_s": "s",
    "netgen.generate.distinct_ratio": "ratio",
    "netgen.lambda1.self_s": "s",
    "dynamics.estimate_crude.calls": "count",
    "dynamics.estimate_crude.self_s": "s",
    "dynamics.ns_per_rep_patch_gen.n100": "ns",
    "dynamics.ns_per_rep_patch_gen.n500": "ns",
    "dynamics.ns_per_rep_patch_gen.n2000": "ns",
    "dynamics.absorbed_share": "ratio",
    "exact.build_transition.self_s.n11": "s",
    "exact.build_transition.self_s.n12": "s",
    "exact.operator_mb": "MiB",
    "exact.finite_horizon.self_s": "s",
    "exact.mean_extinction_time.self_s": "s",
    "exact.qsd.self_s": "s",
    "exact.qsd.iterations": "count",
    "exact.matrix_free.s_per_gen.n11": "s",
    "exact.matrix_free.s_per_gen.n14": "s",
    "exact.heatmap.self_s": "s",
    "rareevent.is.self_s": "s",
    "rareevent.is.hit_ratio": "ratio",
    "rareevent.split.self_s": "s",
    "rareevent.split.success_ratio": "ratio",
    "rareevent.ips.self_s": "s",
    "rareevent.ips.degenerate_batches": "count",
    "meanfield.mf_threshold.self_s": "s",
    "meanfield.iterations": "count",
    "experiment.run_factorial.self_s": "s",
    "experiment.escalated_share": "ratio",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_passes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer figures of ``n_passes`` traced passes.

    Times, calls, iterations and batch counts are per pass; ratios and
    per-unit costs are taken over all passes.
    """
    selfs = self_times(spans)

    def group(name, **where):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in where.items())]

    def self_s(name, **where):
        return sum(selfs[s.id] for s in group(name, **where)) / n_passes

    def total(name, key, **where):
        return sum(s.attrs[key] for s in group(name, **where))

    gen = group("netgen.generate")
    crude = "dynamics.estimate_crude"
    m = {
        "netgen.generate.calls": len(gen) / n_passes,
        "netgen.generate.self_s": self_s("netgen.generate"),
        "netgen.generate.distinct_ratio": _ratio(
            len({s.attrs["fingerprint"] for s in gen}) * n_passes, len(gen)),
        "netgen.lambda1.self_s": self_s("netgen.lambda1"),
        "dynamics.estimate_crude.calls": len(group(crude)) / n_passes,
        "dynamics.estimate_crude.self_s": self_s(crude),
        "dynamics.absorbed_share": _ratio(total(crude, "extinct"), total(crude, "reps")),
        "exact.build_transition.self_s.n11": self_s("exact.build_transition", n=11),
        "exact.build_transition.self_s.n12": self_s("exact.build_transition", n=12),
        "exact.operator_mb": max((s.attrs["nbytes"] for s in group("exact.build_transition")),
                                 default=0) / 2**20,
        "exact.finite_horizon.self_s": self_s("exact.finite_horizon"),
        "exact.mean_extinction_time.self_s": self_s("exact.mean_extinction_time"),
        "exact.qsd.self_s": self_s("exact.qsd"),
        "exact.qsd.iterations": total("exact.qsd", "iterations") / n_passes,
        "exact.heatmap.self_s": self_s("exact.heatmap"),
        "rareevent.is.self_s": self_s("rareevent.is"),
        "rareevent.is.hit_ratio": _ratio(total("rareevent.is", "hits"),
                                         total("rareevent.is", "sims")),
        "rareevent.split.self_s": self_s("rareevent.split"),
        "rareevent.split.success_ratio": _ratio(total("rareevent.split", "successes"),
                                                total("rareevent.split", "attempts")),
        "rareevent.ips.self_s": self_s("rareevent.ips"),
        "rareevent.ips.degenerate_batches": total("rareevent.ips", "degenerate") / n_passes,
        "meanfield.mf_threshold.self_s": self_s("meanfield.mf_threshold"),
        "meanfield.iterations": total("meanfield.mf_threshold", "iterations") / n_passes,
        "experiment.run_factorial.self_s": self_s("experiment.run_factorial"),
        "experiment.escalated_share": _ratio(total("experiment.run_factorial", "escalated"),
                                             total("experiment.run_factorial", "rows")),
        "trace.overhead_s": overhead_s,
    }
    for n in (100, 500, 2000):
        work = sum(s.attrs["reps"] * s.attrs["gens"] * n for s in group(crude, n=n))
        m[f"dynamics.ns_per_rep_patch_gen.n{n}"] = 1e9 * _ratio(self_s(crude, n=n) * n_passes,
                                                               work)
    for n in (11, 14):
        m[f"exact.matrix_free.s_per_gen.n{n}"] = _ratio(
            self_s("exact.matrix_free", n=n) * n_passes, total("exact.matrix_free", "gens", n=n))
    return {k: float(m[k]) for k in LAYER_METRICS}
