"""Benchmark child process: set up one workload, then run timed passes.

``run.py`` starts this script once per set-up sample and once for the
measured run.  It prints ``READY`` when set-up is done (the parent times
process start to that line), then, unless ``--setup-only``, runs passes for
``--seconds`` and prints one JSON line with the raw results.  BLAS and
OpenMP are pinned to one thread before numpy is imported, and the process
to one CPU.
"""

from __future__ import annotations

import os

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"
# The whole process stays on one CPU, the highest-numbered one it may use.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import secnet  # noqa: E402
import secnet.cli  # noqa: E402,F401  (a user's import cost; it belongs to set-up)

if not Path(secnet.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"secnet was imported from {secnet.__file__}, not from this checkout's src/")

import tracing  # noqa: E402
import workloads  # noqa: E402


def timed_passes(workload, ops: workloads.Ops, seconds: float,
                 tracer: tracing.Tracer | None = None) -> tuple[list, list]:
    """Run passes until ``seconds`` are used; never start one that, judging
    by the last pass, would end past the budget.  At least one pass."""
    times, infos = [], []
    end = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.task = len(times)
        t0, c0 = time.perf_counter(), time.process_time()
        info = workload.run(ops)
        info["cpu_s"] = time.process_time() - c0
        infos.append(info)
        times.append(time.perf_counter() - t0)
        ops.pass_index += 1
        if time.perf_counter() + times[-1] > end:
            return times, infos


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in PINNED},
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def record_reference(workload) -> None:
    """Store one pass's estimates as the workload's reference (value, SE)."""
    ops = workloads.Ops()
    workload.reference = None  # the old reference is being replaced, not checked
    workload.run(ops)
    if ops.failed:
        sys.exit(f"not recording a reference from a failing pass: {ops.failures}")
    path = workloads.REFERENCE_PATH
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs[workload.name] = workload.last_outputs
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    print("READY", flush=True)
    if args.setup_only:
        return
    if args.record_reference:
        record_reference(workload)
        return

    ops = workloads.Ops()
    result = {"env": environment(args.seed)}
    if args.trace:
        # Untraced passes first, then the same work traced: the difference
        # in median pass time is the tracing overhead.
        plain, _ = timed_passes(workload, ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install_secnet(tracer)
        try:
            times, infos = timed_passes(workload, ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(times) - statistics.median(plain)
        result["layers"] = tracing.layer_metrics(tracer.spans, len(times), overhead)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        times, infos = timed_passes(workload, ops, args.seconds)
    result.update(
        pass_s=times,
        info={"cpu_s": [statistics.median(i["cpu_s"] for i in infos), "s"],
              **workload.summary(times, infos)},
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
