"""secnet benchmark: one workload per run, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: factorial-mixed, crude-large, exact-chain, rare-tails (see
README.md).  The run starts ``worker.py`` ``SETUP_SAMPLES - 1`` times for
set-up only and once more for the measured run; each start is timed up to
the worker's ``READY`` line, and ``setup_s`` is their median.  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer ones.  Everything the run writes goes to ``.perfbench_out/``
in the checkout.  ``--record-reference`` rewrites ``reference.json`` for
the workload from one pass at the current commit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# The parent never imports numpy or secnet, so it names the workloads itself.
WORKLOADS = ("factorial-mixed", "crude-large", "exact-chain", "rare-tails")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class RunFailed(RuntimeError):
    pass


def _run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run one worker to completion; return the seconds from its start to its
    READY line, and the rest of its standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RunFailed(f"worker did not get ready: {line.strip() or 'no output'}")
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunFailed("worker ran past the time limit") from None
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with code {proc.returncode}")
        return setup, out
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def measure(args) -> tuple[list[float], dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    setups = [_run_worker(cmd + ["--setup-only"], env, deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, out = _run_worker(cmd, env, deadline)
    setups.append(setup)
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return setups, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy shrinks every workload for the benchmark's own tests")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    # A terminated run still stops its worker (see _run_worker's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "secnet" / "__init__.py").is_file():
        print(f"no secnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", "0", "--record-reference"]
        return subprocess.run(cmd, cwd=ROOT).returncode
    try:
        setups, raw = measure(args)
    except (RunFailed, json.JSONDecodeError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1

    passes = raw["pass_s"]
    info = {
        "setup_s": [statistics.median(setups), "s"],
        "wall_s": [statistics.median(passes), "s"],
        "peak_rss_mb": [raw["peak_rss_mb"], "MiB"],
        "fail_ratio": [raw["failed"] / raw["attempted"], "ratio"],
        **{k: tuple(v) for k, v in raw["info"].items()},
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in raw["layers"].items()}
    else:
        gated = ("setup_s", "wall_s", "peak_rss_mb")
        metrics = {k: {"value": info[k][0], "unit": info[k][1]} for k in gated}

    print(f"env {json.dumps(raw['env'], sort_keys=True)}")
    print(f"workload {args.workload}: {len(passes)} pass(es) of "
          f"{', '.join(f'{p:.3f}' for p in passes)} s; setup samples "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")
    for name, (value, unit) in info.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for key, reasons in raw["failures"].items():
        print(f"FAILED {key}: {'; '.join(reasons)}", file=sys.stderr)

    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, env=raw["env"], info=info, pass_s=passes, setup_samples_s=setups,
                  failures=raw["failures"])
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
