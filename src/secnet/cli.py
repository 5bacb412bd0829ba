"""Command line interface.

Subcommands cover the whole API surface: network generation, exact
finite-horizon and quasi-stationary analysis, crude simulation, the three
rare-event estimators, mean-field threshold reports, extinction heatmaps
and factorial experiments.  Every command that writes files also writes a
manifest JSON capturing the resolved arguments, and ``rerun`` replays a
manifest; outputs carry no timestamps, so a rerun reproduces them byte for
byte.

Exit codes: 0 on success, 2 for argument errors, 3 when an input file is
missing or malformed, 4 when a computation fails or is refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, exact, experiment, meanfield, netgen, rareevent
from .dynamics import Params, all_occupied, estimate_crude, simulate, \
    write_csv, write_report_csv, write_trajectory_csv

EXIT_INPUT = 3
EXIT_COMPUTE = 4


class InputError(Exception):
    pass


def _load_graph(path: str) -> netgen.Graph:
    try:
        return netgen.read_graph_json(path)
    except FileNotFoundError:
        raise InputError(f"graph file not found: {path}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad graph file {path}: {err}")


def _parse_state(text: str, n: int) -> int:
    if text == "all":
        return all_occupied(n)
    try:
        state = int(text, 16)
    except ValueError:
        raise InputError(f"initial state must be 'all' or a hex mask, got {text!r}")
    if not 0 <= state < (1 << n):
        raise InputError(f"initial state {text} out of range for {n} patches")
    return state


def _write_json(path: str | Path, payload: dict) -> None:
    # numpy arrays and scalars convert through ``tolist``; ``np.float64``
    # is a ``float`` and never reaches ``default``.
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")


def _manifest_path(args) -> Path | None:
    if getattr(args, "manifest", None):
        return Path(args.manifest)
    out = getattr(args, "out", None)
    if out is None:
        return None
    return Path(out).with_suffix(Path(out).suffix + ".manifest.json")


def _resolve_seed(args) -> None:
    # Reproducibility by default: a missing --seed is drawn from OS entropy
    # here, before the manifest snapshot, so the run can be replayed exactly.
    if getattr(args, "seed", "absent") is None:
        args.seed = int(np.random.SeedSequence().entropy)


def _write_manifest(args, command: str, extra: dict | None = None) -> None:
    path = _manifest_path(args)
    if path is None:
        return
    stored = {k: v for k, v in vars(args).items()
              if k not in ("func", "manifest") and not k.startswith("_")}
    if extra:
        stored.update(extra)
    _write_json(path, {"tool": "secnet", "version": __version__,
                       "command": command, "args": stored})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    spec = netgen.TopologySpec(
        kind=args.kind, n=args.n,
        n_edges=args.edges if args.edges is not None
        else netgen.density_to_n_edges(args.density, args.n),
        power=args.power, n_communities=args.communities,
        intra_inter_ratio=args.ratio,
    )
    graph = spec.generate(np.random.default_rng(args.seed))
    netgen.write_graph_json(graph, args.out)
    _write_manifest(args, "generate")
    print(f"n = {graph.n}")
    print(f"edges = {graph.n_edges}")
    print(f"density = {graph.density:.6g}")
    print(f"connected = {graph.is_connected()}")
    print(f"degree_mean/max = {graph.degrees.mean():.6g}/{graph.degrees.max()}")
    print(f"leading_eigenvalue = {netgen.leading_adjacency_eigenvalue(graph):.10g}")
    print(f"fingerprint = {graph.fingerprint()}")
    return 0


def cmd_exact(args) -> int:
    graph = _load_graph(args.graph)
    params = Params(e=args.e, c=args.c)
    z0 = _parse_state(args.z0, graph.n)
    tm = exact.build_transition(graph, params, cap=args.cap)
    # Every computation runs before the first write, so a refused one leaves no files.
    table = exact.finite_horizon(tm, z0, args.gens)
    res = exact.qsd(tm) if args.qsd else None
    mt = exact.mean_extinction_time(tm, z0) if args.mean_time else None
    exact.write_horizon_csv(table, args.out)
    print(f"p_extinct[{args.gens}] = {table.p_extinct[-1]:.10g}")
    print(f"p_persist[{args.gens}] = {table.p_persist[-1]:.10g}")
    print(f"cond_mean_occ[{args.gens}] = {table.cond_mean_occ[-1]:.10g}")
    if res is not None:
        exact.write_qsd_csv(res, args.qsd)
        print(f"lambda1 = {res.lambda1:.12g}")
        print(f"lambda2_abs = {res.lambda2_abs:.12g}")
        print(f"qsd_mean_occ = {res.mean_occ:.10g}")
        print(f"qsd_residual = {res.residual:.3g}")
        print(f"qsd_iterations = {res.iterations}")
    if mt is not None:
        print(f"mean_extinction_time = {mt:.10g}")
    _write_manifest(args, "exact", None if mt is None else {"mean_extinction_time": mt})
    return 0


def cmd_simulate(args) -> int:
    graph = _load_graph(args.graph)
    params = Params(e=args.e, c=args.c)
    z0 = _parse_state(args.z0, graph.n)
    report = estimate_crude(graph, params, z0, args.gens, args.reps, args.seed)
    write_report_csv(report, args.out)
    if args.sample_trajectory:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(3,)))
        traj = simulate(graph, params, z0, args.gens, rng)
        write_trajectory_csv(traj, args.sample_trajectory)
    _write_manifest(args, "simulate")
    p = report.persistence
    survived = p.diagnostics["n_survivors"]
    se = f"se {p.se:.3g}" if 0 < survived < args.reps else "no events, se not estimable"
    print(f"p_persist[{args.gens}] = {p.value:.10g} ({se}, {survived}/{args.reps} survived)")
    print(f"mean_occ[{args.gens}] = {report.occupancy.value:.10g}")
    print(f"cond_mean_occ[{args.gens}] = {report.conditional_occupancy.value:.10g}")
    return 0


def _write_rare_diagnostics(est, method: str, path: str) -> None:
    d = est.diagnostics
    if method == "ips":
        write_csv(path, ["t", "mean_death_fraction"],
                  enumerate(d["mean_death_fraction_series"], 1))
    elif method == "is":
        hist = d.get("weight_log10_histogram", {"edges": [], "counts": []})
        edges = hist["edges"]
        write_csv(path, ["weight_log10_lo", "weight_log10_hi", "count"],
                  zip(edges, edges[1:], hist["counts"]))
    else:
        write_csv(path, ["threshold", "mean_attempts", "first_run_estimate"],
                  zip(d["thresholds"], d["mean_attempts_per_level"],
                      d["level_estimates_first_replication"]))


def cmd_rare(args) -> int:
    graph = _load_graph(args.graph)
    params = Params(e=args.e, c=args.c)
    z0 = _parse_state(args.z0, graph.n)
    if args.method == "ips":
        est = rareevent.ips_persistence(
            graph, params, z0, args.gens, args.particles, args.seed,
            n_batches=args.batches)
    elif args.method == "is":
        schedule = rareevent.default_twist_schedule(
            args.e, args.gens, peak=args.twist_peak)
        est = rareevent.is_extinction(
            graph, params, z0, args.gens, schedule, args.sims, args.seed)
    else:
        levels = args.thresholds or rareevent.geometric_thresholds(graph.n, args.levels)
        config = rareevent.SplittingConfig(
            thresholds=tuple(levels), n_success=args.success)
        est = rareevent.split_extinction(
            graph, params, z0, args.gens, config, args.seed,
            n_replications=args.replications)
    if args.out:
        _write_json(args.out, dataclasses.asdict(est))
    if args.diagnostics:
        _write_rare_diagnostics(est, args.method, args.diagnostics)
    _write_manifest(args, "rare")
    print(f"method = {est.method}")
    print(f"estimate = {est.value:.10g}")
    print(f"se = {est.se:.6g}")
    print(f"n_work = {est.n_work}")
    if args.method == "is":
        print(f"ess = {est.diagnostics['ess']:.6g}")
    return 0


def cmd_meanfield(args) -> int:
    graph = _load_graph(args.graph)
    params = Params(e=args.e, c=args.c)
    report = dataclasses.asdict(meanfield.mf_threshold(graph, params))
    if report["fixed_point"] is not None:
        report["fixed_point"] = report["fixed_point"].tolist()
    if args.out:
        ps = meanfield.mf_iterate(graph, params, args.p0, args.gens)
        write_csv(args.out, ["t", *(f"p{i}" for i in range(graph.n))],
                  ([t, *p] for t, p in enumerate(ps)))
    _write_manifest(args, "meanfield", {"report": report})
    for key, val in report.items():
        print(f"{key} = {val}")
    return 0


def cmd_heatmap(args) -> int:
    graph = _load_graph(args.graph)
    e_grid = np.linspace(args.e_min, args.e_max, args.e_steps)
    c_grid = np.linspace(args.c_min, args.c_max, args.c_steps)
    result = exact.extinction_heatmap(
        graph, e_grid, c_grid, args.gens,
        z0=_parse_state(args.z0, graph.n), cap=args.cap,
        method=args.method, n_reps=args.reps, seed=args.seed)
    exact.write_heatmap_csv(result, args.out, contour_path=args.contour)
    if result.method == "exact":
        args.seed = None  # the exact grid draws nothing, so no seed determines it
    _write_manifest(args, "heatmap")
    print(f"cells = {result.p_extinct.size}")
    print(f"method = {result.method}")
    print(f"p_extinct_min = {result.p_extinct.min():.10g}")
    print(f"p_extinct_max = {result.p_extinct.max():.10g}")
    return 0


def _parse_design(d, source: str) -> experiment.Design:
    try:
        return experiment.Design.from_dict(d)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad {source}: {err}")


def _resolve_design(args) -> experiment.Design:
    if getattr(args, "design_inline", None):
        return _parse_design(args.design_inline, "design_inline in the manifest")
    if args.preset:
        try:
            return experiment.preset(args.preset, args.master_seed)
        except KeyError as err:
            raise InputError(str(err.args[0]))
    if not args.design:
        raise InputError("give --preset or --design")
    try:
        with open(args.design) as fh:
            d = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"design file not found: {args.design}")
    except json.JSONDecodeError as err:
        raise InputError(f"bad design file {args.design}: {err}")
    source = f"design file {args.design}"
    design = _parse_design(d, source)
    if args.master_seed is not None:
        design = _parse_design({**design.to_dict(), "master_seed": args.master_seed}, source)
    return design


def cmd_experiment(args) -> int:
    design = _resolve_design(args)
    rows = experiment.run_factorial(design, workers=args.workers)
    experiment.write_results_csv(rows, args.out,
                                 include_runtime=args.include_runtime)
    failed = [r for r in rows if r.error]
    if args.anova:
        table = experiment.variance_decomposition(rows, response=args.response)
        experiment.write_variance_csv(table, args.anova)
        for name, _, share in table.terms:
            print(f"share[{name}] = {share:.6g}")
        print(f"share[residual] = {table.residual_share:.6g}")
    if args.compare:
        comparisons = experiment.scenario_compare(rows)
        experiment.write_comparison_csv(comparisons, args.compare)
        for comp in comparisons:
            print(f"{comp.response} e={comp.e:g} ratio={comp.ec_ratio:g}: {comp.text}")
    _write_manifest(args, "experiment",
                    {"design_inline": design.to_dict(), "preset": None,
                     "design": None})
    print(f"design = {design.name}")
    print(f"rows = {len(rows)}")
    print(f"failed = {len(failed)}")
    if failed:
        for r in failed[:5]:
            print(f"  cell {r.cell_index} rep {r.replicate}: {r.error}",
                  file=sys.stderr)
        return EXIT_COMPUTE
    return 0


def cmd_rerun(args) -> int:
    try:
        with open(args.manifest_file) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"manifest not found: {args.manifest_file}")
    except json.JSONDecodeError as err:
        raise InputError(f"bad manifest {args.manifest_file}: {err}")
    try:
        command = manifest["command"]
        stored = dict(manifest["args"])
    except (KeyError, TypeError):
        raise InputError(f"manifest {args.manifest_file} lacks command/args")
    if command not in COMMANDS:
        raise InputError(f"manifest names unknown command {command!r}")
    if args.workers is not None:
        stored["workers"] = args.workers
    if args.out is not None:
        stored["out"] = args.out
    stored.setdefault("manifest", None)
    # Check before dispatch, so a partial manifest writes nothing.  argparse
    # lists a subcommand's options only in private attributes.
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    for action in commands.choices[command]._actions:
        if action.dest != "help" and action.dest not in stored:
            raise InputError(f"manifest {args.manifest_file} lacks argument {action.dest!r}")
        # Older manifests hold ``--thresholds`` as text: parse it as argparse would.
        if action.type is not None and isinstance(stored[action.dest], str):
            stored[action.dest] = action.type(stored[action.dest])
    return COMMANDS[command](argparse.Namespace(**stored))


COMMANDS = {
    "generate": cmd_generate,
    "exact": cmd_exact,
    "simulate": cmd_simulate,
    "rare": cmd_rare,
    "meanfield": cmd_meanfield,
    "heatmap": cmd_heatmap,
    "experiment": cmd_experiment,
    "rerun": cmd_rerun,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("SECNET_WORKERS", "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secnet",
        description="extinction-colonisation dynamics on finite networks")
    parser.add_argument("--version", action="version",
                        version=f"secnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rates(p):
        p.add_argument("--e", type=float, required=True,
                       help="per-generation extinction probability")
        p.add_argument("--c", type=float, required=True,
                       help="per-link colonisation probability")

    def add_common(p, z0=True):
        p.add_argument("--graph", required=True, help="graph JSON file")
        if z0:
            p.add_argument("--z0", default="all",
                           help="initial state: 'all' or a hex mask")
        p.add_argument("--manifest", default=None,
                       help="manifest path (default: <out>.manifest.json)")

    g = sub.add_parser("generate", help="draw a random connected network")
    g.add_argument("--kind", required=True, choices=sorted(netgen.TOPOLOGY_KINDS))
    g.add_argument("--n", type=int, required=True)
    grp = g.add_mutually_exclusive_group(required=True)
    grp.add_argument("--edges", type=int, default=None)
    grp.add_argument("--density", type=float, default=None)
    g.add_argument("--power", type=float, default=None,
                   help="degree exponent for preferential attachment")
    g.add_argument("--communities", type=int, default=None)
    g.add_argument("--ratio", type=float, default=None,
                   help="within/between community weight ratio")
    g.add_argument("--seed", type=int, default=None,
                   help="omit to draw from OS entropy (recorded in the manifest)")
    g.add_argument("--out", required=True)
    g.add_argument("--manifest", default=None)
    g.set_defaults(func=cmd_generate)

    x = sub.add_parser("exact", help="exact finite-horizon and quasi-stationary analysis")
    add_common(x)
    add_rates(x)
    x.add_argument("--gens", type=int, required=True)
    x.add_argument("--cap", type=int, default=exact.EXACT_CAP_DEFAULT,
                   help=f"largest patch count accepted (at most {exact.MAX_N})")
    x.add_argument("--out", required=True, help="horizon table CSV")
    x.add_argument("--qsd", default=None, help="also write the quasi-stationary CSV")
    x.add_argument("--mean-time", action="store_true",
                   help="also print the mean time to extinction")
    x.set_defaults(func=cmd_exact)

    s = sub.add_parser("simulate", help="crude Monte Carlo over many replicates")
    add_common(s)
    add_rates(s)
    s.add_argument("--gens", type=int, required=True)
    s.add_argument("--reps", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True, help="time series CSV")
    s.add_argument("--sample-trajectory", default=None,
                   help="also write one trajectory CSV")
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("rare", help="rare-event estimators")
    add_common(r)
    add_rates(r)
    r.add_argument("--gens", type=int, required=True)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--method", required=True, choices=("ips", "is", "split"))
    r.add_argument("--out", default=None, help="result JSON")
    r.add_argument("--diagnostics", default=None,
                   help="method-specific diagnostics CSV")
    r.add_argument("--particles", type=int, default=1000, help="ips particles")
    r.add_argument("--batches", type=int, default=20, help="ips batches")
    r.add_argument("--twist-peak", type=float, default=None,
                   help="is: largest twisted extinction rate")
    r.add_argument("--sims", type=int, default=10_000, help="is replicates")
    r.add_argument("--thresholds", type=_int_list, default=None,
                   help="split: comma list of descending occupancy levels")
    r.add_argument("--levels", type=int, default=4,
                   help="split: number of geometric levels")
    r.add_argument("--success", type=int, default=100,
                   help="split: successes required per level")
    r.add_argument("--replications", type=int, default=20)
    r.set_defaults(func=cmd_rare)

    m = sub.add_parser("meanfield", help="first-moment recursion and thresholds")
    add_common(m, z0=False)
    add_rates(m)
    m.add_argument("--gens", type=int, default=200)
    m.add_argument("--p0", type=float, default=1.0)
    m.add_argument("--out", default=None, help="trajectory CSV")
    m.set_defaults(func=cmd_meanfield)

    h = sub.add_parser("heatmap", help="extinction probability over a rate grid")
    add_common(h)
    h.add_argument("--e-min", type=float, required=True)
    h.add_argument("--e-max", type=float, required=True)
    h.add_argument("--e-steps", type=_positive_int, required=True)
    h.add_argument("--c-min", type=float, required=True)
    h.add_argument("--c-max", type=float, required=True)
    h.add_argument("--c-steps", type=_positive_int, required=True)
    h.add_argument("--gens", type=int, required=True)
    h.add_argument("--method", default="auto", choices=("auto", "exact", "sim"))
    h.add_argument("--cap", type=int, default=exact.EXACT_CAP_DEFAULT,
                   help=f"largest patch count for exact (at most {exact.MAX_N}); auto "
                        "simulates above it")
    h.add_argument("--reps", type=int, default=2000, help="sim replicates per cell")
    h.add_argument("--seed", type=int, default=None)
    h.add_argument("--out", required=True)
    h.add_argument("--contour", default=None,
                   help="also write the predicted critical curve CSV")
    h.set_defaults(func=cmd_heatmap)

    e = sub.add_parser("experiment", help="run a factorial design")
    e.add_argument("--preset", default=None,
                   help=f"one of: {', '.join(experiment.preset_names())}")
    e.add_argument("--design", default=None, help="design JSON file")
    e.add_argument("--master-seed", type=int, default=None,
                   help="override the design's master seed")
    e.add_argument("--workers", type=int, default=_default_workers(),
                   help="worker processes (env SECNET_WORKERS)")
    e.add_argument("--out", required=True, help="results CSV")
    e.add_argument("--include-runtime", action="store_true",
                   help="append per-row runtimes (breaks byte-identical reruns)")
    e.add_argument("--anova", default=None, help="variance decomposition CSV")
    e.add_argument("--response", default="logit_persistence",
                   choices=("logit_persistence", "persistence", "occupancy"))
    e.add_argument("--compare", default=None, help="topology ordering CSV")
    e.add_argument("--manifest", default=None)
    e.set_defaults(func=cmd_experiment, design_inline=None)

    rr = sub.add_parser("rerun", help="replay a manifest")
    rr.add_argument("--manifest", dest="manifest_file", required=True)
    rr.add_argument("--workers", type=int, default=None,
                    help="override stored worker count")
    rr.add_argument("--out", default=None, help="redirect the primary output")
    rr.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_seed(args)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (netgen.GenerationError, netgen.ConvergenceError,
            rareevent.WorkCapExceeded, ValueError,
            np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
