"""Command-line interface: run workloads and experiments from a shell.

Examples::

    python -m repro.cli run --app cholesky --size 16 --tile 960 \
        --machine intel-v100 --scheduler multiprio dmdas
    python -m repro.cli run --app fmm --particles 50000 --height 4 \
        --machine amd-a100 --scheduler multiprio --gantt
    python -m repro.cli experiment table2
    python -m repro.cli experiment fig4
    python -m repro.cli list
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.api import SimConfig, SimSpec
from repro.analysis.export import to_csv
from repro.apps.dense import cholesky_program, lu_program, qr_program
from repro.check.differential import DEFAULT_SCHEDULERS, run_differential_suite
from repro.apps.fmm import fmm_program
from repro.apps.sparseqr import MATRICES, matrix_by_name, matrix_tree, sparse_qr_program
from repro.cluster.placement import placement_names
from repro.experiments.cluster_scale import (
    DEFAULT_NODE_COUNTS as CLUSTER_NODES,
    DEFAULT_POLICIES as CLUSTER_POLICIES,
    format_cluster_experiment,
    run_cluster_experiment,
    write_cluster_report,
)
from repro.experiments.energy_pareto import (
    DEFAULT_CAP_FRACTIONS,
    DEFAULT_LOAD,
    DEFAULT_SCHEDULERS as ENERGY_SCHEDULERS,
    QUICK_CAP_FRACTIONS,
    format_energy_experiment,
    run_energy_experiment,
    write_energy_report,
)
from repro.experiments.faults_sweep import format_faults_sweep, run_faults_sweep
from repro.experiments.fig3_nod import format_fig3, run_fig3
from repro.experiments.fig4_eviction import format_fig4, run_fig4
from repro.experiments.fig5_dense import format_fig5, run_fig5
from repro.experiments.fig6_fmm import format_fig6, run_fig6
from repro.experiments.fig7_matrices import format_fig7, run_fig7
from repro.experiments.fig8_sparseqr import format_fig8, run_fig8
from repro.experiments.overload import (
    DEFAULT_MULTIPLIERS,
    QUICK_MULTIPLIERS,
    format_overload_experiment,
    run_overload_experiment,
    write_overload_report,
)
from repro.experiments.reporting import format_table
from repro.experiments.rt_sweep import (
    DEFAULT_DEADLINE_FACTOR,
    DEFAULT_MULTIPLIERS as RT_MULTIPLIERS,
    DEFAULT_SCHEDULERS as RT_SCHEDULERS,
    QUICK_MULTIPLIERS as RT_QUICK_MULTIPLIERS,
    format_rt_experiment,
    run_rt_experiment,
    write_rt_report,
)
from repro.experiments.stream_arrivals import (
    DEFAULT_RATES as STREAM_RATES,
    DEFAULT_SCHEDULERS as STREAM_SCHEDULERS,
    format_stream_experiment,
    run_stream_experiment,
    write_stream_report,
)
from repro.experiments.table2_gain import format_table2, run_table2
from repro.obs.export import (
    events_to_chrome,
    events_to_jsonl,
    summary_report,
    trace_from_events,
)
from repro.platform.machines import MACHINES
from repro.runtime.faults import FaultModel, parse_fault_rates, parse_kill_spec

from repro.schedulers.registry import parse_sched_opts, scheduler_names
from repro.utils.units import time_human


def _build_program(args: argparse.Namespace):
    if args.app == "cholesky":
        return cholesky_program(args.size, args.tile)
    if args.app == "lu":
        return lu_program(args.size, args.tile)
    if args.app == "qr":
        return qr_program(args.size, args.tile)
    if args.app == "fmm":
        return fmm_program(
            n_particles=args.particles,
            height=args.height,
            distribution=args.distribution,
            seed=args.seed,
        )
    if args.app == "sparseqr":
        tree = matrix_tree(matrix_by_name(args.matrix), scale=args.scale, seed=args.seed)
        return sparse_qr_program(tree, name=args.matrix)
    raise SystemExit(f"unknown app {args.app!r}")


def _build_fault_model(args: argparse.Namespace) -> FaultModel | None:
    """A :class:`FaultModel` from CLI flags, or ``None`` when all are unset."""
    if not (args.fault_rate or args.kill_worker):
        return None
    return FaultModel(
        task_failure_rate=parse_fault_rates(args.fault_rate) if args.fault_rate else 0.0,
        worker_kills=[parse_kill_spec(s) for s in args.kill_worker],
        max_retries=args.max_retries,
        seed=args.seed,
    )


def cmd_run(args: argparse.Namespace) -> int:
    machine = MACHINES[args.machine](gpu_streams=args.streams)
    program = _build_program(args)
    fault_model = _build_fault_model(args)
    print(f"{program}: {program.total_flops() / 1e9:.1f} Gflop on {machine.name}")
    rows = []
    want_trace = bool(args.gantt or args.chrome_trace or args.csv_trace)
    sched_opts = parse_sched_opts(args.sched_opt)
    for name in args.scheduler:
        sim = SimSpec(
            machine,
            name,
            config=SimConfig(
                seed=args.seed,
                noise_sigma=args.noise,
                record_level="tasks" if want_trace else "off",
                submission_window=args.window,
                faults=fault_model,
                batch_step=args.batch_step,
                batch_drain_on_idle=not args.no_batch_drain,
                sched_params=dict(sched_opts),
            ),
        ).simulator()
        res = sim.run(program)
        if res.faults is not None:
            print(f"{name} faults: " + ", ".join(
                f"{k}={v:g}" for k, v in res.faults.as_dict().items()
            ))
        rows.append(
            [
                name,
                time_human(res.makespan),
                f"{res.gflops:.0f}",
                f"{res.bytes_transferred / 2**20:.0f}",
                " ".join(
                    f"{a}:{v * 100:.0f}%" for a, v in sorted(res.idle_frac_by_arch.items())
                ),
            ]
        )
        if not want_trace:
            continue
        workers = sim.platform.workers
        trace = trace_from_events(res.events, workers)
        if args.gantt:
            print(f"\n--- {name} ---")
            print(trace.gantt_ascii(width=100))
        if args.chrome_trace:
            path = f"{args.chrome_trace}.{name}.json"
            with open(path, "w") as fh:
                fh.write(events_to_chrome(res.events, workers=workers))
            print(f"chrome trace written to {path}")
        if args.csv_trace:
            path = f"{args.csv_trace}.{name}.csv"
            with open(path, "w") as fh:
                fh.write(to_csv(trace))
            print(f"csv trace written to {path}")
    print()
    print(
        format_table(
            ["scheduler", "makespan", "GFlop/s", "MiB moved", "idle"],
            rows,
            title=f"{program.name} on {machine.name}",
        )
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.smoke:
        args.quick = True
    progress = None
    if args.jobs > 1:
        # stderr, so parallel runs stay byte-identical to serial on stdout
        def progress(done: int, total: int) -> None:
            print(f"\r{args.name}: {done}/{total} cells", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

    if args.name == "table2":
        print(format_table2(run_table2()))
    elif args.name == "fig3":
        print(format_fig3(run_fig3()))
    elif args.name == "fig4":
        print(format_fig4(run_fig4(), gantt=args.gantt))
    elif args.name == "fig5":
        # reduced default grid (one matrix size) so the CLI run stays
        # interactive; the full sweep lives in benchmarks/
        print(format_fig5(run_fig5(
            matrix_sizes=tuple(args.sizes) if args.sizes else (11520,),
            jobs=args.jobs, progress=progress,
        )))
    elif args.name == "fig6":
        print(format_fig6(run_fig6(
            n_particles=args.particles, height=args.height,
            jobs=args.jobs, progress=progress,
        )))
    elif args.name == "fig7":
        print(format_fig7(run_fig7(scale=args.scale, jobs=args.jobs)))
    elif args.name == "fig8":
        matrices = sorted(MATRICES, key=lambda s: s.gflops)
        if args.matrices:
            matrices = [matrix_by_name(n) for n in args.matrices]
        else:
            matrices = matrices[: args.n_matrices]
        print(format_fig8(run_fig8(
            matrices=matrices, scale=args.scale,
            jobs=args.jobs, progress=progress,
        )))
    elif args.name == "faults":
        print(format_faults_sweep(run_faults_sweep(jobs=args.jobs, progress=progress)))
    elif args.name == "stream":
        result = run_stream_experiment(
            rates=tuple(args.rates) if args.rates else STREAM_RATES,
            schedulers=tuple(args.stream_schedulers),
            n_jobs=args.stream_jobs,
            seed=args.stream_seed,
            window=args.stream_window,
            jobs=args.jobs,
            progress=progress,
        )
        print(format_stream_experiment(result))
        if args.json:
            write_stream_report(result, args.json)
            print(f"json report written to {args.json}")
    elif args.name == "overload":
        quick = args.quick
        result = run_overload_experiment(
            multipliers=(
                tuple(args.overload_multipliers)
                if args.overload_multipliers
                else (QUICK_MULTIPLIERS if quick else DEFAULT_MULTIPLIERS)
            ),
            n_tenants=(
                args.overload_tenants
                if args.overload_tenants is not None
                else (6 if quick else 24)
            ),
            n_jobs=(
                args.overload_jobs
                if args.overload_jobs is not None
                else (18 if quick else 72)
            ),
            seed=args.stream_seed,
            check_invariants=args.check_invariants,
            jobs=args.jobs,
            progress=progress,
        )
        print(format_overload_experiment(result))
        if args.json:
            write_overload_report(result, args.json)
            print(f"json report written to {args.json}")
    elif args.name == "rt":
        quick = args.quick
        result = run_rt_experiment(
            multipliers=(
                tuple(args.rt_multipliers)
                if args.rt_multipliers
                else (RT_QUICK_MULTIPLIERS if quick else RT_MULTIPLIERS)
            ),
            schedulers=tuple(args.rt_schedulers),
            n_tenants=(
                args.rt_tenants
                if args.rt_tenants is not None
                else (4 if quick else 8)
            ),
            n_jobs=(
                args.rt_jobs
                if args.rt_jobs is not None
                else (16 if quick else 48)
            ),
            deadline_factor=args.rt_deadline_factor,
            seed=args.stream_seed,
            check_invariants=args.check_invariants,
            jobs=args.jobs,
            progress=progress,
        )
        print(format_rt_experiment(result))
        if args.json:
            write_rt_report(result, args.json)
            print(f"json report written to {args.json}")
    elif args.name == "energy":
        quick = args.quick
        result = run_energy_experiment(
            schedulers=tuple(args.energy_schedulers),
            cap_fractions=(
                (None, *args.energy_caps)
                if args.energy_caps
                else (QUICK_CAP_FRACTIONS if quick else DEFAULT_CAP_FRACTIONS)
            ),
            n_tenants=(
                args.energy_tenants
                if args.energy_tenants is not None
                else (4 if quick else 6)
            ),
            n_jobs=(
                args.energy_jobs
                if args.energy_jobs is not None
                else (12 if quick else 24)
            ),
            load=args.energy_load,
            seed=args.stream_seed,
            check_invariants=args.check_invariants,
            jobs=args.jobs,
            progress=progress,
        )
        print(format_energy_experiment(result))
        if args.json:
            write_energy_report(result, args.json)
            print(f"json report written to {args.json}")
    elif args.name == "cluster":
        result = run_cluster_experiment(
            policies=tuple(args.placements),
            node_counts=(
                tuple(args.nodes) if args.nodes
                else ((8,) if args.quick else CLUSTER_NODES)
            ),
            scheduler=args.cluster_scheduler,
            topology=args.topology,
            chains_per_node=args.chains_per_node,
            chain_len=args.chain_len,
            rate_per_node=args.rate_per_node,
            seed=args.stream_seed,
            check_invariants=args.check_invariants,
            jobs=args.jobs,
            progress=progress,
        )
        print(format_cluster_experiment(result))
        if args.json:
            write_cluster_report(result, args.json)
            print(f"json report written to {args.json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a workload with event recording and export/analyze the stream."""
    machine = MACHINES[args.machine](gpu_streams=args.streams)
    program = _build_program(args)
    fault_model = _build_fault_model(args)
    sched_opts = parse_sched_opts(args.sched_opt)
    for name in args.scheduler:
        sim = SimSpec(
            machine,
            name,
            config=SimConfig(
                seed=args.seed,
                noise_sigma=args.noise,
                record_level=args.level,
                submission_window=args.window,
                faults=fault_model,
                batch_step=args.batch_step,
                batch_drain_on_idle=not args.no_batch_drain,
                sched_params=dict(sched_opts),
            ),
        ).simulator()
        res = sim.run(program)
        events = res.events or ()
        workers = sim.platform.workers
        if args.action == "export":
            if args.format == "chrome":
                payload = events_to_chrome(
                    events, workers=workers, metrics=sim.obs.metrics
                )
                ext = "json"
            elif args.format == "jsonl":
                payload = events_to_jsonl(events)
                ext = "jsonl"
            else:  # csv
                payload = to_csv(trace_from_events(events, workers))
                ext = "csv"
            path = f"{args.out}.{name}.{ext}"
            with open(path, "w") as fh:
                fh.write(payload)
            print(f"{args.format} trace ({len(events)} events) written to {path}")
        elif args.action == "summary":
            print(f"--- {name} ---")
            print(summary_report(events, workers=workers, tasks=program.tasks))
            print()
        else:  # criticalpath
            trace = trace_from_events(events, workers)
            chain = trace.practical_critical_path(list(program.tasks))
            span = trace.makespan()
            on_chain = sum(r.exec_time for r in chain)
            share = 100.0 * on_chain / span if span > 0 else 0.0
            print(f"--- {name}: {len(chain)} tasks on the practical critical "
                  f"path ({share:.1f}% of {span:.1f} us executing) ---")
            for rec in chain:
                print(f"  {rec.type_name}#{rec.tid:<5} worker {rec.worker:<3} "
                      f"[{rec.start:>10.1f} -> {rec.end:>10.1f}]")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the correctness suite: invariant-checked sweeps + differential
    properties over the built-in apps × schedulers."""
    outcomes = run_differential_suite(
        machine=args.machine,
        schedulers=args.scheduler,
        quick=args.quick,
        fault_rate=args.fault_rate_check,
        progress=lambda outcome: print(outcome),
    )
    failed = [o for o in outcomes if not o.passed]
    print()
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    if failed:
        print("failing checks:")
        for outcome in failed:
            print(f"  {outcome}")
        return 1
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("schedulers:", ", ".join(scheduler_names()))
    print("machines:  ", ", ".join(sorted(MACHINES)))
    print("apps:       cholesky, lu, qr, fmm, sparseqr")
    print("placements:", ", ".join(placement_names()))
    return 0


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """Workload/machine/fault flags shared by ``run`` and ``trace``."""
    p.add_argument("--app", default="cholesky",
                   choices=["cholesky", "lu", "qr", "fmm", "sparseqr"])
    p.add_argument("--machine", default="intel-v100", choices=sorted(MACHINES))
    p.add_argument("--scheduler", nargs="+", default=["multiprio", "dmdas"],
                   choices=scheduler_names())
    p.add_argument("--sched-opt", metavar="KEY=VALUE", action="append", default=[],
                   help="scheduler constructor parameter forwarded to every "
                        "selected scheduler (repeatable), e.g. "
                        "--sched-opt locality_eps=0.2 --sched-opt eviction=false")
    p.add_argument("--streams", type=int, default=1, help="GPU streams")
    p.add_argument("--window", type=int, default=None, metavar="N",
                   help="submission window: max submitted-but-unfinished "
                        "tasks (StarPU's STARPU_LIMIT_MAX_SUBMITTED_TASKS); "
                        "default: unbounded")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="lognormal execution-noise sigma")
    p.add_argument("--batch-step", type=float, default=None, metavar="US",
                   help="batched hot path: coalesce ready-task reveals and "
                        "invoke the scheduler at this virtual-time step (µs); "
                        "default: per-event scheduling")
    p.add_argument("--no-batch-drain", action="store_true",
                   help="with --batch-step: do not flush the batch buffer "
                        "early when a worker idles (pure fixed-step batching)")
    p.add_argument("--size", type=int, default=16, help="dense: tile count")
    p.add_argument("--tile", type=int, default=960, help="dense: tile size")
    p.add_argument("--particles", type=int, default=20000, help="fmm")
    p.add_argument("--height", type=int, default=4, help="fmm octree height")
    p.add_argument("--distribution", default="ellipsoid",
                   choices=["uniform", "ellipsoid", "plummer"])
    p.add_argument("--matrix", default="e18", help="sparseqr: Fig. 7 matrix name")
    p.add_argument("--scale", type=float, default=0.02,
                   help="sparseqr: op-count scale")
    p.add_argument("--fault-rate", metavar="P|ARCH=P,...",
                   help="transient per-attempt failure probability, either a "
                        "bare float or per-arch 'cuda=0.1,cpu=0.01'")
    p.add_argument("--kill-worker", metavar="WID@TIME", action="append",
                   default=[], help="fail-stop worker WID at TIME (µs); repeatable")
    p.add_argument("--max-retries", type=int, default=3,
                   help="retries per task before RetryExhaustedError")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload under schedulers")
    _add_workload_args(run)
    run.add_argument("--gantt", action="store_true", help="print ASCII Gantt")
    run.add_argument("--chrome-trace", metavar="PREFIX",
                     help="write chrome://tracing JSON per scheduler")
    run.add_argument("--csv-trace", metavar="PREFIX",
                     help="write per-task CSV per scheduler")
    run.set_defaults(func=cmd_run)

    trace = sub.add_parser(
        "trace",
        help="run with event recording; export or analyze the event stream",
    )
    trace.add_argument("action", choices=["export", "summary", "criticalpath"])
    _add_workload_args(trace)
    trace.add_argument("--level", default="decisions",
                       choices=["tasks", "decisions", "all"],
                       help="event granularity to record")
    trace.add_argument("--format", default="chrome",
                       choices=["chrome", "jsonl", "csv"],
                       help="export format (export action only)")
    trace.add_argument("--out", default="trace", metavar="PREFIX",
                       help="export file prefix (export action only)")
    trace.set_defaults(func=cmd_trace)

    exp = sub.add_parser("experiment", help="run a light paper experiment")
    exp.add_argument("name", choices=[
        "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "faults",
        "stream", "overload", "cluster", "rt", "energy",
    ])
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes for sweep experiments "
                          "(fig5/fig6/fig7/fig8/faults/stream/cluster); "
                          "results are identical for any value")
    exp.add_argument("--gantt", action="store_true")
    exp.add_argument("--scale", type=float, default=0.05,
                     help="sparseqr op-count scale (fig7/fig8)")
    exp.add_argument("--sizes", type=int, nargs="+",
                     help="fig5: matrix sizes (default: 11520)")
    exp.add_argument("--particles", type=int, default=50_000,
                     help="fig6: particle count (reduced CLI default)")
    exp.add_argument("--height", type=int, default=4,
                     help="fig6: octree height (reduced CLI default)")
    exp.add_argument("--matrices", nargs="+", metavar="NAME",
                     help="fig8: explicit matrix subset")
    exp.add_argument("--n-matrices", type=int, default=4,
                     help="fig8: smallest-N matrix subset when --matrices unset")
    exp.add_argument("--rates", type=float, nargs="+", metavar="JOBS_PER_S",
                     help=f"stream: arrival rates (default: "
                          f"{' '.join(f'{r:g}' for r in STREAM_RATES)})")
    exp.add_argument("--stream-jobs", type=int, default=8,
                     help="stream: jobs per Poisson stream")
    exp.add_argument("--stream-schedulers", nargs="+",
                     default=list(STREAM_SCHEDULERS), choices=scheduler_names(),
                     help="stream: schedulers to sweep")
    exp.add_argument("--stream-seed", type=int, default=0,
                     help="stream: arrival-process seed")
    exp.add_argument("--stream-window", type=int, default=None, metavar="N",
                     help="stream: submission window forwarded to every run")
    exp.add_argument("--quick", action="store_true",
                     help="overload: trimmed grid (2 multipliers, 6 tenants); "
                          "cluster: 8-node column only; "
                          "rt: 2 multipliers, 4 tenants, 16 jobs; "
                          "energy: 2 cap levels, 4 tenants, 12 jobs")
    exp.add_argument("--smoke", action="store_true",
                     help="alias for --quick (CI smoke jobs)")
    exp.add_argument("--overload-multipliers", type=float, nargs="+",
                     metavar="X",
                     help="overload: load multiples of the sustainable rate "
                          f"(default: "
                          f"{' '.join(f'{m:g}' for m in DEFAULT_MULTIPLIERS)})")
    exp.add_argument("--overload-tenants", type=int, default=None,
                     help="overload: tenant count (default 24, quick 6)")
    exp.add_argument("--overload-jobs", type=int, default=None,
                     help="overload: jobs per stream (default 72, quick 18)")
    exp.add_argument("--rt-multipliers", type=float, nargs="+", metavar="X",
                     help="rt: load multiples of the sustainable rate "
                          f"(default: "
                          f"{' '.join(f'{m:g}' for m in RT_MULTIPLIERS)})")
    exp.add_argument("--rt-schedulers", nargs="+",
                     default=list(RT_SCHEDULERS), choices=scheduler_names(),
                     help="rt: schedulers to sweep")
    exp.add_argument("--rt-tenants", type=int, default=None,
                     help="rt: tenant count (default 8, quick 4)")
    exp.add_argument("--rt-jobs", type=int, default=None,
                     help="rt: jobs per stream (default 48, quick 16)")
    exp.add_argument("--rt-deadline-factor", type=float,
                     default=DEFAULT_DEADLINE_FACTOR,
                     help="rt: relative deadline as a multiple of the "
                          "isolated job makespan")
    exp.add_argument("--energy-schedulers", nargs="+",
                     default=list(ENERGY_SCHEDULERS), choices=scheduler_names(),
                     help="energy: schedulers to sweep")
    exp.add_argument("--energy-caps", type=float, nargs="+", metavar="FRAC",
                     help="energy: node cap levels as fractions of each "
                          "node's peak busy draw (uncapped is always "
                          "included; default: "
                          f"{' '.join(f'{f:g}' for f in DEFAULT_CAP_FRACTIONS if f is not None)})")
    exp.add_argument("--energy-tenants", type=int, default=None,
                     help="energy: tenant count (default 6, quick 4)")
    exp.add_argument("--energy-jobs", type=int, default=None,
                     help="energy: jobs per stream (default 24, quick 12)")
    exp.add_argument("--energy-load", type=float, default=DEFAULT_LOAD,
                     help="energy: offered load as a multiple of the "
                          "sustainable rate")
    exp.add_argument("--check-invariants", action="store_true",
                     help="overload/cluster/rt/energy: run every cell under "
                          "the invariant checker (slower)")
    exp.add_argument("--placements", nargs="+", default=list(CLUSTER_POLICIES),
                     choices=placement_names(),
                     help="cluster: global placement policies to sweep")
    exp.add_argument("--nodes", type=int, nargs="+", metavar="N",
                     help="cluster: node counts (default: "
                          f"{' '.join(str(n) for n in CLUSTER_NODES)})")
    exp.add_argument("--topology", default="star", choices=["star", "fat-tree"],
                     help="cluster: fabric preset joining the nodes")
    exp.add_argument("--cluster-scheduler", default="multiprio",
                     choices=scheduler_names(),
                     help="cluster: per-node scheduler (unchanged engine)")
    exp.add_argument("--chains-per-node", type=int, default=2,
                     help="cluster: workflow chains per node in the stream")
    exp.add_argument("--chain-len", type=int, default=3,
                     help="cluster: jobs per dependent workflow chain")
    exp.add_argument("--rate-per-node", type=float, default=50.0,
                     help="cluster: chain arrivals per second per node")
    exp.add_argument("--json", metavar="PATH",
                     help="stream/overload/cluster/rt/energy: write the JSON "
                          "report to PATH")
    exp.set_defaults(func=cmd_experiment)

    check = sub.add_parser(
        "check",
        help="run the correctness suite: invariant-checked app x scheduler "
             "sweeps plus differential properties (determinism, lower "
             "bounds, fault-free equivalence, pipeline bound)",
    )
    check.add_argument("--quick", action="store_true",
                       help="trimmed app grid; cross-run properties on one "
                            "scheduler per app")
    check.add_argument("--machine", default="intel-v100",
                       choices=sorted(MACHINES))
    check.add_argument("--scheduler", nargs="+",
                       default=list(DEFAULT_SCHEDULERS),
                       choices=scheduler_names())
    check.add_argument("--fault-rate-check", type=float, default=0.05,
                       help="transient failure rate of the fault-loaded "
                            "invariant sweep")
    check.set_defaults(func=cmd_check)

    lst = sub.add_parser("list", help="list schedulers, machines and apps")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
