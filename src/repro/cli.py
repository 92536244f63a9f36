"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:
    list                 available workloads, policies and machines
    run                  simulate one (workload, machine, policy) point
    sweep                workload x policy x machine matrix, optionally
                         parallel; with OOO in the policies the table is
                         also relative to OOO (``repro sweep mcf`` compares
                         the paper's eight policies on mcf, ``-m core-1
                         core-2 core-3 core-4`` sweeps the generations)
    report               render a --stats-out JSON file as tables, or
                         summarize and audit a sweep run-ledger (JSONL)
    top                  live in-terminal view of a running sweep,
                         tailing its --ledger file
    golden               golden conformance fingerprints for the
                         45-point grid, each point measured cold and as
                         a checkpoint fork: --check or --regen
    memval               validate every DRAM protocol preset's measured
                         latency/bandwidth against its analytic spec
    warmval              cross-validate fast (functional) warmup against
                         detailed warmup over a workload x policy grid,
                         with per-point delta tolerances and a JSON
                         report (docs/validation.md)
    characterize         measure workload characteristics
    trace                dump/replay/import/inspect trace files
    calibrate            auto-tune phased workloads to their targets

Global flags (before the subcommand) configure the logging layer
(docs/observability.md): ``--log-json`` emits diagnostics as JSON
lines, ``--quiet`` silences everything below warnings, ``--verbose``
enables debug records. Human results stay on stdout; diagnostics go to
stderr. ``sweep --ledger FILE`` records the sweep's full life cycle as
an append-only JSONL event stream with per-point provenance manifests.

``run`` and ``sweep`` accept ``--validate`` to enable the per-cycle
invariant sanitizer and ``--oracle`` for the commit-stream architectural
oracle (see docs/validation.md); ``golden --check`` exits non-zero on
any fingerprint drift or fork that diverges from its cold run, and
``golden --regen`` refuses to freeze while a fork diverges; ``report``
exits non-zero when the ledger audit finds a problem or the file cannot
be read.

``run`` exposes the telemetry subsystem: ``--stats-out`` (hierarchical
stats + timeline JSON), ``--trace-out`` (Chrome trace-event JSON for
Perfetto), ``--timeline-out`` (JSONL/CSV interval samples),
``--interval`` (sampling period), ``--profile`` (host-side KIPS) and
``--heartbeat`` (progress lines).
"""

import argparse
import sys
from typing import Dict, List

from repro.analysis.tables import format_table
from repro.common.params import (
    BASELINE, CORE1, CORE2, CORE3, CORE4, MachineParams, PrefetcherParams,
)
from repro.core.runahead import ALL_POLICIES, EXTENSION_POLICIES, get_policy
from repro.memory.dram import PRESET_NAMES, SCHEDULERS, dram_preset
from repro.sim import measure, simulate, warm_core
from repro.workloads.catalog import ALL_WORKLOADS, get_workload

MACHINES: Dict[str, MachineParams] = {
    "baseline": BASELINE,
    "core-1": CORE1,
    "core-2": CORE2,
    "core-3": CORE3,
    "core-4": CORE4,
    "baseline+l3pf": BASELINE.with_prefetcher(
        PrefetcherParams(levels=("l3",)), name="baseline+l3pf"),
    "baseline+allpf": BASELINE.with_prefetcher(
        PrefetcherParams(levels=("l1", "l2", "l3")), name="baseline+allpf"),
    # Protocol catalog: the baseline core in front of each DRAM preset
    # (docs/memory.md), plus FR-FCFS scheduling on the default protocol.
    "baseline-ddr4": BASELINE.with_dram(
        dram_preset("ddr4-3200"), name="baseline-ddr4"),
    "baseline-lpddr4": BASELINE.with_dram(
        dram_preset("lpddr4-3200"), name="baseline-lpddr4"),
    "baseline-hbm2": BASELINE.with_dram(
        dram_preset("hbm2"), name="baseline-hbm2"),
    "baseline-frfcfs": BASELINE.with_dram(
        dram_preset("ddr3-1600", scheduler="frfcfs"),
        name="baseline-frfcfs"),
}
# Prefetcher x protocol points for the runahead-vs-bandwidth study
# (benchmarks/test_fig11_memsys.py).
for _proto in ("ddr4", "hbm2"):
    MACHINES[f"baseline-{_proto}+l3pf"] = \
        MACHINES[f"baseline-{_proto}"].with_prefetcher(
            PrefetcherParams(levels=("l3",)),
            name=f"baseline-{_proto}+l3pf")


def _add_size_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--instructions", type=int, default=10_000,
                   help="measured committed instructions (default 10000)")
    p.add_argument("-w", "--warmup", type=int, default=20_000,
                   help="warmup instructions (default 20000)")


def _add_warmup_mode_arg(p: argparse.ArgumentParser) -> None:
    from repro.core.fastfwd import WARMUP_MODES
    p.add_argument("--warmup-mode", default="detailed",
                   choices=WARMUP_MODES,
                   help="how the warmup region runs: 'detailed' (full "
                        "pipeline, exact, the default) or 'fast' "
                        "(functional walk training caches/TAGE/BTB/SST "
                        "only — approximate, cross-validated by "
                        "`repro warmval`)")


def cmd_list(_args: argparse.Namespace) -> int:
    print("workloads (memory-intensive first):")
    for w in ALL_WORKLOADS:
        tag = "mem" if w.memory_intensive else "cmp"
        print(f"  {w.name:<12} [{tag}] {w.description}")
    print("\npolicies:")
    for p in ALL_POLICIES:
        print(f"  {p.name:<10} kind={p.kind} early={p.early} "
              f"flush={p.flush_at_exit} lean={p.lean}")
    for p in EXTENSION_POLICIES:
        print(f"  {p.name:<10} kind={p.kind} (extension)")
    print("\nmachines:")
    for name, m in MACHINES.items():
        print(f"  {name:<20} ROB={m.core.rob_size} IQ={m.core.iq_size} "
              f"dram={m.dram.protocol}/{m.dram.scheduler} "
              f"prefetcher={'yes' if m.prefetcher else 'no'}")
    return 0


def _build_telemetry(args: argparse.Namespace):
    """A Telemetry matching the run flags, or None when all are off."""
    wants = (args.stats_out or args.trace_out or args.timeline_out
             or args.interval or args.profile or args.heartbeat)
    if not wants:
        return None
    from repro.obs import Telemetry
    interval = args.interval
    if not interval and (args.stats_out or args.timeline_out):
        interval = 1000
    return Telemetry(
        interval=interval,
        trace=bool(args.trace_out),
        profile=bool(args.stats_out) or args.profile,
        heartbeat_s=args.heartbeat,
    )


def cmd_run(args: argparse.Namespace) -> int:
    machine = MACHINES[args.machine]
    policy = args.policy_opt or args.policy
    telemetry = _build_telemetry(args)
    core, name = warm_core(args.workload, machine, policy, args.warmup,
                           telemetry=telemetry, validate=args.validate,
                           oracle=args.oracle,
                           warmup_mode=args.warmup_mode)
    r = measure(core, args.instructions, name)
    print(f"{r.workload} on {r.machine} under {r.policy}:")
    print(f"  instructions   {r.instructions}")
    print(f"  cycles         {r.cycles}")
    print(f"  IPC            {r.ipc:.4f}")
    print(f"  MLP            {r.mlp:.2f}")
    print(f"  LLC MPKI       {r.mpki:.1f}")
    print(f"  ABC            {r.abc_total}")
    print(f"  AVF            {r.avf:.4f}")
    for s, v in r.abc.items():
        print(f"    {s:<4}         {v}")
    print(f"  runahead intervals {r.runahead_triggers}, "
          f"flush triggers {r.flush_triggers}, "
          f"branch mispredicts {r.branch_mispredicts}")
    if telemetry is not None:
        if args.stats_out:
            from repro.obs.manifest import point_manifest
            telemetry.write_stats(
                args.stats_out, r,
                manifest=point_manifest(r.workload, machine, r.policy,
                                        args.instructions, args.warmup,
                                        warmup_mode=args.warmup_mode))
            print(f"  stats          -> {args.stats_out}")
        if args.trace_out:
            telemetry.write_trace(args.trace_out)
            print(f"  trace          -> {args.trace_out} "
                  f"(open in ui.perfetto.dev)")
        if args.timeline_out:
            n = telemetry.write_timeline(args.timeline_out)
            print(f"  timeline       -> {args.timeline_out} ({n} samples)")
        if telemetry.profiler is not None:
            prof = telemetry.profiler
            print(f"  host           {prof.kips:.1f} KIPS, "
                  f"{prof.cycles_per_second:.0f} cycles/s")
    return 0


def _looks_like_ledger(path: str) -> bool:
    """A run ledger is JSONL whose first record carries an ``ev`` tag;
    a stats file is one indented JSON object."""
    import json
    try:
        with open(path) as f:
            first = json.loads(f.readline())
        return isinstance(first, dict) and "ev" in first
    except (ValueError, OSError):
        return False


def cmd_report(args: argparse.Namespace) -> int:
    if _looks_like_ledger(args.path):
        from repro.obs.ledger import check_complete, read_ledger
        from repro.obs.top import render_ledger_report
        events = read_ledger(args.path)
        print(render_ledger_report(events, path=args.path))
        return 1 if check_complete(events) else 0
    from repro.obs import load_stats, render_report
    try:
        stats = load_stats(args.path)
    except ValueError as e:
        print(f"report failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"report failed: {args.path}: {e.strerror or e}",
              file=sys.stderr)
        return 1
    print(render_report(stats))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top
    return run_top(args.ledger, refresh_s=args.refresh, once=args.once,
                   follow=args.follow, max_wait_s=args.max_wait)


def cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.experiments import ExperimentRunner

    machines = [MACHINES[m] for m in args.machines]
    workloads = args.workloads or [w.name for w in ALL_WORKLOADS]
    policies = args.policies or [p.name for p in ALL_POLICIES]
    wl_names = [get_workload(w).name for w in workloads]
    pol_names = [get_policy(p).name for p in policies]
    runner = ExperimentRunner(instructions=args.instructions,
                              warmup=args.warmup, cache_path=args.cache)
    t0 = time.perf_counter()
    results = []  # machine x policy x workload order; failed points absent
    failures: List[Dict] = []
    for machine in machines:
        matrix = runner.run_matrix(workloads, machine, policies,
                                   jobs=args.jobs,
                                   share_warmup=args.share_warmup,
                                   warmup_policy=args.warmup_policy,
                                   warmup_mode=args.warmup_mode,
                                   stats_dir=args.stats_dir,
                                   validate=args.validate,
                                   oracle=args.oracle,
                                   ledger=args.ledger)
        failures += matrix.failures
        results += [r for p in pol_names for w in wl_names
                    for r in [matrix.get(p, {}).get(w)] if r is not None]
    elapsed = time.perf_counter() - t0

    # With OOO in the sweep, every point is also shown relative to the
    # OOO point of its workload and machine.
    with_rel = "OOO" in pol_names
    ooo = {(r.workload, r.machine): r for r in results if r.policy == "OOO"}
    rows: List[List] = []
    for r in results:
        row = [r.workload, r.machine, r.policy, r.ipc]
        if with_rel:
            base = ooo.get((r.workload, r.machine))
            row += ([r.ipc_rel(base), r.mttf_rel(base), r.abc_rel(base)]
                    if base is not None else ["-"] * 3)
        rows.append(row + [r.mlp, r.mpki, r.abc_total, r.avf])
    machine_label = ",".join(m.name for m in machines)
    print(f"{machine_label}: {len(workloads)} workloads x "
          f"{len(policies)} policies ({args.instructions} instructions):\n")
    print(format_table(
        ["workload", "machine", "policy", "IPC"]
        + (["IPC_rel", "MTTF_rel", "ABC_rel"] if with_rel else [])
        + ["MLP", "MPKI", "ABC", "AVF"], rows))
    mode = f"jobs={args.jobs}"
    if args.share_warmup:
        mode += f", shared warmup under {args.warmup_policy}"
    if args.warmup_mode != "detailed":
        mode += f", {args.warmup_mode} warmup"
    print(f"\n{len(rows)} points in {elapsed:.2f}s ({mode})")
    for f in failures:
        tag = "QUARANTINED" if f.get("quarantined") else "FAILED"
        print(f"{tag} {f['workload']}/{f['machine']}/{f['policy']}: "
              f"{f['error']}")
    if args.stats_dir:
        print(f"per-point stats -> {args.stats_dir}/")
    if args.ledger:
        print(f"run ledger     -> {args.ledger} "
              f"(`repro top {args.ledger}` / `repro report {args.ledger}`)")
    if args.out:
        from repro.common.io import atomic_write_json
        payload = {
            "machine": machine_label,
            "instructions": args.instructions,
            "warmup": args.warmup,
            "jobs": args.jobs,
            "share_warmup": args.share_warmup,
            "warmup_policy": args.warmup_policy,
            "warmup_mode": args.warmup_mode,
            "elapsed_s": elapsed,
            "results": [r.to_dict() for r in results],
            "failures": failures,
        }
        atomic_write_json(args.out, payload, indent=2)
        print(f"results JSON   -> {args.out}")
    if failures:
        print(f"\n{len(failures)} point(s) failed "
              f"({len(rows)} completed)", file=sys.stderr)
        return 1
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from repro.workloads.catalog import (ALL_WORKLOADS, EXTRA_WORKLOADS,
                                         PHASED_WORKLOADS)
    from repro.workloads.characterize import characterize_all
    names = args.workloads or [
        w.name for w in ALL_WORKLOADS + EXTRA_WORKLOADS + PHASED_WORKLOADS]
    profiles = characterize_all(names, MACHINES[args.machine],
                                instructions=args.instructions,
                                warmup=args.warmup)
    rows = [[p.name, "mem" if p.memory_intensive else "cmp", p.character,
             p.ipc, p.mpki, p.mlp, p.mispredicts_per_kinst,
             p.head_blocked_share]
            for p in profiles]
    print(format_table(
        ["workload", "set", "character", "IPC", "MPKI", "MLP",
         "misp/kinst", "blocked share"], rows))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.workloads.characterize import calibrate_catalog
    try:
        results = calibrate_catalog(
            args.workloads or None, MACHINES[args.machine],
            instructions=args.instructions, warmup=args.warmup,
            check=args.check)
    except KeyError as e:
        print(f"calibrate failed: {e}", file=sys.stderr)
        return 2
    rows = [[r.name, r.hot_fraction, r.data_bias,
             r.mpki_target, r.mpki_measured, "ok" if r.mpki_ok else "MISS",
             r.brmiss_target, r.brmiss_measured,
             "ok" if r.brmiss_ok else "MISS", r.iterations]
            for r in results]
    print(format_table(
        ["workload", "hot_frac", "data_bias", "MPKI tgt", "MPKI",
         "", "br/ki tgt", "br/ki", "", "sims"], rows))
    if args.report:
        from repro.common.io import atomic_write_json
        atomic_write_json(args.report,
                          {"mode": "check" if args.check else "tune",
                           "machine": args.machine,
                           "instructions": args.instructions,
                           "warmup": args.warmup,
                           "results": [r.to_dict() for r in results]},
                          indent=2)
        print(f"calibration report -> {args.report}")
    bad = [r.name for r in results if not r.converged]
    if bad:
        print(f"calibration off-target for: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    if not args.check:
        print("bake these into _TUNED in src/repro/workloads/catalog.py:")
        for r in results:
            print(f'    "{r.name}": {{"hot_fraction": {r.hot_fraction}, '
                  f'"data_bias": {r.data_bias}}},')
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.isa.tracefile import (TraceFormatError, iter_trace, load_trace,
                                     save_trace, trace_info)
    if args.action == "dump":
        spec = get_workload(args.workload)
        n = save_trace(spec.build_trace(), args.path, limit=args.limit)
        print(f"wrote {n} uops of {spec.name!r} to {args.path}")
        return 0
    if args.action == "import":
        from repro.isa.importers import ImportError_, import_trace
        if not args.out:
            print("trace import requires --out <file>", file=sys.stderr)
            return 2
        try:
            trace = import_trace(args.path, fmt=args.format,
                                 name=args.name or "")
            n = save_trace(trace, args.out, limit=args.limit,
                           name=trace.name)
        except (ImportError_, TraceFormatError, OSError) as e:
            print(f"trace import failed: {e}", file=sys.stderr)
            return 1
        print(f"imported {n} uops from {args.path} -> {args.out}")
        print(f"run it with: repro run trace:{args.out} <policy>")
        return 0
    if args.action == "info":
        try:
            info = trace_info(args.path)
        except (TraceFormatError, OSError) as e:
            print(f"trace info failed: {e}", file=sys.stderr)
            return 1
        print(_json.dumps(info, indent=2))
        return 0
    if args.action == "head":
        try:
            shown = 0
            for uop, extras in iter_trace(args.path):
                ph = f" ph={extras['ph']}" if "ph" in extras else ""
                print(f"{uop!r}{ph}")
                shown += 1
                if shown >= args.limit:
                    break
        except (TraceFormatError, OSError) as e:
            print(f"trace head failed: {e}", file=sys.stderr)
            return 1
        return 0
    # replay
    trace = load_trace(args.path)
    machine = MACHINES[args.machine]
    r = simulate(trace, machine, args.policy,
                 instructions=args.instructions, warmup=args.warmup)
    print(f"replayed {r.workload!r} under {r.policy}: "
          f"ipc={r.ipc:.3f} abc={r.abc_total} avf={r.avf:.4f}")
    return 0


def cmd_golden(args: argparse.Namespace) -> int:
    from repro.validate.golden import check_golden, check_scenarios, \
        golden_points, regen_golden, regen_scenarios, scenario_points

    total = len(golden_points()) + len(scenario_points())
    if args.regen:
        try:
            written = regen_golden(args.dir, jobs=args.jobs,
                                   instructions=args.instructions,
                                   warmup=args.warmup, ledger=args.ledger)
            written.append(regen_scenarios(args.dir, jobs=args.jobs,
                                           ledger=args.ledger))
        except RuntimeError as e:
            print(f"golden regen failed: {e}", file=sys.stderr)
            return 1
        print(f"froze {total} golden points:")
        for path in written:
            print(f"  {path}")
        return 0
    problems = check_golden(args.dir, jobs=args.jobs, ledger=args.ledger)
    problems += check_scenarios(args.dir, jobs=args.jobs,
                                ledger=args.ledger)
    if problems:
        print(f"golden check FAILED ({len(problems)} mismatch(es)):")
        for line in problems:
            print(f"  {line}")
        print("if the change is intended, refreeze with "
              "`python -m repro golden --regen` and review the diff")
        return 1
    print(f"golden check OK: {total} points conformant")
    return 0


def cmd_memval(args: argparse.Namespace) -> int:
    from repro.workloads.microbench import memval_table, validate_all

    unknown = [n for n in args.presets if n not in PRESET_NAMES]
    if unknown:
        print(f"unknown preset(s) {unknown}; expected one of {PRESET_NAMES}")
        return 2
    results = validate_all(scheduler=args.scheduler,
                           presets=args.presets or None)
    print(memval_table(results))
    problems = [(r.preset, p) for r in results for p in r.problems]
    if problems:
        print(f"\nmemval FAILED ({len(problems)} problem(s)):")
        for preset, p in problems:
            print(f"  {preset}: {p}")
        return 1
    print(f"\nmemval OK: {len(results)} preset(s) match their analytic "
          f"latency and bandwidth curves")
    return 0


def cmd_warmval(args: argparse.Namespace) -> int:
    from repro.validate.warmval import (
        WARMVAL_POLICIES, WARMVAL_WORKLOADS, run_warmval, warmval_table,
    )

    workloads = args.workloads or list(WARMVAL_WORKLOADS)
    policies = args.policies or list(WARMVAL_POLICIES)
    report = run_warmval(workloads, policies, MACHINES[args.machine],
                         instructions=args.instructions,
                         warmup=args.warmup, seed=args.seed)
    print(warmval_table(report))
    print(f"\nwarmup wall: detailed {report.warmup_wall_detailed_s:.2f}s, "
          f"fast {report.warmup_wall_fast_s:.2f}s "
          f"({report.warmup_speedup:.1f}x speedup)")
    if args.report:
        from repro.common.io import atomic_write_json
        atomic_write_json(args.report, report.to_dict(), indent=2)
        print(f"delta report -> {args.report}")
    if not report.ok:
        print(f"\nwarmval FAILED ({len(report.problems)} problem(s)):")
        for line in report.problems:
            print(f"  {line}")
        return 1
    print(f"\nwarmval OK: {len(report.points)} points within tolerance "
          f"(max IPC delta {report.max_rel_delta('ipc'):.2%})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliability-Aware Runahead (HPCA 2022) simulator")
    parser.add_argument("--log-json", action="store_true",
                        help="emit diagnostics as JSON lines on stderr")
    parser.add_argument("--quiet", action="store_true",
                        help="silence diagnostics below warnings "
                             "(heartbeats, sweep progress)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads/policies/machines")

    p = sub.add_parser("run", help="simulate one point")
    p.add_argument("workload")
    p.add_argument("policy", nargs="?", default="OOO")
    p.add_argument("--policy", dest="policy_opt", default=None,
                   metavar="NAME", help="policy (alternative to positional)")
    p.add_argument("-m", "--machine", default="baseline",
                   choices=sorted(MACHINES))
    p.add_argument("--stats-out", metavar="FILE",
                   help="write hierarchical stats + timeline JSON")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write Chrome trace-event JSON (Perfetto)")
    p.add_argument("--timeline-out", metavar="FILE",
                   help="write interval samples (.csv or JSONL)")
    p.add_argument("--interval", type=int, default=0, metavar="N",
                   help="sample the pipeline every N cycles "
                        "(default 1000 when --stats/timeline-out is set)")
    p.add_argument("--profile", action="store_true",
                   help="report host-side simulated-KIPS throughput")
    p.add_argument("--heartbeat", type=float, default=0.0, metavar="SEC",
                   help="progress line on stderr every SEC wall seconds")
    p.add_argument("--validate", action="store_true",
                   help="run with the per-cycle invariant sanitizer")
    p.add_argument("--oracle", action="store_true",
                   help="lockstep-check retirement against the "
                        "commit-stream architectural oracle")
    _add_size_args(p)
    _add_warmup_mode_arg(p)

    p = sub.add_parser("report",
                       help="render a --stats-out file as tables, or "
                            "summarize and audit a sweep run-ledger "
                            "(exit 1 on an audit problem)")
    p.add_argument("path", help="stats JSON written by run --stats-out, "
                                "or a JSONL ledger from sweep --ledger")

    p = sub.add_parser("top", help="live view of a running sweep "
                                   "(tails its --ledger file)")
    p.add_argument("ledger", help="JSONL ledger path (sweep --ledger)")
    p.add_argument("--refresh", type=float, default=1.0, metavar="SEC",
                   help="redraw period in seconds (default 1.0)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no ANSI control)")
    p.add_argument("--follow", action="store_true",
                   help="keep tailing after sweep_done")
    p.add_argument("--max-wait", type=float, default=0.0, metavar="SEC",
                   help="give up (exit 1) after SEC seconds (0 = never)")

    p = sub.add_parser("sweep",
                       help="workload x policy x machine matrix, optionally "
                            "parallel")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: full catalog)")
    p.add_argument("-p", "--policies", nargs="+", metavar="NAME",
                   help="policy names (default: the paper's eight); with "
                        "OOO among them the table adds IPC_rel, MTTF_rel "
                        "and ABC_rel against OOO")
    p.add_argument("-m", "--machine", dest="machines", nargs="+",
                   default=["baseline"], choices=sorted(MACHINES),
                   metavar="NAME",
                   help="one or more machines, swept one after another "
                        "(default: baseline)")
    p.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                   help="worker processes; groups by workload (default 1)")
    p.add_argument("--share-warmup", action="store_true",
                   help="warm each workload once and fork the checkpoint "
                        "for every policy (approximation; results cached "
                        "under a separate 'sw:' variant key)")
    p.add_argument("--warmup-policy", default="OOO", metavar="NAME",
                   help="policy the shared warmup runs under (default OOO)")
    p.add_argument("--cache", metavar="FILE",
                   help="JSON result cache (read + atomically updated)")
    p.add_argument("--out", metavar="FILE",
                   help="write all point results as one JSON file")
    p.add_argument("--stats-dir", metavar="DIR",
                   help="write per-point telemetry stats JSON into DIR "
                        "(cache-satisfied points render their artifact "
                        "from the cached result, tagged from_cache)")
    p.add_argument("--ledger", metavar="FILE",
                   help="append the sweep's JSONL event stream (with "
                        "per-point provenance manifests) to FILE; watch "
                        "live with `repro top FILE`")
    p.add_argument("--validate", action="store_true",
                   help="run every point under the invariant sanitizer")
    p.add_argument("--oracle", action="store_true",
                   help="lockstep-check every point's retirement against "
                        "the commit-stream architectural oracle")
    _add_size_args(p)
    _add_warmup_mode_arg(p)

    p = sub.add_parser(
        "golden", help="golden conformance fingerprints (45-point grid)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="re-measure and diff against the frozen files")
    mode.add_argument("--regen", action="store_true",
                      help="refreeze the fingerprints (review the diff!)")
    p.add_argument("--dir", default="tests/golden", metavar="DIR",
                   help="golden file directory (default tests/golden)")
    p.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                   help="farm worker processes, one point per task "
                        "(default 1)")
    p.add_argument("-n", "--instructions", type=int, default=3000,
                   help="measured instructions when regenerating "
                        "(default 3000; --check uses the frozen files')")
    p.add_argument("-w", "--warmup", type=int, default=3000,
                   help="warmup instructions when regenerating "
                        "(default 3000; --check uses the frozen files')")
    p.add_argument("--ledger", metavar="FILE",
                   help="append each grid row's sweep events to a JSONL "
                        "run ledger (observational; fingerprints are "
                        "bit-identical with or without)")

    p = sub.add_parser(
        "memval",
        help="validate DRAM presets against their analytic curves "
             "(pointer-chase latency, streaming bandwidth)")
    p.add_argument("presets", nargs="*", metavar="PRESET",
                   help=f"preset names (default: all of {PRESET_NAMES})")
    p.add_argument("-s", "--scheduler", default="fcfs",
                   choices=SCHEDULERS,
                   help="request scheduler to validate under "
                        "(default fcfs)")

    p = sub.add_parser(
        "warmval",
        help="cross-validate fast (functional) warmup against detailed "
             "warmup: measured-region IPC/MPKI/branch-miss/AVF deltas "
             "per grid point, with a JSON delta report")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: mcf lbm gcc)")
    p.add_argument("-p", "--policies", nargs="+", metavar="NAME",
                   help="policy names (default: OOO FLUSH TR PRE RAR)")
    p.add_argument("-m", "--machine", default="baseline",
                   choices=sorted(MACHINES))
    p.add_argument("-n", "--instructions", type=int, default=10_000,
                   help="measured instructions per point (default 10000)")
    p.add_argument("-w", "--warmup", type=int, default=20_000,
                   help="warmup instructions per point (default 20000)")
    p.add_argument("--seed", type=int, default=None,
                   help="trace seed (default: workload's own)")
    p.add_argument("--report", metavar="FILE",
                   help="write the per-point JSON delta report to FILE")

    p = sub.add_parser("characterize",
                       help="measure workload characteristics")
    p.add_argument("workloads", nargs="*",
                   help="names (default: full catalog incl. extras)")
    p.add_argument("-m", "--machine", default="baseline",
                   choices=sorted(MACHINES))
    _add_size_args(p)

    p = sub.add_parser(
        "trace",
        help="dump/replay/import/inspect trace files",
        description="dump: save a catalog workload's trace; replay: run a "
        "saved trace; import: convert a ChampSim/gem5 text trace to the "
        "repro format; info: summarise a saved trace; head: print its "
        "first uops. Imported/saved traces run anywhere a workload name "
        "is accepted, as trace:<path>.")
    p.add_argument("action", choices=("dump", "replay", "import", "info",
                                      "head"))
    p.add_argument("path", help="trace file (import: the foreign input)")
    p.add_argument("-k", "--workload", default="mcf",
                   help="catalog workload to dump")
    p.add_argument("-p", "--policy", default="OOO")
    p.add_argument("-m", "--machine", default="baseline",
                   choices=sorted(MACHINES))
    p.add_argument("-l", "--limit", type=int, default=100_000,
                   help="max uops to dump/import (head: lines to show)")
    p.add_argument("-o", "--out",
                   help="output trace file for import (.trc or .trc.gz)")
    p.add_argument("-f", "--format", default="auto",
                   choices=("auto", "champsim", "gem5"),
                   help="import input format (default: sniff)")
    p.add_argument("--name", help="embedded trace name for import")
    _add_size_args(p)

    p = sub.add_parser(
        "calibrate",
        help="auto-tune phased workloads to their MPKI/branch-miss targets",
        description="Searches each phased generator's hot_fraction and "
        "data_bias dials until the measured MPKI and branch "
        "mispredicts/kinst hit the per-benchmark targets in "
        "workloads/catalog.py, then prints the calibration report "
        "(docs/workloads.md).")
    p.add_argument("workloads", nargs="*",
                   help="phased workload names (default: all)")
    p.add_argument("-m", "--machine", default="baseline",
                   choices=sorted(MACHINES))
    p.add_argument("--report", metavar="FILE",
                   help="write the JSON calibration report to FILE")
    p.add_argument("--check", action="store_true",
                   help="verify the baked tuned parameters instead of "
                   "re-searching")
    # Calibration targets are defined at the characterize() window, not
    # the generic run sizes: phased workloads are non-stationary, so the
    # measured MPKI depends on where in the schedule the window falls.
    p.add_argument("-n", "--instructions", type=int, default=8_000,
                   help="measured committed instructions (default 8000, "
                   "the calibration window)")
    p.add_argument("-w", "--warmup", type=int, default=15_000,
                   help="warmup instructions (default 15000, "
                   "the calibration window)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs import log as obs_log
    obs_log.configure(json_lines=args.log_json, quiet=args.quiet,
                      verbose=args.verbose)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "report": cmd_report,
        "top": cmd_top,
        "sweep": cmd_sweep,
        "golden": cmd_golden,
        "memval": cmd_memval,
        "warmval": cmd_warmval,
        "trace": cmd_trace,
        "characterize": cmd_characterize,
        "calibrate": cmd_calibrate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
