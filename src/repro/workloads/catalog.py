"""Named synthetic benchmarks mirroring the paper's evaluation sets.

The memory-intensive set carries the names the paper plots (astar, bwaves,
fotonik, gcc, gems, lbm, leslie3d, libquantum, mcf, milc, omnetpp, roms,
soplex, sphinx); each generator is tuned to the per-benchmark behaviour the
paper describes:

- mcf / omnetpp: pointer chasing with data-dependent branches — serialised
  misses, mispredicts in the miss shadow, ROB-head-blocked ≫ full-ROB-stall.
- libquantum / fotonik / bwaves: wide independent streaming — full-ROB
  stalls, huge MLP headroom for runahead.
- lbm: streaming plus deep FP dependence chains — the issue queue fills
  before the ROB does (the paper: "lbm is stalled on a full issue queue
  about 20% of the time").
- gcc / astar / soplex: irregular accesses with hard branches.

The compute-intensive set keeps working sets cache-resident (MPKI < 8).
"""

import random
import zlib
from typing import Dict, List

from repro.workloads.base import PhaseSpec, WorkloadSpec, make_body
from repro.workloads.patterns import PatternSpec, hot_mix
from repro.workloads.tracewl import is_trace_name, resolve_trace_workload

MB = 1024 * 1024

#: Cold working set: large enough that the 1 MB LLC cannot hold it.
COLD_WS = 32 * MB


def _seed(name: str) -> int:
    return zlib.crc32(name.encode()) & 0x7FFFFFFF


def _stream(streams: int = 8, stride: int = 64, ws: int = COLD_WS) -> PatternSpec:
    return PatternSpec(kind="stream", working_set=ws // max(1, streams),
                       streams=streams, stride=stride)


def _chase(ws: int = COLD_WS) -> PatternSpec:
    return PatternSpec(kind="chase", working_set=ws)


def _random(ws: int = COLD_WS) -> PatternSpec:
    return PatternSpec(kind="random", working_set=ws)


def _hot(ws: int = 16 * 1024) -> PatternSpec:
    return PatternSpec(kind="hot", working_set=ws, base=0x0001_0000,
                       resident="l1")


def _spec(
    name: str,
    memory_intensive: bool,
    description: str,
    patterns: Dict[str, PatternSpec],
    pattern_weights: Dict[str, float],
    phases: tuple = (),
    **body_kwargs,
) -> WorkloadSpec:
    rng = random.Random(_seed(name))
    body = make_body(rng, pattern_weights=pattern_weights, **body_kwargs)
    return WorkloadSpec(
        name=name,
        memory_intensive=memory_intensive,
        body=body,
        patterns=patterns,
        seed=_seed(name) ^ 0x5EED,
        description=description,
        phases=phases,
    )


def _memory_set() -> List[WorkloadSpec]:
    w: List[WorkloadSpec] = []
    w.append(_spec(
        "astar", True, "graph search: irregular accesses, hard branches",
        patterns={"main": hot_mix(_random(), 0.96)},
        pattern_weights={"main": 1.0},
        load_frac=0.28, store_frac=0.06, branch_frac=0.15,
        hard_branch_frac=0.35, chain=0.35, load_consume=0.45,
    ))
    w.append(_spec(
        "bwaves", True, "FP blast-wave solver: wide independent streams",
        patterns={"main": hot_mix(_stream(streams=12), 0.94)},
        pattern_weights={"main": 1.0},
        load_frac=0.30, store_frac=0.10, branch_frac=0.04, fp_frac=0.30,
        chain=0.25, load_consume=0.30,
    ))
    w.append(_spec(
        "fotonik", True, "FDTD: massive independent streaming, best MLP",
        patterns={"main": hot_mix(_stream(streams=16), 0.91)},
        pattern_weights={"main": 1.0},
        load_frac=0.32, store_frac=0.12, branch_frac=0.04, fp_frac=0.28,
        chain=0.2, load_consume=0.25,
    ))
    w.append(_spec(
        "gcc", True, "compiler: irregular pointer traffic, many hard branches",
        patterns={"main": hot_mix(_random(), 0.95), "ptr": hot_mix(_chase(), 0.95)},
        pattern_weights={"main": 0.7, "ptr": 0.3},
        load_frac=0.26, store_frac=0.10, branch_frac=0.18,
        hard_branch_frac=0.40, chain=0.3, load_consume=0.45,
    ))
    w.append(_spec(
        "gems", True, "FDTD stencil: streaming FP with moderate chains",
        patterns={"main": hot_mix(_stream(streams=10), 0.94)},
        pattern_weights={"main": 1.0},
        load_frac=0.30, store_frac=0.10, branch_frac=0.05, fp_frac=0.30,
        chain=0.3, load_consume=0.30,
    ))
    w.append(_spec(
        "lbm", True, "lattice Boltzmann: streams + deep FP chains (IQ fills)",
        patterns={"main": hot_mix(_stream(streams=8), 0.90)},
        pattern_weights={"main": 1.0},
        load_frac=0.26, store_frac=0.14, branch_frac=0.02, fp_frac=0.42,
        chain=0.85, load_consume=0.60,
    ))
    w.append(_spec(
        "leslie3d", True, "CFD: streaming FP, moderate MPKI",
        patterns={"main": hot_mix(_stream(streams=8), 0.94)},
        pattern_weights={"main": 1.0},
        load_frac=0.28, store_frac=0.10, branch_frac=0.06, fp_frac=0.32,
        chain=0.35, load_consume=0.35,
    ))
    w.append(_spec(
        "libquantum", True, "quantum sim: single hot loop, pure streaming",
        patterns={"main": hot_mix(_stream(streams=4), 0.90)},
        pattern_weights={"main": 1.0},
        load_frac=0.30, store_frac=0.12, branch_frac=0.10,
        hard_branch_frac=0.0, chain=0.2, load_consume=0.30,
    ))
    w.append(_spec(
        "mcf", True, "network simplex: pointer chasing + data-dep branches",
        patterns={"main": hot_mix(_chase(), 0.85), "aux": hot_mix(_random(), 0.97)},
        pattern_weights={"main": 0.75, "aux": 0.25},
        load_frac=0.30, store_frac=0.06, branch_frac=0.17,
        hard_branch_frac=0.45, chain=0.4, load_consume=0.50,
    ))
    w.append(_spec(
        "milc", True, "lattice QCD: streaming FP + gather-ish randoms",
        patterns={"main": hot_mix(_stream(streams=8), 0.93),
                  "gather": hot_mix(_random(), 0.92)},
        pattern_weights={"main": 0.7, "gather": 0.3},
        load_frac=0.30, store_frac=0.10, branch_frac=0.05, fp_frac=0.30,
        chain=0.3, load_consume=0.30,
    ))
    w.append(_spec(
        "omnetpp", True, "discrete-event sim: pointer chasing, hard branches",
        patterns={"main": hot_mix(_chase(), 0.94)},
        pattern_weights={"main": 1.0},
        load_frac=0.27, store_frac=0.09, branch_frac=0.16,
        hard_branch_frac=0.35, chain=0.35, load_consume=0.50,
    ))
    w.append(_spec(
        "roms", True, "ocean model: streaming FP, shorter miss bursts",
        patterns={"main": hot_mix(_stream(streams=6), 0.95)},
        pattern_weights={"main": 1.0},
        load_frac=0.28, store_frac=0.11, branch_frac=0.06, fp_frac=0.30,
        chain=0.35, load_consume=0.35,
    ))
    w.append(_spec(
        "soplex", True, "LP solver: sparse matrix randoms + some streams",
        patterns={"main": hot_mix(_random(), 0.92),
                  "col": hot_mix(_stream(streams=4), 0.93)},
        pattern_weights={"main": 0.6, "col": 0.4},
        load_frac=0.28, store_frac=0.08, branch_frac=0.13,
        hard_branch_frac=0.25, chain=0.35, fp_frac=0.10, load_consume=0.40,
    ))
    w.append(_spec(
        "sphinx", True, "speech recognition: random accesses, FP scoring",
        patterns={"main": hot_mix(_random(), 0.96)},
        pattern_weights={"main": 1.0},
        load_frac=0.30, store_frac=0.06, branch_frac=0.10, fp_frac=0.20,
        hard_branch_frac=0.15, chain=0.3, load_consume=0.40,
    ))
    return w


def _compute_set() -> List[WorkloadSpec]:
    w: List[WorkloadSpec] = []

    def cspec(name: str, description: str, **kw) -> WorkloadSpec:
        """Compute-intensive: cache-resident with a small cold residue.

        The paper's compute set has MPKI < 8, not zero — the residual
        misses are what gives RAR its modest 1.5x MTTF gain there.
        """
        cold_frac = kw.pop("cold_frac", 0.015)
        hot = _hot(kw.pop("hot_ws", 64 * 1024))
        cold = _random(4 * MB)
        patterns = {"main": PatternSpec(
            kind="mix",
            mix_parts=((1.0 - cold_frac, hot), (cold_frac, cold)),
        )}
        return _spec(name, False, description, patterns=patterns,
                     pattern_weights={"main": 1.0}, **kw)

    w.append(cspec("deepsjeng", "chess engine: int, branchy",
                   load_frac=0.22, store_frac=0.08, branch_frac=0.18,
                   hard_branch_frac=0.20, chain=0.3, cold_frac=0.005))
    w.append(cspec("exchange2", "puzzle generator: int, predictable",
                   load_frac=0.18, store_frac=0.10, branch_frac=0.14,
                   chain=0.25, cold_frac=0.002))
    w.append(cspec("imagick", "image ops: FP kernels, cache resident",
                   load_frac=0.24, store_frac=0.10, branch_frac=0.05,
                   fp_frac=0.35, chain=0.3, hot_ws=128 * 1024, cold_frac=0.003))
    w.append(cspec("leela", "Go engine: int, moderate branches",
                   load_frac=0.22, store_frac=0.07, branch_frac=0.15,
                   hard_branch_frac=0.15, chain=0.3, cold_frac=0.004))
    w.append(cspec("nab", "molecular dynamics: FP, small sets",
                   load_frac=0.25, store_frac=0.08, branch_frac=0.05,
                   fp_frac=0.38, chain=0.4, hot_ws=128 * 1024, cold_frac=0.005))
    w.append(cspec("namd", "molecular dynamics: FP, high ILP",
                   load_frac=0.24, store_frac=0.08, branch_frac=0.04,
                   fp_frac=0.40, chain=0.15, hot_ws=128 * 1024, cold_frac=0.004))
    w.append(cspec("povray", "ray tracing: FP + branches",
                   load_frac=0.22, store_frac=0.08, branch_frac=0.13,
                   fp_frac=0.28, hard_branch_frac=0.10, chain=0.3, cold_frac=0.003))
    w.append(cspec("x264", "video encode: int/FP mix",
                   load_frac=0.26, store_frac=0.12, branch_frac=0.08,
                   fp_frac=0.12, chain=0.25, hot_ws=192 * 1024, cold_frac=0.012))
    return w


def _extra_set() -> List[WorkloadSpec]:
    """Extended catalog beyond the paper's evaluated sets.

    Useful for broader studies; NOT included in MEMORY_WORKLOADS /
    COMPUTE_WORKLOADS so the paper-reproduction figures stay comparable.
    """
    w: List[WorkloadSpec] = []
    w.append(_spec(
        "xalancbmk", True, "XML transform: pointer-heavy, very branchy",
        patterns={"main": hot_mix(_chase(), 0.93), "aux": hot_mix(_random(), 0.97)},
        pattern_weights={"main": 0.6, "aux": 0.4},
        load_frac=0.27, store_frac=0.08, branch_frac=0.20,
        hard_branch_frac=0.45, chain=0.3, load_consume=0.5,
    ))
    w.append(_spec(
        "wrf", True, "weather model: wide FP streaming",
        patterns={"main": hot_mix(_stream(streams=12), 0.94)},
        pattern_weights={"main": 1.0},
        load_frac=0.30, store_frac=0.11, branch_frac=0.05, fp_frac=0.32,
        chain=0.3, load_consume=0.3,
    ))
    w.append(_spec(
        "cactu", True, "relativity stencil: store-heavy FP streams",
        patterns={"main": hot_mix(_stream(streams=10), 0.93)},
        pattern_weights={"main": 1.0},
        load_frac=0.28, store_frac=0.16, branch_frac=0.03, fp_frac=0.34,
        chain=0.45, load_consume=0.4,
    ))
    w.append(_spec(
        "parest", True, "finite elements: random sparse FP",
        patterns={"main": hot_mix(_random(), 0.94)},
        pattern_weights={"main": 1.0},
        load_frac=0.29, store_frac=0.07, branch_frac=0.08, fp_frac=0.28,
        hard_branch_frac=0.10, chain=0.35, load_consume=0.35,
    ))
    w.append(_spec(
        "blender", False, "render engine: FP compute, cache resident",
        patterns={"main": PatternSpec(
            kind="mix",
            mix_parts=((0.99, _hot(96 * 1024)), (0.01, _random(4 * MB))),
        )},
        pattern_weights={"main": 1.0},
        load_frac=0.24, store_frac=0.09, branch_frac=0.09, fp_frac=0.30,
        hard_branch_frac=0.08, chain=0.3,
    ))
    w.append(_spec(
        "pchase", True,
        "microbenchmark: serialised pointer-chase latency ladder "
        "(repro memval measures the raw controller; this exercises the "
        "full hierarchy)",
        patterns={"main": _chase()},
        pattern_weights={"main": 1.0},
        load_frac=0.35, store_frac=0.0, branch_frac=0.02,
        chain=0.9, load_consume=1.0,
    ))
    w.append(_spec(
        "streambw", True,
        "microbenchmark: independent streams pushing the DRAM "
        "bandwidth ceiling",
        patterns={"main": _stream(streams=16)},
        pattern_weights={"main": 1.0},
        load_frac=0.45, store_frac=0.0, branch_frac=0.02,
        chain=0.0, load_consume=0.0,
    ))
    w.append(_spec(
        "gromacs", False, "molecular dynamics: FP compute, high ILP",
        patterns={"main": PatternSpec(
            kind="mix",
            mix_parts=((0.994, _hot(128 * 1024)), (0.006, _random(4 * MB))),
        )},
        pattern_weights={"main": 1.0},
        load_frac=0.25, store_frac=0.08, branch_frac=0.04, fp_frac=0.4,
        chain=0.2,
    ))
    return w


# --------------------------------------------------------------- phased set
#
# Non-stationary workloads: each cycles through a PhaseSpec schedule
# (hot-set drift, oscillating hot/scan, abrupt pattern swaps — the
# dynamic/oscillating trace-generator behaviours of SNIPPETS.md §3).
# Every builder takes the two auto-tuned dials — ``hot_fraction`` (MPKI,
# monotone decreasing) and ``data_bias`` (branch mispredicts/kinst,
# monotone decreasing) — so ``repro.workloads.characterize`` can bisect
# each to its per-benchmark target instead of hand-tuning constants.
# The baked values in _TUNED below are the auto-tuner's output
# (calibration methodology: docs/workloads.md).


def _ph_drift_hot(hot_fraction: float, data_bias: float) -> WorkloadSpec:
    # warm_fraction=0: a drifting L3-resident tier would re-warm ~7k
    # lines per pass and pin the MPKI floor above any useful target.
    mix = hot_mix(_random(8 * MB), hot_fraction, warm_fraction=0.0)
    return _spec(
        "ph-drift-hot", True,
        "phased: hot working set migrates 2 MB every schedule pass — "
        "warmed lines go cold at each drift step",
        patterns={"main": mix},
        pattern_weights={"main": 1.0},
        phases=(PhaseSpec(duration=256, patterns=(("main", mix),),
                          drift=2 * MB),),
        load_frac=0.28, store_frac=0.08, branch_frac=0.13,
        hard_branch_frac=0.30, data_bias=data_bias,
        chain=0.35, load_consume=0.45,
    )


def _ph_osc_hotscan(hot_fraction: float, data_bias: float) -> WorkloadSpec:
    return _spec(
        "ph-osc-hotscan", True,
        "phased: oscillates between cache-resident compute and a "
        "streaming scan (SNIPPETS §3 OSCILLATING)",
        patterns={"main": hot_mix(_random(4 * MB), 0.985)},
        pattern_weights={"main": 1.0},
        phases=(
            PhaseSpec(duration=40),
            # drift: each oscillation scans a *fresh* window of the big
            # array — without it the reset stream cursors would re-walk
            # lines the previous scan already cached. The scan's hot
            # tier (its loop locals) is tiny because it drifts too:
            # a large one would add ~256 compulsory misses per pass.
            PhaseSpec(duration=40, patterns=(
                ("main", hot_mix(_stream(streams=8), hot_fraction,
                                 warm_fraction=0.0, hot_ws=4 * 1024)),),
                drift=MB),
        ),
        load_frac=0.29, store_frac=0.10, branch_frac=0.10,
        hard_branch_frac=0.25, data_bias=data_bias,
        chain=0.3, load_consume=0.35,
    )


def _ph_swap_chase_stream(hot_fraction: float,
                          data_bias: float) -> WorkloadSpec:
    return _spec(
        "ph-swap-chase-stream", True,
        "phased: abrupt swaps between serialised pointer chasing and "
        "wide streaming — runahead's best and worst cases back to back",
        patterns={"main": hot_mix(_chase(), hot_fraction)},
        pattern_weights={"main": 1.0},
        phases=(
            PhaseSpec(duration=56, patterns=(
                ("main", hot_mix(_chase(), hot_fraction)),)),
            PhaseSpec(duration=56, patterns=(
                ("main", hot_mix(_stream(streams=12), hot_fraction)),)),
        ),
        load_frac=0.30, store_frac=0.08, branch_frac=0.14,
        hard_branch_frac=0.35, data_bias=data_bias,
        chain=0.35, load_consume=0.50,
    )


def _ph_burst_mpki(hot_fraction: float, data_bias: float) -> WorkloadSpec:
    return _spec(
        "ph-burst-mpki", True,
        "phased: long cache-resident stretches punctuated by short "
        "cold-miss bursts (GC/rehash-like)",
        patterns={"main": hot_mix(_random(8 * MB), 0.99)},
        pattern_weights={"main": 1.0},
        phases=(
            PhaseSpec(duration=96),
            PhaseSpec(duration=16, patterns=(
                ("main", hot_mix(_random(8 * MB), hot_fraction)),)),
        ),
        load_frac=0.27, store_frac=0.08, branch_frac=0.12,
        hard_branch_frac=0.25, data_bias=data_bias,
        chain=0.3, load_consume=0.40,
    )


def _ph_drift_stream(hot_fraction: float, data_bias: float) -> WorkloadSpec:
    scan = hot_mix(_stream(streams=6, ws=8 * MB), hot_fraction,
                   warm_fraction=0.0)
    return _spec(
        "ph-drift-stream", True,
        "phased: streaming window slides 4 MB per pass over a huge "
        "array (out-of-core sweep)",
        patterns={"main": scan},
        pattern_weights={"main": 1.0},
        phases=(PhaseSpec(duration=256, patterns=(("main", scan),),
                          drift=4 * MB),),
        load_frac=0.31, store_frac=0.11, branch_frac=0.06, fp_frac=0.24,
        hard_branch_frac=0.20, data_bias=data_bias,
        chain=0.25, load_consume=0.30,
    )


def _ph_ramp_ws(hot_fraction: float, data_bias: float) -> WorkloadSpec:
    return _spec(
        "ph-ramp-ws", True,
        "phased: working set ramps resident → L3-sized → DRAM-sized and "
        "back, sweeping MPKI through the runahead entry threshold",
        patterns={"main": hot_mix(_random(256 * 1024), 0.97)},
        pattern_weights={"main": 1.0},
        phases=(
            PhaseSpec(duration=32),
            PhaseSpec(duration=32, patterns=(
                ("main", hot_mix(_random(2 * MB), (1 + hot_fraction) / 2)),)),
            PhaseSpec(duration=32, patterns=(
                ("main", hot_mix(_random(24 * MB), hot_fraction)),)),
        ),
        load_frac=0.28, store_frac=0.09, branch_frac=0.12,
        hard_branch_frac=0.30, data_bias=data_bias,
        chain=0.3, load_consume=0.40,
    )


#: builder + per-benchmark calibration targets (MPKI, branch
#: mispredicts/kinst) for the auto-tuner. Tolerances are documented in
#: repro.workloads.characterize (max of 15% relative / 1.5 absolute).
PHASED_BUILDERS = {
    "ph-drift-hot": _ph_drift_hot,
    "ph-osc-hotscan": _ph_osc_hotscan,
    "ph-swap-chase-stream": _ph_swap_chase_stream,
    "ph-burst-mpki": _ph_burst_mpki,
    "ph-drift-stream": _ph_drift_stream,
    "ph-ramp-ws": _ph_ramp_ws,
}

#: Targets are chosen inside each generator's reachable dial range
#: (measured at the dial endpoints on BASELINE at the calibration sizes;
#: see docs/workloads.md). The MPKI floors of the drift workloads are
#: set by compulsory re-warming after each drift step, not by the dial.
PHASED_TARGETS: Dict[str, Dict[str, float]] = {
    "ph-drift-hot": {"mpki": 40.0, "brmiss": 14.0},
    "ph-osc-hotscan": {"mpki": 14.0, "brmiss": 12.0},
    "ph-swap-chase-stream": {"mpki": 20.0, "brmiss": 15.0},
    "ph-burst-mpki": {"mpki": 9.0, "brmiss": 14.0},
    "ph-drift-stream": {"mpki": 40.0, "brmiss": 8.0},
    "ph-ramp-ws": {"mpki": 12.0, "brmiss": 16.0},
}

#: auto-tuner output (repro.workloads.characterize.calibrate_catalog);
#: regenerate with `repro calibrate` after changing builders/targets.
_TUNED: Dict[str, Dict[str, float]] = {
    "ph-drift-hot": {"hot_fraction": 0.964063, "data_bias": 0.964063},
    "ph-osc-hotscan": {"hot_fraction": 0.979531, "data_bias": 0.87125},
    "ph-swap-chase-stream": {"hot_fraction": 0.87125, "data_bias": 0.933125},
    "ph-burst-mpki": {"hot_fraction": 0.7475, "data_bias": 0.87125},
    "ph-drift-stream": {"hot_fraction": 0.933125, "data_bias": 0.87125},
    "ph-ramp-ws": {"hot_fraction": 0.933125, "data_bias": 0.933125},
}


def _phased_set() -> List[WorkloadSpec]:
    return [PHASED_BUILDERS[name](**_TUNED[name]) for name in PHASED_BUILDERS]


MEMORY_WORKLOADS: List[WorkloadSpec] = _memory_set()
COMPUTE_WORKLOADS: List[WorkloadSpec] = _compute_set()
ALL_WORKLOADS: List[WorkloadSpec] = MEMORY_WORKLOADS + COMPUTE_WORKLOADS
#: Extended catalog (not part of the paper-reproduction sets).
EXTRA_WORKLOADS: List[WorkloadSpec] = _extra_set()
#: Phase-structured tranche (auto-tuned; also outside the paper sets).
PHASED_WORKLOADS: List[WorkloadSpec] = _phased_set()

_BY_NAME: Dict[str, WorkloadSpec] = {
    w.name: w for w in ALL_WORKLOADS + EXTRA_WORKLOADS + PHASED_WORKLOADS
}


def get_workload(name: str):
    """Look up a workload by name.

    Catalog benchmarks resolve by benchmark name; ``trace:<path>`` names
    resolve to a :class:`~repro.workloads.tracewl.TraceWorkload` over a
    saved/imported trace file (returns a WorkloadSpec-compatible object,
    not a WorkloadSpec).
    """
    if is_trace_name(name):
        return resolve_trace_workload(name)
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_BY_NAME)} "
            f"(or trace:<path> for a saved trace)"
        ) from None


def workload_names(memory_only: bool = False) -> List[str]:
    pool = MEMORY_WORKLOADS if memory_only else ALL_WORKLOADS
    return [w.name for w in pool]
