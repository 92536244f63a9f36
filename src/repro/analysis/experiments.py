"""Memoised sweep runner: the one way a point is measured.

Several figures reuse the same (workload, machine, policy) points — e.g.
Figures 7 and 8 plot reliability and performance of the *same* five runs.
:class:`ExperimentRunner` caches results in memory and optionally on disk
(JSON), keyed by the content of the workload and of the machine, so each
point simulates exactly once per benchmark session.

:meth:`ExperimentRunner.run_matrix` measures by *sweeping*: each point
is one task, or each workload's points share one warmed checkpoint in
one task (``share_warmup=True``), and tasks fan out across the
crash-tolerant farm scheduler (:mod:`repro.analysis.farm`, ``jobs=N``)
with the disk cache as the merge point — flushed incrementally and
idempotently as points land, so a crash mid-sweep preserves every
completed point. Failing points are isolated and reported on the
returned :class:`MatrixResult` instead of tearing the sweep down.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, \
    Optional, Tuple, Union

from repro.common.io import atomic_write_json
from repro.common.params import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP, \
    MachineParams
from repro.core.runahead import RunaheadPolicy, get_policy
from repro.obs import log as obs_log
from repro.sim import SimResult, measure, warm_core
from repro.workloads.base import WorkloadSpec
from repro.workloads.catalog import get_workload

_log = obs_log.get_logger("sweep")


def workload_digest(spec: Any) -> str:
    """Content digest of a workload: the workload half of a point's key.

    A :class:`WorkloadSpec` is digested from its dataclass ``repr``,
    which covers every field, the seed and the phase schedule included.
    A trace-backed workload is its path plus the sha256 of the file, so
    a rewritten trace is a new point; an in-memory trace is its uops.
    No ``id()``-bearing default ``repr`` and no ``hash()`` is involved,
    so the digest is the same in every process and under every
    ``PYTHONHASHSEED``.
    """
    from repro.workloads.tracewl import MaterializedTraceWorkload, \
        TraceWorkload
    if isinstance(spec, WorkloadSpec):
        text = repr(spec)
    elif isinstance(spec, TraceWorkload):
        text = f"{spec.path}|{spec.file_sha256()}"
    elif isinstance(spec, MaterializedTraceWorkload):
        text = repr([(u.idx, u.pc, u.cls, u.srcs, u.addr, u.taken, u.target)
                     for u in spec.uops])
    else:
        raise TypeError(f"no content digest for workload {spec.name!r} "
                        f"of type {type(spec).__name__}")
    return hashlib.md5(text.encode()).hexdigest()[:10]


@dataclass(frozen=True)
class RunKey:
    """Cache key identifying one simulation point.

    ``config_digest`` covers the *full* machine configuration and
    ``workload_digest`` (:func:`workload_digest`) the full workload, so
    two machines or two workloads that share a display name but differ
    in any parameter, seed or trace byte never collide in the cache.
    ``variant`` tags results produced by an
    approximate run mode — shared-warmup points carry ``"sw:<policy>"``
    (the policy warmup ran under) and fast-warmup points carry
    ``"wm:fast"`` (composed as ``"wm:fast+sw:<policy>"`` when both
    apply) so they can never poison the cache entries of exact
    per-policy runs.
    """

    workload: str
    machine: str
    policy: str
    instructions: int
    warmup: int
    config_digest: str = ""
    variant: str = ""
    workload_digest: str = ""

    @staticmethod
    def digest(machine: MachineParams) -> str:
        return hashlib.md5(repr(machine).encode()).hexdigest()[:10]

    def as_str(self) -> str:
        workload = (f"{self.workload}@{self.workload_digest}"
                    if self.workload_digest else self.workload)
        base = (f"{workload}|{self.machine}|{self.policy}"
                f"|{self.instructions}|{self.warmup}|{self.config_digest}")
        return f"{base}|{self.variant}" if self.variant else base


#: Bump when SimResult's schema or the key format changes: stale on-disk
#: payloads would otherwise deserialise with silently-defaulted new
#: fields, or be served under keys that no longer identify a point.
_CACHE_SCHEMA = 3


def _variant(share_warmup: bool, policy: str, warmup_policy: str,
             warmup_mode: str = "detailed") -> str:
    """Cache-key variant for one point of a sweep.

    A detailed shared-warmup point measured under the *same* policy that
    warmed the checkpoint is bit-identical to a cold run, so it shares
    the exact-run cache slot; any other pairing is an approximation and
    gets its own tagged slot. A non-default ``warmup_mode`` always tags
    (``wm:fast``): fast-warmed results are approximate even when warmup
    and measurement policies match, so they must never alias exact runs.
    """
    parts = []
    if warmup_mode != "detailed":
        parts.append(f"wm:{warmup_mode}")
    if share_warmup and policy != warmup_policy:
        parts.append(f"sw:{warmup_policy}")
    return "+".join(parts)


#: Fault-injection hook: when this env var names a ``workload:policy``
#: pair, that point raises instead of simulating. It fires *inside* the
#: per-point isolation below, so tests and the CI farm smoke can force a
#: deterministic ``point_error`` through either execution path.
CHAOS_RAISE_ENV = "REPRO_FARM_RAISE"


def _chaos_maybe_raise(workload: str, policy: str) -> None:
    if os.environ.get(CHAOS_RAISE_ENV) == f"{workload}:{policy}":
        raise RuntimeError(
            f"chaos: injected failure for {workload}:{policy} "
            f"({CHAOS_RAISE_ENV})")


def _point_error(spec, machine, name: str, variant: str,
                 exc: BaseException, tb: str) -> Dict[str, Any]:
    return {"workload": spec.name, "machine": machine.name, "policy": name,
            "variant": variant, "error": repr(exc), "traceback": tb}


def _describe(spec: Any) -> str:
    seed = getattr(spec, "seed", None)
    return (f"{type(spec).__name__}({spec.name!r}"
            + ("" if seed is None else f", seed={seed}")
            + f", digest {workload_digest(spec)})")


class SweepTask(NamedTuple):
    """One sweep task: one point, or one workload's points under a
    shared warmup. Only picklable inputs (policy *names*, the ledger
    *path*): traces and checkpoints are rebuilt in the farm worker,
    because a :class:`~repro.isa.trace.Trace` buffers a generator."""

    spec: WorkloadSpec
    machine: MachineParams
    policies: Tuple[str, ...]
    instructions: int
    warmup: int
    share_warmup: bool
    warmup_policy: str
    stats_dir: Optional[str]
    validate: bool
    oracle: bool
    ledger_path: Optional[str]
    warmup_mode: str

    def variant(self, policy: str) -> str:
        """The cache-key variant of this task's point under ``policy``."""
        return _variant(self.share_warmup, policy, self.warmup_policy,
                        self.warmup_mode)


def _iter_group_points(task: SweepTask) -> Iterator[Dict[str, Any]]:
    """Simulate one sweep task, yielding one outcome per policy.

    Module-level so it runs unchanged in farm workers. Each point is one
    :func:`~repro.sim.measure` of a core from
    :func:`~repro.sim.warm_core` (``warmup_mode`` included) or, under a
    shared warmup, of a fork of the group's checkpoint.

    Each yielded outcome is a plain dict: successful points carry the
    ``SimResult.to_dict()`` payload under ``"payload"`` (and, with
    ``oracle``, the measured window's commit digest under
    ``"commit_digest"``); a raising point
    is **isolated** — its outcome carries ``"error"``/``"traceback"``
    instead and the remaining policies of the group still run, so one
    bad point can no longer discard its siblings' completed work. The
    one group-level failure mode left is the shared warmup itself
    raising, which fails every point of the group (there is nothing to
    measure from) — still isolated from *other* groups.

    Shared warmups go through the process-local
    :class:`~repro.checkpoint.CheckpointCache`, so a process warms each
    (workload, machine, policy, warmup) once across every group it
    runs, and forked farm workers inherit the parent's warm entries.

    With a ledger path, the worker appends its own life-cycle events
    (``worker_heartbeat`` / ``warmup_shared`` / ``point_start`` /
    ``point_done`` / ``point_error``) — every terminal event carries the
    per-point provenance manifest, so the ledger explains failures post
    mortem.
    """
    (spec, machine, policy_names, instructions, warmup, share_warmup,
     warmup_policy, stats_dir, validate, oracle, ledger_path,
     warmup_mode) = task
    ledger = None
    if ledger_path:
        from repro.obs.ledger import RunLedger
        ledger = RunLedger(ledger_path)
        ledger.worker_heartbeat(workload=spec.name,
                                group_points=len(policy_names), done=0)
    checkpoint = None
    if share_warmup:
        from repro.checkpoint import process_checkpoint_cache
        try:
            checkpoint = process_checkpoint_cache().get_or_warm(
                spec, machine, warmup_policy, warmup=warmup,
                validate=validate, ledger=ledger,
                warmup_mode=warmup_mode)
        except Exception as e:
            import traceback
            tb = traceback.format_exc()
            _log.error("shared warmup failed", exc_info=True, extra={
                "data": {"workload": spec.name}})
            for name in policy_names:
                variant = task.variant(name)
                if ledger is not None:
                    ledger.point_error(workload=spec.name,
                                       machine=machine.name, policy=name,
                                       variant=variant, error=repr(e),
                                       traceback_text=tb)
                yield _point_error(spec, machine, name, variant, e, tb)
            return
    for done, name in enumerate(policy_names):
        variant = task.variant(name)
        manifest = None
        if ledger is not None or stats_dir:
            from repro.obs.manifest import point_manifest
            manifest = point_manifest(spec.name, machine, name,
                                      instructions, warmup, variant=variant,
                                      warmup_mode=warmup_mode)
        if ledger is not None:
            ledger.point_start(workload=spec.name, machine=machine.name,
                               policy=name, variant=variant)
        telemetry = None
        if stats_dir:
            from repro.obs import Telemetry
            telemetry = Telemetry(interval=1000, profile=True)
        t0 = time.perf_counter()
        try:
            _chaos_maybe_raise(spec.name, name)
            if checkpoint is not None:
                core = checkpoint.fork(name, validate=validate,
                                       oracle=oracle)
                if telemetry is not None:
                    telemetry.attach(core)
            else:
                core, _ = warm_core(spec, machine, name, warmup,
                                    telemetry=telemetry, validate=validate,
                                    oracle=oracle, warmup_mode=warmup_mode)
            result = measure(core, instructions, spec.name)
        except Exception as e:
            import traceback
            tb = traceback.format_exc()
            if ledger is not None:
                ledger.point_error(workload=spec.name,
                                   machine=machine.name, policy=name,
                                   variant=variant, error=repr(e),
                                   traceback_text=tb, manifest=manifest)
            _log.error("point failed", exc_info=True, extra={"data": {
                "workload": spec.name, "policy": name}})
            yield _point_error(spec, machine, name, variant, e, tb)
            continue
        wall_s = time.perf_counter() - t0
        digest = {"commit_digest": core.oracle.digest()} if oracle else {}
        if telemetry is not None:
            path = os.path.join(
                stats_dir,
                f"{result.workload}_{result.machine}_{result.policy}.json")
            telemetry.write_stats(path, result, manifest=manifest)
        if ledger is not None:
            kips = (result.instructions / wall_s / 1000.0) if wall_s else 0.0
            ledger.point_done(workload=result.workload,
                              machine=result.machine, policy=result.policy,
                              variant=variant, wall_s=wall_s,
                              kips=round(kips, 2),
                              ipc=round(result.ipc, 4), manifest=manifest,
                              **digest)
            ledger.worker_heartbeat(workload=spec.name,
                                    group_points=len(policy_names),
                                    done=done + 1)
        _log.debug("point done", extra={"data": {
            "workload": spec.name, "policy": name,
            "wall_s": round(wall_s, 3)}})
        yield {"workload": result.workload, "machine": result.machine,
               "policy": result.policy, "variant": variant,
               "payload": result.to_dict(), **digest}


class MatrixResult(Dict[str, Dict[str, "SimResult"]]):
    """``run_matrix``'s return value: policy name -> workload -> result.

    A plain dict — existing callers index it unchanged — plus the
    sweep's failure records. Failed points no longer raise through the
    pool and discard their siblings' completed work; each is reported
    here as a dict with the point coordinates
    (``workload``/``machine``/``policy``/``variant``), the ``error``
    and ``traceback``, and a ``quarantined`` flag for points the farm
    scheduler gave up on after repeated worker deaths. Callers that
    want the old fail-loudly behaviour chain
    :meth:`raise_if_failed`. A sweep run with ``oracle=True`` also
    records ``commit_digests[(policy, workload)]``: the commit oracle's
    digest of each point it measured (cache-satisfied points have none).
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.failures: List[Dict[str, Any]] = []
        self.commit_digests: Dict[Tuple[str, str], str] = {}

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> "MatrixResult":
        if self.failures:
            first = self.failures[0]
            raise RuntimeError(
                f"{len(self.failures)} sweep point(s) failed; first: "
                f"{first['workload']}/{first['policy']}: {first['error']}")
        return self


class ExperimentRunner:
    """Runs and caches simulation points.

    Args:
        instructions: measured committed instructions per point.
        warmup: warmup instructions per point.
        cache_path: optional JSON file for cross-process persistence.
    """

    def __init__(self, instructions: int = DEFAULT_INSTRUCTIONS,
                 warmup: int = DEFAULT_WARMUP,
                 cache_path: Optional[str] = None):
        self.instructions = instructions
        self.warmup = warmup
        self.cache_path = cache_path
        self._cache: Dict[str, SimResult] = {}
        if cache_path and os.path.exists(cache_path):
            self._load_disk_cache()

    def run_matrix(
        self,
        workloads: Iterable[Union[str, WorkloadSpec]],
        machine: MachineParams,
        policies: Iterable[Union[str, RunaheadPolicy]],
        *,
        jobs: int = 1,
        share_warmup: bool = False,
        warmup_policy: Union[str, RunaheadPolicy] = "OOO",
        warmup_mode: str = "detailed",
        stats_dir: Optional[str] = None,
        validate: bool = False,
        oracle: bool = False,
        ledger: Optional[Any] = None,
    ) -> "MatrixResult":
        """Sweep the full matrix; returns policy name -> workload -> result.

        The result is keyed by workload *name*, so two workloads of one
        call must not share a name (``ValueError``); the cache keys each
        point by the workload's content (:func:`workload_digest`), so
        same-named workloads of different calls never alias. Each point
        is one task. With ``share_warmup`` a workload's
        points are instead one task that warms **once** under
        ``warmup_policy`` and forks the checkpoint for every measured
        policy — an explicit approximation (warmup
        behaviour is policy-dependent), cached under a ``sw:`` variant
        key so it never collides with exact per-policy runs.
        ``warmup_mode="fast"`` replaces the detailed warmup with the
        functional walk (:mod:`repro.core.fastfwd`) — warming per
        policy, or once per group when combined with ``share_warmup`` —
        and tags every result with a ``wm:fast`` variant so fast and
        exact points never share cache slots. ``validate``
        runs every point under the invariant sanitizer
        (:mod:`repro.validate`); sanitized results are bit-identical to
        unsanitized ones, so they share the same cache slots — but note
        cached points satisfied from the cache were not re-checked.
        ``oracle`` likewise lockstep-checks every point's retirement
        stream against the architectural oracle
        (:mod:`repro.validate.oracle`), also bit-identical, and records
        each measured point's commit digest in the result's
        ``commit_digests`` and its ``point_done`` ledger event.

        With ``jobs > 1`` tasks fan out across the crash-tolerant farm
        scheduler (:class:`~repro.analysis.farm.FarmScheduler`): results
        stream back per point (no barrier at task boundaries), work
        held by a SIGKILLed worker is requeued with bounded retries, and
        points that repeatedly kill their worker are quarantined. A
        raising point is isolated by the task runner either way and
        reported in the returned :class:`MatrixResult`'s ``failures``
        instead of tearing the sweep down.

        The in-memory/disk cache is the merge point. Disk flushes are
        incremental — after every point in farm mode, after every task
        serially — and idempotent (keyed, read-merge-write), so a crash
        mid-sweep preserves every completed point and a requeued retry
        merges over its own partial flush harmlessly.

        ``ledger`` (a path or :class:`~repro.obs.ledger.RunLedger`)
        records the sweep's life cycle as an append-only JSONL event
        stream — sweep envelope, per-point terminal events with
        provenance manifests, worker heartbeats, requeue/quarantine
        records — tailable live with ``repro top``. Purely
        observational: results are bit-identical with the ledger on or
        off. Worker log records are routed back through the parent's
        handlers via a multiprocessing queue, so
        ``--log-json``/``--quiet`` apply to workers too.
        """
        from repro.core.fastfwd import validate_warmup_mode
        validate_warmup_mode(warmup_mode)
        specs = [get_workload(w) if isinstance(w, str) else w
                 for w in workloads]
        wdigests: Dict[str, str] = {}
        for spec in specs:
            if spec.name in wdigests:
                first = next(s for s in specs if s.name == spec.name)
                raise ValueError(
                    f"two workloads share the label {spec.name!r}: "
                    f"{_describe(first)} and {_describe(spec)}; results "
                    f"are keyed by name, so give each a distinct name")
            wdigests[spec.name] = workload_digest(spec)
        pols = [get_policy(p) if isinstance(p, str) else p for p in policies]
        wp = (get_policy(warmup_policy) if isinstance(warmup_policy, str)
              else warmup_policy)
        if stats_dir:
            os.makedirs(stats_dir, exist_ok=True)
        if isinstance(ledger, str):
            from repro.obs.ledger import RunLedger
            ledger = RunLedger(ledger)
        t_start = time.perf_counter()
        if ledger is not None:
            from repro.obs.manifest import host_manifest
            ledger.sweep_start(
                total_points=len(specs) * len(pols),
                machine=machine.name,
                workloads=[s.name for s in specs],
                policies=[p.name for p in pols],
                jobs=jobs, share_warmup=share_warmup,
                warmup_policy=wp.name, warmup_mode=warmup_mode,
                instructions=self.instructions,
                warmup=self.warmup, manifest=host_manifest())
            _log.info("sweep start", extra={"data": {
                "points": len(specs) * len(pols), "machine": machine.name,
                "jobs": jobs, "ledger": ledger.path}})

        out = MatrixResult()
        digest = RunKey.digest(machine)

        def point_key(workload: str, policy: str, variant: str) -> str:
            return RunKey(workload, machine.name, policy, self.instructions,
                          self.warmup, digest, variant,
                          wdigests[workload]).as_str()

        tasks: List[SweepTask] = []
        n_cached = 0
        for spec in specs:
            missing: List[str] = []
            for pol in pols:
                variant = _variant(share_warmup, pol.name, wp.name,
                                   warmup_mode)
                key = point_key(spec.name, pol.name, variant)
                cached = self._cache.get(key)
                if cached is not None:
                    out.setdefault(pol.name, {})[spec.name] = cached
                    n_cached += 1
                    if stats_dir:
                        # Render the artifact from the cached result
                        # instead of silently re-simulating the point.
                        self._write_cached_stats(stats_dir, cached,
                                                 machine, variant,
                                                 warmup_mode)
                    if ledger is not None:
                        from repro.obs.manifest import point_manifest
                        ledger.point_cached(
                            workload=spec.name, machine=machine.name,
                            policy=pol.name, variant=variant, key=key,
                            manifest=point_manifest(
                                spec.name, machine, pol.name,
                                self.instructions, self.warmup,
                                variant=variant,
                                warmup_mode=warmup_mode))
                else:
                    missing.append(pol.name)
            # A shared warmup is one task per workload; otherwise every
            # point is its own task, so one workload still fans out.
            groups = ([tuple(missing)] if share_warmup and missing
                      else [(name,) for name in missing])
            tasks.extend(SweepTask(
                spec, machine, group, self.instructions, self.warmup,
                share_warmup, wp.name, stats_dir, validate, oracle,
                ledger.path if ledger is not None else None, warmup_mode)
                for group in groups)
        if not tasks:
            if ledger is not None:
                ledger.sweep_done(elapsed_s=time.perf_counter() - t_start,
                                  points_run=0, points_cached=n_cached)
            return out

        seen_keys: set = set()
        n_run = 0

        def _absorb(outcome: Dict[str, Any]) -> None:
            """Merge one streamed point outcome (idempotent per key)."""
            nonlocal n_run
            if "payload" in outcome:
                result = SimResult.from_dict(outcome["payload"])
                key = point_key(result.workload, result.policy,
                                outcome.get("variant", ""))
                if key not in seen_keys:
                    seen_keys.add(key)
                    n_run += 1
                self._cache[key] = result
                out.setdefault(result.policy, {})[result.workload] = result
                if "commit_digest" in outcome:
                    out.commit_digests[(result.policy, result.workload)] = \
                        outcome["commit_digest"]
            else:
                out.failures.append({
                    "workload": outcome["workload"],
                    "machine": outcome["machine"],
                    "policy": outcome["policy"],
                    "variant": outcome.get("variant", ""),
                    "error": outcome.get("error", ""),
                    "traceback": outcome.get("traceback", ""),
                    "quarantined": bool(outcome.get("quarantined")),
                })

        if jobs > 1 and len(tasks) > 1:
            from repro.analysis.farm import FarmScheduler

            def _on_point(outcome: Dict[str, Any]) -> None:
                _absorb(outcome)
                if self.cache_path and "payload" in outcome:
                    self._save_disk_cache()

            with FarmScheduler(min(jobs, len(tasks)),
                               ledger=ledger) as farm:
                farm.run(tasks, on_point=_on_point)
        else:
            for task in tasks:
                for outcome in _iter_group_points(task):
                    _absorb(outcome)
                if self.cache_path:
                    self._save_disk_cache()

        if self.cache_path:
            self._save_disk_cache()
        if ledger is not None:
            elapsed = time.perf_counter() - t_start
            ledger.sweep_done(elapsed_s=elapsed, points_run=n_run,
                              points_cached=n_cached,
                              points_failed=len(out.failures))
            _log.info("sweep done", extra={"data": {
                "run": n_run, "cached": n_cached,
                "failed": len(out.failures),
                "elapsed_s": round(elapsed, 3)}})
        return out

    # ------------------------------------------------------------- internal

    def _write_cached_stats(self, stats_dir: str, result: SimResult,
                            machine: MachineParams, variant: str,
                            warmup_mode: str = "detailed") -> None:
        """Render a stats artifact for a cache-satisfied point.

        A cached point was historically re-simulated whenever
        ``stats_dir`` was set; now the artifact is rendered from the
        cached :class:`SimResult`. It carries the result and provenance
        manifests but no registry/timeline sections — those exist only
        on a live core — and its point manifest is tagged
        ``from_cache`` so a reader can tell the two apart.
        """
        from repro.obs import Telemetry
        from repro.obs.manifest import point_manifest
        manifest = point_manifest(result.workload, machine, result.policy,
                                  self.instructions, self.warmup,
                                  variant=variant, warmup_mode=warmup_mode)
        manifest["from_cache"] = True
        path = os.path.join(
            stats_dir,
            f"{result.workload}_{result.machine}_{result.policy}.json")
        Telemetry().write_stats(path, result, manifest=manifest)

    # ---------------------------------------------------------- disk cache

    def _read_disk_payloads(self) -> Dict[str, Any]:
        """The on-disk cache's raw ``key -> payload`` map (or empty).

        A file that cannot be read or parsed, or that carries another
        schema, is renamed aside to ``<path>.bad-<n>`` before anything
        else is written: the read-merge-write in :meth:`_save_disk_cache`
        would otherwise replace it, losing every entry it held.
        """
        try:
            with open(self.cache_path) as f:
                raw = json.load(f)
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as e:
            self._set_aside_bad_cache(f"unreadable ({e})")
            return {}
        if not isinstance(raw, dict) or raw.get("schema") != _CACHE_SCHEMA:
            self._set_aside_bad_cache(
                f"not a result cache of schema {_CACHE_SCHEMA}")
            return {}
        data = raw.get("data", {})
        if not isinstance(data, dict):
            self._set_aside_bad_cache("without a key -> result map")
            return {}
        return data

    def _set_aside_bad_cache(self, why: str) -> None:
        """Rename the cache file to the first free ``<path>.bad-<n>``."""
        path = self.cache_path
        n = 0
        while os.path.exists(f"{path}.bad-{n}"):
            n += 1
        bad = f"{path}.bad-{n}"
        try:
            os.rename(path, bad)
            outcome = f"moved it to {bad} and started an empty cache"
        except OSError as e:
            outcome = f"could not move it to {bad}: {e}"
        _log.warning(f"result cache {path} is {why}; {outcome}",
                     extra={"data": {"path": path, "bad_path": bad}})

    def _load_disk_cache(self) -> None:
        for key, payload in self._read_disk_payloads().items():
            try:
                self._cache[key] = SimResult.from_dict(payload)
            except TypeError as e:
                _log.warning(
                    f"result cache {self.cache_path}: entry {key} is "
                    f"unusable ({e}); recomputing it",
                    extra={"data": {"path": self.cache_path, "key": key,
                                    "reason": str(e)}})

    def _save_disk_cache(self) -> None:
        """Merge this runner's results into the disk cache, atomically.

        Read-merge-write: the current file's entries are re-read and
        this runner's overlaid per key, so incremental flushes mid-sweep
        and several runners sharing one cache path union their points
        instead of clobbering whole files. Re-flushing after a retried
        point rewrites the same key with the same payload — idempotent
        by construction, which is what lets the farm requeue work
        without double-merge hazards.
        """
        from repro.obs.manifest import host_manifest
        merged = self._read_disk_payloads()
        merged.update({k: v.to_dict() for k, v in self._cache.items()})
        payload = {
            "schema": _CACHE_SCHEMA,
            # Provenance of the *last writer*: cached results are only
            # auditable if the cache records what produced them.
            "manifest": host_manifest(),
            "data": merged,
        }
        try:
            atomic_write_json(self.cache_path, payload)
        except OSError:
            pass  # cache is an optimisation, never a failure

