"""Provenance manifests: who/what/where produced an artifact.

Simulator claims are only as trustworthy as the recorded provenance
behind them — a cached sweep point or a stats file with no record of
the code revision, parameters and host that produced it cannot be
audited or reproduced. Every stats/cache/ledger artifact therefore
carries a manifest:

- ``git_sha`` / ``git_dirty``: the repository revision (and whether the
  working tree had uncommitted changes — a dirty run is reproducible
  only by accident).
- ``params_digest``: :meth:`RunKey.digest` of the machine configuration,
  so a manifest pins the *full* parameter set, not just its display
  name; ``workload_digest`` does the same for the workload.
- ``seed``, run sizes, and the package/interpreter versions, hostname
  and timestamp.

:func:`host_manifest` (expensive parts cached per process) describes
the environment once per sweep; :func:`point_manifest` derives the
small per-point record embedded in ledger events and stats files.
"""

import os
import platform
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Optional

__all__ = ["MANIFEST_SCHEMA", "git_state", "host_manifest", "point_manifest"]

MANIFEST_SCHEMA = "repro-manifest-v1"

_git_state: Optional[Dict[str, Any]] = None


def git_state(cwd: Optional[str] = None) -> Dict[str, Any]:
    """``{"sha": ..., "dirty": ...}``; cached after the first probe.

    The default probe anchors at this package's source directory — not
    the process cwd — so provenance names the revision of the *code*
    even when the CLI runs from an unrelated directory. Outside a git
    checkout (installed package, exported tarball) both fields degrade
    to ``None`` rather than failing — provenance is best-effort
    context, never a run blocker.
    """
    global _git_state
    if _git_state is not None and cwd is None:
        return _git_state
    probe_cwd = cwd if cwd is not None else os.path.dirname(
        os.path.abspath(__file__))
    state: Dict[str, Any] = {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=probe_cwd,
            capture_output=True, text=True, timeout=5)
        if sha.returncode == 0:
            state["sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=probe_cwd,
                capture_output=True, text=True, timeout=5)
            if status.returncode == 0:
                state["dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    if cwd is None:
        _git_state = state
    return state


def host_manifest(extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The full environment record, stamped once per sweep/artifact."""
    from repro import __version__

    git = git_state()
    out: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git["sha"],
        "git_dirty": git["dirty"],
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
    }
    if extra:
        out.update(extra)
    return out


def point_manifest(workload, machine, policy: str,
                   instructions: int, warmup: int,
                   variant: str = "",
                   warmup_mode: str = "detailed") -> Dict[str, Any]:
    """The per-point provenance record: run key coordinates + revision.

    ``workload`` is the measured workload object, recorded by name, seed
    and content digest (:func:`~repro.analysis.experiments.workload_digest`),
    so a reseeded or edited workload under a catalog name is told apart.
    ``machine`` may be a :class:`MachineParams` (digested via
    :meth:`RunKey.digest`) or an already-computed digest string.
    ``warmup_mode`` records how the point's warmup region was produced
    (``detailed`` pipeline vs ``fast`` functional walk) so mixed-mode
    sweeps stay auditable per point.
    """
    from repro.analysis.experiments import RunKey, workload_digest

    if isinstance(machine, str):
        machine_name, digest = machine, ""
    else:
        machine_name, digest = machine.name, RunKey.digest(machine)
    git = git_state()
    out = {
        "workload": workload.name,
        "machine": machine_name,
        "policy": policy,
        "instructions": instructions,
        "warmup": warmup,
        "warmup_mode": warmup_mode,
        "seed": getattr(workload, "seed", None),
        "workload_digest": workload_digest(workload),
        "variant": variant,
        "params_digest": digest,
        "git_sha": git["sha"],
        "git_dirty": git["dirty"],
    }
    out.update(_workload_provenance(workload))
    return out


def _workload_provenance(workload) -> Dict[str, Any]:
    """Scenario-specific provenance: phased workloads record their
    schedule length, trace-backed workloads the backing file + content
    hash (a re-imported or edited trace is a *different* experiment)."""
    from repro.workloads.tracewl import TraceWorkload
    if isinstance(workload, TraceWorkload):
        return {"trace_file": workload.path,
                "trace_sha256": workload.file_sha256(),
                "trace_format_version": workload.version}
    phases = getattr(workload, "phases", ())
    if phases:
        return {"phase_count": len(phases),
                "phase_schedule_iters": sum(p.duration for p in phases)}
    return {}
