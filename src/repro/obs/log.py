"""Central logging layer for the simulator and the sweep orchestrator.

All diagnostic output — profiler heartbeats, sweep progress, worker
health — goes through stdlib :mod:`logging` under the ``"repro"``
namespace so one configuration point controls verbosity and format:

- :func:`configure` wires the root ``repro`` logger to **stderr**
  (human output stays on stdout) with either a compact human formatter
  or a JSON-lines formatter (``--log-json``); ``--quiet`` raises the
  threshold to WARNING, ``--verbose`` lowers it to DEBUG.
- Structured fields ride on the standard ``extra`` mechanism under a
  single ``data`` key: ``log.info("point done", extra={"data":
  {"kips": 12.3}})``. The human formatter renders them as trailing
  ``key=value`` pairs, the JSON formatter embeds them verbatim.
- Multiprocessing safety: pool workers must not write to one stderr
  stream concurrently (interleaved lines) nor inherit file handlers.
  :func:`worker_log_queue` + :func:`install_worker_handler` route every
  worker record through a ``multiprocessing`` queue drained by a
  ``QueueListener`` in the parent — the pattern from the stdlib logging
  cookbook. ``ExperimentRunner.run_matrix`` installs this automatically
  around its pool.

When :func:`configure` was never called (library use), the ``repro``
logger carries a ``NullHandler`` so records vanish silently instead of
triggering the root logger's "no handlers" warning; callers that need
output without configuration (the profiler heartbeat's legacy stream
mode) can check :func:`is_configured`.
"""

import io
import json
import logging
import logging.handlers
import sys
import time
from typing import Any, Dict, Optional

__all__ = [
    "JsonLineFormatter",
    "configure",
    "get_logger",
    "install_worker_handler",
    "is_configured",
    "start_listener",
    "worker_log_queue",
]

ROOT_NAME = "repro"

_configured = False


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace (``repro.<name>``)."""
    root = logging.getLogger(ROOT_NAME)
    if not root.handlers:
        root.addHandler(logging.NullHandler())
    return root.getChild(name) if name else root


def is_configured() -> bool:
    """True once :func:`configure` has installed a real handler."""
    return _configured


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, msg, data."""

    def format(self, record: logging.LogRecord) -> str:
        out: Dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        data = getattr(record, "data", None)
        if data:
            out["data"] = data
        if record.exc_info:
            out["exc"] = self.formatException(record.exc_info)
        return json.dumps(out, separators=(",", ":"), default=str)


class HumanFormatter(logging.Formatter):
    """``[repro] msg key=value ...`` — terse, grep-friendly stderr."""

    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        data = getattr(record, "data", None)
        if data:
            msg += " " + " ".join(f"{k}={_fmt(v)}" for k, v in data.items())
        prefix = f"[{ROOT_NAME}]"
        if record.levelno >= logging.WARNING:
            prefix = f"[{ROOT_NAME}:{record.levelname.lower()}]"
        line = f"{prefix} {msg}"
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def configure(json_lines: bool = False, quiet: bool = False,
              verbose: bool = False, stream: Optional[io.IOBase] = None,
              ) -> logging.Logger:
    """(Re)configure the ``repro`` logger; returns it.

    Idempotent: the previous configuration's handlers are replaced, so
    tests and repeated CLI entry calls never stack duplicate handlers.
    ``quiet`` wins over ``verbose`` when both are passed.
    """
    global _configured
    root = logging.getLogger(ROOT_NAME)
    for h in list(root.handlers):
        root.removeHandler(h)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonLineFormatter() if json_lines
                         else HumanFormatter())
    root.addHandler(handler)
    if quiet:
        root.setLevel(logging.WARNING)
    elif verbose:
        root.setLevel(logging.DEBUG)
    else:
        root.setLevel(logging.INFO)
    root.propagate = False
    _configured = True
    return root


def reset() -> None:
    """Undo :func:`configure` (tests): drop handlers, propagate to the
    root logger again, mark unconfigured."""
    global _configured
    root = logging.getLogger(ROOT_NAME)
    for h in list(root.handlers):
        root.removeHandler(h)
    root.addHandler(logging.NullHandler())
    root.setLevel(logging.NOTSET)
    root.propagate = True
    _configured = False


# ------------------------------------------------------- multiprocessing

def worker_log_queue(ctx=None):
    """A queue for shipping worker log records to the parent."""
    if ctx is None:
        import multiprocessing as mp
        ctx = mp
    return ctx.Queue()


def install_worker_handler(queue) -> None:
    """Called inside a pool worker (initializer): replace the inherited
    handlers with a ``QueueHandler`` so records cross the process
    boundary as pickled records, serialised by the parent's listener."""
    root = logging.getLogger(ROOT_NAME)
    for h in list(root.handlers):
        root.removeHandler(h)
    root.addHandler(logging.handlers.QueueHandler(queue))
    root.propagate = False


class _ListenerHandle:
    """Context manager stopping the listener (and flushing the queue)."""

    def __init__(self, listener):
        self._listener = listener

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
            self._listener = None


def start_listener(queue) -> _ListenerHandle:
    """Drain ``queue`` through the parent's configured handlers.

    Records re-enter the parent's ``repro`` logger handlers directly
    (level-filtered at the worker side already), so quiet/verbose/json
    settings apply to worker output exactly as to local output.
    """
    root = logging.getLogger(ROOT_NAME)
    listener = logging.handlers.QueueListener(
        queue, *root.handlers, respect_handler_level=True)
    listener.start()
    return _ListenerHandle(listener)


def now() -> float:
    """Wall-clock timestamp helper (one seam for tests to patch)."""
    return time.time()
