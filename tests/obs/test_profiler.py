"""HostProfiler heartbeat: throttle gate and log routing."""

import io
import types

import pytest

from repro.obs import log as obs_log
from repro.obs.profiler import HostProfiler


@pytest.fixture(autouse=True)
def _clean_logging():
    obs_log.reset()
    yield
    obs_log.reset()


def _core(cycle=1000, committed=500):
    return types.SimpleNamespace(
        cycle=cycle, stats=types.SimpleNamespace(committed=committed))


def _started(heartbeat_s=1e-9):
    """A profiler mid-region whose heartbeat period has already passed."""
    prof = HostProfiler(heartbeat_s=heartbeat_s)
    prof._t0 = 0.0
    prof._start_committed = 0
    prof._hb_next = 0.0
    return prof


class TestHeartbeatGate:
    def test_disabled_without_period(self, capsys):
        prof = HostProfiler()
        for _ in range(1024):
            prof.maybe_heartbeat(_core())
        assert prof.heartbeats == 0
        assert capsys.readouterr().err == ""

    def test_256_call_gate(self):
        """perf_counter is consulted only every 256th call, so the first
        255 calls never heartbeat even with the period long expired."""
        prof = _started()
        for _ in range(255):
            prof.maybe_heartbeat(_core())
        assert prof.heartbeats == 0
        prof.maybe_heartbeat(_core())  # call 256 passes the gate
        assert prof.heartbeats == 1

    def test_period_throttles(self):
        prof = _started(heartbeat_s=3600.0)
        for _ in range(1024):
            prof.maybe_heartbeat(_core())
        assert prof.heartbeats == 1  # first fires, then next-period gate

    def test_not_started_never_fires(self):
        prof = HostProfiler(heartbeat_s=1e-9)
        for _ in range(512):
            prof.maybe_heartbeat(_core())
        assert prof.heartbeats == 0


class TestHeartbeatRouting:
    def _fire(self, prof):
        for _ in range(256):
            prof.maybe_heartbeat(_core(cycle=4242, committed=1234))

    def test_routes_through_logging_when_configured(self):
        buf = io.StringIO()
        obs_log.configure(stream=buf)
        prof = _started()
        self._fire(prof)
        assert "heartbeat" in buf.getvalue()
        assert "cycle=4242" in buf.getvalue()
        assert "committed=1234" in buf.getvalue()

    def test_json_logging_structures_heartbeat(self):
        import json
        buf = io.StringIO()
        obs_log.configure(json_lines=True, stream=buf)
        prof = _started()
        self._fire(prof)
        rec = json.loads(buf.getvalue())
        assert rec["msg"] == "heartbeat"
        assert rec["data"]["cycle"] == 4242
        assert rec["data"]["committed"] == 1234
        assert "kips" in rec["data"]

    def test_quiet_silences_heartbeat(self):
        buf = io.StringIO()
        obs_log.configure(quiet=True, stream=buf)
        prof = _started()
        self._fire(prof)
        assert prof.heartbeats == 1  # fired, but filtered by level
        assert buf.getvalue() == ""

    def test_unconfigured_falls_back_to_stderr(self, capsys):
        prof = _started()
        self._fire(prof)
        err = capsys.readouterr().err
        assert err.startswith("[repro] cycle 4242 committed 1234")
        assert "KIPS" in err
