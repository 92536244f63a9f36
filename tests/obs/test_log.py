"""Central logging layer: formatters, configure, worker queue path."""

import io
import json
import logging

import pytest

from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def _clean_logging():
    """Every test starts and ends unconfigured (no handler leakage)."""
    obs_log.reset()
    yield
    obs_log.reset()


class TestGetLogger:
    def test_namespaced_child(self):
        assert obs_log.get_logger("sweep").name == "repro.sweep"
        assert obs_log.get_logger().name == "repro"

    def test_unconfigured_has_null_handler(self, capsys):
        obs_log.get_logger("x").warning("dropped")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert not obs_log.is_configured()


class TestConfigure:
    def test_human_format_with_data(self):
        buf = io.StringIO()
        obs_log.configure(stream=buf)
        assert obs_log.is_configured()
        obs_log.get_logger("sweep").info(
            "point done", extra={"data": {"kips": 12.345, "n": 4}})
        assert buf.getvalue() == "[repro] point done kips=12.3 n=4\n"

    def test_warning_level_tagged(self):
        buf = io.StringIO()
        obs_log.configure(stream=buf)
        obs_log.get_logger().warning("uh oh")
        assert buf.getvalue().startswith("[repro:warning] uh oh")

    def test_json_lines(self):
        buf = io.StringIO()
        obs_log.configure(json_lines=True, stream=buf)
        obs_log.get_logger("sweep").info(
            "sweep start", extra={"data": {"jobs": 2}})
        rec = json.loads(buf.getvalue())
        assert rec["level"] == "info"
        assert rec["logger"] == "repro.sweep"
        assert rec["msg"] == "sweep start"
        assert rec["data"] == {"jobs": 2}
        assert rec["ts"] > 0

    def test_json_exception_field(self):
        buf = io.StringIO()
        obs_log.configure(json_lines=True, stream=buf)
        try:
            raise ValueError("boom")
        except ValueError:
            obs_log.get_logger().error("point failed", exc_info=True)
        rec = json.loads(buf.getvalue())
        assert "ValueError: boom" in rec["exc"]

    def test_quiet_suppresses_info(self):
        buf = io.StringIO()
        obs_log.configure(quiet=True, stream=buf)
        log = obs_log.get_logger()
        log.info("hidden")
        log.warning("shown")
        assert "hidden" not in buf.getvalue()
        assert "shown" in buf.getvalue()

    def test_verbose_enables_debug(self):
        buf = io.StringIO()
        obs_log.configure(verbose=True, stream=buf)
        obs_log.get_logger().debug("detail")
        assert "detail" in buf.getvalue()
        obs_log.configure(stream=buf)  # default level hides debug again
        obs_log.get_logger().debug("gone")
        assert "gone" not in buf.getvalue()

    def test_reconfigure_does_not_stack_handlers(self):
        for _ in range(3):
            obs_log.configure(stream=io.StringIO())
        root = logging.getLogger(obs_log.ROOT_NAME)
        assert len(root.handlers) == 1
        buf = io.StringIO()
        obs_log.configure(stream=buf)
        obs_log.get_logger().info("once")
        assert buf.getvalue().count("once") == 1

    def test_reset_restores_unconfigured(self):
        obs_log.configure(stream=io.StringIO())
        obs_log.reset()
        assert not obs_log.is_configured()
        root = logging.getLogger(obs_log.ROOT_NAME)
        assert all(isinstance(h, logging.NullHandler)
                   for h in root.handlers)

    def test_reset_lets_caplog_see_records_again(self, caplog):
        # configure() stops propagation to the root logger; reset() must
        # restore it, or caplog (a root handler) misses every record.
        obs_log.configure(stream=io.StringIO())
        obs_log.reset()
        assert logging.getLogger(obs_log.ROOT_NAME).propagate
        with caplog.at_level(logging.WARNING):
            obs_log.get_logger("sweep").warning("cache unwritable")
        assert [r.getMessage() for r in caplog.records] == \
            ["cache unwritable"]


class TestWorkerQueuePath:
    def test_records_cross_the_queue(self):
        """install_worker_handler + start_listener round-trip a record
        through a real multiprocessing queue into the parent handler."""
        buf = io.StringIO()
        obs_log.configure(stream=buf)
        queue = obs_log.worker_log_queue()
        with obs_log.start_listener(queue):
            # Simulate the worker side in-process: swap in the queue
            # handler, log, then restore the parent configuration.
            obs_log.install_worker_handler(queue)
            obs_log.get_logger("worker").info(
                "from worker", extra={"data": {"pid": 1}})
            obs_log.configure(stream=buf)
        assert "[repro] from worker pid=1" in buf.getvalue()

    def test_listener_stop_is_idempotent(self):
        obs_log.configure(stream=io.StringIO())
        queue = obs_log.worker_log_queue()
        handle = obs_log.start_listener(queue)
        handle.stop()
        handle.stop()  # second stop must not raise
