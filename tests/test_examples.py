"""Example scripts: importable, documented, and runnable (smoke)."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")
EXAMPLES = sorted(
    f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py"))


def load(name):
    path = os.path.join(EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location(
        f"example_{name[:-3]}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExamples:
    def test_expected_set_present(self):
        for required in ("quickstart.py", "design_space.py",
                         "custom_workload.py", "reliability_report.py",
                         "scaling_study.py", "pipeline_trace.py"):
            assert required in EXAMPLES

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_importable_with_docstring_and_main(self, name):
        mod = load(name)
        assert mod.__doc__ and "Usage" in mod.__doc__
        assert callable(getattr(mod, "main", None))

    def test_quickstart_runs_small(self, capsys, monkeypatch):
        mod = load("quickstart.py")
        monkeypatch.setattr(sys, "argv", ["quickstart.py", "x264", "800"])
        mod.main()
        out = capsys.readouterr().out
        assert "MTTF vs OoO" in out

    def test_custom_workload_builds(self):
        mod = load("custom_workload.py")
        spec = mod.build_workload()
        assert spec.name == "custom-hybrid"
        assert spec.build_trace().get(50) is not None
