"""Tests for the discrete-event simulator."""

import pytest

from repro.perf.des import Simulator
from repro.obs.export import sims_to_chrome_json as trace_to_chrome_json


class TestSimulatorBasics:
    def test_single_task(self):
        sim = Simulator()
        sim.add("a", 2.0)
        assert sim.run() == pytest.approx(2.0)

    def test_serial_chain(self):
        sim = Simulator()
        sim.add("a", 1.0)
        sim.add("b", 2.0, deps=["a"])
        sim.add("c", 3.0, deps=["b"])
        assert sim.run() == pytest.approx(6.0)

    def test_parallel_independent_tasks(self):
        sim = Simulator()
        sim.add("a", 5.0, resources=["r1"])
        sim.add("b", 3.0, resources=["r2"])
        assert sim.run() == pytest.approx(5.0)

    def test_resource_contention_serialises(self):
        sim = Simulator()
        sim.add("a", 2.0, resources=["gpu"])
        sim.add("b", 2.0, resources=["gpu"])
        assert sim.run() == pytest.approx(4.0)

    def test_diamond_dependencies(self):
        sim = Simulator()
        sim.add("src", 1.0)
        sim.add("left", 2.0, deps=["src"], resources=["r1"])
        sim.add("right", 5.0, deps=["src"], resources=["r2"])
        sim.add("sink", 1.0, deps=["left", "right"])
        assert sim.run() == pytest.approx(7.0)

    def test_fifo_tiebreak(self):
        sim = Simulator()
        sim.add("first", 1.0, resources=["r"])
        sim.add("second", 1.0, resources=["r"])
        sim.run()
        assert sim.tasks["first"].start < sim.tasks["second"].start

    def test_pipeline_overlap(self):
        """Classic 2-stage pipeline: makespan = first + N * max(stage)."""
        sim = Simulator()
        n, ta, tb = 4, 1.0, 2.0
        for i in range(n):
            deps_a = [f"a{i-1}"] if i else []
            sim.add(f"a{i}", ta, resources=["A"], deps=deps_a)
            sim.add(f"b{i}", tb, resources=["B"], deps=[f"a{i}"])
        assert sim.run() == pytest.approx(ta + n * tb)

    def test_zero_duration_tasks(self):
        sim = Simulator()
        sim.add("a", 0.0)
        sim.add("b", 0.0, deps=["a"])
        sim.add("c", 1.0, deps=["b"])
        assert sim.run() == pytest.approx(1.0)


class TestSimulatorValidation:
    def test_duplicate_name_rejected(self):
        sim = Simulator()
        sim.add("a", 1.0)
        with pytest.raises(ValueError):
            sim.add("a", 1.0)

    def test_unknown_dependency_rejected(self):
        sim = Simulator()
        sim.add("a", 1.0, deps=["ghost"])
        with pytest.raises(ValueError, match="unknown"):
            sim.run()

    def test_cycle_detected(self):
        sim = Simulator()
        sim.add("a", 1.0, deps=["b"])
        sim.add("b", 1.0, deps=["a"])
        with pytest.raises(ValueError, match="cycle|deadlock"):
            sim.run()

    def test_negative_duration_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.add("a", -1.0)

    def test_critical_path_bound(self):
        sim = Simulator()
        sim.add("a", 1.0, resources=["r"])
        sim.add("b", 2.0, deps=["a"], resources=["r"])
        sim.add("c", 4.0, resources=["r"])
        lower = sim.critical_path_lower_bound()
        assert lower == pytest.approx(4.0)
        assert sim.run() >= lower


class TestTraceExport:
    def test_chrome_trace_json(self, tmp_path):
        import json

        sim = Simulator()
        sim.add("compute0", 1.0, resources=["compute"])
        sim.add("comm0", 0.5, resources=["intra"], deps=["compute0"])
        sim.run()
        path = tmp_path / "trace.json"
        payload = trace_to_chrome_json(sim, str(path))
        data = json.loads(payload)
        names = [e["name"] for e in data["traceEvents"]]
        assert "compute0" in names and "comm0" in names
        assert path.exists()
