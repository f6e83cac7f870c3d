"""CLI smoke tests: the harness entry points behave as documented.

Exit codes are part of the contract — CI wires these commands directly,
so 0-on-pass / 1-on-injected-failure is asserted through real subprocess
invocations, PYTHONPATH and all.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
    )


class TestVerifyCLI:
    def test_single_method_passes(self):
        proc = run_cli("repro.attention.verify", "burst")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[PASS] burst" in proc.stdout


class TestFuzzCLI:
    def test_smoke_sweep_exits_zero(self):
        proc = run_cli("repro.testing.fuzz", "--smoke", "--seed", "0",
                       "--budget", "6", "--quiet")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 failure(s)" in proc.stdout

    def test_injected_fault_exits_one_with_repro(self):
        proc = run_cli("repro.testing.fuzz", "--smoke", "--seed", "0",
                       "--budget", "2", "--fault", "corrupt", "--quiet")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "repro: python -m repro.testing.fuzz --case" in proc.stdout

    def test_case_replay_round_trip(self):
        """A repro line printed by the fuzzer replays to the same verdict."""
        proc = run_cli("repro.testing.fuzz", "--smoke", "--seed", "0",
                       "--budget", "2", "--fault", "drop", "--quiet")
        assert proc.returncode == 1
        repro_line = next(
            line for line in proc.stdout.splitlines() if "repro:" in line
        )
        spec = repro_line.split('"')[1]
        replay = run_cli("repro.testing.fuzz", "--case", spec,
                         "--fault", "drop")
        assert replay.returncode == 1, replay.stdout + replay.stderr
        # and without the fault the same case is clean
        clean = run_cli("repro.testing.fuzz", "--case", spec)
        assert clean.returncode == 0, clean.stdout + clean.stderr

    def test_unknown_fault_rejected(self):
        proc = run_cli("repro.testing.fuzz", "--fault", "gamma-ray")
        assert proc.returncode == 2  # argparse usage error


class TestGoldenCLI:
    def test_check_passes_against_fixtures(self):
        proc = run_cli("repro.testing.golden", "burst", "ulysses")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[PASS] golden burst" in proc.stdout

    def test_update_writes_to_alternate_dir(self, tmp_path):
        proc = run_cli("repro.testing.golden", "burst", "--update",
                       "--dir", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / "burst.npz").exists()


class TestObsCLI:
    def test_trace_step_usp_exits_zero(self, tmp_path):
        """The traced quickstart takes USP's default degree (it used to
        build ``USPMethod`` with none and die with a raw ``TypeError``),
        and the observed schedule matches the predicted one."""
        out = str(tmp_path)
        proc = run_cli("repro.obs", "trace-step", "--method", "usp",
                       "--gpus", "4", "--gpus-per-node", "4", "--out-dir", out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / "predicted.json").exists()
        diff = run_cli("repro.obs", "diff", str(tmp_path / "trace.json"),
                       "--predicted", str(tmp_path / "predicted.json"))
        assert diff.returncode == 0, diff.stdout + diff.stderr
