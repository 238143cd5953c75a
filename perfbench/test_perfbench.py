"""Self-test of the benchmark at smoke sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# Printed on every run besides the metrics BENCHMARK.json lists.
PRINTED = {
    0: {("failed_frac", "ratio"), ("setup_wall_s", "s"), ("tasks_per_s", "1/s"),
        ("task_s.p50", "s"), ("task_s.tail", "s"), ("calibration_s", "s"), ("wait_s", "s")},
    1: {("failed_frac", "ratio"), ("sampler.chain_steps", "count"),
        ("sampler.walk_edge_dim", "count"), ("estimation.shots", "count"),
        ("trace.tasks", "count"), ("trace.overhead_frac", "ratio")},
}


def _run(*args):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_and_passes_every_oracle(trace, section):
    done = _run("--workload", "all", "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    assert not [line for line in lines if line.startswith("FAIL")]

    expected = {(m["name"], m["unit"]) for m in BENCHMARK[section]}
    for workload in WORKLOADS:
        got = {(key.split("/", 1)[1], m["unit"])
               for key, m in result["metrics"].items() if key.startswith(workload + "/")}
        assert got == expected, workload
        for name, unit in expected | PRINTED[trace]:
            prefix = f"{workload} {name} "
            printed = [line for line in lines if line.startswith(prefix)]
            assert len(printed) == 1, (workload, name)
            assert printed[0].split()[3] == unit, printed[0]


def test_same_seed_generates_identical_configs(tmp_path):
    import workloads

    def generated(seed, name):
        directory = tmp_path / name
        list(workloads.generate(WORKLOADS[1], seed, directory, 3, smoke=True))
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    first = generated(11, "a")
    assert first == generated(11, "b")
    assert first != generated(12, "c")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_malformed_config_fails_its_call(tmp_path):
    import workloads

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = workloads.run_call(workloads.Call("mean", str(bad)), tmp_path / "out.json")
    assert result.exit_code != 0
    assert workloads.check(result)


def test_a_failing_task_is_counted_and_the_run_still_reports(monkeypatch, capsys):
    import run
    import workloads

    generate = workloads.generate

    def corrupt_first_timed_input(*args, **kwargs):
        for i, task in enumerate(generate(*args, **kwargs)):
            if i == 1:
                Path(task[0].config).write_text("{not json")
            yield task

    monkeypatch.setattr(workloads, "generate", corrupt_first_timed_input)
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    code = run.main(["--workload", WORKLOADS[0], "--seed", "2", "--seconds", "0.2",
                     "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


def test_an_exception_in_the_cli_fails_its_call(monkeypatch, tmp_path):
    import workloads

    def crash(argv):
        raise IndexError("injected")

    monkeypatch.setattr(workloads.cli, "main", crash)
    result = workloads.run_call(workloads.Call("mean", "unused.json"), tmp_path / "out.json")
    assert result.exit_code == 1 and "IndexError: injected" in result.stderr
    assert workloads.check(result)
