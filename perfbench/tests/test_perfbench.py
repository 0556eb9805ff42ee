"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_job_generator_is_deterministic(name):
    make = workloads.WORKLOADS[name].make_job
    first = [make(3, i) for i in range(10)]
    assert first == [make(3, i) for i in range(10)]
    assert first != [make(4, i) for i in range(10)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_changes_no_output(name):
    from qhyp import cli, equations, solutions

    originals = (cli.run_job, solutions.qpoch_ratio, equations.BUILDERS["e3"])
    wl = workloads.WORKLOADS[name]
    jobs = [wl.make_job(5, i) for i in range(7 if name == "config_sweep" else 2)]
    plain = [workloads.execute(job).text for job in jobs]
    tracer = Tracer()
    with tracer.installed():
        assert cli.run_job is not originals[0]
        assert solutions.qpoch_ratio is not originals[1]
        traced = [workloads.execute(job).text for job in jobs]
    assert traced == plain
    assert (cli.run_job, solutions.qpoch_ratio, equations.BUILDERS["e3"]) == originals
    runs_per_job = 2 if name == "identity_checks" else 1  # relations and limits
    assert tracer.functions["cli.run_job"].calls == runs_per_job * len(jobs)


def test_g1_orbit_failure_is_counted():
    result = workloads.execute(workloads.identity_job(0, 0))
    failing = [c.name for c in result.checks if not c.passed]
    assert "relations:g1_orbit" in failing
    assert result.failed >= 1 and result.consistent


def test_counted_checks_do_not_depend_on_run_length():
    import dataclasses

    import run

    wl = dataclasses.replace(workloads.WORKLOADS["identity_checks"], golden_jobs=1,
                             counted_jobs=3)
    short, long = run.run_timed(wl, 2, 0.01), run.run_timed(wl, 2, 2.0)
    assert short["detail"]["jobs"] == 3 < long["detail"]["jobs"]
    assert short["counted"] == long["counted"]
    assert short["counted"]["failed"] >= 3  # g1_orbit in every bundle


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_declared_metrics(name, trace):
    proc = run_bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("records", "__pycache__"))
    proc = run_bench("--workload", "config_sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
