"""qhyp benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload config_sweep --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics, with times scaled to a reference machine speed (see
speedref.py); ``--trace 1`` replays the workload's golden jobs with every
public qhyp function wrapped and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full run record is written to
``perfbench/records/``.  Run from the root of a checkout: the package is
imported from its ``src/`` directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RECORDS = BENCH_DIR / "records"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9
# job_ms_tail is the geometric mean of the slowest tenth of the jobs.  A
# single high percentile spread across seeds by up to 0.18 (IQR / median) on
# config_sweep, whose tail is the sampler's geometric redraw counts; the
# mean over the tenth spread by up to 0.12 on the same runs.
TAIL_SHARE = 0.10
_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import qhyp.cli\n"
    "dt = time.perf_counter() - t0\n"
    "print(qhyp.cli.__file__)\n"
    "print(repr(dt))\n"
)


class SetupError(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def import_package() -> None:
    """Import qhyp from this checkout's src/ only."""
    if not (SRC / "qhyp" / "cli.py").is_file():
        raise SetupError(f"no qhyp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhyp.cli

    if Path(qhyp.cli.__file__).resolve().parent != (SRC / "qhyp").resolve():
        raise SetupError(f"qhyp imported from {qhyp.cli.__file__}, not from {SRC}")


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh-interpreter import time of qhyp.cli, SETUP_REPEATS times, each
    after a machine-speed probe; returns the times and the probes."""
    from speedref import probe

    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        path, dt = proc.stdout.split()
        if Path(path).resolve().parent != (SRC / "qhyp").resolve():
            raise SetupError(f"import probe loaded {path}")
        times.append(float(dt))
    return times, probes


def tail_jobs(times: list[float]) -> list[float]:
    """The slowest TAIL_SHARE of the job times, at least one."""
    return sorted(times)[-max(1, round(TAIL_SHARE * len(times))):]


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "machine": platform.machine()}


def tally(results) -> dict:
    """Counts over job results: checks, failures by name and by exception."""
    failing: dict[str, int] = {}
    exceptions: dict[str, int] = {}
    for r in results:
        for c in r.checks:
            if not c.passed:
                failing[c.name] = failing.get(c.name, 0) + 1
        if r.error:
            exceptions[r.error] = exceptions.get(r.error, 0) + 1
    return {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "failing_checks": dict(sorted(failing.items())),
        "exceptions": dict(sorted(exceptions.items())),
        "consistent": all(r.consistent and all(c.consistent for c in r.checks) for r in results),
    }


def golden_summary(results) -> dict:
    """Output digest and accuracy margin of a fixed job list."""
    margins = [c.margin_dec for r in results for c in r.checks if c.margin_dec is not None]
    counts = tally(results)
    return {
        "jobs": len(results),
        "digest": hashlib.sha256("".join(r.text for r in results).encode()).hexdigest(),
        "accuracy_margin_dec": min(margins) if margins else None,
        "failing_checks": counts["failing_checks"],
        "consistent": counts["consistent"],
    }


def time_metrics(times: list[float], checks: int, setup: list[float]) -> dict:
    tail = statistics.geometric_mean(tail_jobs(times))
    return {"checks_per_s": checks / sum(times), "job_ms_p50": 1e3 * statistics.median(times),
            "job_ms_tail": 1e3 * tail, "setup_s": statistics.median(setup)}


def run_timed(wl, seed: int, seconds: float) -> dict:
    """The accuracy panel first (untimed; it also warms up lazy imports and
    first-call paths), then the closed loop: job i+1 starts when job i
    returns, until ``seconds`` have passed and ``wl.counted_jobs`` jobs are
    done.  Times are scaled to the machine-speed reference (see
    speedref.py); the raw ones are recorded.  The result line's attempted
    and failed checks are those of the first ``wl.counted_jobs`` jobs, so
    two runs of one seed report the same counts however many jobs they
    fit in; the metrics and the record cover every job."""
    from speedref import REFERENCE_S, SpeedTrack
    from workloads import PANEL_SEED, execute

    setup, setup_probes = measure_setup()
    setup_factor = REFERENCE_S * len(setup_probes) / sum(setup_probes)
    panel = golden_summary([execute(wl.make_job(PANEL_SEED, i)) for i in range(wl.golden_jobs)])
    results, times = [], []
    clock = time.perf_counter
    start = clock()
    speed = SpeedTrack()
    while len(results) < wl.counted_jobs or clock() - start < seconds:
        job = wl.make_job(seed, len(results))
        t0 = clock()
        results.append(execute(job))
        times.append(clock() - t0)
        speed.job_done()
    wall = clock() - start
    counts = tally(results)
    raw = time_metrics(times, counts["attempted"], setup)
    factor = speed.factor()
    metrics = time_metrics([t * factor for t in times], counts["attempted"],
                           [t * setup_factor for t in setup])
    metrics.update({
        "pass_ratio": (counts["attempted"] - counts["failed"]) / counts["attempted"],
        "accuracy_margin_dec": panel["accuracy_margin_dec"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    units = declared_units("end_to_end")
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "counts": counts, "counted": tally(results[:wl.counted_jobs]), "panel": panel,
        "detail": {"jobs": len(results), "wall_s": wall, "raw_time_metrics": raw,
                   "speed_factor": factor, "setup_speed_factor": setup_factor,
                   "setup_samples_s": setup, "speed_probes_s": speed.samples,
                   "tail_jobs": len(tail_jobs(times)),
                   "failed_ratio": counts["failed"] / counts["attempted"],
                   "job_s": [round(t, 7) for t in times]},
        "correct": counts["consistent"] and panel["consistent"],
    }


def run_traced(wl, seed: int) -> dict:
    """The first jobs of ``seed`` untraced and traced; per-layer metrics from
    the trace.  Per-layer times are raw wall times."""
    from oracle import KernelSampler
    from tracing import Tracer
    from workloads import execute

    jobs = [wl.make_job(seed, i) for i in range(wl.golden_jobs)]
    execute(jobs[0])
    clock = time.perf_counter

    def timed_pass():
        t0 = clock()
        results = [execute(job) for job in jobs]
        return results, clock() - t0

    # Untraced passes before and after the traced one, so that a drift in
    # machine speed cancels from the overhead ratio.
    plain, before_s = timed_pass()
    sampler = KernelSampler(seed)
    tracer = Tracer(sampler.observers())
    with tracer.installed():
        traced, traced_s = timed_pass()
    _, after_s = timed_pass()
    untraced_s = (before_s + after_s) / 2
    fwd = sampler.forward_errors()
    g = tracer.groups
    m = tracer.layer_metrics()
    m.update({
        "sampling.draw.calls": g["sampling.draw"].calls,
        "sampling.draw.us_per_call": tracer.us_per_call("sampling.draw"),
        "opalgebra.durand_kerner.calls": g["opalgebra.durand_kerner"].calls,
        "opalgebra.durand_kerner.us_per_call": tracer.us_per_call("opalgebra.durand_kerner"),
        "opalgebra.configuration.us_per_call": tracer.us_per_call("opalgebra.configuration"),
        "equations.expected_configuration.us_per_call":
            tracer.us_per_call("equations.expected_configuration"),
        "qcore.qpoch_ratio.calls": g["qcore.qpoch_ratio"].calls,
        "qcore.qpoch_ratio.us_per_call": tracer.us_per_call("qcore.qpoch_ratio"),
        "qcore.qpoch_ratio.args_per_call": sampler.mean_args,
        "solutions.integral_eval.calls": g["solutions.integral_eval"].calls,
        "solutions.integral_eval.us_per_call": tracer.us_per_call("solutions.integral_eval"),
        "solutions.series_eval.calls": g["solutions.series_eval"].calls,
        "solutions.series_eval.us_per_call": tracer.us_per_call("solutions.series_eval"),
        "qseries.phi.us_per_call": tracer.us_per_call("qseries.phi"),
        "qseries.w87.us_per_call": tracer.us_per_call("qseries.w87"),
        "solutions.residual.us_per_call": tracer.us_per_call("solutions.residual"),
        "solutions.residual.evals_per_call": (
            g["solutions.evaluator"].in_residual / g["solutions.residual"].calls
            if g["solutions.residual"].calls else 0.0),
        "qseries.psi33.us_per_call": tracer.us_per_call("qseries.psi33"),
        "groups.orbit.us_per_call": tracer.us_per_call("groups.orbit"),
        "groups.check_relations.us_per_call": tracer.us_per_call("groups.check_relations"),
        "equations.verify_degeneration.us_per_call":
            tracer.us_per_call("equations.verify_degeneration"),
        "qcore.qpoch_ratio.fwd_err_max": fwd["qcore.qpoch_ratio"],
        "qseries.phi.fwd_err_max": fwd["qseries.phi"],
        "qseries.w87.fwd_err_max": fwd["qseries.w87"],
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    units = declared_units("per_layer")
    counts = tally(traced)
    golden = golden_summary(traced)
    plain_digest = golden_summary(plain)["digest"]
    return {
        "metrics": {k: {"value": m[k], "unit": units[k]} for k in units},
        "counts": counts, "counted": counts, "golden": golden,
        "detail": {"jobs": len(jobs), "untraced_s": untraced_s, "traced_s": traced_s,
                   "untraced_digest": plain_digest,
                   "top_self_time": tracer.top_functions()},
        "correct": counts["consistent"] and golden["digest"] == plain_digest,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    try:
        import_package()
        if args.workload == "all":
            return run_all(args.seed, int(args.seconds), args.trace)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
        wl = WORKLOADS[args.workload]
        run = run_traced(wl, args.seed) if args.trace else run_timed(wl, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **run}
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, metric in run["metrics"].items():
        print(f"{wl.name:16s} {name:45s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        d = run["detail"]
        print(f"{wl.name:16s} {d['jobs']} jobs; job_ms_tail is over the slowest "
              f"{d['tail_jobs']}; failed_ratio {d['failed_ratio']:.6g} "
              f"({run['counts']['failed']} of {run['counts']['attempted']} checks; the result "
              f"line counts the first {wl.counted_jobs} jobs)")
    failing = run["counts"]["failing_checks"]
    if failing or run["counts"]["exceptions"]:
        print(f"{wl.name:16s} failing checks {failing} exceptions {run['counts']['exceptions']}")
    print(f"{wl.name:16s} run record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": run["correct"], "attempted": run["counted"]["attempted"],
                      "failed": run["counted"]["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
