"""The four benchmark workloads: seeded job generators, job execution through
``qhyp.cli.run_job`` (and the library, for identities the CLI cannot reach),
and the checks read back from every report.

Every workload is a closed loop with one caller.  Job ``i`` of a run depends
only on ``(seed, workload, i)``, so a run is a prefix of one infinite job list
and two runs with the same seed share their first jobs whatever their length.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Library calls go through module attributes so that the traced run, which
# patches those attributes, sees them.
from qhyp import cli, qcore, qseries
from qhyp.qcore import QContext

EQUATIONS = ("e2", "e3", "h2", "h3", "heine", "qheun", "qheun3")
GOLDEN = (5**0.5 - 1) / 2
# Job cycles.  With a cycle of equal shares the median job sat between two
# modes of the job-time distribution (thmint2 ~110 ms vs thmint3 ~240 ms;
# thmser2 ~30 ms vs heine ~90 ms) and jumped between them from seed to seed.
# thmint2 therefore runs twice per cycle, and heine.all is verified in two
# jobs of 16 labels; every median then falls inside one mode.
INTEGRAL_CYCLE = (("e3", "thmint3.all", 10), ("e2", "thmint2.all", 6), ("e2", "thmint2.all", 6))
SERIES_CYCLE = (("e3", "thmser3.all"), ("e2", "thmser2.all"),
                ("heine", [f"heine.{k}" for k in range(1, 17)]),
                ("heine", [f"heine.{k}" for k in range(17, 33)]),
                ("heine", "heine_extra.all"))

# The tolerances the CLI applies to the rows that carry a deviation; the
# accuracy margin is measured against these.  Casoratian and degeneration
# rows are checked for a consistent pass flag but carry no margin.
RESIDUAL_TOL = cli.RESIDUAL_TOL          # residual rows, connection constant
COCYCLE_TOL = cli.COCYCLE_TOL            # cocycle row
RELATION_TOL = cli.RELATION_TOL          # group relation rows
CONFIG_MATCH_TOL = 1e-8                  # cmd_config matches at 1e-8
DEGENERATION_TOL = 1e-7                  # verify_degeneration: eq_tol * 10
IDENTITY_TOL = 1e-8                      # library identity checks below
FLOAT_EPS = 2.2e-16

# Criterion-6 bilateral limit: eps -> 0 along these points, Richardson
# extrapolated; the budget lets the eps = 1e-4 tail reach tail_tol.
BILATERAL_EPS = (1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4)
BILATERAL_CTX = QContext(0.45, max_terms=600_000)


@dataclass
class Check:
    """One verification outcome: a report row or a library identity."""

    name: str
    passed: bool
    deviation: float | None = None
    tolerance: float | None = None
    consistent: bool = True  # the pass flag agrees with deviation vs tolerance

    @property
    def margin_dec(self) -> float | None:
        if self.deviation is None or self.tolerance is None:
            return None
        return math.log10(self.tolerance / max(self.deviation, FLOAT_EPS))


@dataclass
class JobResult:
    text: str                        # NDJSON of the job, the digest input
    checks: list[Check] = field(default_factory=list)
    error: str | None = None         # exception type of a job that raised
    consistent: bool = True          # summary rows and exit codes agree

    @property
    def attempted(self) -> int:
        return len(self.checks) + (self.error is not None)

    @property
    def failed(self) -> int:
        return sum(not c.passed for c in self.checks) + (self.error is not None)


# -- report rows -> checks ------------------------------------------------------------


def _row_check(command: str, row: dict) -> Check:
    kind = row["check"]
    qualifier = (row.get("label") or row.get("equation") or row.get("group")
                 or row.get("kind") or row.get("pair") or "")
    name = f"{command}:{kind}" + (f":{qualifier}" if qualifier else "")
    passed = bool(row.get("pass", True))
    dev = tol = None
    expect = None
    if kind == "residual" and "max_residual" in row:
        dev, tol = row["max_residual"], RESIDUAL_TOL
        expect = dev < tol
    elif kind == "configuration" and row.get("equation") != "raw":
        dev, tol = row["product_relation_dev"], CONFIG_MATCH_TOL
    elif kind == "cocycle":
        dev, tol = row["deviation"], COCYCLE_TOL
        expect = dev < tol
    elif kind == "group_relations":
        dev, tol = row["max_deviation"], RELATION_TOL
        expect = dev < tol
    elif kind == "heine_connection_constant":
        dev, tol = row["deviation"], RESIDUAL_TOL
        expect = dev < tol
    elif kind == "casoratian_dependent":
        expect = row["relative"] < RESIDUAL_TOL
    elif kind == "g1_orbit":
        expect = row["size"] == row["expected"]
    elif kind == "degeneration" and row.get("kind") != "e3_series_to_e2_series":
        expect = bool(row["monotone"]) and row["deviations"][-1] < DEGENERATION_TOL
    consistent = expect is None or expect == passed
    return Check(name, passed, dev, tol, consistent)


def run_cli(command: str, job: dict, result: JobResult) -> None:
    """One ``run_job`` call; appends its rows to ``result``."""
    out = io.StringIO()
    code = cli.run_job(command, job, out)
    text = out.getvalue()
    result.text += text
    rows = [json.loads(line) for line in text.splitlines()]
    summary = rows.pop()
    checks = [_row_check(command, row) for row in rows]
    failures = sum(not c.passed for c in checks)
    result.checks.extend(checks)
    result.consistent &= (
        summary.get("summary") is True
        and summary["checks"] == len(rows)
        and summary["failures"] == failures
        and code == (cli.EXIT_OK if failures == 0 else cli.EXIT_FAIL)
    )


def _library_check(result: JobResult, name: str, dev: float, passed: bool) -> None:
    row = {"check": name, "deviation": dev, "pass": passed}
    result.text += json.dumps(row, sort_keys=True) + "\n"
    result.checks.append(Check(name, passed, dev, IDENTITY_TOL))


# -- identity bundle ------------------------------------------------------------------


def _rc(rng, lo=0.4, hi=1.6, phase=0.85) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(-phase * np.pi, phase * np.pi)))


def bilateral_limit(rng) -> tuple[float, bool]:
    """eps * psi33(a; b; 1 - eps) -> (a1, a2, a3)_inf / (b1, b2, b3)_inf."""
    ctx = BILATERAL_CTX
    av = [_rc(rng, 1.2, 1.9, 0.4) for _ in range(3)]
    bv = [_rc(rng, 0.1, 0.35, 0.4) for _ in range(3)]
    target = (np.prod([qcore.qpoch_inf(v, ctx) for v in av])
              / np.prod([qcore.qpoch_inf(v, ctx) for v in bv]))
    xs = np.array(BILATERAL_EPS)
    ys = np.array([e * qseries.psi33(av, bv, 1 - e, ctx) for e in xs])
    errs = np.abs(ys[::2] - target)  # eps = 1e-2, 1e-3, 1e-4
    tab = ys.copy()
    for j in range(1, len(xs)):
        tab = np.array([(xs[i] * tab[i + 1] - xs[i + j] * tab[i]) / (xs[i] - xs[i + j])
                        for i in range(len(tab) - 1)])
    dev = float(abs(tab[0] - target) / abs(target))
    return dev, bool(errs[0] > errs[1] > errs[2]) and dev < IDENTITY_TOL


def bailey_transform(rng) -> tuple[float, bool]:
    ctx = QContext(rng.uniform(0.35, 0.55))
    q = complex(ctx.q)
    while True:
        vals = [_rc(rng, 0.7, 1.4) for _ in range(6)]
        a, b, c, d, e, f = vals
        mu = q * a * a / (b * c * d)
        if (abs(a**2 * q**2 / np.prod(vals[1:])) < 0.9 and abs(a * q / (e * f)) < 0.9
                and abs(mu * q / (e * f)) < 0.9):
            break
    lhs, rhs = qseries.bailey_w87_transform(*vals, ctx)
    dev = abs(lhs - rhs) / abs(rhs)
    return dev, dev < IDENTITY_TOL


def heine_constant(rng) -> tuple[float, bool]:
    ctx = QContext(rng.uniform(0.35, 0.55))
    a, b, c = _rc(rng, 0.2, 0.8), _rc(rng), _rc(rng)
    value = qseries.heine_transformation_constant(a, b, c, 0.3, ctx)
    target = qcore.qpoch_inf(a, ctx) / qcore.qpoch_inf(c, ctx)
    dev = abs(value - target) / abs(target)
    return dev, dev < IDENTITY_TOL


def identity_bundle(seed: int, result: JobResult) -> None:
    run_cli("relations", {"seed": seed}, result)
    run_cli("limits", {"seed": seed}, result)
    rng = np.random.default_rng(seed)
    for name, check in (("bilateral_limit", bilateral_limit),
                        ("bailey_w87_transform", bailey_transform),
                        ("heine_transformation_constant", heine_constant)):
        _library_check(result, f"library:{name}", *check(rng))


# -- workloads ------------------------------------------------------------------------


def _job_rng(seed: int, workload_id: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_id, index])


def _job_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def config_job(seed: int, index: int) -> dict:
    """Equations round-robin; each equation's q sweeps [0.35, 0.55] along a
    golden-ratio sequence from a seeded start, so every run covers the range
    evenly (sampler cost varies 20-fold across it)."""
    start = np.random.default_rng([seed, 1]).uniform()
    u = (start + (index // len(EQUATIONS)) * GOLDEN) % 1.0
    job = {"equation": EQUATIONS[index % len(EQUATIONS)],
           "seed": _job_seed(_job_rng(seed, 1, index)), "ctx": {"q": 0.35 + 0.2 * u}}
    return {"command": "config", "job": job}


def integral_job(seed: int, index: int) -> dict:
    rng = _job_rng(seed, 2, index)
    equation, labels, samples = INTEGRAL_CYCLE[index % len(INTEGRAL_CYCLE)]
    job = {"equation": equation, "solutions": labels, "seed": _job_seed(rng), "samples": samples}
    return {"command": "verify", "job": job}


def series_job(seed: int, index: int) -> dict:
    rng = _job_rng(seed, 3, index)
    equation, labels = SERIES_CYCLE[index % len(SERIES_CYCLE)]
    job = {"equation": equation, "solutions": labels, "seed": _job_seed(rng)}
    return {"command": "verify", "job": job}


def identity_job(seed: int, index: int) -> dict:
    return {"command": "identity", "seed": _job_seed(_job_rng(seed, 4, index))}


def execute(job: dict) -> JobResult:
    """Run one job.  A job that raises is recorded by exception type and
    counts as one failed check; the run goes on."""
    result = JobResult(text="")
    try:
        if job["command"] == "identity":
            identity_bundle(job["seed"], result)
        else:
            run_cli(job["command"], job["job"], result)
    except Exception as exc:  # the job boundary: record and keep running
        result.error = type(exc).__name__
        result.text += json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n"
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    make_job: Callable[[int, int], dict]
    # Jobs in the accuracy panel (the first jobs of PANEL_SEED, run in every
    # timed run) and in the traced replay (the first jobs of the run's seed).
    golden_jobs: int
    # Jobs that every timed run completes, whatever its speed, and over which
    # the result line counts attempted and failed checks: the first jobs of
    # the seed, so the counts depend on the seed alone.  About 40 % of the
    # jobs of the slowest run of the declared length seen so far.
    counted_jobs: int


# The accuracy panel uses one fixed seed, so its margin and output digest
# compare like with like across runs and commits; timed jobs use --seed.
PANEL_SEED = 0

WORKLOADS = {w.name: w for w in (
    Workload("config_sweep", config_job, golden_jobs=70, counted_jobs=650),
    Workload("integral_verify", integral_job, golden_jobs=9, counted_jobs=51),
    Workload("series_verify", series_job, golden_jobs=15, counted_jobs=120),
    Workload("identity_checks", identity_job, golden_jobs=12, counted_jobs=60),
)}
