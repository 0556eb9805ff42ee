"""Config-driven command-line frontend producing machine-readable reports.

Jobs are JSON objects (complex numbers as [re, im] pairs); reports are
newline-delimited JSON records with a trailing summary object.  Exit codes:
0 all checks pass, 1 a verification failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from typing import Any

import numpy as np

from . import groups, sampling, solutions
from .equations import (
    BUILDERS,
    H2Params,
    H3Params,
    HeineParams,
    Heun3Params,
    HeunParams,
    Params2,
    Params3,
    expected_configuration,
    verify_degeneration,
)
from .errors import QhypError
from .opalgebra import QDiffOperator
from .qcore import QContext, qpoch_inf
from .qseries import heine_transformation_constant
from .solutions import CATALOGUE, Endpoint, all_labels, residual, sample_points, solution_handle

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of stdout closed it

RESIDUAL_TOL = 1e-8
COCYCLE_TOL = 1e-12
RELATION_TOL = 1e-12

# the B of the relations Casoratian pattern
CASORATIAN_B = 0.9 + 0.2j

_PARAM_CLASSES = {"heine": HeineParams, "qheun": HeunParams, "qheun3": Heun3Params,
                  "h2": H2Params, "h3": H3Params, "e2": Params2, "e3": Params3}


class JobError(Exception):
    """Invalid job input (maps to exit code 2)."""


def _is_real(value: Any) -> bool:
    """A finite JSON number: booleans, strings, NaN and infinities are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def as_complex(value: Any) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
        return complex(float(value[0]), float(value[1]))
    raise JobError(f"expected a number or [re, im] pair of numbers, got {value!r}")


def complex_out(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def parse_params(kind: str, raw: dict):
    """The params dataclass of ``kind``; fields with a default (E) may be
    omitted, names that are not fields are refused."""
    if kind not in _PARAM_CLASSES:
        raise JobError(f"unknown equation {kind!r}")
    if not isinstance(raw, dict):
        raise JobError(f"params must be an object, got {raw!r}")
    cls = _PARAM_CLASSES[kind]
    fields = dataclasses.fields(cls)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise JobError(f"unknown parameter fields for {kind}: {unknown}")
    missing = [f.name for f in fields if f.name not in raw and f.default is dataclasses.MISSING]
    if missing:
        raise JobError(f"missing parameter fields for {kind}: {missing}")
    return cls(**{f.name: as_complex(raw[f.name]) for f in fields if f.name in raw})


def positive_count(job: dict, key: str, default: int) -> int:
    """job[key] (default when absent) as a count: a positive JSON integer;
    booleans, fractions, strings and non-positive values are input errors."""
    value = job.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise JobError(f"{key} must be a positive integer, got {value!r}")
    return value


def job_seed(job: dict) -> int:
    """job["seed"] (0 when absent): a non-negative JSON integer."""
    seed = job.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise JobError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def real_number(job: dict, key: str, default: float) -> float:
    """job[key] (default when absent): a JSON number, not a boolean or string."""
    value = job.get(key, default)
    if not _is_real(value):
        raise JobError(f"{key} must be a number, got {value!r}")
    return float(value)


def build_context(job: dict) -> QContext:
    raw = job.get("ctx", {})
    if not isinstance(raw, dict):
        raise JobError(f"ctx must be an object, got {raw!r}")
    q = as_complex(raw.get("q", 0.5))
    try:
        return QContext(
            q,
            max_terms=positive_count(raw, "max_terms", QContext.max_terms),
            tail_tol=real_number(raw, "tail_tol", QContext.tail_tol),
            eq_tol=real_number(raw, "eq_tol", QContext.eq_tol),
        )
    except ValueError as exc:
        raise JobError(str(exc)) from exc


def equation_params(kind: str, raw, rng, ctx: QContext):
    """The tuple of ``kind``: drawn when ``raw`` is None, else parsed from it
    and validated; a tuple that fails validation is an input error."""
    if raw is None:
        return sampling.draw_equation_params(kind, rng, ctx)
    p = parse_params(kind, raw)
    try:
        p.validate(ctx)
    except QhypError as exc:
        raise JobError(str(exc)) from exc
    return p


class Report:
    def __init__(self):
        self.rows: list[dict] = []
        self.failures = 0

    def add(self, row: dict, passed: bool | None = None):
        if passed is not None:
            row["pass"] = bool(passed)
            if not passed:
                self.failures += 1
        self.rows.append(row)

    def emit(self, command: str, seed: int, out) -> int:
        summary = {
            "summary": True,
            "command": command,
            "checks": len(self.rows),
            "failures": self.failures,
            "seed": seed,
        }
        for row in self.rows + [summary]:
            out.write(json.dumps(row, sort_keys=True, default=_json_default) + "\n")
        return EXIT_OK if self.failures == 0 else EXIT_FAIL


def _json_default(value):
    if isinstance(value, complex):
        return complex_out(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value)}")


def _config_rows(cfg) -> dict:
    return {
        "roots_x0": [complex_out(r) for r in cfg.roots_x0],
        "roots_xinf": [complex_out(r) for r in cfg.roots_xinf],
        "roots_T0": [complex_out(r) for r in cfg.roots_T0],
        "roots_Tinf": [complex_out(r) for r in cfg.roots_Tinf],
        "double_x0": None if cfg.double_x0 is None else complex_out(cfg.double_x0),
        "double_xinf": None if cfg.double_xinf is None else complex_out(cfg.double_xinf),
    }


def operator_records(records: Any) -> list[dict]:
    """Raw operator input: a non-empty list of {"i", "j", "re"[, "im"]}
    objects, i and j integers, re and im numbers."""
    if not isinstance(records, list) or not records:
        raise JobError(f"operator must be a non-empty list of records, got {records!r}")
    for rec in records:
        ok = (isinstance(rec, dict)
              and {"i", "j", "re"} <= set(rec) <= {"i", "j", "re", "im"}
              and all(isinstance(rec[k], int) and not isinstance(rec[k], bool) for k in "ij")
              and all(_is_real(rec[k]) for k in ("re", "im") if k in rec))
        if not ok:
            raise JobError('each operator record must be {"i": int, "j": int, "re": number'
                           f'[, "im": number]}}, got {rec!r}')
    return records


def cmd_config(job: dict, rng, ctx: QContext, report: Report):
    """Computed configuration, with PASS/FAIL against the catalogued one for
    named equations; raw operator input is reported without expectation."""
    if "operator" in job:
        if unread := sorted({"equation", "params"} & set(job)):
            raise JobError(f"config reads no job keys {unread} beside an operator")
        op = QDiffOperator.from_records(ctx.q, operator_records(job["operator"]))
        cfg = op.configuration(ctx)
        report.add({"check": "configuration", "equation": "raw",
                    **_config_rows(cfg),
                    "product_relation_dev": cfg.product_relation_deviation()})
        return
    kind = job.get("equation")
    if not isinstance(kind, str) or kind not in BUILDERS:
        raise JobError(f"equation must be one of {sorted(BUILDERS)}")
    p = equation_params(kind, job.get("params"), rng, ctx)
    op = BUILDERS[kind](p, ctx)
    cfg = op.configuration(ctx)
    expected = expected_configuration(kind, p, ctx)
    ok = cfg.matches(expected, 1e-8)
    report.add({"check": "configuration", "equation": kind,
                **_config_rows(cfg),
                "product_relation_dev": cfg.product_relation_deviation()},
               passed=ok)


def _expand_labels(job: dict, kind: str | None) -> list[str]:
    """The catalogue labels a job names: "all" (those of its equation, or
    every label when it names none), "<family>.all", or labels; any other
    name, and "all" for an equation without catalogued solutions, is an input
    error."""
    spec = job.get("solutions", "all")
    if not isinstance(spec, str) and not (
            isinstance(spec, list) and spec and all(isinstance(s, str) for s in spec)):
        raise JobError(f"solutions must be a label or a non-empty list of labels, got {spec!r}")
    if spec == "all":
        if kind is None:
            return list(CATALOGUE)
        labels = [lab for lab, row in CATALOGUE.items() if row.equation == kind]
        if not labels:
            raise JobError(f"equation {kind!r} has no catalogued solutions to verify as \"all\"")
        return labels
    if isinstance(spec, str):
        spec = [spec]
    labels: list[str] = []
    for item in spec:
        fam, _, rest = item.partition(".")
        if rest == "all":
            try:
                labels.extend(all_labels(fam))
            except ValueError:
                raise JobError(f"unknown solution family in {item!r}") from None
        elif item in CATALOGUE:
            labels.append(item)
        else:
            raise JobError(f"unknown solution label {item!r}")
    return labels


def _each_label(job: dict, rng, ctx: QContext, report: Report, check: str,
                default_samples: int, reads, measure) -> None:
    """The label loop of verify and sample: per label, in order, the record
    and pass flag (None: no flag) of ``measure(handle, xs, points)``, or its
    error.  The labels of one equation share one tuple and Jackson table;
    "params" apply to the named equation only; without them a row with a
    condition (``Solution.condition``) draws its own tuple, meeting that
    condition.

    Three passes: every label's handle, sample points xs and the points
    ``reads(handle, xs)`` that ``measure`` will read, computed once and
    handed to it, in label order (the tuples drawn from ``rng`` in that
    order); then one fill of all those reads
    (:func:`qhyp.solutions.fill`); then each label measured and reported in
    label order.  A label whose first pass raises reports that error and
    reads nothing."""
    named, raw = job.get("equation"), job.get("params")
    if named is not None and not (isinstance(named, str) and named in BUILDERS):
        raise JobError(f"equation must be one of {sorted(BUILDERS)}")
    if raw is not None and named is None:
        raise JobError("params need an equation to apply to")
    labels = _expand_labels(job, named)
    n = positive_count(job, "samples", default_samples)
    kinds = {CATALOGUE[lab].equation for lab in labels} | ({named} if raw is not None else set())
    params = {kind: equation_params(kind, raw if kind == named else None, rng, ctx)
              for kind in sorted(kinds)}
    tables = {kind: solutions.JacksonTable(p, ctx) for kind, p in params.items()}
    prepared = []  # per label: (label, (handle, xs, points), or the error)
    requests = []
    for label in sorted(labels):
        row = CATALOGUE[label]
        kind = row.equation
        p = params[kind]
        if row.condition is not None and (raw is None or kind != named):
            p = sampling.draw_heine_for(rng, ctx, label)
        try:
            sigma = as_complex(job["sigma"]) if "sigma" in job else sampling.default_sigma(p) \
                if kind == "e2" else 1.3
            handle = solution_handle(label, p, ctx, sigma=sigma, table=tables[kind])
            xs = sample_points(handle, n, ctx)
            points = reads(handle, xs)
        except QhypError as exc:
            prepared.append((label, exc))
            continue
        requests.append((handle, points))
        prepared.append((label, (handle, xs, points)))
    solutions.fill(requests)
    for label, entry in prepared:
        try:
            if isinstance(entry, QhypError):
                raise entry  # the first pass's error, reported in label order
            record, passed = measure(*entry)
        except QhypError as exc:
            report.add({"check": check, "label": label,
                        "error": f"{type(exc).__name__}: {exc}"}, passed=False)
            continue
        report.add({"check": check, "label": label, **record}, passed=passed)


def cmd_verify(job: dict, rng, ctx: QContext, report: Report):
    """Per-label max relative residual under the claimed operator."""
    def reads(handle, xs):
        return solutions.residual_points(handle.equation, handle, xs)

    def measure(handle, xs, points):
        res = residual(handle.equation, handle, xs, ctx, points)
        return {"samples": len(xs), "max_residual": res}, res < RESIDUAL_TOL

    _each_label(job, rng, ctx, report, "residual", 10, reads, measure)


def cmd_relations(job: dict, rng, ctx: QContext, report: Report):
    """Cocycle deviations, group relation table, orbit size, Casoratian
    table and the transformation-constant check."""
    p3 = equation_params("e3", job.get("params"), rng, ctx)
    x = 0.3 * solutions.integral_scale(p3, ctx)
    taus = [Endpoint.q_over_a(1), Endpoint.q_over_a(2),
            Endpoint.q_over_a(3), Endpoint.q_over_Ax()]
    table = solutions.JacksonTable(p3, ctx)
    worst = max(
        solutions.cocycle_check(p3, t1, t2, t3, x, ctx, table)
        for t1, t2, t3 in itertools.combinations(taus, 3)
    )
    report.add({"check": "cocycle", "deviation": worst}, passed=worst < COCYCLE_TOL)

    rank = solutions.incidence_rank()
    report.add({"check": "relation_matrix_rank", "rank": rank}, passed=rank == 3)

    p2 = equation_params("e2", None, rng, ctx)
    ph = equation_params("heine", None, rng, ctx)
    for group, params in (("G1", ph), ("G2", p2), ("G3", p3)):
        state = groups.params_to_state(params, 0.7 + 0.2j, ctx)
        devs = groups.check_relations(group, state, ctx)
        worst = max(devs.values())
        report.add({"check": "group_relations", "group": group,
                    "relations": len(devs), "max_deviation": worst},
                   passed=worst < RELATION_TOL)

    orb = groups.orbit("G1", groups.params_to_state(ph, 0.7 + 0.2j, ctx), ctx)
    report.add({"check": "g1_orbit", "size": len(orb), "expected": 32},
               passed=len(orb) == 32)

    # Casoratian pattern in the rational special case a_i = b_i, A = q^2 B
    q = complex(ctx.q)
    avals = (1.1 + 0.3j, 0.8 - 0.4j, 1.3 + 0.1j)
    psp = Params3(*avals, *avals, q**2 * CASORATIAN_B, CASORATIAN_B)
    xs0 = 0.4
    sp = solutions.JacksonTable(psp, ctx)
    f12 = lambda y: solutions.phi3(psp, Endpoint.q_over_a(1), Endpoint.q_over_a(2), y, ctx, sp)
    f13 = lambda y: solutions.phi3(psp, Endpoint.q_over_a(1), Endpoint.q_over_a(3), y, ctx, sp)
    t12 = lambda y: solutions.phi3_tilde(psp, Endpoint.b(1), Endpoint.b(2), y, ctx, sp)
    wr = solutions.casoratian(f12, f13, xs0, ctx)
    report.add({"check": "casoratian_independent", "pair": "phi3[1,2]/phi3[1,3]",
                "relative": wr}, passed=wr > 1e-6)
    wz = solutions.casoratian(f12, t12, xs0, ctx)
    report.add({"check": "casoratian_dependent", "pair": "phi3[1,2]/tilde[1,2]",
                "relative": wz}, passed=wz < 1e-8)

    a, b, c = 0.4 + 0.1j, 1.2 - 0.2j, 1.4 + 0.3j
    consts = [heine_transformation_constant(a, b, c, z, ctx) for z in (0.2, 0.35, 0.5)]
    target = qpoch_inf(a, ctx) / qpoch_inf(c, ctx)
    dev = max(abs(v - target) / abs(target) for v in consts)
    report.add({"check": "heine_connection_constant", "deviation": dev},
               passed=dev < RESIDUAL_TOL)


def cmd_limits(job: dict, rng, ctx: QContext, report: Report):
    """Degeneration reports: coefficientwise operator limits and the
    terminating series limit."""
    kinds = job.get("kinds", ["e3_to_e2", "h3_to_h2", "h2_to_heine",
                              "e3_series_to_e2_series"])
    if not isinstance(kinds, list) or not kinds or not all(isinstance(k, str) for k in kinds):
        raise JobError(f"kinds must be a non-empty list of degeneration names, got {kinds!r}")
    scales = job.get("scales", [1e5, 1e7, 1e9])
    if not isinstance(scales, list) or not scales or not all(
            _is_real(s) and s > 0 for s in scales):
        raise JobError(f"scales must be a non-empty list of positive numbers, got {scales!r}")
    scales = [float(s) for s in scales]
    single = len(scales) < 2
    for kind in kinds:
        if kind == "e3_series_to_e2_series":
            p2 = sampling.draw_params2_terminating(rng, ctx)
            sc = solutions.e2_series_scale(p2, ctx)
            x1, x2 = 0.2 * sc, 0.4 * sc
            q = abs(complex(ctx.q))
            # one q-lattice step per job scale: decimal steps drift through
            # the pole grid of the scaled denominator parameters
            ells = [1.1 * q ** (-12 - 4 * i) for i in range(len(scales))]
            devs = [solutions.e3_to_e2_series_deviation(p2, x1, x2, s, ctx)
                    for s in ells]
            monotone = all(d1 > d2 for d1, d2 in zip(devs, devs[1:])) if not single else None
            report.add({"check": "degeneration", "kind": kind, "scales": ells,
                        "deviations": devs, "monotone": monotone},
                       passed=bool(monotone) if monotone is not None else True)
            continue
        if kind == "e3_to_e2":
            base = sampling.draw_params2(rng, ctx)
        elif kind == "h3_to_h2":
            base = sampling.draw_h3(rng, ctx)
        elif kind == "h2_to_heine":
            base = sampling.draw_h2(rng, ctx)
        else:
            raise JobError(f"unknown degeneration kind {kind!r}")
        dscales = scales if kind != "h2_to_heine" else [1.0 / s for s in scales]
        rep = verify_degeneration(kind, base, dscales, ctx)
        report.add({"check": "degeneration", "kind": kind, "scales": rep.scales,
                    "deviations": rep.deviations, "monotone": rep.monotone},
                   passed=rep.passed)


def cmd_sample(job: dict, rng, ctx: QContext, report: Report):
    """Records of |f(x)| along the positive axis for plotting, each label at
    the parameters verify checks it at; written as CSV when the output file
    ends in .csv."""
    def measure(handle, xs, _):
        values = handle.read(xs)
        for value in values:
            if isinstance(value, Exception):
                raise value.with_traceback(None)
        return {"x": [float(v) for v in xs], "abs_f": [abs(v) for v in values]}, None

    _each_label(job, rng, ctx, report, "sample", 32, lambda handle, xs: xs, measure)


def _sample_rows_to_csv(rows: list[dict], out) -> None:
    out.write("label,x,abs_f\n")
    for row in rows:
        if row.get("check") != "sample" or "x" not in row:
            continue
        for x, v in zip(row["x"], row["abs_f"]):
            out.write(f"{row['label']},{x!r},{v!r}\n")


_COMMANDS = {
    "config": cmd_config,
    "verify": cmd_verify,
    "relations": cmd_relations,
    "limits": cmd_limits,
    "sample": cmd_sample,
}


# the job keys each command reads besides "seed" and "ctx"; any other key is
# an input error
_LABEL_KEYS = {"equation", "solutions", "params", "samples", "sigma"}
_JOB_KEYS = {
    "config": {"equation", "params", "operator"},
    "verify": _LABEL_KEYS,
    "relations": {"params"},
    "limits": {"kinds", "scales"},
    "sample": _LABEL_KEYS,
}


def run_job(command: str, job: dict, out, csv: bool = False) -> int:
    unread = sorted(set(job) - _JOB_KEYS[command] - {"seed", "ctx"})
    if unread:
        raise JobError(f"{command} reads no job keys {unread}")
    seed = job_seed(job)
    rng = np.random.default_rng(seed)
    ctx = build_context(job)
    report = Report()
    _COMMANDS[command](job, rng, ctx, report)
    if csv and command == "sample":
        _sample_rows_to_csv(report.rows, out)
        return EXIT_OK if report.failures == 0 else EXIT_FAIL
    return report.emit(command, seed, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhyp",
        description="verification reports for the q-hypergeometric equation families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--job", help="JSON job file", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    job: dict = {}
    if args.job:
        try:
            with open(args.job, encoding="utf-8") as fh:
                job = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read job file: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if not isinstance(job, dict):
            print(f"error: a job file must hold a JSON object, got {type(job).__name__}",
                  file=sys.stderr)
            return EXIT_INPUT
    if args.seed is not None:
        job["seed"] = args.seed
    if args.samples is not None:
        job["samples"] = args.samples

    try:
        if args.out:
            csv = args.out.endswith(".csv")
            with open(args.out, "w", encoding="utf-8") as fh:
                return run_job(args.command, job, fh, csv=csv)
        code = run_job(args.command, job, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # ``qhyp verify ... | head -n 1``: exit as SIGPIPE would end the
        # process, without a traceback; stdout goes to os.devnull, so that
        # flushing it at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QhypError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
