"""Command-line frontend: commands, exit codes, determinism."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhyp
from qhyp.cli import (EXIT_FAIL, EXIT_INPUT, EXIT_OK, EXIT_PIPE, JobError, _expand_labels, main,
                      parse_params, run_job)
from qhyp.qcore import QContext
from qhyp.sampling import draw_equation_params
from qhyp.solutions import CATALOGUE, all_labels


def run(command, job):
    buf = io.StringIO()
    code = run_job(command, job, buf)
    lines = [json.loads(line) for line in buf.getvalue().strip().split("\n")]
    return code, lines[:-1], lines[-1]


class TestConfigCommand:
    def test_named_equation_passes(self):
        code, rows, summary = run("config", {"equation": "heine", "seed": 1})
        assert code == EXIT_OK
        assert rows[0]["pass"] is True
        assert summary["failures"] == 0

    def test_balance_violation_is_input_error(self, tmp_path):
        job = {
            "equation": "e3",
            "params": {
                "a1": [1.0, 0], "a2": [1.1, 0], "a3": [0.9, 0],
                "b1": [1.0, 0], "b2": [1.0, 0], "b3": [1.0, 0],
                "A": [1.0, 0], "B": [1.0, 0],
            },
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code = main(["config", "--job", str(path)])
        assert code == EXIT_INPUT

    def test_raw_operator_reports_without_expectation(self):
        # the Heine-shaped operator supplied as raw records
        records = [
            {"i": 1, "j": 0, "re": 1.0}, {"i": 1, "j": 1, "re": -1.5},
            {"i": 1, "j": 2, "re": 0.56}, {"i": 0, "j": 0, "re": -1.0},
            {"i": 0, "j": 1, "re": 3.0}, {"i": 0, "j": 2, "re": -2.0},
        ]
        code, rows, _ = run("config", {"operator": records, "ctx": {"q": 0.5}})
        assert code == EXIT_OK
        assert "pass" not in rows[0]
        assert len(rows[0]["roots_x0"]) == 2

    def test_unknown_equation(self):
        buf = io.StringIO()
        with pytest.raises(Exception):
            run_job("config", {"equation": "nope"}, buf)


class TestVerifyCommand:
    def test_series_families_pass(self):
        code, rows, summary = run(
            "verify", {"equation": "e3", "solutions": "thmser3.all",
                       "seed": 3, "samples": 4})
        assert code == EXIT_OK
        assert len(rows) == 6
        assert all(r["max_residual"] < 1e-8 for r in rows)

    def test_heine_catalogue_row_count(self):
        code, rows, _ = run(
            "verify", {"equation": "heine", "solutions": "heine.all",
                       "seed": 2, "samples": 4})
        assert code == EXIT_OK
        assert len(rows) == 32

    def test_broken_balance_fails(self, tmp_path):
        """Given params are always validated: a broken balance is an input
        error before any row runs."""
        job = {
            "equation": "e3",
            "solutions": ["thmint3.phi3[1,2]"],
            "samples": 4,
            "params": {
                "a1": [1.1, 0.2], "a2": [0.9, -0.1], "a3": [1.2, 0.1],
                "b1": [1.0, 0.1], "b2": [1.05, 0], "b3": [0.95, -0.2],
                "A": [0.21, 0.05], "B": [1.0, 0.1],
            },
        }
        assert main(["verify", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match=r"need a1 a2 a3 A = q\^2 b1 b2 b3 B"):
            run_job("verify", job, io.StringIO())

    @pytest.mark.parametrize("equation, family", [("e3", "thmint3"), ("e2", "thmint2")])
    def test_integral_labels_read_the_same_from_a_shared_table(self, equation, family):
        """The labels of an all-labels job share their single-endpoint
        integrals; each row equals the row of a job of that label alone."""
        job = {"equation": equation, "solutions": f"{family}.all", "seed": 5, "samples": 4}
        _, rows, _ = run("verify", job)
        assert [r["label"] for r in rows] == sorted(all_labels(family))
        for row in rows:
            _, alone, _ = run("verify", {**job, "solutions": [row["label"]]})
            assert alone == [row]
        out1, out2 = io.StringIO(), io.StringIO()
        run_job("verify", dict(job), out1)
        run_job("verify", dict(job), out2)
        assert out1.getvalue() == out2.getvalue()

    def test_deterministic_output(self):
        job = {"equation": "e2", "solutions": "thmser2.all", "seed": 11, "samples": 4}
        out1, out2 = io.StringIO(), io.StringIO()
        run_job("verify", dict(job), out1)
        run_job("verify", dict(job), out2)
        assert out1.getvalue() == out2.getvalue()


class TestRelationsCommand:
    def test_report_shape(self):
        code, rows, summary = run("relations", {"seed": 0})
        checks = {r["check"] for r in rows}
        assert {"cocycle", "relation_matrix_rank", "group_relations",
                "g1_orbit", "casoratian_independent", "casoratian_dependent",
                "heine_connection_constant"} <= checks
        cocycle = next(r for r in rows if r["check"] == "cocycle")
        assert cocycle["pass"] and cocycle["deviation"] < 1e-12
        rank = next(r for r in rows if r["check"] == "relation_matrix_rank")
        assert rank["rank"] == 3
        # the order-32 claim is not realized by the parameter maps: the
        # honest report carries the computed orbit size and a failing row
        orbit_row = next(r for r in rows if r["check"] == "g1_orbit")
        assert orbit_row["size"] == 16 and orbit_row["pass"] is False
        assert code == EXIT_FAIL


class TestLimitsCommand:
    def test_monotone_reports(self):
        code, rows, _ = run("limits", {"seed": 0})
        assert code == EXIT_OK
        for row in rows:
            assert row["monotone"] is True
            assert row["deviations"][0] > row["deviations"][-1]
        op_rows = [r for r in rows if r["kind"] in ("e3_to_e2", "h3_to_h2", "h2_to_heine")]
        assert all(r["deviations"][-1] < 1e-7 for r in op_rows)

    def test_single_scale_informational(self):
        code, rows, _ = run("limits", {"seed": 0, "scales": [1e6],
                                       "kinds": ["e3_to_e2"]})
        assert code == EXIT_OK
        assert rows[0]["monotone"] is None

    def test_series_row_takes_one_lattice_step_per_scale(self):
        """Every scale past the third used to be dropped from the series row."""
        code, rows, _ = run("limits", {"seed": 0, "scales": [1e3, 1e5, 1e7, 1e9]})
        row = next(r for r in rows if r["kind"] == "e3_series_to_e2_series")
        assert len(row["scales"]) == len(row["deviations"]) == 4
        assert row["monotone"] is True

    @pytest.mark.parametrize("scales", [[], "1e5", [0.0, 1e5], [-1e5], [True], ["1e5"], None])
    def test_scales_must_be_a_non_empty_list_of_positive_numbers(self, tmp_path, scales):
        """"scales": [] used to report four passing rows, three of them with
        no deviation computed."""
        job = {"seed": 0, "scales": scales}
        assert main(["limits", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="scales must be a non-empty list"):
            run_job("limits", job, io.StringIO())

    @pytest.mark.parametrize("kinds", ["e3_to_e2", [], [["e3_to_e2"]], None])
    def test_kinds_must_be_a_list_of_names(self, tmp_path, kinds):
        """A string used to be iterated one character at a time."""
        job = {"seed": 0, "kinds": kinds}
        assert main(["limits", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="kinds must be a non-empty list"):
            run_job("limits", job, io.StringIO())


class TestSampleCommand:
    @pytest.mark.parametrize("seed", range(5))
    def test_heine_extra_rows_meet_their_conditions(self, seed):
        """Each heine_extra row draws the tuple verify checks it at; drawn
        with the equation's shared tuple instead, the formal series diverged
        and the integral analog left the unit disc."""
        code, rows, _ = run("sample", {"equation": "heine", "solutions": "heine_extra.all",
                                       "seed": seed, "samples": 4})
        assert code == EXIT_OK
        assert [r["label"] for r in rows] == ["heine_extra.1", "heine_extra.2"]
        assert all(len(r["abs_f"]) == 4 for r in rows)

    def test_row_does_not_depend_on_the_other_labels(self):
        """The labels of one equation share one tuple, as in verify."""
        job = {"equation": "heine", "solutions": ["heine.1", "heine.3"], "seed": 0, "samples": 6}
        _, rows, _ = run("sample", job)
        _, alone, _ = run("sample", {**job, "solutions": ["heine.3"]})
        assert alone == rows[1:]

    def test_emits_values(self):
        code, rows, _ = run("sample", {"equation": "heine",
                                       "solutions": ["heine.1"],
                                       "seed": 1, "samples": 8})
        assert code == EXIT_OK
        assert len(rows[0]["x"]) == 8
        assert all(v >= 0 for v in rows[0]["abs_f"])

    def test_csv_output(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"equation": "heine",
                                   "solutions": ["heine.1"],
                                   "seed": 1, "samples": 6}))
        out = tmp_path / "samples.csv"
        assert main(["sample", "--job", str(job), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label,x,abs_f"
        assert len(lines) == 7
        assert lines[1].startswith("heine.1,")


def child_env():
    """The environment of a child that imports the same qhyp as this
    process, installed or not."""
    path = os.pathsep.join(filter(None, [str(Path(qhyp.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEntryPoint:
    def test_console_invocation(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"equation": "heine", "seed": 1}))
        out = tmp_path / "report.ndjson"
        proc = subprocess.run(
            [sys.executable, "-m", "qhyp.cli", "config",
             "--job", str(job), "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(out.read_text().strip().split("\n")[-1])["failures"] == 0

    def test_closed_output_pipe(self, tmp_path):
        """A report written to a pipe whose reader has gone (as ``| head -n 1``
        leaves it) exits 141, as SIGPIPE would end it, with no traceback."""
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"equation": "heine", "solutions": "heine.all", "seed": 0}))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qhyp.cli", "verify", "--job", str(job)],
                stdout=write, stderr=subprocess.PIPE, timeout=120, env=child_env(),
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"")

    def test_missing_job_file(self):
        assert main(["verify", "--job", "/nonexistent/job.json"]) == EXIT_INPUT

    @pytest.mark.parametrize("label", ["thmser3.9", "thmint3.phi3[1,5]", "thmint3.phi3[1,1]",
                                       "thmint3.foo[1,2]", "thmint2.phi2[2,1]"])
    def test_unknown_label_index(self, tmp_path, label):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"equation": "e3",
                                   "solutions": [label], "seed": 1}))
        assert main(["verify", "--job", str(job)]) == EXIT_INPUT


def drawn_params(kind, **override):
    """A drawn tuple of ``kind`` as job params, with the fields ``override``."""
    p = draw_equation_params(kind, np.random.default_rng(3), QContext(0.5))
    return {**{f.name: [getattr(p, f.name).real, getattr(p, f.name).imag]
               for f in dataclasses.fields(p)}, **override}


def write_job(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


class TestJobInput:
    def test_zero_heine_parameter_is_input_error(self, tmp_path):
        """log_q 0 is undefined: a zero a, b or c is refused before any row runs."""
        for name in "abc":
            params = {"a": [0.5, 0.1], "b": [1.2, 0.0], "c": [1.7, 0.2], name: [0, 0]}
            job = {"equation": "heine", "solutions": ["heine.2"], "params": params}
            assert main(["verify", "--job", write_job(tmp_path, job)]) == EXIT_INPUT

    @pytest.mark.parametrize("command, job", [
        ("config", {"equation": "e3", "params": drawn_params("e3", a1=0, b1=0)}),
        ("verify", {"equation": "e3", "params": drawn_params("e3", a1=0, b1=0)}),
        ("sample", {"equation": "e3", "params": drawn_params("e3", A=0, B=0)}),
        ("relations", {"params": drawn_params("e3", A=0, B=0)}),
        ("config", {"equation": "e2", "params": drawn_params("e2", a1=0, b1=0)}),
        ("verify", {"equation": "e2", "params": drawn_params("e2", A=0, B=0)}),
        ("config", {"equation": "h3", "params": drawn_params("h3", t1=0)}),
        ("config", {"equation": "qheun", "params": drawn_params("qheun", t1=0)}),
        ("config", {"equation": "qheun3", "params": drawn_params("qheun3", t1=0)}),
        ("config", {"equation": "h2", "params": drawn_params("h2", t1=0)}),
        ("config", {"equation": "heine", "params": {"a": math.nan, "b": 1.2, "c": 1.7}}),
        ("verify", {"equation": "heine", "params": {"a": [0.5, math.inf], "b": 1.2, "c": 1.7}}),
        ("config", {"operator": [{"i": 0, "j": 0, "re": math.nan}, {"i": 1, "j": 1, "re": 1.0}]}),
    ], ids=["e3-config-a1b1", "e3-verify-a1b1", "e3-sample-AB", "e3-relations-AB",
            "e2-config-a1b1", "e2-verify-AB", "h3-config-t1", "qheun-config-t1",
            "qheun3-config-t1", "h2-config-t1", "heine-nan", "heine-inf", "operator-nan"])
    def test_zero_divisor_or_non_finite_number_is_input_error(self, tmp_path, capsys, command, job):
        """A zero parameter that the balance check or ``build_h3`` divides by,
        a zero singular point t_i of any equation that has them, or a NaN or
        infinity (which json.load accepts), is refused with a message, not a
        traceback or a FAIL row."""
        assert main([command, "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("equation", ["h2", "h3", "qheun", "qheun3"])
    def test_all_for_an_equation_without_catalogue_rows(self, tmp_path, equation):
        job = {"equation": equation, "solutions": "all", "seed": 0, "params": {"a": 1}}
        assert main(["verify", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match=equation):
            _expand_labels(job, equation)

    def test_all_without_an_equation_names_every_label(self):
        assert _expand_labels({"solutions": "all"}, None) == list(CATALOGUE)

    @pytest.mark.parametrize("kind", ["heine", "qheun", "qheun3", "h2", "h3", "e2", "e3"])
    def test_parameter_fields_follow_the_dataclass(self, tmp_path, kind):
        """Every field without a default is required, in the dataclass order;
        E, the only field with one, may be omitted."""
        p = draw_equation_params(kind, np.random.default_rng(3), QContext(0.5))
        raw = {f.name: [getattr(p, f.name).real, getattr(p, f.name).imag]
               for f in dataclasses.fields(p)}
        assert parse_params(kind, raw) == p
        first = dataclasses.fields(p)[0].name
        job = {"equation": kind, "params": {k: v for k, v in raw.items() if k != first}}
        buf = io.StringIO()
        with pytest.raises(JobError, match=rf"missing parameter fields for {kind}: \['{first}'\]"):
            run_job("config", job, buf)
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        if "E" in raw:
            without_e = {k: v for k, v in raw.items() if k != "E"}
            assert parse_params(kind, without_e) == dataclasses.replace(p, E=0.0)

    @pytest.mark.parametrize("equation", [["e3"], {"kind": "e3"}, 3, None])
    def test_equation_that_is_not_a_name_is_input_error(self, tmp_path, equation):
        """A list or object "equation" is refused with exit 2, not a TypeError."""
        job = {"equation": equation, "seed": 0}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="equation must be one of"):
            run_job("config", job, io.StringIO())
        with pytest.raises(ValueError, match="unknown equation kind"):
            draw_equation_params(equation, np.random.default_rng(0), QContext(0.5))

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("samples", [0, -3, True, 2.7, 2.0, "4", None, [4]])
    def test_samples_must_be_a_positive_integer(self, tmp_path, command, samples):
        """0 used to pass after checking no point; true and 2.7 were read as
        1 and 2."""
        job = {"equation": "heine", "solutions": ["heine.1"], "seed": 0, "samples": samples}
        assert main([command, "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="samples must be a positive integer"):
            run_job(command, job, io.StringIO())

    @pytest.mark.parametrize("content", [[1, 2], "job", 3, None])
    def test_job_file_must_hold_an_object(self, tmp_path, content):
        assert main(["config", "--job", write_job(tmp_path, content)]) == EXIT_INPUT
        assert main(["config", "--job", write_job(tmp_path, content), "--seed", "1"]) == EXIT_INPUT

    @pytest.mark.parametrize("ctx", [[], [0.5], 0.5, "q"])
    def test_ctx_must_be_an_object(self, tmp_path, ctx):
        job = {"equation": "heine", "seed": 0, "ctx": ctx}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="ctx must be an object"):
            run_job("config", job, io.StringIO())

    @pytest.mark.parametrize("seed", [[1], True, False, -1, 2.0, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, seed):
        """[1] used to raise TypeError (exit 1); true was read as 1."""
        job = {"equation": "heine", "seed": seed}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="seed must be a non-negative integer"):
            run_job("config", job, io.StringIO())

    @pytest.mark.parametrize("max_terms", [2.7, True, 0, -5, "512", None])
    def test_max_terms_must_be_a_positive_integer(self, tmp_path, max_terms):
        """2.7 and true used to be read as 2 and 1."""
        job = {"equation": "heine", "seed": 0, "ctx": {"max_terms": max_terms}}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="max_terms must be a positive integer"):
            run_job("config", job, io.StringIO())

    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_samples_accepts_positive_integers(self, command):
        code, rows, _ = run(command, {"equation": "heine", "solutions": ["heine.1"],
                                      "seed": 0, "samples": 1})
        assert code == EXIT_OK
        assert len(rows[0]["x"] if command == "sample" else range(rows[0]["samples"])) == 1

    @pytest.mark.parametrize("solutions", [5, None, [], [5], {"label": "heine.1"}])
    def test_solutions_must_be_a_label_or_a_list_of_labels(self, tmp_path, solutions):
        """5 and null used to raise TypeError (exit 1)."""
        job = {"equation": "heine", "seed": 0, "solutions": solutions}
        assert main(["verify", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="solutions must be a label or a non-empty list"):
            run_job("verify", job, io.StringIO())

    @pytest.mark.parametrize("operator", [5, [], [{"i": 0}], [{"i": 0, "j": 0, "re": 1.0, "x": 1}],
                                          [{"i": True, "j": 0, "re": 1.0}],
                                          [{"i": 0, "j": 0, "re": "1"}], ["i"]])
    def test_operator_must_be_a_list_of_records(self, tmp_path, operator):
        """5 and [{"i": 0}] used to raise TypeError and KeyError (exit 1)."""
        job = {"operator": operator, "ctx": {"q": 0.5}}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="operator"):
            run_job("config", job, io.StringIO())

    @pytest.mark.parametrize("params", ["abc", [0.5, 1.2, 1.7], 3])
    def test_params_must_be_an_object(self, tmp_path, params):
        """"abc" used to raise TypeError (exit 1)."""
        job = {"equation": "heine", "seed": 0, "params": params}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match="params must be an object"):
            run_job("config", job, io.StringIO())

    @pytest.mark.parametrize("kind, extra", [("heine", "zz"), ("qheun", "e")])
    def test_unknown_parameter_names_are_refused(self, tmp_path, kind, extra):
        """Unknown names used to be ignored, so a misspelt E fell back to 0."""
        p = draw_equation_params(kind, np.random.default_rng(3), QContext(0.5))
        raw = {f.name: [getattr(p, f.name).real, getattr(p, f.name).imag]
               for f in dataclasses.fields(p) if f.name != "E"}
        job = {"equation": kind, "params": {**raw, extra: 3}}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match=rf"unknown parameter fields for {kind}: \['{extra}'\]"):
            run_job("config", job, io.StringIO())

    @pytest.mark.parametrize("job, message", [
        ({"equation": "e2", "solutions": ["thmint2.phi2[1,2]"], "sigma": True}, "expected a number"),
        ({"equation": "heine", "params": {"a": True, "b": 1.2, "c": 1.7}}, "expected a number"),
        ({"equation": "heine", "params": {"a": [0.5, "0.1"], "b": 1.2, "c": 1.7}},
         "expected a number"),
        ({"equation": "heine", "ctx": {"q": [0.5, False]}}, "expected a number"),
        ({"equation": "heine", "ctx": {"tail_tol": "1e-16"}}, "tail_tol must be a number"),
        ({"equation": "heine", "ctx": {"eq_tol": True}}, "eq_tol must be a number"),
    ])
    def test_booleans_and_strings_are_not_numbers(self, tmp_path, job, message):
        """true used to be read as 1, "0.1" as 0.1 and "1e-16" as 1e-16."""
        command = "verify" if "solutions" in job else "config"
        job = {**job, "seed": 0, **({"samples": 2} if command == "verify" else {})}
        assert main([command, "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match=message):
            run_job(command, job, io.StringIO())


class TestRarePaths:
    def test_seed_and_samples_flags_override_the_job(self, tmp_path):
        job = {"equation": "heine", "solutions": ["heine.1"], "seed": 0, "samples": 4}
        out = tmp_path / "report.ndjson"
        argv = ["verify", "--job", write_job(tmp_path, job), "--out", str(out)]
        assert main(argv + ["--seed", "7", "--samples", "3"]) == EXIT_OK
        lines = [json.loads(line) for line in out.read_text().strip().split("\n")]
        assert lines[0]["samples"] == 3 and lines[-1]["seed"] == 7
        _, rows, summary = run("verify", {**job, "seed": 7, "samples": 3})
        assert lines == rows + [summary]

    def test_verify_heine_extra_draws_each_row(self):
        code, rows, _ = run("verify", {"equation": "heine", "solutions": "heine_extra.all",
                                       "seed": 0, "samples": 4})
        assert code == EXIT_OK
        assert [r["label"] for r in rows] == ["heine_extra.1", "heine_extra.2"]
        assert all(r["pass"] and r["max_residual"] < 1e-8 for r in rows)

    def test_sample_reports_an_error_row(self):
        """c = q^-2 puts a pole on the series of heine.1: the label reports
        the error and fails; the run goes on."""
        job = {"equation": "heine", "solutions": ["heine.1", "heine.3"], "samples": 4,
               "params": {"a": 0.5, "b": 1.2, "c": 4.0}, "ctx": {"q": 0.5}}
        code, rows, summary = run("sample", job)
        assert code == EXIT_FAIL and summary["failures"] == 1
        assert rows[0] == {"check": "sample", "label": "heine.1", "pass": False,
                           "error": "PoleError: q-hypergeometric series: a denominator "
                                    "factor vanishes at n = 2"}
        assert rows[1]["label"] == "heine.3" and len(rows[1]["abs_f"]) == 4

    def test_params_apply_to_the_named_equation_only(self):
        """The labels of another kind draw their own parameters, in verify
        and in sample."""
        p = draw_equation_params("e3", np.random.default_rng(3), QContext(0.5))
        params = {f.name: [getattr(p, f.name).real, getattr(p, f.name).imag]
                  for f in dataclasses.fields(p)}
        job = {"equation": "e3", "solutions": ["heine.1", "thmser3.1"], "params": params,
               "seed": 0, "samples": 4}
        for command in ("verify", "sample"):
            code, rows, _ = run(command, job)
            assert code == EXIT_OK
            assert [r["label"] for r in rows] == ["heine.1", "thmser3.1"]
            _, alone, _ = run(command, {**job, "solutions": ["thmser3.1"]})
            assert alone == rows[1:]

    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_params_are_read_without_labels_of_their_equation(self, tmp_path, command):
        """Params without an equation, for an unknown one, or for one that
        no label of the job solves applied to no label and were ignored,
        unread."""
        params = {"a": 0.5, "b": 1.2, "c": 1.7}
        for job, message in (({"solutions": ["heine.1"], "params": params},
                              "params need an equation"),
                             ({"equation": "heien", "solutions": ["heine.1"], "params": params},
                              "equation must be one of"),
                             ({"equation": "h2", "solutions": ["heine.1"], "params": params},
                              "unknown parameter fields for h2")):
            assert main([command, "--job", write_job(tmp_path, job)]) == EXIT_INPUT
            with pytest.raises(JobError, match=message):
                run_job(command, job, io.StringIO())


class TestJobKeys:
    @pytest.mark.parametrize("command, job, unread", [
        ("config", {"equation": "heine", "solutions": "heine.1"}, "solutions"),
        ("verify", {"equation": "heine", "solution": "heine.1"}, "solution"),
        ("sample", {"equation": "heine", "solutions": ["heine.1"], "allow_invalid_params": True},
         "allow_invalid_params"),
        ("relations", {"samples": 4}, "samples"),
        ("limits", {"equation": "e3"}, "equation"),
        ("relations", {"equation": "e3"}, "equation"),
        ("relations", {"equation": "heine", "params": {"zz": 1}}, "equation"),
    ])
    def test_keys_the_command_does_not_read_are_refused(self, tmp_path, command, job, unread):
        """A misspelt "solutions" used to verify every label of the equation."""
        job = {**job, "seed": 0}
        assert main([command, "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match=rf"{command} reads no job keys \['{unread}'\]"):
            run_job(command, job, io.StringIO())

    def test_tuple_keys_beside_an_operator_are_refused(self, tmp_path):
        """A raw operator used to run with "equation" and "params" ignored."""
        job = {"operator": [{"i": 0, "j": 0, "re": 1.0}], "equation": "nope", "params": 5}
        assert main(["config", "--job", write_job(tmp_path, job)]) == EXIT_INPUT
        with pytest.raises(JobError, match=r"config reads no job keys \['equation', 'params'\] "
                                           "beside an operator"):
            run_job("config", job, io.StringIO())

    def test_flags_add_keys(self, tmp_path):
        job = write_job(tmp_path, {"equation": "heine", "seed": 0})
        assert main(["config", "--job", job, "--samples", "3"]) == EXIT_INPUT
        assert main(["config", "--job", job, "--seed", "3"]) == EXIT_OK
