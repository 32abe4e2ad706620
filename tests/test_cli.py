"""CLI contract: exit codes, JSON reports, file round trips."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from strictfeas import cli, facial
from strictfeas.bell import problem1_simplified
from strictfeas.cli import BUILTINS, _problems_equal, load_problem, main, store_problem
from strictfeas.exactnum import format_scalar, qarray, quad
from strictfeas.facial import RoundingFailedError
from strictfeas.model import (
    MatrixPencil,
    SdpProblem,
    StatusTag,
    problem_from_json,
    problem_to_json,
    problem_to_json_str,
    validate,
)
from strictfeas.solver import solve_sdp

from helpers import (
    GOLDEN,
    assert_witness_proves,
    pinned_objective_problem,
    pinned_offset_problem,
    planted_chain_problem,
    random_certified_sdp,
)


@pytest.fixture()
def tmpfile(tmp_path):
    def make(name):
        return str(tmp_path / name)

    return make


def write_builtin(name, path):
    store_problem(BUILTINS[name](), path)


def strict_json(text):
    """json.loads that rejects Infinity, -Infinity and NaN, as JSON does."""

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in a JSON report")

    return json.loads(text, parse_constant=reject)


def write_doc(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh)


class TestLoadStore:
    def test_round_trip_canonical_bytes(self, tmpfile):
        path = tmpfile("p2.json")
        write_builtin("problem2-raw", path)
        prob = load_problem(path)
        again = tmpfile("p2-again.json")
        store_problem(prob, again)
        assert open(path).read() == open(again).read()

    def test_exported_note_survives_loading(self, tmpfile):
        path = tmpfile("p1.json")
        assert main(["export", "problem1-raw", "--out", path]) == 0
        note = BUILTINS["problem1-raw"]().note
        assert note
        assert load_problem(path).note == note

    def test_loaded_builtin_validates(self, tmpfile):
        path = tmpfile("p1.json")
        write_builtin("problem1-raw", path)
        assert validate(load_problem(path)) == []

    def test_duplicate_variables_rejected(self, tmpfile):
        path = tmpfile("dup.json")
        doc = json.loads(problem_to_json_str(BUILTINS["chsh-toy"]()))
        doc["vars"].append(dict(doc["vars"][0]))
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["solve", path]) == 1

    def test_duplicate_entry_rejected(self, tmpfile, capsys):
        path = tmpfile("dup-entry.json")
        write_doc(
            {"n": 2, "scalar": "exact", "F0": [[1, 1, "1"], [1, 1, "2"]], "vars": []}, path
        )
        assert main(["solve", path]) == 1
        assert "F0[1]: duplicate entry (1,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "diagnose", "reduce"])
    @pytest.mark.parametrize(
        "field, value",
        [("b", "inf"), ("b", "nan"), ("offset", "-inf"), ("offset", "nan")],
    )
    def test_non_finite_objective_or_offset_rejected(
        self, tmpfile, capsys, command, field, value
    ):
        prob, _, _ = random_certified_sdp(np.random.default_rng(77), 3, 2)
        doc = json.loads(problem_to_json_str(prob))
        if field == "b":
            doc["vars"][0]["b"] = value
        else:
            doc["offset"] = value
        path = tmpfile("non-finite.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main([command, path, "--json"]) == 1
        errors = json.loads(capsys.readouterr().out)["errors"]
        assert len(errors) == 1 and "NonFinite" in errors[0]

    def test_parse_error_position(self, tmpfile, capsys):
        path = tmpfile("bad.json")
        with open(path, "w") as fh:
            fh.write('{"name": "x",\n  "n": ???}')
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    @pytest.mark.parametrize(
        "scalar, patch, message",
        [
            ("exact", {"vars": 5}, "vars must be a list"),
            ("exact", {"F0": 5}, "F0 must be a list"),
            ("exact", {"vars": [1]}, "vars[0] must be an object"),
            ("exact", {"vars": [{"name": "y", "F": 5}]}, "vars[0].F must be a list"),
            ("exact", {"name": 5}, "name must be a string"),
            ("exact", {"F0": [[1, 1, 1.5]]}, "F0[0]: exact value 1.5 must be a string"),
            ("exact", {"F0": [[1, 1, True]]}, "F0[0]: True is not a scalar value"),
            ("exact", {"F0": [[1, 1, None]]}, "F0[0]: None is not a scalar value"),
            ("exact", {"F0": [[1, 1, "1/0"]]}, "F0[0]: malformed exact scalar '1/0'"),
            ("exact", {"F0": [[[1], 1, "1"]]}, "F0[0]: expected [i, j, value]"),
            ("exact", {"vars": [{"name": "y", "b": [1]}]}, "vars[0].b: [1] is not"),
            ("exact", {"offset": [2]}, "offset: [2] is not a scalar value"),
            ("double", {"vars": [{"name": "y", "b": [1]}]}, "vars[0].b: [1] is not"),
            ("double", {"F0": [[1, 1, None]]}, "F0[0]: None is not a scalar value"),
            ("double", {"F0": [[1, 1, "one"]]}, "F0[0]: 'one' is not a number"),
            ("exact", {"n": 2.9}, "n must be an integer, not 2.9"),
            ("exact", {"n": "2"}, "n must be an integer, not '2'"),
            ("exact", {"n": True}, "n must be an integer, not True"),
            ("exact", {"F0": [[1.7, True, "1"]]}, "F0[0]: expected [i, j, value] with integer"),
            ("exact", {"F0": [[1, "2", "1"]]}, "F0[0]: expected [i, j, value] with integer"),
            ("double", {"F0": [[1.0, 1, 1.0]]}, "F0[0]: expected [i, j, value] with integer"),
            ("exact", {"vars": [{"name": "y", "F": [[1, 2]]}]}, "vars[0].F[0]: expected [i, j"),
        ],
    )
    def test_malformed_problem_file_is_a_reported_error(
        self, tmpfile, capsys, scalar, patch, message
    ):
        doc = {
            "name": "bad",
            "n": 2,
            "scalar": scalar,
            "F0": [[1, 1, "1"], [2, 2, "1"]],
            "vars": [{"name": "y", "b": "1", "F": [[1, 2, "1"]]}],
            **patch,
        }
        path = tmpfile("bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["diagnose", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        (error,) = json.loads(captured.out)["errors"]
        assert message in error


def rounding_fails(prob):
    raise RoundingFailedError("no candidate verified")


class TestErrorReports:
    """`main` writes one report per run; on a caught error it keeps what ran
    before the error (inputs, claims, solver entries, the run's time) and
    adds the error."""

    def test_reproduce_error_names_the_target(self, monkeypatch, capsys):
        monkeypatch.setattr(facial, "find_reducing_certificate", rounding_fails)
        assert main(["reproduce", "chsh-toy", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: RoundingFailedError: no candidate verified\n"
        doc = json.loads(captured.out)
        assert doc["command"] == "reproduce"
        assert doc["inputs"] == {"target": "chsh-toy"}
        assert doc["errors"] == ["RoundingFailedError: no candidate verified"]
        # the raw solve ran before the diagnosis failed, and its results stay
        assert [c["claim"] for c in doc["claims"]] == ["raw solve shows the trouble signature"]
        assert list(doc["solver"]) == ["chsh-toy-raw"]
        assert doc["timings"]["seconds"] > 0

    def test_diagnose_error_keeps_the_inputs_of_a_successful_run(
        self, tmpfile, monkeypatch, capsys
    ):
        path = tmpfile("toy.json")
        write_builtin("chsh-toy", path)
        assert main(["diagnose", path, "--json"]) == 0
        ok = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(cli, "find_reducing_certificate", rounding_fails)
        assert main(["diagnose", path, "--json"]) == 1
        failed = json.loads(capsys.readouterr().out)
        assert failed["inputs"] == ok["inputs"] == {"file": path, "name": "chsh-toy-raw"}
        assert failed["errors"] == ["RoundingFailedError: no candidate verified"]
        assert failed["reduction"] == {}

    def test_reduce_error_keeps_the_certificate_found_before_it(self, tmpfile, capsys):
        # F(y) = [[y, 1], [1, 0]]: e2 e2^T is a verified certificate, and its
        # relation 1 = 0 is inconsistent
        path, rep = tmpfile("weak.json"), tmpfile("weak-report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"name": "weak", "n": 2, "scalar": "exact", "F0": [[1, 2, "1"]],
                 "vars": [{"name": "y", "b": "0", "F": [[1, 1, "1"]]}]},
                fh,
            )
        assert main(["reduce", path, "--report", rep]) == 1
        assert capsys.readouterr().err == (
            "error: InconsistentConstraintsError: the implied linear relations "
            "are inconsistent: the original SDP is infeasible\n"
        )
        reduction = json.load(open(rep))["reduction"]
        assert reduction["rounds"] == [] and reduction["eliminated"] == []
        cert = reduction["failed_round"]["certificate"]
        assert cert["X"] == [[2, 2, "1"]]
        assert cert["range_vectors"] == [["0", "1"]]

    def test_reduce_error_keeps_the_completed_rounds(self, tmpfile, monkeypatch, capsys):
        search = facial.find_reducing_certificate
        calls = []

        def second_round_fails(prob):
            calls.append(prob)
            return search(prob) if len(calls) == 1 else rounding_fails(prob)

        monkeypatch.setattr(facial, "find_reducing_certificate", second_round_fails)
        path = tmpfile("chain.json")
        store_problem(planted_chain_problem(), path)
        assert main(["reduce", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == ["RoundingFailedError: no candidate verified"]
        assert doc["reduction"]["eliminated"] == ["a"]
        assert len(doc["reduction"]["rounds"]) == 1
        assert "failed_round" not in doc["reduction"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "{toy}", "--out", "{bad}"],
            ["reduce", "{toy}", "--report", "{bad}"],
            ["export", "chsh-toy", "--out", "{bad}"],
            ["solve", "{toy}", "--out", "{bad}"],
            ["diagnose", "{toy}", "--out", "{bad}"],
            ["reproduce", "chsh-toy", "--out", "{bad}"],
        ],
        ids=["reduce-out", "reduce-report", "export", "solve", "diagnose", "reproduce"],
    )
    def test_unwritable_output_reports_the_path(self, argv, tmpfile, capsys):
        toy, bad = tmpfile("toy.json"), tmpfile("missing/x.json")
        write_builtin("chsh-toy", toy)
        assert main([a.format(toy=toy, bad=bad) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1

    def test_unwritable_reduced_problem_keeps_the_rounds(self, tmpfile, capsys):
        toy, bad = tmpfile("toy.json"), tmpfile("missing/x.json")
        write_builtin("chsh-toy", toy)
        assert main(["reduce", toy, "--out", bad, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        (error,) = doc["errors"]
        assert error.startswith(f"cannot write {bad}: ")
        assert len(doc["reduction"]["rounds"]) == 1 and doc["reduction"]["verdict"]

    def test_unreadable_file_reports_the_file(self, tmpfile, capsys):
        path = tmpfile("missing.json")
        assert main(["solve", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["inputs"] == {"file": path}
        (error,) = doc["errors"]
        assert error.startswith(f"cannot read {path}")


class TestSolveCommand:
    def test_raw_problem_exits_2_or_warns(self, tmpfile, capsys):
        path = tmpfile("p1raw.json")
        write_builtin("problem1-raw", path)
        code = main(["solve", path])
        out = capsys.readouterr().out
        assert code in (0, 2)
        # whichever way it fails, the report must carry the warning and the
        # facial-module recommendation
        assert "no strict-feasibility warning" not in out
        assert "strict-feasibility warning" in out
        assert "facial" in out

    def test_simplified_problem_exits_0(self, tmpfile, capsys):
        path = tmpfile("p1s.json")
        write_builtin("problem1-simplified", path)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "no strict-feasibility warning" in out

    def test_json_report(self, tmpfile, capsys):
        path = tmpfile("p2s.json")
        write_builtin("problem2-simplified", path)
        report_path = tmpfile("report.json")
        assert main(["solve", path, "--json", "--out", report_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "solve"
        assert doc["solver"]["status"] == "Optimal"
        assert abs(doc["solver"]["objective_dual"] - 0.1803398875) < 1e-6
        on_disk = json.load(open(report_path))
        assert on_disk["solver"]["status"] == "Optimal"

    def test_json_report_names_the_start(self, tmpfile, capsys):
        path = tmpfile("p2s.json")
        write_builtin("problem2-simplified", path)
        assert main(["solve", path, "--json"]) == 0
        assert strict_json(capsys.readouterr().out)["solver"]["start"] == "least-squares"

    def test_optimum_without_iterations_reports_zero_gap(self, tmpfile, capsys):
        path = tmpfile("one-entry.json")
        write_doc({"n": 1, "scalar": "exact", "F0": [[1, 1, "1"]], "vars": []}, path)
        assert main(["solve", path, "--json"]) == 0
        solver = strict_json(capsys.readouterr().out)["solver"]
        assert solver["status"] == "Optimal"
        assert solver["final_gap"] == 0.0

    def test_non_finite_diagnostics_are_null(self, tmpfile, capsys):
        # a constant pencil that is not PSD stops before any iteration, with
        # no gap to report
        path = tmpfile("not-psd.json")
        write_doc({"n": 1, "scalar": "exact", "F0": [[1, 1, "-1"]], "vars": []}, path)
        assert main(["solve", path, "--json"]) == 2
        solver = strict_json(capsys.readouterr().out)["solver"]
        assert solver["status"] == "PrimalInfeasible"
        assert solver["final_gap"] is None


class TestDiagnoseCommand:
    def test_problem2_prints_three_null_vectors(self, tmpfile, capsys):
        path = tmpfile("p2raw.json")
        write_builtin("problem2-raw", path)
        assert main(["diagnose", path]) == 0
        out = capsys.readouterr().out
        assert out.count("(") >= 3
        assert "rank 3" in out

    def test_problem1_prints_two_null_vectors(self, tmpfile, capsys):
        path = tmpfile("p1raw.json")
        write_builtin("problem1-raw", path)
        assert main(["diagnose", path]) == 0
        assert "rank 2" in capsys.readouterr().out

    def test_strictly_feasible_sample(self, tmpfile, capsys):
        rng = np.random.default_rng(77)
        prob, _, _ = random_certified_sdp(rng, 3, 2)
        path = tmpfile("strictly-feasible-sample.json")
        store_problem(prob, path)
        assert main(["diagnose", path]) == 0
        assert "StrictlyFeasible" in capsys.readouterr().out


    def test_infeasible_traceless_pencil_is_no_proof(self, tmpfile, capsys):
        # -I + y diag(1, -1) >= 0 has no solution; the exact layer once
        # called it strictly feasible by exact proof
        pencil = MatrixPencil.from_upper(
            2, "exact", [(0, 0, -1), (1, 1, -1)], [("y", [(0, 0, 1), (1, 1, -1)])]
        )
        path = tmpfile("infeasible-traceless.json")
        store_problem(SdpProblem(pencil=pencil, objective=(0,), name="infeasible"), path)
        for command in ("diagnose", "reduce"):
            assert main([command, path]) == 1
            captured = capsys.readouterr()
            assert "StrictlyFeasible" not in captured.out
            assert "SolverFailedError" in captured.err


class TestReduceCommand:
    def test_problem1_reduction_file(self, tmpfile, capsys):
        src = tmpfile("p1raw.json")
        dst = tmpfile("p1red.json")
        write_builtin("problem1-raw", src)
        assert main(["reduce", src, "--out", dst]) == 0
        out = capsys.readouterr().out
        assert "eliminated variables:" in out
        # the file holds the loop's final, restricted problem; round 1's
        # substituted problem is the hand-reduced pencil, entry for entry
        final, rounds, _ = facial.reduce_problem(load_problem(src))
        assert open(dst).read() == problem_to_json_str(final)
        reduced = rounds[0].substituted
        golden = BUILTINS["problem1-simplified"]()
        assert problem_to_json_str(reduced) == problem_to_json_str(
            golden.__class__(
                pencil=golden.pencil,
                objective=golden.objective,
                name=reduced.name,
                note=reduced.note,
            )
        )

    def test_problem2_reduction_single_variable(self, tmpfile):
        src = tmpfile("p2raw.json")
        dst = tmpfile("p2red.json")
        write_builtin("problem2-raw", src)
        assert main(["reduce", src, "--out", dst]) == 0
        assert load_problem(dst).var_names == ("mu",)

    def test_already_reduced_unchanged(self, tmpfile, capsys):
        # the certificate implies no substitution, so variables, objective
        # and offset stay; its range, the constant kernel of dimension 3,
        # restricts n from 9 to 6
        src = tmpfile("p2s.json")
        dst = tmpfile("p2s-red.json")
        write_builtin("problem2-simplified", src)
        assert main(["reduce", src, "--out", dst, "--json"]) == 0
        reduction = json.loads(capsys.readouterr().out)["reduction"]
        assert reduction["eliminated"] == []
        assert [len(r["face"]) for r in reduction["rounds"]] == [6]
        before, after = load_problem(src), load_problem(dst)
        assert (before.pencil.n, after.pencil.n) == (9, 6)
        assert (after.var_names, after.objective, after.objective_offset) == (
            before.var_names, before.objective, before.objective_offset
        )

    def test_pinned_objective_moves_into_the_offset(self, tmpfile, capsys):
        # the relations fix mu, the objective's only variable: it is
        # eliminated, and solve on the reduced file reports the optimum
        src, dst = tmpfile("pinned.json"), tmpfile("pinned-red.json")
        store_problem(pinned_objective_problem(), src)
        assert main(["reduce", src, "--out", dst, "--json"]) == 0
        reduction = json.loads(capsys.readouterr().out)["reduction"]
        assert reduction["eliminated"] == ["mu"]
        assert reduction["rounds"][0]["constraints"] == {
            "eliminated": [["mu", {"const": "1/2", "coeffs": {}}]]
        }
        assert main(["solve", dst, "--json"]) == 0
        solved = json.loads(capsys.readouterr().out)["solver"]
        assert solved["objective_dual"] == pytest.approx(0.5, abs=1e-9)

    def test_numeric_verdict_reported_as_evidence(self, tmpfile, capsys):
        # strictly feasible pencils whose cheap witnesses prove nothing: F0
        # is not positive definite and the least-squares fit of I has c0 < 0
        # (-1/7 and -2/3; F(y) > 0 for y > (1 + sqrt3)/2 and for y > 2), or
        # F0 is indefinite and I lies 1e-2 off the span.  Only the margin
        # solve sees that the slice holds no PSD matrix: reduce must not pass
        # the verdict off as a proof.  The 2 x 2 pencils span 2 of the 3
        # symmetric dimensions, so the margin SDP is posed on the slice side
        # and the detail states its optimum t*; the 3 x 3 one spans 3 of 6, a
        # tie, so it is posed over the span and stops at its objective cut
        eps = Fraction(1, 100)
        pencils = (
            ("negative-fit", 2, [(0, 0, -1), (0, 1, -1)], [("y", [(0, 0, 1), (1, 1, 2)])]),
            ("negative-fit-offdiag", 2, [(0, 0, -1)], [("y", [(0, 0, 1), (0, 1, 1), (1, 1, 2)])]),
            (
                "near-identity-span",
                3,
                [(0, 0, 1), (1, 1, -1)],
                [("a", [(0, 0, 1 + eps), (1, 1, 1), (2, 2, 1 - eps)]), ("b", [(0, 1, 1)])],
            ),
        )
        for name, n, f0, terms in pencils:
            pencil = MatrixPencil.from_upper(n, "exact", f0, terms)
            prob = SdpProblem(pencil=pencil, objective=(quad(1),) * len(terms), name=name)
            margin = facial.build_alternative_problem(prob)
            if n == 2:
                assert margin.var_names == ("slack_margin",)
                full = solve_sdp(margin)
                assert full.status.tag is StatusTag.OPTIMAL
                assert full.objective_dual < -facial.FEAS_CUT
                stated = f"slack margin {full.objective_dual:.3e})"
            else:
                cut = solve_sdp(margin, stop_above=facial.FEAS_CUT)
                assert cut.status.tag is StatusTag.OBJECTIVE_CUT_REACHED
                stated = f"slack margin at most {-cut.objective_dual:.3e})"
            path = tmpfile(f"{name}.json")
            store_problem(prob, path)
            assert main(["reduce", path, "--json"]) == 0
            reduced = json.loads(capsys.readouterr().out)["reduction"]
            assert reduced["verdict"] == "StrictlyFeasible"
            assert reduced["exact"] is False
            assert reduced["tolerance"] > 0
            assert stated in reduced["detail"]
            assert main(["diagnose", path, "--json"]) == 0
            diagnosed = json.loads(capsys.readouterr().out)["reduction"]
            assert {k: reduced[k] for k in diagnosed} == diagnosed
            assert main(["reduce", path]) == 0
            assert "not a proof" in capsys.readouterr().out


class TestReproduceCommand:
    def test_problem1(self, capsys):
        assert main(["reproduce", "problem1"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "all checks passed" in out

    def test_problem2_bound_comes_from_the_dual_matrix(self, capsys):
        # both halves of the proof are rounded from the reduced solve
        assert main(["reproduce", "problem2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        claims = {c["claim"]: c for c in doc["claims"]}
        point = claims["rounded optimal point is exactly feasible and attains the optimum"]
        assert point["ok"] and point["detail"] == "mu = -11+5*sqrt5"
        bound = claims["rounded dual certificate proves the optimum exactly (-11+5*sqrt5)"]
        assert bound["ok"] and bound["detail"] == "-11+5*sqrt5"
        assert all(c["ok"] for c in doc["claims"])
        assert doc["verification"][:2] == [
            {"claim": "primal point is feasible", "verdict": "Feasible"},
            {
                "claim": "objective is bounded above",
                "verdict": "Valid",
                "certified_bound": "-11+5*sqrt5",
                "scale": "1",
            },
        ]

    def test_toy_optimum_is_proved_exactly(self, capsys):
        assert main(["reproduce", "chsh-toy", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        claims = {c["claim"]: c for c in doc["claims"]}
        assert claims["rounded dual certificate proves the optimum exactly (0)"]["ok"]
        assert not any("1e-8" in c["claim"] for c in doc["claims"])
        assert [v["verdict"] for v in doc["verification"]] == ["Feasible", "Valid"]

    def test_json_stdout_is_only_json(self, capsys):
        assert main(["reproduce", "chsh-toy", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "reproduce"
        assert doc["claims"] and all(c["ok"] for c in doc["claims"])

    def test_full_report_is_strict_json(self, capsys):
        assert main(["reproduce", "all", "--json"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["claims"] and all(c["ok"] for c in doc["claims"])

    def test_exact_sections_are_pinned(self, capsys):
        # claims, reduction and verification are exact and host independent;
        # solver and timings hold floats that move with BLAS and host
        assert main(["reproduce", "all", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        exact = {k: doc[k] for k in ("claims", "reduction", "verification")}
        digest = hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()
        assert digest == "2cedd35ac460046d098ad34bda0f4e9f9660123d7d193cc8e5b8cd5db29e7347"

    def test_plain_run_prints_every_claim(self, capsys):
        assert main(["reproduce", "chsh-toy"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "overall: all checks passed"
        claims = [line for line in lines if line.startswith("[PASS] chsh-toy: ")]
        assert len(claims) == len(lines) - 1 == 7

    def test_reproduce_runs_the_library_loop(self, monkeypatch, capsys):
        calls, finals = [], []
        loop = facial.reduce_problem

        def spy(prob):
            calls.append(prob.name)
            out = loop(prob)
            finals.append(out[0])
            return out

        def unused(*args):
            raise AssertionError("reproduce runs one round by hand")

        monkeypatch.setattr(cli, "reduce_problem", spy)
        monkeypatch.setattr(cli, "derive_implicit_constraints", unused)
        monkeypatch.setattr(cli, "apply_constraints", unused)
        assert main(["reproduce", "chsh-toy", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert calls == ["chsh-toy-raw"]
        assert all(c["ok"] for c in doc["claims"])
        assert list(doc["reduction"]) == [
            "chsh-toy-certificate", "chsh-toy-constraints", "chsh-toy-verdict"
        ]
        # the reduced problem's fit of I proves it strictly feasible exactly
        verdict = doc["reduction"]["chsh-toy-verdict"]
        assert verdict["verdict"] == "StrictlyFeasible" and verdict["exact"] is True
        assert verdict["tolerance"] is None
        assert_witness_proves(finals[0].pencil, verdict["detail"])

    @pytest.mark.parametrize("target, exact", [("problem1", False), ("problem2", True)])
    def test_final_verdict(self, target, exact, monkeypatch, capsys):
        # problem 2's reduced problem is proved strictly feasible by a
        # rounded fit of I; problem 1's fit is indefinite (its smallest
        # eigenvalue is about -0.016), so its verdict stays the margin
        # solve's evidence
        finals = []
        loop = facial.reduce_problem

        def spy(prob):
            out = loop(prob)
            finals.append(out[0])
            return out

        monkeypatch.setattr(cli, "reduce_problem", spy)
        assert main(["reproduce", target, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["ok"] for c in doc["claims"])
        verdict = doc["reduction"][f"{target}-verdict"]
        assert verdict["verdict"] == "StrictlyFeasible" and verdict["exact"] is exact
        if exact:
            assert verdict["tolerance"] is None
            assert assert_witness_proves(finals[0].pencil, verdict["detail"]) == {
                "mu": quad(Fraction(1, 100))
            }
        else:
            assert verdict["tolerance"] == facial.FEAS_CUT
            assert "slack margin at most" in verdict["detail"]

    @pytest.mark.parametrize(
        "known, ok",
        [
            (lambda e3, e4: [e3 + e4, 2 * e4], True),
            (lambda e3, e4: [GOLDEN * e3, e4], True),
            (lambda e3, e4: [e3], False),
            (lambda e3, e4: [e3, e4, qarray([1, 0, 0, 0, 0])], False),
            (lambda e3, e4: [e3, e4 + GOLDEN * qarray([0, 1, 0, 0, 0])], False),
        ],
        ids=["recombined", "golden-scaled", "too-few", "too-many", "other-span"],
    )
    def test_range_claim_compares_spans(self, known, ok, monkeypatch, capsys):
        # the toy's certificate range is spanned by e3 and e4
        build = cli.REPRODUCE["chsh-toy"]

        def patched():
            raw, golden, vectors, relations, optimum = build()
            return raw, golden, known(*vectors), relations, optimum

        monkeypatch.setitem(cli.REPRODUCE, "chsh-toy", patched)
        assert main(["reproduce", "chsh-toy", "--json"]) == (0 if ok else 1)
        claims = {c["claim"]: c["ok"] for c in json.loads(capsys.readouterr().out)["claims"]}
        assert claims["certificate range matches the known null directions exactly"] is ok
        assert sum(not v for v in claims.values()) == (0 if ok else 1)

    def test_report_deterministic(self, tmpfile, capsys):
        r1, r2 = tmpfile("r1.json"), tmpfile("r2.json")
        assert main(["reproduce", "chsh-toy", "--out", r1]) == 0
        assert main(["reproduce", "chsh-toy", "--out", r2]) == 0
        capsys.readouterr()
        d1, d2 = json.load(open(r1)), json.load(open(r2))
        d1.pop("timings"), d2.pop("timings")
        assert d1 == d2

    def test_parser_is_built_once_and_reused(self, monkeypatch, capsys):
        # the first call builds it, and a second `main` reuses that parser
        seen = []
        parse = cli.argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            seen.append(self)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", spy)
        cli.build_parser.cache_clear()
        outs = []
        for _ in range(2):
            assert main(["reproduce", "chsh-toy"]) == 0
            outs.append(capsys.readouterr().out)
        assert len(seen) == 2 and seen[0] is seen[1] is cli.build_parser()
        assert cli.build_parser.cache_info().misses == 1
        assert outs[0] == outs[1] and outs[0].endswith("overall: all checks passed\n")


class TestProblemComparison:
    """The reproduce claim "substitution reproduces the reduced pencil entry
    for entry" compares dimension, names, every entry and the objective."""

    def test_fresh_copy_is_equal(self):
        assert _problems_equal(problem1_simplified(), problem1_simplified())

    def test_one_entry_differs(self):
        golden = problem1_simplified()
        p = golden.pencil
        term = p.terms[2].copy()
        term[3, 4] = term[4, 3] = term[3, 4] + quad(0, 1)
        terms = (*p.terms[:2], term, *p.terms[3:])
        pencil = MatrixPencil(n=p.n, scalar="exact", f0=p.f0, var_names=p.var_names, terms=terms)
        assert not _problems_equal(replace(golden, pencil=pencil), golden)

    def test_one_objective_coefficient_differs(self):
        golden = problem1_simplified()
        objective = (*golden.objective[:-1], quad(1))
        assert not _problems_equal(replace(golden, objective=objective), golden)

    def test_one_variable_name_differs(self):
        golden = problem1_simplified()
        names = ("mu", "a01", "b01", "c0,10")
        pencil = replace(golden.pencil, var_names=names)
        assert not _problems_equal(replace(golden, pencil=pencil), golden)

    def test_one_rational_entry_differs(self):
        # the pencils are compared on their integer splits: one entry of F0
        # moved by 1/7 changes the common denominator as well
        golden = problem1_simplified()
        p = golden.pencil
        f0 = p.f0.copy()
        f0[0, 1] = f0[1, 0] = f0[0, 1] + quad(Fraction(1, 7))
        pencil = MatrixPencil(n=p.n, scalar="exact", f0=f0, var_names=p.var_names, terms=p.terms)
        assert not _problems_equal(replace(golden, pencil=pencil), golden)
        assert not _problems_equal(golden, replace(golden, pencil=pencil))

    def test_name_note_and_offset_do_not_count(self):
        golden = problem1_simplified()
        other = replace(golden, name="other", note="another note", objective_offset=quad(3))
        assert _problems_equal(other, golden)
        # the same entries from another construction: a pencil made from a
        # split, and one read back from its problem file
        pencil = MatrixPencil.from_split(golden.var_names, golden.pencil.split)
        assert _problems_equal(replace(golden, pencil=pencil), golden)
        assert _problems_equal(problem_from_json(problem_to_json(golden)), golden)


# sha256 of each bundled problem's exported file, and of problem2-raw's
# `reduce --out` file, as pinned when the bundled pencils were built entry by
# entry into QuadExt matrices
EXPORTED_SHA256 = {
    "chsh-toy": "95a6e88ff18b195072d7facd9bde616f21f05eb97219044f0c0d1d1e2d703e28",
    "chsh-toy-simplified": "ea285bde99afd5b031a5569bab707d6b9f3ed439ee700b750fbafa1025fea111",
    "problem1-raw": "86fafd9c3fcbf25ce7863e58b69b13259a5b6a8d5ccdb369bb432229ce4f477b",
    "problem1-simplified": "2d5aff633285f0932fa0a278998a2edb3bba95d01aa070c8543f5da024708a4c",
    "problem2-raw": "6419f154aac3db6d8042367c1a4619edd860571849bc96d05954ee92b1337a11",
    "problem2-simplified": "71c1b90cebc942c06d63295219e1707ddd217bae589ecd69c009f639199ce625",
}
REDUCED_PROBLEM2_SHA256 = "01fcb12d14d404e2933a14a468190c83a79280e1dd74a9d98d9657f5f514f9e2"


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestExportCommand:
    def test_export_stdout(self, capsys):
        assert main(["export", "chsh-toy"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 5
        assert len(doc["vars"]) == 8

    @pytest.mark.parametrize("target", sorted(BUILTINS))
    def test_exported_file_is_pinned_and_loads_born_split(self, target, tmpfile):
        assert sorted(EXPORTED_SHA256) == sorted(BUILTINS)
        path = tmpfile(f"{target}.json")
        assert main(["export", target, "--out", path]) == 0
        assert file_sha256(path) == EXPORTED_SHA256[target]
        with open(path, encoding="utf-8") as fh:
            born = problem_from_json(json.load(fh)).pencil
        assert "f0" not in vars(born) and "terms" not in vars(born)
        bundled = BUILTINS[target]()
        loaded = load_problem(path)
        assert cli._splits_equal(loaded.pencil.split, bundled.pencil.split)
        assert _problems_equal(loaded, bundled)

    @pytest.mark.parametrize("target", sorted(BUILTINS))
    def test_loading_validates_on_the_split(self, target, tmpfile):
        # validate reads the born split and joins no QuadExt matrix
        path = tmpfile(f"{target}.json")
        assert main(["export", target, "--out", path]) == 0
        pencil = load_problem(path).pencil
        assert "f0" not in vars(pencil) and "terms" not in vars(pencil)

    def test_reduced_problem2_file_is_pinned(self, tmpfile):
        src, dst = tmpfile("p2.json"), tmpfile("p2-reduced.json")
        assert main(["export", "problem2-raw", "--out", src]) == 0
        assert main(["reduce", src, "--out", dst]) == 0
        assert file_sha256(dst) == REDUCED_PROBLEM2_SHA256


class TestReduceRounds:
    def test_planted_chain_both_rounds(self, tmpfile, capsys):
        src, dst, rep = tmpfile("chain.json"), tmpfile("chain-red.json"), tmpfile("r.json")
        store_problem(planted_chain_problem(), src)
        assert main(["reduce", src, "--out", dst, "--report", rep]) == 0
        out = capsys.readouterr().out
        assert "round 1:" in out and "round 2:" in out
        report = json.load(open(rep))
        assert report["reduction"]["eliminated"] == ["a", "b"]
        assert len(report["reduction"]["rounds"]) == 2
        assert load_problem(dst).var_names == ("s",)
        assert load_problem(dst).name == "planted-chain-reduced"

    def test_rounds_report_their_faces(self, tmpfile, capsys):
        src = tmpfile("chain.json")
        store_problem(planted_chain_problem(), src)
        assert main(["reduce", src, "--json"]) == 0
        reduction = json.loads(capsys.readouterr().out)["reduction"]
        _, rounds, _ = facial.reduce_problem(planted_chain_problem())
        assert [r["face"] for r in reduction["rounds"]] == [
            [[format_scalar(x) for x in u] for u in r.face] for r in rounds
        ]
        assert [len(r["face"]) for r in reduction["rounds"]] == [2, 1]
        assert reduction["verdict"] == "StrictlyFeasible" and reduction["exact"] is True

    def test_face_zero_ends_with_an_exact_verdict(self, tmpfile, capsys):
        # diag(y, -y): the certificate I/2 has full rank and implies y = 0
        src, dst = tmpfile("diag.json"), tmpfile("diag-red.json")
        pencil = MatrixPencil.from_upper(2, "exact", [], [("y", [(0, 0, 1), (1, 1, -1)])])
        store_problem(SdpProblem(pencil=pencil, objective=(quad(1),), name="diag"), src)
        assert main(["reduce", src, "--out", dst, "--json"]) == 0
        reduction = json.loads(capsys.readouterr().out)["reduction"]
        assert reduction["eliminated"] == ["y"]
        assert reduction["rounds"][0]["face"] == []
        assert reduction["exact"] is True
        assert reduction["detail"].startswith("every feasible F(y) is zero")
        final = load_problem(dst)
        assert (final.pencil.n, final.var_names) == (2, ())

    def test_offset_survives_reduce_then_solve(self, tmpfile, capsys):
        # y1 = 1 is pinned: its objective constant must reach the solve
        src, dst = tmpfile("pinned.json"), tmpfile("pinned-red.json")
        store_problem(pinned_offset_problem(), src)
        assert main(["reduce", src, "--out", dst]) == 0
        assert load_problem(dst).var_names == ("y2",)
        capsys.readouterr()
        assert main(["solve", dst, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["solver"]["objective_dual"] - 2.0) < 1e-6
