"""Command-line harness: solve, diagnose, reduce, reproduce, export.

Exit codes are a stable contract: 0 on success (for `solve`: status Optimal;
for `reproduce`: every check passed), 2 when the solver reports a non-optimal
status, 1 on errors.  `main` makes every run report: `--json` prints it, and
`--out` writes it (`--report` for `reduce`); `export` writes none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bell, certify
from .exactnum import QSplit, format_scalar, quad, row_space_split
from .facial import (
    ReductionError,
    StrictlyFeasible,
    apply_constraints,  # noqa: F401  (perfbench/spans.py traces the round's steps here)
    certify_optimum,
    derive_implicit_constraints,  # noqa: F401  (perfbench/spans.py, as above)
    find_reducing_certificate,
    reduce_problem,
)
from .model import (
    SdpProblem,
    StatusTag,
    problem_from_json,
    problem_to_json_str,
    to_double,
    to_exact,
    validate,
)
from .solver import (
    TROUBLE_VAR_BOUND,
    InvalidProblemError,
    SolveResult,
    diagnostics_report,
    solve_sdp,
)

VALUE_TOL = 1e-6


class CliError(Exception):
    pass


def load_problem(path: str) -> SdpProblem:
    """Parse a problem file; parse errors carry line/column positions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        prob = problem_from_json(doc)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    violations = validate(prob)
    if violations:
        raise CliError(f"{path}: invalid problem: " + "; ".join(violations))
    return prob


def _write_text(path: str, text: str) -> None:
    """Write a file; an OS error is a CliError naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def store_problem(prob: SdpProblem, path: str) -> None:
    _write_text(path, problem_to_json_str(prob))


BUILTINS = {
    "problem1-raw": lambda: bell.almost_quantum_pencil(bell.line1()),
    "problem1-simplified": bell.problem1_simplified,
    "problem2-raw": lambda: bell.almost_quantum_pencil(bell.line2()),
    "problem2-simplified": bell.problem2_simplified,
    "chsh-toy": bell.chsh_toy_pencil,
    "chsh-toy-simplified": bell.chsh_toy_simplified,
}


@dataclass
class RunReport:
    command: str
    inputs: dict
    solver: dict = field(default_factory=dict)
    reduction: dict = field(default_factory=dict)
    verification: list = field(default_factory=list)
    claims: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _solve_summary(res: SolveResult) -> dict:
    """The solve's status and diagnostics; a non-finite float is written as
    null, since JSON has no Infinity or NaN."""
    d = res.diagnostics
    summary = {
        "status": res.status.tag.value,
        "message": res.status.message,
        "objective_primal": res.objective_primal,
        "objective_dual": res.objective_dual,
        "iterations": d.iterations,
        "start": d.start,
        "final_gap": d.final_gap,
        "max_abs_variable": d.max_abs_variable,
        "min_slack_eigenvalue_estimate": d.min_slack_eigenvalue_estimate,
        "condition_estimate": d.condition_estimate,
        "regularized_iterations": d.regularized_iterations,
    }
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in summary.items()
    }


def cmd_solve(args, report: RunReport) -> tuple[int, str]:
    prob = load_problem(args.file)
    report.inputs["name"] = prob.name
    if prob.pencil.scalar != "double":
        report.solver["note"] = "exact problem downcast to double for the solver"
        prob = to_double(prob)
    res = solve_sdp(prob)
    report.solver.update(_solve_summary(res))
    return (0 if res.status.tag is StatusTag.OPTIMAL else 2), diagnostics_report(res)


def _strictly_feasible_lines(verdict: StrictlyFeasible, report: RunReport) -> list[str]:
    """Record a StrictlyFeasible verdict, proof or evidence, and describe it."""
    report.reduction.update(verdict="StrictlyFeasible", **asdict(verdict))
    return [
        "verdict: StrictlyFeasible",
        "  (exact linear-algebra proof)" if verdict.exact
        else f"  (numerical verdict at tolerance {verdict.tolerance:g}, not a proof)",
        f"  {verdict.detail}",
    ]


def cmd_diagnose(args, report: RunReport) -> tuple[int, str]:
    prob = to_exact(load_problem(args.file))
    report.inputs["name"] = prob.name
    outcome = find_reducing_certificate(prob)
    lines = []
    if isinstance(outcome, StrictlyFeasible):
        lines += _strictly_feasible_lines(outcome, report)
    else:
        report.reduction["verdict"] = "ReducingCertificate"
        report.reduction["certificate"] = outcome.as_dict()
        lines.append(f"reducing certificate of rank {outcome.rank} found ({outcome.note})")
        lines.append("null vectors (range of the certificate):")
        for v in outcome.range_vectors:
            lines.append("  (" + ", ".join(format_scalar(x) for x in v) + ")")
    return 0, "\n".join(lines)


def _record_rounds(report: RunReport, rounds, failed=None) -> None:
    """Every completed round's certificate, constraints and face, and the
    verified certificate of a round that failed after its search."""
    report.reduction["rounds"] = [
        {
            "certificate": rnd.certificate.as_dict(),
            "constraints": rnd.constraints.as_dict(),
            "face": [[format_scalar(x) for x in u] for u in rnd.face],
        }
        for rnd in rounds
    ]
    report.reduction["eliminated"] = [
        v for rnd in rounds for v in rnd.constraints.eliminated_names
    ]
    if failed is not None:
        report.reduction["failed_round"] = {"certificate": failed.as_dict()}


def cmd_reduce(args, report: RunReport) -> tuple[int, str]:
    prob = to_exact(load_problem(args.file))
    report.inputs["name"] = prob.name
    try:
        reduced, rounds, verdict = reduce_problem(prob)
    except ReductionError as exc:
        _record_rounds(report, exc.rounds, exc.certificate)
        raise
    _record_rounds(report, rounds)
    lines = []
    for k, rnd in enumerate(rounds, 1):
        lines.append(f"round {k}: eliminated variables:")
        for v, expr in rnd.constraints.eliminated:
            lines.append(f"  {v} = {expr}")
        lines.append(f"  restricted to a face of dimension {len(rnd.face)}")
    lines += _strictly_feasible_lines(verdict, report)
    if args.out_problem:
        store_problem(reduced, args.out_problem)
        lines.append(f"reduced problem written to {args.out_problem}")
    return 0, "\n".join(lines)


# ---------------------------------------------------------------------------
# reproduce: the full pipeline on the bundled problems with known answers

# target -> (raw problem, hand-entered reduction, known null vectors, known
# relations, the paper's exact optimum, which `certify_optimum` must prove
# from the reduced solve).  The lambdas look `bell` up when called, so
# perfbench's tracer, which wraps its functions, sees every call.
REPRODUCE = {
    "problem1": lambda: (
        bell.almost_quantum_pencil(bell.line1()),
        bell.problem1_simplified(),
        bell.line1_null_vectors(),
        bell.line1_expected_relations(),
        quad(0),
    ),
    "problem2": lambda: (
        bell.almost_quantum_pencil(bell.line2()),
        bell.problem2_simplified(),
        bell.line2_null_vectors(),
        bell.line2_expected_relations(),
        bell.MU2_STAR,
    ),
    "chsh-toy": lambda: (
        bell.chsh_toy_pencil(),
        bell.chsh_toy_simplified(),
        bell.toy_null_vectors(),
        bell.toy_expected_relations(),
        quad(0),
    ),
}


def _problems_equal(a: SdpProblem, b: SdpProblem) -> bool:
    """Same variable names, objective and entries, up to name, note and
    offset: exact pencils' splits, over the least common denominator, are
    equal exactly when their entries are."""
    return (a.var_names, a.objective) == (b.var_names, b.objective) and _splits_equal(
        a.pencil.split, b.pencil.split
    )


def _splits_equal(x: QSplit, y: QSplit) -> bool:
    """Whether two splits over their least common denominator (as `split`
    and the eliminations make them) are the same: their entries are equal
    exactly when A, B and d are."""
    same = lambda X, Y: X is Y or X is not None is not Y and np.array_equal(X, Y)  # noqa: E731
    return x.d == y.d and same(x.A, y.A) and same(x.B, y.B)


def _trouble_signature(res: SolveResult, certified: float) -> bool:
    return (
        res.status.tag is not StatusTag.OPTIMAL
        or res.diagnostics.max_abs_variable > TROUBLE_VAR_BOUND
        or abs(res.objective_dual - certified) > VALUE_TOL
    )


def _reproduce_target(target: str, report: RunReport) -> None:
    """Check every claim of one target into `report`."""

    def claim(name: str, ok: bool, detail: str) -> None:
        report.claims.append({"target": target, "claim": name, "ok": ok, "detail": detail})

    raw, golden, vectors, relations, optimum = REPRODUCE[target]()

    raw_res = solve_sdp(to_double(raw))
    claim(
        "raw solve shows the trouble signature",
        _trouble_signature(raw_res, float(optimum)),
        f"status {raw_res.status.tag.value}, objective {raw_res.objective_dual:.3e}, "
        f"max |variable| {raw_res.diagnostics.max_abs_variable:.3e}",
    )
    report.solver[f"{target}-raw"] = _solve_summary(raw_res)

    final, rounds, verdict = reduce_problem(raw)
    if not rounds:
        claim("diagnosis finds a reducing certificate", False, verdict.detail)
        return
    # round 1 is the paper's, checked against the hand-derived reduction
    cert, cons, reduced = rounds[0].certificate, rounds[0].constraints, rounds[0].substituted
    # equal spans have equal reduced row-echelon bases
    claim(
        "certificate range matches the known null directions exactly",
        _splits_equal(
            row_space_split(cert.range_split), row_space_split(np.array(vectors, dtype=object))
        ),
        cert.note,
    )
    report.reduction[f"{target}-certificate"] = cert.as_dict()

    got = {v: (e.const, dict(e.coeffs)) for v, e in cons.eliminated}
    want = {v: (c, dict(co)) for v, (c, co) in relations.items()}
    claim(
        "implicit constraints match the known relations symbol for symbol",
        got == want,
        "; ".join(f"{v} = {e}" for v, e in cons.eliminated),
    )
    report.reduction[f"{target}-constraints"] = cons.as_dict()

    claim(
        "substitution reproduces the reduced pencil entry for entry",
        _problems_equal(reduced, golden),
        f"{len(reduced.var_names)} variables remain",
    )
    report.reduction[f"{target}-verdict"] = {"verdict": "StrictlyFeasible", **asdict(verdict)}

    red_res = solve_sdp(to_double(final))
    clean = (
        red_res.status.tag is StatusTag.OPTIMAL
        and abs(red_res.objective_dual - float(optimum)) <= VALUE_TOL
        and red_res.diagnostics.max_abs_variable < 1e3
    )
    claim(
        "reduced problem solves cleanly to the certified value",
        clean,
        f"status {red_res.status.tag.value}, objective {red_res.objective_dual:.10f}",
    )
    report.solver[f"{target}-reduced"] = _solve_summary(red_res)

    # the reduced solve, rounded, proves the optimum by weak duality
    point, feasible, bound = certify_optimum(final, red_res)
    value = sum((b * point[v] for v, b in zip(final.var_names, final.objective)), quad(0))
    claim(
        "rounded optimal point is exactly feasible and attains the optimum",
        feasible.feasible and value + final.objective_offset == optimum,
        ", ".join(f"{v} = {format_scalar(x)}" for v, x in point.items()),
    )
    report.verification.append(feasible.as_dict())
    claim(
        f"rounded dual certificate proves the optimum exactly ({format_scalar(optimum)})",
        bound.certified_bound == optimum,
        format_scalar(bound.certified_bound),
    )
    report.verification.append(bound.as_dict())
    if target == "problem2":
        formula = certify.check_eigenvalue_formula(golden)
        claim("closed-form eigenvalue branch confirmed", formula.confirmed, formula.detail)
        report.verification.append(formula.as_dict())


def cmd_reproduce(args, report: RunReport) -> tuple[int, str]:
    for target in list(REPRODUCE) if args.target == "all" else [args.target]:
        _reproduce_target(target, report)
    lines = []
    for c in report.claims:
        lines.append(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['target']}: {c['claim']}")
        if not c["ok"]:
            lines.append(f"       {c['detail']}")
    ok = all(c["ok"] for c in report.claims)
    lines.append(f"overall: {'all checks passed' if ok else 'CHECKS FAILED'}")
    return (0 if ok else 1), "\n".join(lines)


def cmd_export(args, report: RunReport) -> tuple[int, str]:
    prob = BUILTINS[args.target]()
    if not args.out_problem:
        return 0, problem_to_json_str(prob).removesuffix("\n")
    store_problem(prob, args.out_problem)
    return 0, f"{args.target} written to {args.out_problem}"


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strictfeas",
        description="Diagnose and repair strict-feasibility failure in small SDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem_file=True, report_out=True):
        if problem_file:
            p.add_argument("file", help="problem JSON file")
        if report_out:
            p.add_argument("--out", dest="out", help="write the JSON run report here")
        p.add_argument(
            "--json", action="store_true", help="print the JSON run report to stdout"
        )

    p = sub.add_parser("solve", help="solve a pencil-form SDP numerically")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagnose", help="look for a reducing certificate")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "reduce", help="diagnose and substitute implicit constraints, round after round"
    )
    common(p, report_out=False)
    p.add_argument(
        "--out",
        dest="out_problem",
        help="write the reduced problem JSON here",
    )
    p.add_argument(
        "--report",
        dest="out",
        help="write the JSON run report here",
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("reproduce", help="run the bundled end-to-end reproductions")
    p.add_argument("target", choices=[*REPRODUCE, "all"])
    common(p, problem_file=False)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("export", help="write a bundled problem to JSON")
    p.add_argument("target", choices=sorted(BUILTINS))
    p.add_argument("--out", dest="out_problem", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    key = "file" if hasattr(args, "file") else "target"
    report = RunReport(command=args.command, inputs={key: getattr(args, key)})
    t0 = time.perf_counter()
    try:
        code, text = args.func(args, report)
    except (CliError, InvalidProblemError, ReductionError) as exc:
        label = "" if isinstance(exc, CliError) else f"{type(exc).__name__}: "
        print(f"error: {label}{exc}", file=sys.stderr)
        # reports stay valid JSON on error paths too, with what ran before
        report.errors.append(f"{label}{exc}")
        code, text = 1, ""
    report.timings["seconds"] = time.perf_counter() - t0
    if getattr(args, "json", False):
        sys.stdout.write(report.to_json())
    elif text:
        print(text)
    if getattr(args, "out", None):
        try:
            _write_text(args.out, report.to_json())
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
