"""Span tracing of strictfeas, installed from outside the program.

`instrument` swaps, for the length of a ``with`` block, each name that one
strictfeas module calls in another (and the entry points the benchmark calls)
for a wrapper that records a span: name, calling module, parent span, start
and end.  Nothing inside the package changes; leaving the block restores every
original.  Spans stay in memory and are summarized per cycle by `summarize`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

from strictfeas import bell, certify, cli, facial, model, solver
from strictfeas.model import StatusTag

LAYERS = ("bench", "cli", "bell", "model", "solver", "facial", "exactnum", "certify")
# the line-2 raw problem of the bundled pipeline, whose inputs the kernel
# microbenchmarks reuse
LINE2 = "problem2-raw"


@dataclass
class Span:
    name: str
    site: str  # module whose namespace held the wrapped name
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and the captured inputs of the kernel microbenchmarks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.captures: dict = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, site: str = "bench"):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, site, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        except Exception as exc:
            s.info["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, site: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, site) as s:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, s, args, result)
            return result

        return traced


def _observe_solve(tracer, s, args, result):
    s.info["iters"] = result.diagnostics.iterations
    s.info["ok"] = result.status.tag is StatusTag.OPTIMAL
    if args[0].name == f"{LINE2}-alternative-margin":
        tracer.captures.setdefault("margin_line2", args)


def _observe_find_cert(tracer, s, args, result):
    s.info["exact"] = isinstance(result, facial.ReducingCertificate) or result.exact
    if args[0].name == LINE2:
        tracer.captures.setdefault("raw_line2", args[0])


def _observe_verify(tracer, s, args, result):
    s.info["passed"] = not result
    if args[0].name == LINE2 and not result:
        tracer.captures.setdefault("cert_line2", args[1])


def _observe_apply(tracer, s, args, result):
    s.info["round"] = bool(args[1].eliminated)


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _targets():
    """(namespace, attribute, span name, observer) of every wrapped call."""
    out = [
        (solver, "solve_sdp", "solver.solve", _observe_solve),
        (facial, "solve_sdp", "solver.solve", _observe_solve),
        (cli, "solve_sdp", "solver.solve", _observe_solve),
        (facial, "find_reducing_certificate", "facial.find_cert", _observe_find_cert),
        (cli, "find_reducing_certificate", "facial.find_cert", _observe_find_cert),
        (facial, "verify_certificate_matrix", "facial.verify", _observe_verify),
        (facial, "derive_implicit_constraints", "facial.derive", None),
        (cli, "derive_implicit_constraints", "facial.derive", None),
        (facial, "apply_constraints", "facial.apply", _observe_apply),
        (cli, "apply_constraints", "facial.apply", _observe_apply),
        (facial, "reduce_problem", "facial.reduce", None),
        (facial, "psd_check_exact", "exactnum.psd_check", None),
        (certify, "psd_check_exact", "exactnum.psd_check", None),
        (facial, "frob_inner", "exactnum.frob_inner", None),
        (certify, "frob_inner", "exactnum.frob_inner", None),
        (model, "frob_inner", "exactnum.frob_inner", None),
        (facial, "nullspace_exact", "exactnum.nullspace", None),
        (facial, "row_space_basis_exact", "exactnum.nullspace", None),
        (facial, "kernel_basis_exact", "exactnum.nullspace", None),
        (facial, "reconstruct_quadext", "exactnum.reconstruct", None),
        (facial, "reconstruct_rational", "exactnum.reconstruct", None),
        (model, "to_double", "model.to_double", None),
        (cli, "to_double", "model.to_double", None),
        (certify, "pencil_eval", "model.pencil_eval", None),
        (cli, "main", "cli.main", None),
        (cli, "cmd_reproduce", "cli.reproduce", None),
        (cli, "_reproduce_target", "cli.reproduce_target", None),
    ]
    for module in (certify, bell):
        layer = module.__name__.rsplit(".", 1)[1]
        out += [(module, n, f"{layer}.{n}", None) for n in _public_functions(module)]
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the length of the block, then restore them."""
    saved = []
    try:
        for module, attr, name, observe in _targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            site = module.__name__.rsplit(".", 1)[1]
            setattr(module, attr, tracer.wrap(name, site, original, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(spans: list[Span]) -> dict:
    """Per-layer metrics of the spans of one cycle (counts are exact)."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield spans[p]
            p = spans[p].parent

    def outermost(pred):
        # spans matching pred with no matching ancestor: no double counting
        return [
            s
            for i, s in enumerate(spans)
            if pred(s) and not any(pred(a) for a in ancestors(i))
        ]

    def named(name, site=None):
        return [s for s in spans if s.name == name and site in (None, s.site)]

    def seconds(ss):
        return sum(s.duration for s in ss)

    solves = named("solver.solve")
    margin = named("solver.solve", "facial")
    iters = sum(s.info.get("iters", 0) for s in solves)
    finds = named("facial.find_cert")
    verifies = named("facial.verify")
    verdicts = [s for s in finds if "exact" in s.info]

    # the search minus its outermost solver and exactnum descendants
    numeric_or_exact = lambda s: s.layer in ("solver", "exactnum")  # noqa: E731
    find_self = seconds(finds)
    for i, d in enumerate(spans):
        if not numeric_or_exact(d):
            continue
        up = list(ancestors(i))
        if any(a.name == "facial.find_cert" for a in up) and not any(
            numeric_or_exact(a) for a in up
        ):
            find_self -= d.duration

    out = {
        "solver.solve_s": seconds(solves),
        "solver.calls": len(solves),
        "solver.iters": iters,
        "solver.s_per_iter": seconds(solves) / iters if iters else 0.0,
        "solver.margin_s": seconds(margin),
        "solver.margin_iters": sum(s.info.get("iters", 0) for s in margin),
        "solver.trouble": sum(1 for s in solves if not s.info.get("ok", False)),
        "facial.find_cert_s": seconds(finds),
        "facial.find_cert_calls": len(finds),
        "facial.find_cert_self_s": find_self,
        "facial.verify_s": seconds(verifies),
        "facial.verify_calls": len(verifies),
        "facial.verify_passes": sum(1 for s in verifies if s.info.get("passed")),
        "facial.derive_s": seconds(named("facial.derive")),
        "facial.derive_calls": len(named("facial.derive")),
        "facial.apply_s": seconds(named("facial.apply")),
        "facial.rounds": sum(1 for s in named("facial.apply") if s.info.get("round")),
        "facial.verdicts": len(verdicts),
        "facial.exact_verdicts": sum(1 for s in verdicts if s.info["exact"]),
        "certify.certify_s": seconds(outermost(lambda s: s.layer == "certify")),
        "certify.calls": len(outermost(lambda s: s.layer == "certify")),
        "certify.psd_checks": len(named("exactnum.psd_check", "certify")),
        "bell.build_s": seconds(outermost(lambda s: s.layer == "bell")),
        "bell.build_calls": len(outermost(lambda s: s.layer == "bell")),
        "model.to_double_s": seconds(named("model.to_double")),
        "model.to_double_calls": len(named("model.to_double")),
    }
    for kernel in ("psd_check", "frob_inner", "nullspace", "reconstruct"):
        ss = named(f"exactnum.{kernel}")
        out[f"exactnum.{kernel}_s"] = seconds(ss)
        out[f"exactnum.{kernel}_calls"] = len(ss)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        self_time[s.layer] += s.duration - child_time[i]
    for layer in LAYERS:
        out[f"self.{layer}_s"] = self_time[layer]
    out["cli.self_s"] = self_time["cli"]
    return out


def is_count(name: str) -> bool:
    return not name.endswith("_s") and name != "solver.s_per_iter"
