"""Per-layer tracing from outside the package.

:class:`Tracer` wraps the public functions of each ``qhyp`` module (and the
public methods of the classes they define) and patches every reference to
them: module attributes in every ``qhyp`` module that imported the name,
and module-level tables such as ``equations.BUILDERS``.  Each wrapper keeps
its span on a stack so that self time is span time minus the time of the
wrapped calls made inside it.  Spans are aggregated in memory and read out
once the traced pass ends; :meth:`Tracer.installed` restores every original
on exit.
"""

from __future__ import annotations

import contextlib
import fnmatch
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "sampling", "equations", "opalgebra", "solutions", "qseries", "qcore", "groups")

# The operator-algebra arithmetic is the opalgebra layer's work even though it
# is spelled with dunder methods.
_OPERATOR_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"}

INTEGRAL_EVAL = ("solutions.phi3", "solutions.phi3_tilde", "solutions.phi2", "solutions.phi2_tilde")
SERIES_EVAL = ("solutions.e3_series", "solutions.e2_series", "solutions.heine_solution",
               "solutions.heine_extra")

# Function groups whose outermost calls are counted and timed inclusively.
GROUPS = {
    "sampling.draw": ("sampling.draw_*",),
    "opalgebra.durand_kerner": ("opalgebra.durand_kerner",),
    "opalgebra.configuration": ("opalgebra.configuration",
                                "opalgebra.QDiffOperator.configuration"),
    "equations.expected_configuration": ("equations.expected_configuration",),
    "equations.verify_degeneration": ("equations.verify_degeneration",),
    "qcore.qpoch_ratio": ("qcore.qpoch_ratio",),
    "solutions.integral_eval": INTEGRAL_EVAL,
    "solutions.series_eval": SERIES_EVAL,
    "solutions.evaluator": INTEGRAL_EVAL + SERIES_EVAL,
    "solutions.residual": ("solutions.residual",),
    "qseries.phi": ("qseries.phi",),
    "qseries.w87": ("qseries.w87",),
    "qseries.psi33": ("qseries.psi33",),
    "groups.orbit": ("groups.orbit",),
    "groups.check_relations": ("groups.check_relations",),
}


@dataclass
class FunctionStats:
    layer: str
    calls: int = 0
    self_s: float = 0.0


@dataclass
class GroupStats:
    depth: int = 0
    calls: int = 0          # outermost calls only
    incl_s: float = 0.0     # inclusive time of the outermost calls
    in_residual: int = 0    # outermost calls made inside a residual() span


Observer = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self, observers: dict[str, Observer] | None = None):
        self.functions: dict[str, FunctionStats] = {}
        self.groups = {name: GroupStats() for name in GROUPS}
        self._observers = observers or {}
        self._stack: list[list[float]] = []

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn: Callable) -> Callable:
        stats = self.functions.setdefault(key, FunctionStats(layer))
        groups = tuple(self.groups[g] for g, pats in GROUPS.items()
                       if any(fnmatch.fnmatchcase(key, p) for p in pats))
        residual = self.groups["solutions.residual"]
        evaluator = self.groups["solutions.evaluator"]
        observer = self._observers.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for g in groups:
                g.depth += 1
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.self_s += dt - child[0]
                for g in groups:
                    g.depth -= 1
                    if g.depth == 0:
                        g.calls += 1
                        g.incl_s += dt
                        if g is evaluator and residual.depth:
                            g.in_residual += 1
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(key, layer, owner, attribute, member) for every public function
        and method of the traced layers."""
        for layer in LAYERS:
            mod = importlib.import_module(f"qhyp.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{name}", layer, mod, name, obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr not in _OPERATOR_DUNDERS:
                            continue
                        if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                            yield f"{layer}.{name}.{attr}", layer, obj, attr, member

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to the traced callables; restore on exit."""
        undo: list[tuple[object, str, object]] = []
        replaced: dict[int, Callable] = {}
        try:
            for key, layer, owner, attr, member in list(self._targets()):
                if isinstance(member, (classmethod, staticmethod)):
                    new = type(member)(self._wrap(key, layer, member.__func__))
                    undo.append((owner, attr, member))
                    setattr(owner, attr, new)
                    continue
                replaced[id(member)] = self._wrap(key, layer, member)
                if inspect.isclass(owner):
                    undo.append((owner, attr, member))
                    setattr(owner, attr, replaced[id(member)])
            modules = [m for n, m in list(sys.modules.items())
                       if n == "qhyp" or n.startswith("qhyp.")]
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if name.startswith("__"):
                        continue
                    if id(value) in replaced:
                        undo.append((mod, name, value))
                        setattr(mod, name, replaced[id(value)])
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if id(v) in replaced:
                                undo.append((value, k, v))
                                value[k] = replaced[id(v)]
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    # -- read-out -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        total = sum(s.self_s for s in self.functions.values()) or 1.0
        out: dict[str, float] = {}
        for layer in LAYERS:
            members = [s for s in self.functions.values() if s.layer == layer]
            self_s = sum(s.self_s for s in members)
            out[f"{layer}.calls"] = sum(s.calls for s in members)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.self_share"] = self_s / total
        return out

    def us_per_call(self, group: str) -> float:
        g = self.groups[group]
        return 1e6 * g.incl_s / g.calls if g.calls else 0.0

    def top_functions(self, n: int = 15) -> list[tuple[str, int, float]]:
        ranked = sorted(self.functions.items(), key=lambda kv: kv[1].self_s, reverse=True)
        return [(k, s.calls, s.self_s) for k, s in ranked[:n] if s.calls]
