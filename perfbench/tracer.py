"""Spans around the public functions of ``tdmilp``, recorded from outside.

The library imports with ``from .x import y``, so a function is reachable
under several module attributes (``mat_inverse`` through ``tdmilp.solver``,
``tdmilp.fracbound`` and ``tdmilp.cli`` among others).  Wrapping rebinds every
such attribute in every loaded ``tdmilp`` module, and ``unwrap`` restores
them.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

# span name -> (module, attribute); "Class.method" patches a class attribute
TARGETS = {
    "fileformat.parse_instance": ("tdmilp.fileformat", "parse_instance"),
    "solver.milp_solve": ("tdmilp.solver", "milp_solve"),
    "solver.ilp_solve": ("tdmilp.solver", "ilp_solve"),
    "solver.vertex_enumerate": ("tdmilp.solver", "vertex_enumerate"),
    "simplex.lp_solve_exact": ("tdmilp.simplex", "lp_solve_exact"),
    "simplex.reduce_rows": ("tdmilp.simplex", "reduce_rows"),
    "structure.decomposition_for_matrix": ("tdmilp.structure", "decomposition_for_matrix"),
    "blocks.primal_decompose": ("tdmilp.blocks", "primal_decompose"),
    "fracbound.frac_bound": ("tdmilp.fracbound", "frac_bound"),
    "fracbound.structured_inverse": ("tdmilp.fracbound", "structured_inverse"),
    "fracbound.replay": ("tdmilp.fracbound", "StructuredInverseTrace.replay"),
    "integralize.choose_scale": ("tdmilp.integralize", "choose_scale"),
    "integralize.integralize": ("tdmilp.integralize", "integralize"),
    "integralize.recover": ("tdmilp.integralize", "recover"),
    "linalg.mat_inverse": ("tdmilp.linalg", "mat_inverse"),
}


def _result_count(name: str, result: Any) -> int:
    """A count read off a call's result, kept on its span."""
    if name == "simplex.lp_solve_exact":
        return result.stats.pivots
    if name == "solver.ilp_solve":
        return result.stats.nodes
    if name == "integralize.choose_scale":
        return result.bit_length()  # scales can pass the int-to-str digit limit
    return 0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for none
    op: int
    error: Optional[str] = None  # exception class name, if the call raised
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one per wrapped call and one per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.op = -1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
        span.count = _result_count(name, result)
        return result

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def wrap(self) -> None:
        """Rebind every target in every loaded tdmilp module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tdmilp" or n.startswith("tdmilp."))]
        for name, (module_name, attr) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrapper(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def unwrap(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Calls nest on one thread, so children of a span never overlap and the
        covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        out: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            out[span.name] = out.get(span.name, 0.0) + span.duration - covered
        return out

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total duration, call count)."""
        out: dict[str, tuple[float, int]] = {}
        for span in self.spans:
            t, n = out.get(span.name, (0.0, 0))
            out[span.name] = (t + span.duration, n + 1)
        return out

    def dump(self) -> dict:
        """The spans as plain data, for writing out when the run ends."""
        return {"fields": ["name", "start", "end", "parent", "op", "error", "count"],
                "spans": [[s.name, s.start, s.end, s.parent, s.op, s.error, s.count]
                          for s in self.spans]}
