"""Span recording around the public methods of the objects a Session hands out.

The benchmark never edits the program.  In a traced run it replaces, on the
*instances* a :class:`repro.api.Session` (or the serve pool) creates, the
public methods listed in :data:`SOLVER_METHODS` and friends with thin
wrappers that record one :class:`Span` per call: name, start, end and parent
span.  A layer's self time is its spans' durations minus the
durations of their direct children.

While :attr:`Tracer.enabled` is false the wrappers pass straight through,
so one traced run can time untraced and traced operations side by side and
report the tracing overhead.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any

#: Methods wrapped on a :class:`repro.feti.solver.FetiSolver`.
SOLVER_METHODS = ("prepare", "preprocess", "solve", "solve_many")
#: Methods wrapped on its dual operator.
OPERATOR_METHODS = ("apply", "apply_multi", "dual_rhs", "primal_solution")
#: Methods wrapped on its coarse projector.
PROJECTOR_METHODS = ("apply", "apply_block", "initial_lambda", "alpha")
#: Methods wrapped on its dual preconditioner.
PRECONDITIONER_METHODS = ("apply", "apply_block")
#: Methods wrapped on a :class:`repro.api.Session`.
SESSION_METHODS = ("solve", "solve_many")

#: The layer each span name is attributed to (the ``repro`` module names).
LAYER_OF = {
    "session.solve": "session",
    "session.solve_many": "session",
    "api.build_problem": "api.build_problem",
    "solver.solve": "pcpg",
    "solver.solve_many": "pcpg",
    "solver.prepare": "operators.prepare",
    "solver.preprocess": "operators.preprocess",
    "operators.apply": "operators.apply",
    "operators.apply_multi": "operators.apply",
    "operators.dual_rhs": "operators.dual_rhs",
    "operators.primal_solution": "operators.primal_solution",
    "projector.build": "projector.build",
    "projector.apply": "projector.apply",
    "projector.apply_block": "projector.apply",
    "projector.initial_lambda": "projector.initial_lambda",
    "projector.alpha": "projector.alpha",
    "preconditioner.build": "preconditioner.build",
    "preconditioner.apply": "preconditioner.apply",
    "preconditioner.apply_block": "preconditioner.apply",
}


@dataclass
class Span:
    """One recorded call."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    #: Right-hand sides the call carried (``solve_many`` block width).
    columns: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; wraps instance methods to record them."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._instrumented: weakref.WeakSet[Any] = weakref.WeakSet()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording                                                            #
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name`` (pass-through if disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        columns = 1
        if name == "session.solve_many":
            columns = len(args[1] if len(args) > 1 else kwargs["loads_columns"])
        span = Span(
            id=next(self._ids),
            name=name,
            parent=stack[-1].id if stack else None,
            start=perf_counter(),
            columns=columns,
        )
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Replace ``obj.method`` on the instance by a recording wrapper."""
        original = getattr(obj, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.span(name, original, *args, **kwargs)

        setattr(obj, method, traced)

    def _first_time(self, obj: Any) -> bool:
        with self._lock:
            if obj in self._instrumented:
                return False
            self._instrumented.add(obj)
            return True

    # ------------------------------------------------------------------ #
    # Instrumenting the objects a Session hands out                       #
    # ------------------------------------------------------------------ #
    def instrument_session(self, session: Any) -> None:
        """Wrap a session's solves, its problem builds and every solver it
        creates from now on."""
        if not self._first_time(session):
            return
        for method in SESSION_METHODS:
            self.wrap(session, method, f"session.{method}")
        self.wrap(session, "problem", "api.build_problem")
        make_solver = session.solver

        def solver(*args: Any, **kwargs: Any) -> Any:
            instance = make_solver(*args, **kwargs)
            self.instrument_solver(instance)
            return instance

        session.solver = solver

    def instrument_pool(self, pool: Any) -> None:
        """Instrument every session a serve :class:`SessionPool` hands out."""
        entry_for = pool.entry_for

        def hooked(workload: Any) -> Any:
            entry = entry_for(workload)
            self.instrument_session(entry.session)
            return entry

        pool.entry_for = hooked

    def instrument_solver(self, solver: Any) -> None:
        """Wrap a solver, its operator, projector and preconditioner.

        The projector and the preconditioner are built lazily by the
        solver; they are built here, inside spans, so their construction
        is attributed and their methods can be wrapped.
        """
        if not self._first_time(solver):
            return
        for method in SOLVER_METHODS:
            self.wrap(solver, method, f"solver.{method}")
        for method in OPERATOR_METHODS:
            self.wrap(solver.operator, method, f"operators.{method}")
        projector = self.span("projector.build", lambda: solver.projector)
        for method in PROJECTOR_METHODS:
            self.wrap(projector, method, f"projector.{method}")
        preconditioner = self.span("preconditioner.build", lambda: solver.preconditioner)
        for method in PRECONDITIONER_METHODS:
            self.wrap(preconditioner, method, f"preconditioner.{method}")

    # ------------------------------------------------------------------ #
    # Aggregation                                                          #
    # ------------------------------------------------------------------ #
    def between(self, start: float, end: float) -> list[Span]:
        """Spans that started inside ``[start, end)``."""
        return [s for s in self.spans if start <= s.start < end]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def layer_totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per layer (see :data:`LAYER_OF`)."""
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        layer = LAYER_OF[s.name]
        seconds[layer] += own[s.id]
        calls[layer] += 1
    return seconds, calls


def covered(spans: list[Span]) -> float:
    """Wall time covered by top-level spans (one thread, no overlap)."""
    return sum(s.duration for s in spans if s.parent is None)
