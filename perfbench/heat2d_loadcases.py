"""heat2d-loadcases: seeded load cases against one prepared explicit operator.

One closed-loop caller submits per-subdomain load cases through
``Session.queue().submit(w, rhs=loads)``; the preprocessing (explicit
``F̃ᵢ`` assembly) ran once in set-up, so each operation is PCPG plus primal
recovery.  The load cases cycle through a seeded pool, so every repeat of a
case must reproduce its iteration count and modeled seconds exactly.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np
from common import (
    Checks,
    DirectReference,
    Fingerprint,
    Result,
    end_to_end,
    median,
    random_loads,
    rel_error,
    timed_phase,
)
from metrics import modeled_layers, op_layers, setup_layers, storage_layers, zero_layers
from spans import Tracer

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem

WORKLOAD = Workload("heat", 2, (8, 8), 16)
SPEC = SolverSpec(approach="expl modern", assembly="table2", execution="serial")
N_CASES = 4
N_SETUPS = 3


@dataclass
class Op:
    case: int
    start: float
    end: float
    solution: Any
    error: str | None
    traced: bool


def run(seed: int, seconds: float, tracer: Tracer | None) -> Result:
    checks = Checks()
    rng = np.random.default_rng([seed, 1])
    cases = [random_loads(rng, build_problem(WORKLOAD)) for _ in range(N_CASES)]
    fingerprint = Fingerprint("heat2d-loadcases", WORKLOAD.to_dict(), SPEC.to_dict())
    for loads in cases:
        fingerprint.add(loads)

    # Set-up, several times: problem assembly, symbolic analysis, explicit
    # assembly, coarse factorization and preconditioner, from a fresh Session.
    setups: list[float] = []
    windows: list[tuple[float, float]] = []
    session = solver = queue = None
    for _ in range(N_SETUPS):
        if session is not None:
            session.close()
        session = solver = queue = None
        gc.collect()
        build_problem.cache_clear()
        start = perf_counter()
        session = Session(SPEC)
        if tracer is not None:
            tracer.instrument_session(session)
        solver = session.solver(WORKLOAD)
        solver.preprocess()
        solver.projector, solver.preconditioner  # noqa: B018 - force the lazy builds
        queue = session.queue()
        end = perf_counter()
        setups.append(end - start)
        windows.append((start, end))
        stats = session.cache_stats()
        checks.exact(
            "set-up counts",
            (
                stats["symbolic_analyses"],
                stats["pattern_hits"],
                solver.operator.storage_nbytes(),
                solver.operator.ledger.last("preprocessing").simulated_seconds,
            ),
        )

    ops: list[Op] = []

    def timed(until: float, traced: bool) -> None:
        while perf_counter() < until:
            case = len(ops) % N_CASES
            start = perf_counter()
            try:
                solution, error = queue.submit(WORKLOAD, rhs=cases[case]).result(), None
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                solution, error = None, repr(exc)
            ops.append(Op(case, start, perf_counter(), solution, error, traced))

    timed_phase(seconds, tracer, timed)
    walls = [op.end - op.start for op in ops]
    metrics, note = end_to_end(setups, walls, sum(walls))

    # Answer check, untimed.
    reference = DirectReference(build_problem(WORKLOAD))
    distance = reference.verify()
    if distance > 1e-8:
        checks.fail(f"direct reference disagrees with saddle_point_solution: {distance:.3e}")
    expected = [reference.solve(loads)[0] for loads in cases]
    for i, op in enumerate(ops):
        label = f"operation {i} (load case {op.case})"
        if op.error is not None:
            checks.operation(label, error=op.error)
            continue
        sol = op.solution
        checks.operation(
            label,
            converged=sol.converged,
            rel_errors=[rel_error(np.concatenate(sol.primal), expected[op.case])],
        )
        # Not FetiSolution.dual_apply_seconds: it also counts two applies of
        # the previous solve (see tests/test_known_failures.py).
        checks.exact(f"load case {op.case}", (sol.iterations, sol.preprocessing_seconds))

    notes = [note, f"inputs sha256:{fingerprint.hexdigest()} ({N_CASES} load cases, seed {seed})"]
    if tracer is None:
        return Result(checks, metrics, notes)

    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    layers = zero_layers()
    layers.update(setup_layers(tracer, windows))
    layers.update(storage_layers([session], [solver]))
    layers.update(modeled_layers([solver]))
    layers.update(
        op_layers(
            tracer,
            [(op.case, op.start, op.end, op.solution.iterations)
             for op in traced if op.solution is not None],
            checks,
        )
    )
    layers["trace.overhead_s"] = median(o.end - o.start for o in traced) - median(
        o.end - o.start for o in untraced
    )
    notes.append(f"traced operations: {len(traced)}, untraced: {len(untraced)}")
    session.close()
    return Result(checks, layers, notes)
