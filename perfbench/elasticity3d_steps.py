"""elasticity3d-steps: Algorithm-2 schedules, each on a fresh Session.

Every repetition builds a fresh :class:`repro.api.Session` and runs one
``N_STEPS``-step schedule through ``Session.run_steps(w, N, update=...)``.
Each step re-runs numeric factorization and explicit ``F̃ᵢ`` assembly before
PCPG.  The benchmark's ``update`` installs the step's seeded loads and
timestamps the step boundaries; set-up is the time from constructing the
Session to the first ``update`` call.  Every repetition runs the same
schedule, so each step's counts must repeat exactly across repetitions.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
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

WORKLOAD = Workload("elasticity", 3, (2, 2, 1), 8, n_clusters=2)
SPEC = SolverSpec(approach="expl modern", assembly="table2", execution="serial")
N_STEPS = 4


@dataclass
class Repetition:
    start: float
    traced: bool
    #: ``update`` call times, then the time ``run_steps`` returned.
    stamps: list[float] = field(default_factory=list)
    records: list[Any] = field(default_factory=list)
    solutions: list[Any] = field(default_factory=list)
    error: str | None = None
    session: Any = None
    solver: Any = None

    @property
    def setup_end(self) -> float:
        return self.stamps[0]

    def steps(self) -> list[tuple[int, float, float]]:
        """``(step, start, end)`` of every step that started."""
        return [(i, a, b) for i, (a, b) in enumerate(zip(self.stamps, self.stamps[1:]))]


def repetition(step_loads: list[list[np.ndarray]], tracer: Tracer | None, traced: bool,
               checks: Checks) -> Repetition:
    gc.collect()
    build_problem.cache_clear()
    rep = Repetition(start=perf_counter(), traced=traced)
    session = Session(SPEC)
    if tracer is not None:
        tracer.instrument_session(session)
    solver = session.solver(WORKLOAD)
    solver.projector, solver.preconditioner  # noqa: B018 - force the lazy builds
    solve = solver.solve

    def capture(*args: Any, **kwargs: Any) -> Any:
        solution = solve(*args, **kwargs)
        rep.solutions.append(solution)
        return solution

    solver.solve = capture

    def update(step: int, problem: Any) -> None:
        rep.stamps.append(perf_counter())
        for sub, f in zip(problem.subdomains, step_loads[step]):
            sub.f = f.copy()

    try:
        rep.records = session.run_steps(WORKLOAD, N_STEPS, update=update)
    except Exception as exc:  # noqa: BLE001 - a failed step is counted
        rep.error = repr(exc)
    rep.stamps.append(perf_counter())
    session.close()
    stats = session.cache_stats()
    checks.exact(
        "set-up counts",
        (stats["symbolic_analyses"], stats["pattern_hits"], solver.operator.storage_nbytes()),
    )
    for record in rep.records:
        checks.exact(
            f"step {record.step}",
            (record.iterations, record.preprocessing_seconds, record.apply_seconds),
        )
    rep.session, rep.solver = session, solver
    return rep


def run(seed: int, seconds: float, tracer: Tracer | None) -> Result:
    checks = Checks()
    rng = np.random.default_rng([seed, 2])
    step_loads = [random_loads(rng, build_problem(WORKLOAD)) for _ in range(N_STEPS)]
    fingerprint = Fingerprint("elasticity3d-steps", WORKLOAD.to_dict(), SPEC.to_dict())
    for loads in step_loads:
        fingerprint.add(loads)

    reps: list[Repetition] = []

    def timed(until: float, traced: bool) -> None:
        """Run repetitions until ``until``; at least one."""
        while True:
            if reps:  # keep only the latest session alive
                reps[-1].session = reps[-1].solver = None
            reps.append(repetition(step_loads, tracer, traced, checks))
            if perf_counter() >= until:
                return

    timed_phase(seconds, tracer, timed)

    setups = [rep.setup_end - rep.start for rep in reps if rep.stamps[1:]]
    walls = [b - a for rep in reps for _, a, b in rep.steps()]
    metrics, note = end_to_end(setups, walls, sum(walls))

    # Answer check, untimed: the schedule never changes the stiffness, so one
    # factorization of the saddle-point system serves every step.
    reference = DirectReference(build_problem(WORKLOAD))
    distance = reference.verify()
    if distance > 1e-8:
        checks.fail(f"direct reference disagrees with saddle_point_solution: {distance:.3e}")
    expected = [reference.solve(loads)[0] for loads in step_loads]
    for r, rep in enumerate(reps):
        for step in range(N_STEPS):
            label = f"repetition {r} step {step}"
            if step >= len(rep.solutions):
                checks.operation(label, error=rep.error or "step did not run")
                continue
            sol = rep.solutions[step]
            checks.operation(
                label,
                converged=sol.converged,
                rel_errors=[rel_error(np.concatenate(sol.primal), expected[step])],
            )

    notes = [note, f"inputs sha256:{fingerprint.hexdigest()} ({N_STEPS} steps, seed {seed})"]
    if tracer is None:
        return Result(checks, metrics, notes)

    traced = [rep for rep in reps if rep.traced]
    untraced = [rep for rep in reps if not rep.traced]
    last = reps[-1]
    layers = zero_layers()
    layers.update(setup_layers(tracer, [(rep.start, rep.setup_end) for rep in traced]))
    layers.update(storage_layers([last.session], [last.solver]))
    layers.update(modeled_layers([last.solver]))
    layers.update(
        op_layers(
            tracer,
            [(step, a, b, rep.records[step].iterations)
             for rep in traced for step, a, b in rep.steps() if step < len(rep.records)],
            checks,
        )
    )

    def step_walls(group: list[Repetition]) -> list[float]:
        return [b - a for rep in group for _, a, b in rep.steps()]

    layers["trace.overhead_s"] = median(step_walls(traced)) - median(step_walls(untraced))
    notes.append(f"traced repetitions: {len(traced)}, untraced: {len(untraced)}")
    return Result(checks, layers, notes)
