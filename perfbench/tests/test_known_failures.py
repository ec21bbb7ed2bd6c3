"""Defects the benchmark ran into, kept as non-strict expected failures.

Each test shows the intended behaviour; once the program is fixed it
reports XPASS without a benchmark edit.
"""

from __future__ import annotations

import pytest

from repro.api import Session, SolverSpec, Workload
from repro.gpu.memory import AllocationError

TINY = Workload("heat", 2, (2, 2), 4)
GPU_APPROACHES = ("impl legacy", "impl modern", "expl legacy", "expl modern", "expl hybrid")


@pytest.mark.xfail(
    raises=AllocationError,
    strict=False,
    reason="a second FetiSolver.prepare() on a cached GPU solver exhausts the device pool",
)
@pytest.mark.parametrize("approach", GPU_APPROACHES)
def test_second_schedule_on_a_cached_gpu_solver(approach: str) -> None:
    session = Session(SolverSpec(approach=approach))
    session.solve(TINY)
    assert session.run(TINY).converged  # MultiStepDriver.run calls prepare() again
    assert session.solve(TINY).converged


@pytest.mark.xfail(
    raises=AssertionError,
    strict=False,
    reason="FetiSolver.solve slices ledger.phases from ledger.count('apply'), "
    "so dual_apply_seconds also counts applies of the previous solve",
)
def test_dual_apply_seconds_counts_only_the_solves_own_applies() -> None:
    session = Session(SolverSpec(approach="expl modern"))
    first = session.solve(TINY)
    second = session.solve(TINY)
    assert second.iterations == first.iterations
    assert second.dual_apply_seconds == first.dual_apply_seconds
