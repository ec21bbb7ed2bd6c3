"""Repeated solves and repeated preparations on one Session."""

from __future__ import annotations

import pytest

from repro.api import Session, SolverSpec, Workload

TINY = Workload("heat", 2, (2, 2), 4)
GPU_APPROACHES = ("impl legacy", "impl modern", "expl legacy", "expl modern", "expl hybrid")


@pytest.mark.parametrize("approach", ["expl modern", "impl mkl"])
def test_identical_solves_report_equal_dual_apply_seconds(approach: str) -> None:
    session = Session(SolverSpec(approach=approach))
    first = session.solve(TINY)
    second = session.solve(TINY)
    assert second.iterations == first.iterations
    assert first.dual_apply_seconds > 0.0
    assert second.dual_apply_seconds == first.dual_apply_seconds


def _device_state(operator):
    """(pool bytes in use, persistent allocations) of the first cluster."""
    device = operator.machine.clusters[0].device
    held = []
    for state in operator._state.values():
        for value in vars(state).values():
            allocation = getattr(value, "allocation", None) or getattr(
                value, "persistent_buffer", None
            )
            if allocation is not None:
                held.append(allocation)
    return device.memory.used_bytes, held


@pytest.mark.parametrize("approach", GPU_APPROACHES)
def test_second_prepare_reuses_the_device_pool(approach: str) -> None:
    session = Session(SolverSpec(approach=approach))
    first = session.solve(TINY)
    operator = session.solver(TINY).operator
    used_first, held_first = _device_state(operator)
    assert held_first

    assert session.run(TINY).converged  # MultiStepDriver.run prepares again
    used_second, held_second = _device_state(operator)
    assert used_second == used_first
    assert all(a.released for a in held_first)
    assert not any(a.released for a in held_second)

    again = session.solve(TINY)
    assert again.converged and again.iterations == first.iterations
