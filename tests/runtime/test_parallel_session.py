"""A parallel session's dual-operator applies equal the serial ones.

Under ``threads`` and ``processes`` execution the executor shards only
the preprocessing (factorization and explicit ``F̃ᵢ`` assembly); every
apply then runs in the calling thread on what preprocessing left behind.
The contract, per approach:

* ``threads`` — bitwise equal to serial (each shard runs the serial
  per-subdomain kernels in-process);
* ``processes`` — ≤1e-12 relative (same kernels, run in pool workers);
* after preprocessing, ``apply`` / ``apply_multi`` submit nothing to the
  executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload

APPROACHES = [
    "impl mkl",
    "impl cholmod",
    "impl legacy",
    "impl modern",
    "expl mkl",
    "expl cholmod",
    "expl legacy",
    "expl modern",
    "expl hybrid",
]
EXPLICIT = ["expl mkl", "expl cholmod", "expl modern", "expl hybrid"]

HEAT = Workload("heat", 2, (3, 3), 6)


def _n_lambda(approach):
    with Session(SolverSpec(approach=approach)) as session:
        return session.problem(HEAT).n_lambda


def _applied(approach, execution, apply):
    """``apply(operator)`` on a preprocessed operator; counts executor submits."""
    spec = (
        SolverSpec(approach=approach, execution=execution)
        if execution
        else SolverSpec(approach=approach)
    )
    with Session(spec) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        executor = session.executor_for(spec)
        submits = []
        submit = executor.submit

        def counting_submit(*args, **kwargs):
            submits.append(args)
            return submit(*args, **kwargs)

        executor.submit = counting_submit
        try:
            result = apply(operator)
        finally:
            del executor.submit
    return result, len(submits)


def _relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("approach", APPROACHES)
def test_threads_session_apply_is_bitwise_equal_to_serial(approach):
    lam = np.random.default_rng(42).standard_normal(_n_lambda(approach))
    serial, _ = _applied(approach, None, lambda op: op.apply(lam))
    threaded, submits = _applied(approach, "threads:2", lambda op: op.apply(lam))
    assert submits == 0
    assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("approach", APPROACHES)
def test_processes_session_apply_within_1e12_of_serial(approach):
    lam = np.random.default_rng(42).standard_normal(_n_lambda(approach))
    serial, _ = _applied(approach, None, lambda op: op.apply(lam))
    pooled, submits = _applied(approach, "processes:2", lambda op: op.apply(lam))
    assert submits == 0
    assert _relative_error(pooled, serial) <= 1e-12


@pytest.mark.parametrize("approach", EXPLICIT)
def test_threads_session_multi_apply_is_bitwise_equal_to_serial(approach):
    block = np.random.default_rng(7).standard_normal((_n_lambda(approach), 3))

    def multi(op):
        return op.apply_multi(block, stacked=True)

    serial, _ = _applied(approach, None, multi)
    threaded, submits = _applied(approach, "threads:2", multi)
    assert submits == 0
    assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("approach", EXPLICIT)
def test_processes_session_multi_apply_within_1e12_of_serial(approach):
    block = np.random.default_rng(7).standard_normal((_n_lambda(approach), 3))

    def multi(op):
        return op.apply_multi(block, stacked=True)

    serial, _ = _applied(approach, None, multi)
    pooled, submits = _applied(approach, "processes:2", multi)
    assert submits == 0
    assert _relative_error(pooled, serial) <= 1e-12
