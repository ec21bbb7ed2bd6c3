"""Determinism of the parallel runtime (the acceptance gate of the PR).

Every executor backend must reproduce the serial solution for all nine
dual-operator approaches: the two parallel backends run literally the same
sharded kernels (so they are bitwise identical to *each other*), and both
must match the serial reference bitwise or to a tight tolerance — the only
permitted deviation is machine rounding from the padded batched Schur
kernels, orders of magnitude below the solver tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.config import DualOperatorApproach
from repro.feti.solver import FetiSolver
from repro.runtime.executor import SerialExecutor, shared_executor

WORKLOADS = {
    "heat-2d": Workload("heat", 2, (2, 2), 4),
    "elasticity-3d": Workload("elasticity", 3, (2, 1, 1), 2),
}

#: Bitwise where possible; the batched Schur assembly may differ by machine
#: rounding (~1e-15 per entry), amplified through the PCPG iteration.
TIGHT = dict(rtol=1e-9, atol=1e-11)


def _solve(approach, workload, backend=None):
    """One solve through a fresh solver; pools are shared process-wide.

    ``shared_executor`` reuses one worker pool per backend across the whole
    parametrized sweep — the sweep then measures determinism, not pool
    start-up, and stays fast on small CI runners.
    """
    executor = shared_executor(backend) if backend else None
    solver = FetiSolver(
        build_problem(workload), SolverSpec(approach=approach), executor=executor
    )
    return solver.solve()


@pytest.fixture(scope="module")
def serial_solutions():
    """Serial reference solutions of every (approach, workload) pair."""
    return {
        (approach, wname): _solve(approach, workload)
        for wname, workload in WORKLOADS.items()
        for approach in DualOperatorApproach
    }


@pytest.mark.parametrize("backend", ["threads:2", "processes:2"])
@pytest.mark.parametrize("wname", sorted(WORKLOADS))
@pytest.mark.parametrize("approach", list(DualOperatorApproach))
def test_parallel_executors_reproduce_serial_solutions(
    approach, wname, backend, serial_solutions
):
    workload = WORKLOADS[wname]
    solution = _solve(approach, workload, backend)
    reference = serial_solutions[(approach, wname)]

    assert solution.iterations == reference.iterations
    assert solution.converged and reference.converged
    np.testing.assert_allclose(solution.lam, reference.lam, **TIGHT)
    np.testing.assert_allclose(solution.alpha, reference.alpha, **TIGHT)
    for got, ref in zip(solution.primal, reference.primal):
        np.testing.assert_allclose(got, ref, **TIGHT)
    # The simulated-time semantics are exactly the serial ones: sharding
    # changes wall-clock execution, never the modeled machine.
    assert (
        solution.preprocessing.simulated_seconds
        == reference.preprocessing.simulated_seconds
    )
    assert solution.dual_apply_seconds == reference.dual_apply_seconds


@pytest.mark.parametrize("wname", sorted(WORKLOADS))
def test_threads_and_processes_are_bitwise_identical(wname):
    """The two parallel backends run the same kernels on the same shards."""
    workload = WORKLOADS[wname]
    solutions = {
        backend: _solve(DualOperatorApproach.EXPLICIT_MKL, workload, backend)
        for backend in ("threads:2", "processes:2")
    }
    a, b = solutions["threads:2"], solutions["processes:2"]
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.alpha, b.alpha)
    for ga, gb in zip(a.primal, b.primal):
        assert np.array_equal(ga, gb)


def test_repeated_parallel_preprocessing_is_stable():
    """Re-running preprocess on the same operator reproduces the factors."""
    workload = WORKLOADS["heat-2d"]
    solver = FetiSolver(
        build_problem(workload),
        SolverSpec(approach=DualOperatorApproach.EXPLICIT_MKL),
        executor=shared_executor("processes:2"),
    )
    operator = solver.operator
    operator.prepare()
    operator.preprocess()
    first = {i: operator.local_F[i].copy() for i in sorted(operator.local_F)}
    operator.preprocess()
    for i, F in first.items():
        assert np.array_equal(operator.local_F[i], F)


def test_session_declared_execution_reproduces_serial(serial_solutions):
    """The Session path (spec-declared execution) matches serial too."""
    workload = WORKLOADS["heat-2d"]
    approach = DualOperatorApproach.EXPLICIT_MKL
    with Session(SolverSpec(approach=approach, execution="processes:2")) as session:
        solution = session.solve(workload)
    reference = serial_solutions[(approach, "heat-2d")]
    np.testing.assert_allclose(solution.lam, reference.lam, **TIGHT)


def test_symbolic_is_shipped_once_per_pattern_per_executor():
    """Multi-round preprocessing re-sends only the analysis digest."""
    workload = WORKLOADS["heat-2d"]
    executor = shared_executor("processes:2")
    solver = FetiSolver(
        build_problem(workload),
        SolverSpec(approach=DualOperatorApproach.EXPLICIT_MKL),
        executor=executor,
    )
    operator = solver.operator
    operator.prepare()
    operator.preprocess()
    seeded = set(executor.seeded_keys)
    assert seeded  # the first round seeded the workers
    first = {i: operator.local_F[i].copy() for i in sorted(operator.local_F)}
    operator.preprocess()  # second round ships digests only
    assert executor.seeded_keys >= seeded
    for i, F in first.items():
        assert np.array_equal(operator.local_F[i], F)


# --------------------------------------------------------------------- #
# The PCPG loop stays in the calling thread                              #
# --------------------------------------------------------------------- #
LOOP_WORKLOAD = Workload("heat", 2, (8, 8), 16)
# 16 subdomains and ~300 multipliers: still past the sizes at which the
# process-pool apply and coarse products dispatched, at a quarter the cost.
PROCESS_LOOP_WORKLOAD = Workload("heat", 2, (4, 4), 10)


def _assert_warm_solve_dispatches_nothing(approach, preconditioner, execution, workload):
    """A solve that reuses preprocessing submits no task to the executor.

    Both loop workloads are past every size at which the apply, projector
    or preconditioner ever dispatched per iteration on their backend, so a
    per-iteration parallel path shows up here as executor submits.  The
    serial reference runs its PCPG on the *same* preprocessed operator:
    sharded explicit preprocessing may round differently from the serial
    loop, but the PCPG phase itself must be bitwise serial.
    """
    spec = SolverSpec(
        approach=approach, preconditioner=preconditioner, execution=execution
    )
    with Session(spec) as session:
        session.solve(workload)
        executor = session.executor_for(spec)
        submits = []
        submit = executor.submit

        def counting_submit(*args, **kwargs):
            submits.append(args)
            return submit(*args, **kwargs)

        executor.submit = counting_submit
        try:
            solution = session.solve(workload)
        finally:
            del executor.submit
        reference_solver = FetiSolver(
            session.problem(workload),
            SolverSpec(approach=approach, preconditioner=preconditioner),
            executor=SerialExecutor(),
        )
        reference_solver.operator = session.operator_for(workload, spec)
        reference = reference_solver.solve(reuse_preprocessing=True)
    assert submits == []
    assert solution.iterations == reference.iterations
    assert np.array_equal(solution.lam, reference.lam)
    assert np.array_equal(solution.alpha, reference.alpha)
    for got, ref in zip(solution.primal, reference.primal):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("preconditioner", ["lumped", "dirichlet"])
@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
def test_warm_parallel_solve_dispatches_nothing(approach, preconditioner):
    _assert_warm_solve_dispatches_nothing(
        approach, preconditioner, "threads:2", LOOP_WORKLOAD
    )


@pytest.mark.parametrize("preconditioner", ["lumped", "dirichlet"])
@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
def test_warm_process_solve_dispatches_nothing(approach, preconditioner):
    _assert_warm_solve_dispatches_nothing(
        approach, preconditioner, "processes:2", PROCESS_LOOP_WORKLOAD
    )
