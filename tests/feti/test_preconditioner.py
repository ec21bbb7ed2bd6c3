"""Tests of the dual preconditioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.feti.preconditioner import (
    DirichletPreconditioner,
    IdentityPreconditioner,
    LumpedPreconditioner,
)
from repro.api import SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.solver import FetiSolver, PreconditionerKind


def test_identity_returns_input(heat_problem_2d):
    pre = IdentityPreconditioner(heat_problem_2d)
    x = np.arange(heat_problem_2d.n_lambda, dtype=float)
    assert pre.apply(x) is x


@pytest.mark.parametrize("cls", [LumpedPreconditioner, DirichletPreconditioner])
def test_preconditioner_is_symmetric_positive_semidefinite(heat_problem_2d, cls):
    pre = cls(heat_problem_2d)
    n = heat_problem_2d.n_lambda
    rng = np.random.default_rng(0)
    # build the dense operator by applying to basis vectors
    M = np.column_stack([pre.apply(np.eye(n)[:, j]) for j in range(n)])
    assert np.allclose(M, M.T, atol=1e-9)
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -1e-9
    x = rng.standard_normal(n)
    assert x @ pre.apply(x) >= -1e-9


@pytest.mark.parametrize("cls", [LumpedPreconditioner, DirichletPreconditioner])
def test_preconditioner_linear(heat_problem_2d, cls):
    pre = cls(heat_problem_2d)
    rng = np.random.default_rng(1)
    n = heat_problem_2d.n_lambda
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(pre.apply(2.0 * x + y), 2.0 * pre.apply(x) + pre.apply(y))


@pytest.mark.parametrize(
    "kind",
    [PreconditionerKind.NONE, PreconditionerKind.LUMPED, PreconditionerKind.DIRICHLET],
)
def test_all_preconditioners_converge_to_same_solution(heat_problem_2d, kind):
    reference = None
    options = SolverSpec(
        preconditioner=kind, tolerance=1e-10, max_iterations=300
    )
    solver = FetiSolver(heat_problem_2d, options)
    solution = solver.solve()
    assert solution.converged
    u = np.concatenate(solution.primal)
    u_ref, _ = heat_problem_2d.saddle_point_solution()
    assert np.allclose(u, u_ref, atol=1e-7)


def test_preconditioning_reduces_iterations(elasticity_problem_2d):
    """The lumped preconditioner should not need more iterations than none."""
    def run(kind):
        opts = SolverSpec(
            preconditioner=kind, tolerance=1e-8, max_iterations=400
        )
        return FetiSolver(elasticity_problem_2d, opts).solve().iterations

    assert run(PreconditionerKind.LUMPED) <= run(PreconditionerKind.NONE) + 2


# --------------------------------------------------------------------- #
# Many subdomains: the scatter against an independently assembled M      #
# --------------------------------------------------------------------- #
MANY = Workload("heat", 2, (4, 4), 3)


def _reference_operator(sub, cls):
    """``Kᵢ`` (lumped) or the embedded dense Schur complement (Dirichlet)."""
    K = sub.K.toarray()
    if cls is LumpedPreconditioner:
        return K
    boundary = np.unique(sub.B.indices)
    interior = np.setdiff1d(np.arange(sub.ndofs), boundary)
    S = K[np.ix_(boundary, boundary)] - K[np.ix_(boundary, interior)] @ np.linalg.solve(
        K[np.ix_(interior, interior)], K[np.ix_(interior, boundary)]
    )
    op = np.zeros_like(K)
    op[np.ix_(boundary, boundary)] = S
    return op


@pytest.mark.parametrize("cls", [LumpedPreconditioner, DirichletPreconditioner])
def test_preconditioner_matches_assembled_reference(cls):
    problem = build_problem(MANY)
    assert len(problem.subdomains) == 16
    n = problem.n_lambda
    M = np.zeros((n, n))
    for sub in problem.subdomains:
        Bs = sub.B.toarray() / sub.dof_multiplicity
        M[np.ix_(sub.lambda_ids, sub.lambda_ids)] += Bs @ _reference_operator(sub, cls) @ Bs.T
    w = np.random.default_rng(5).standard_normal(n)
    want = M @ w
    got = cls(problem).apply(w)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("cls", [LumpedPreconditioner, DirichletPreconditioner])
def test_apply_block_is_bitwise_equal_to_per_column_applies(cls):
    problem = build_problem(MANY)
    pre = cls(problem)
    W = np.random.default_rng(6).standard_normal((problem.n_lambda, 3))
    block = pre.apply_block(W)
    for j in range(W.shape[1]):
        assert np.array_equal(block[:, j], pre.apply(W[:, j].copy()))
