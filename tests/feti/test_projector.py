"""Tests of the coarse-space projector."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.spec import SolverSpec
from repro.api.workload import Workload, build_problem
from repro.feti.projector import Projector, build_projector


@pytest.fixture()
def projector(heat_problem_2d):
    return Projector(heat_problem_2d.assemble_G())


def test_projector_annihilates_range_of_G(projector, heat_problem_2d):
    G = heat_problem_2d.assemble_G()
    rng = np.random.default_rng(0)
    y = rng.standard_normal(G.shape[1])
    assert np.allclose(projector.apply(G @ y), 0.0, atol=1e-10)


def test_projector_is_idempotent_and_symmetric(projector, heat_problem_2d):
    n = heat_problem_2d.n_lambda
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    px = projector.apply(x)
    assert np.allclose(projector.apply(px), px, atol=1e-10)
    # symmetry: <Px, y> == <x, Py>
    y = rng.standard_normal(n)
    assert projector.apply(x) @ y == pytest.approx(x @ projector.apply(y))


def test_projected_vector_is_orthogonal_to_G(projector, heat_problem_2d):
    G = heat_problem_2d.assemble_G()
    rng = np.random.default_rng(2)
    x = rng.standard_normal(heat_problem_2d.n_lambda)
    assert np.allclose(G.T @ projector.apply(x), 0.0, atol=1e-10)


def test_initial_lambda_satisfies_coarse_constraint(projector, heat_problem_2d):
    e = heat_problem_2d.compute_e()
    lam0 = projector.initial_lambda(e)
    G = heat_problem_2d.assemble_G()
    assert np.allclose(G.T @ lam0, e, atol=1e-10)


def test_alpha_recovery_formula(projector, heat_problem_2d):
    rng = np.random.default_rng(3)
    residual = rng.standard_normal(heat_problem_2d.n_lambda)
    alpha = projector.alpha(residual)
    G = heat_problem_2d.assemble_G()
    gtg = (G.T @ G).toarray()
    assert np.allclose(gtg @ alpha, -(G.T @ residual), atol=1e-10)


def test_callable_interface(projector, heat_problem_2d):
    x = np.ones(heat_problem_2d.n_lambda)
    assert np.allclose(projector(x), projector.apply(x))


def test_empty_G_rejected():
    with pytest.raises(ValueError):
        Projector(sp.csr_matrix((5, 0)))


# --------------------------------------------------------------------- #
# Hierarchical (two-level cluster) coarse problem                        #
# --------------------------------------------------------------------- #
MULTICLUSTER_WORKLOADS = [
    pytest.param(Workload("heat", 2, (4, 4), 3, n_clusters=4), id="heat-2d"),
    pytest.param(
        Workload("heat", 3, (2, 2, 1), 2, n_clusters=2, dirichlet_faces=("zmin",)),
        id="heat-3d",
    ),
    pytest.param(
        Workload("elasticity", 2, (4, 2), 3, n_clusters=4), id="elasticity-2d"
    ),
    pytest.param(
        Workload("elasticity", 3, (2, 2, 1), 2, n_clusters=2), id="elasticity-3d"
    ),
]


def _projector_pair(problem):
    dense = build_projector(problem, mode="dense")
    hier = build_projector(problem, mode="hierarchical")
    return dense, hier


@pytest.mark.parametrize("workload", MULTICLUSTER_WORKLOADS)
def test_hierarchical_matches_dense_across_physics(workload):
    problem = build_problem(workload)
    dense, hier = _projector_pair(problem)
    assert hier.mode == "hierarchical"
    assert hier.n_interface > 0  # the workload genuinely couples clusters
    rng = np.random.default_rng(5)
    x = rng.standard_normal(problem.n_lambda)
    px_dense, px_hier = dense.apply(x), hier.apply(x)
    denom = max(np.linalg.norm(px_dense), 1e-300)
    assert np.linalg.norm(px_hier - px_dense) / denom <= 1e-12


@pytest.mark.parametrize("workload", MULTICLUSTER_WORKLOADS)
def test_hierarchical_projector_algebra(workload):
    """P idempotent, G^T P x == 0 — the projector identities, hierarchically."""
    problem = build_problem(workload)
    hier = build_projector(problem, mode="hierarchical")
    G = problem.assemble_G()
    rng = np.random.default_rng(6)
    x = rng.standard_normal(problem.n_lambda)
    px = hier.apply(x)
    assert np.allclose(hier.apply(px), px, atol=1e-10)
    assert np.allclose(G.T @ px, 0.0, atol=1e-10)


def test_build_projector_auto_resolves_by_cluster_count():
    multi = build_problem(Workload("heat", 2, (4, 4), 3, n_clusters=4))
    single = build_problem(Workload("heat", 2, (2, 2), 3))
    assert build_projector(multi).mode == "hierarchical"
    assert build_projector(single).mode == "dense"
    assert build_projector(multi, mode="dense").mode == "dense"


def test_hierarchical_modeled_flops_beat_dense():
    problem = build_problem(Workload("heat", 2, (8, 8), 2, n_clusters=4))
    hier = build_projector(problem, mode="hierarchical")
    flops = hier.modeled_flops()
    assert flops["factor_flops"] < flops["dense_factor_flops"]
    assert flops["solve_flops"] < flops["dense_solve_flops"]
    dense = build_projector(problem, mode="dense")
    ref = dense.modeled_flops()
    assert ref["factor_flops"] == pytest.approx(ref["dense_factor_flops"])


def test_projector_stats_count_applies_and_solves():
    problem = build_problem(Workload("heat", 2, (4, 4), 3, n_clusters=4))
    hier = build_projector(problem, mode="hierarchical")
    x = np.ones(problem.n_lambda)
    hier.apply(x)
    hier.coarse_solve(np.ones(hier.n_kernel))
    stats = hier.stats()
    assert stats["mode"] == "hierarchical"
    assert stats["applies"] == 1
    assert stats["solves"] == 1  # apply()'s internal solve is not standalone
    assert stats["seconds"] >= 0.0
    assert stats["factor_seconds"] > 0.0


def test_projector_rejects_unknown_mode():
    problem = build_problem(Workload("heat", 2, (2, 2), 3))
    with pytest.raises(ValueError, match="coarse mode"):
        build_projector(problem, mode="sparse")


def test_single_cluster_hierarchical_degenerates_exactly():
    """One cluster => no interface; the two-level solve is the dense one."""
    problem = build_problem(Workload("heat", 2, (2, 2), 3))
    hier = build_projector(problem, mode="hierarchical")
    assert hier.n_interface == 0
    dense = build_projector(problem, mode="dense")
    x = np.arange(problem.n_lambda, dtype=float)
    assert np.allclose(hier.apply(x), dense.apply(x), atol=1e-12)


def test_apply_block_is_bitwise_equal_to_per_column_applies():
    problem = build_problem(Workload("heat", 2, (4, 4), 3, n_clusters=4))
    for mode in ("dense", "hierarchical"):
        projector = build_projector(problem, mode=mode)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((problem.n_lambda, 4))
        block = projector.apply_block(X)
        for j in range(X.shape[1]):
            assert np.array_equal(block[:, j], projector.apply(X[:, j].copy()))


@pytest.mark.parametrize("mode", ["dense", "hierarchical"])
def test_projector_holds_plain_csr_and_matches_dense_formula(mode):
    """``G`` and ``Gᵀ`` are plain CSR; ``P x = x − G (GᵀG)⁻¹ Gᵀ x``."""
    problem = build_problem(Workload("heat", 2, (4, 4), 3, n_clusters=4))
    projector = build_projector(problem, mode=mode)
    assert type(projector.G) is sp.csr_matrix
    assert type(projector.Gt) is sp.csr_matrix
    G = problem.assemble_G().toarray()
    assert np.array_equal(projector.G.toarray(), G)
    assert np.array_equal(projector.Gt.toarray(), G.T)
    x = np.random.default_rng(10).standard_normal(problem.n_lambda)
    want = x - G @ np.linalg.solve(G.T @ G, G.T @ x)
    got = projector.apply(x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(x)


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


@pytest.mark.parametrize("approach", APPROACHES)
def test_solver_hierarchical_matches_dense_per_approach(approach):
    """End to end: the solved lambda agrees <= 1e-12 on all nine approaches."""
    from repro.feti.solver import FetiSolver

    workload = Workload("heat", 2, (4, 4), 3, n_clusters=4)
    problem = build_problem(workload)
    lams = {}
    for mode in ("dense", "hierarchical"):
        solver = FetiSolver(problem, SolverSpec(approach=approach, coarse=mode))
        assert solver.projector.mode == mode
        lams[mode] = solver.solve().lam
    denom = max(np.linalg.norm(lams["dense"]), 1e-300)
    assert np.linalg.norm(lams["hierarchical"] - lams["dense"]) / denom <= 1e-12
