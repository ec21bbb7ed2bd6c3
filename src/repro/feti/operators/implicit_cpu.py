"""Implicit CPU dual operator (`impl mkl` / `impl cholmod` in Table III).

The traditional approach: the FETI preprocessing only factorizes the
regularized subdomain stiffness matrices; every application evaluates

    ``q̃ᵢ = B̃ᵢ (Uᵢ⁻¹ (Lᵢ⁻¹ (B̃ᵢᵀ p̃ᵢ)))``

right-to-left with a sparse SpMV, two triangular solves and another SpMV
(equation (13) of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Machine
from repro.feti.config import DualOperatorApproach
from repro.feti.operators.base import DualOperatorBase
from repro.feti.problem import FetiProblem
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver, PardisoLikeSolver

__all__ = ["ImplicitCpuDualOperator"]


class ImplicitCpuDualOperator(DualOperatorBase):
    """Implicit application of ``F̃ᵢ`` on the CPU."""

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        library: CpuLibrary = CpuLibrary.MKL_PARDISO,
        batched: bool = True,
        blocked: bool = True,
        pattern_cache=None,
        executor=None,
        precision="fp64",
    ) -> None:
        super().__init__(
            problem,
            machine,
            batched=batched,
            blocked=blocked,
            pattern_cache=pattern_cache,
            executor=executor,
            precision=precision,
        )
        self.library = library
        self.approach = (
            DualOperatorApproach.IMPLICIT_MKL
            if library is CpuLibrary.MKL_PARDISO
            else DualOperatorApproach.IMPLICIT_CHOLMOD
        )
        solver_cls = (
            PardisoLikeSolver if library is CpuLibrary.MKL_PARDISO else CholmodLikeSolver
        )
        self._cpu_solvers = {
            s.index: solver_cls(
                blocked=blocked,
                pattern_cache=self.pattern_cache,
                precision=self.precision,
            )
            for s in problem.subdomains
        }

    # ------------------------------------------------------------------ #
    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
        breakdown: dict[str, float] = {"symbolic": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                solver = self._cpu_solvers[sub.index]
                symbolic = solver.analyze(sub.K_reg)
                cost = cluster.cpu.symbolic_factorization(
                    int(sub.K_reg.nnz), symbolic.nnz
                )
                clocks.advance(i, cost)
                breakdown["symbolic"] += cost
            cluster_times.append(clocks.elapsed)
        return self._merge_cluster_times(cluster_times), breakdown

    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # Numeric factorization of every subdomain: serial reference loop or
        # sharded futures, depending on the operator's executor.
        self.run_feti_preprocessing()
        breakdown: dict[str, float] = {"numeric_factorization": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                solver = self._cpu_solvers[sub.index]
                cost = cluster.cpu.numeric_factorization(
                    solver.factorization_flops(), solver.factor_nnz, self.library
                )
                clocks.advance(i, cost)
                breakdown["numeric_factorization"] += cost
            if self.batched:
                # The per-application costs only depend on fixed sparsity
                # patterns, so they are precomputed here once per time step
                # and replayed vectorized inside every PCPG iteration.
                batch = self.batch_engine.cluster(cluster.cluster_id)
                batch.cost_arrays["spmv"] = np.array(
                    [2.0 * cluster.cpu.spmv(int(s.B.nnz)) for s in subs]
                )
                batch.cost_arrays["trsv"] = np.array(
                    [
                        2.0 * cluster.cpu.sparse_trsv(self._cpu_solvers[s.index].factor_nnz)
                        for s in subs
                    ]
                )
            cluster_times.append(clocks.elapsed)
        return self._merge_cluster_times(cluster_times), breakdown

    def _apply_impl(self, lam: np.ndarray) -> tuple[np.ndarray, float, dict[str, float]]:
        if self.batched:
            return self._apply_batched(lam)
        return self._apply_looped(lam)

    def _apply_batched(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]]:
        """Vectorized scatter/gather and cost bookkeeping.

        The triangular solves remain per-subdomain (their sparsity patterns
        differ), but the dual-vector traffic and the simulated-clock updates
        run as single vectorized operations per cluster.
        """
        q = np.zeros_like(lam)
        breakdown: dict[str, float] = {"spmv": 0.0, "trsv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            if subs:
                batch = self.batch_engine.cluster(cluster.cluster_id)
                p_concat = batch.dual_map.gather(lam)
                q_concat = np.empty_like(p_concat)
                for i, sub in enumerate(subs):
                    solver = self._cpu_solvers[sub.index]
                    local = batch.dual_map.slice_of(i)
                    z = solver.solve(sub.B.T @ p_concat[local])
                    q_concat[local] = sub.B @ z
                batch.dual_map.scatter_add(q, q_concat)
                spmv_costs = batch.cost_arrays["spmv"]
                trsv_costs = batch.cost_arrays["trsv"]
                clocks.advance_many(spmv_costs + trsv_costs)
                breakdown["spmv"] += float(spmv_costs.sum())
                breakdown["trsv"] += float(trsv_costs.sum())
            cluster_times.append(clocks.elapsed)
        return q, self._merge_cluster_times(cluster_times), breakdown

    def _apply_looped(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]]:
        """Reference per-subdomain loop (kept for regression comparison)."""
        q = np.zeros_like(lam)
        breakdown: dict[str, float] = {"spmv": 0.0, "trsv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                solver = self._cpu_solvers[sub.index]
                p_local = sub.local_dual(lam)
                x = sub.B.T @ p_local
                z = solver.solve(x)
                q_local = sub.B @ z
                sub.accumulate_dual(q, q_local)
                spmv_cost = 2.0 * cluster.cpu.spmv(int(sub.B.nnz))
                trsv_cost = 2.0 * cluster.cpu.sparse_trsv(solver.factor_nnz)
                clocks.advance(i, spmv_cost + trsv_cost)
                breakdown["spmv"] += spmv_cost
                breakdown["trsv"] += trsv_cost
            cluster_times.append(clocks.elapsed)
        return q, self._merge_cluster_times(cluster_times), breakdown
