"""Explicit GPU dual operator — the paper's contribution.

`expl legacy` / `expl modern` in Table III: the local dual operators
``F̃ᵢ = B̃ᵢ Kᵢ⁺ B̃ᵢᵀ`` are assembled **on the GPU** from the CHOLMOD factors
and applied on the GPU with GEMV/SYMV.  The assembly pipeline follows
Section IV-B/C of the paper and is fully configurable through
:class:`~repro.feti.config.AssemblyConfig` (Table I):

* **path** — ``SYRK`` (``F̃ᵢ = Wᵀ W`` with ``W = L⁻¹ B̃ᵢᵀ``) or ``TRSM``
  (two triangular solves followed by an SpMM with ``B̃ᵢ``);
* **factor storage** — sparse cuSPARSE TRSM or on-device sparse→dense
  conversion followed by dense cuBLAS TRSM;
* **factor order / RHS order** — memory orders, affecting workspace sizes
  and kernel speed (especially for the legacy cuSPARSE API);
* **scatter/gather** — whether the application-phase dual-vector
  scatter/gather runs on the CPU or the GPU.

Persistent device memory holds the sparse factors, ``B̃ᵢ``, ``F̃ᵢ`` and the
dual vectors; dense factor copies, dense right-hand sides and kernel
workspaces are taken from the blocking temporary arena for the duration of
each subdomain's assembly, exactly as described in Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.cluster.topology import ClusterResources, Machine
from repro.feti.config import (
    AssemblyConfig,
    DualOperatorApproach,
    FactorOrder,
    FactorStorage,
    Path,
    RhsOrder,
    ScatterGatherDevice,
)
from repro.feti.operators.base import DualOperatorBase
from repro.feti.operators.batch import FlatIndexMap
from repro.feti.problem import FetiProblem
from repro.gpu import cublas, cusparse
from repro.gpu.arrays import (
    DeviceCsrMatrix,
    DeviceDenseMatrix,
    DeviceVector,
    MatrixOrder,
)
from repro.gpu.cusparse import SparseTrsmPlan
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver

__all__ = ["ExplicitGpuDualOperator"]


def _matrix_order(order: FactorOrder | RhsOrder) -> MatrixOrder:
    return (
        MatrixOrder.ROW_MAJOR
        if order.value == "row-major"
        else MatrixOrder.COL_MAJOR
    )


@dataclass
class _GpuState:
    """Per-subdomain persistent device structures."""

    perm: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    device_B: DeviceCsrMatrix | None = None
    device_factor: DeviceCsrMatrix | None = None
    device_F: DeviceDenseMatrix | None = None
    forward_plan: SparseTrsmPlan | None = None
    backward_plan: SparseTrsmPlan | None = None
    p_vec: DeviceVector | None = None
    q_vec: DeviceVector | None = None
    cluster_positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def release(self) -> None:
        """Return every persistent device allocation to its pool."""
        for held in (
            self.device_B, self.device_factor, self.device_F,
            self.forward_plan, self.backward_plan, self.p_vec, self.q_vec,
        ):
            if held is not None:
                held.release()


@dataclass
class _ClusterState:
    """Per-cluster persistent device structures (GPU scatter/gather path)."""

    lambda_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    dual_in: DeviceVector | None = None
    dual_out: DeviceVector | None = None

    def release(self) -> None:
        """Return the cluster dual vectors to their pool."""
        for held in (self.dual_in, self.dual_out):
            if held is not None:
                held.release()


class ExplicitGpuDualOperator(DualOperatorBase):
    """Explicit assembly and application of ``F̃ᵢ`` on the GPU."""

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        approach: DualOperatorApproach = DualOperatorApproach.EXPLICIT_GPU_MODERN,
        config: AssemblyConfig | None = None,
        batched: bool = True,
        blocked: bool = True,
        pattern_cache=None,
        executor=None,
        precision="fp64",
    ) -> None:
        super().__init__(
            problem,
            machine,
            config,
            batched=batched,
            blocked=blocked,
            pattern_cache=pattern_cache,
            executor=executor,
            precision=precision,
        )
        if approach not in (
            DualOperatorApproach.EXPLICIT_GPU_LEGACY,
            DualOperatorApproach.EXPLICIT_GPU_MODERN,
        ):
            raise ValueError(f"not an explicit GPU approach: {approach}")
        self.approach = approach
        self._cpu_solvers = {
            s.index: CholmodLikeSolver(
                blocked=blocked,
                pattern_cache=self.pattern_cache,
                precision=self.precision,
            )
            for s in problem.subdomains
        }
        self._state = {s.index: _GpuState() for s in problem.subdomains}
        self._cluster_state: dict[int, _ClusterState] = {}

    # ------------------------------------------------------------------ #
    # Resident storage (repro.memory)                                     #
    # ------------------------------------------------------------------ #
    def _extra_pack_nbytes(self) -> int:
        total = 0
        for state in self._state.values():
            if state.device_F is not None:
                total += int(state.device_F.array.nbytes)
            if state.device_factor is not None:
                m = state.device_factor.matrix
                total += int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
        return total

    def _demote_pack_storage(self, dtype: np.dtype) -> None:
        # Safe while the entry is stale: _ensure_pack_dtype() restores the
        # policy's storage dtype before the next assembly writes into it,
        # and the device factor values are re-uploaded wholesale.
        for state in self._state.values():
            if state.device_F is not None and state.device_F.array.dtype != dtype:
                state.device_F.array = state.device_F.array.astype(dtype)
            m = state.device_factor
            if m is not None and m.matrix.dtype != dtype:
                m.matrix = m.matrix.astype(dtype)
                m._prepared_tri = None

    def _ensure_pack_dtype(self, state: _GpuState) -> None:
        """Restore a demoted ``F̃ᵢ`` buffer to the policy's storage dtype."""
        want = self.precision.storage_dtype
        if state.device_F is not None and state.device_F.array.dtype != want:
            state.device_F.array = np.zeros(state.device_F.array.shape, dtype=want)

    # ------------------------------------------------------------------ #
    # Preparation                                                         #
    # ------------------------------------------------------------------ #
    def _release_device_state(self) -> None:
        """Free the persistent device structures of an earlier preparation.

        A repeated :meth:`prepare` re-allocates them; the temporary arena
        took the rest of the device at the first preparation, so the old
        allocations must be returned first.
        """
        for state in self._state.values():
            state.release()
        for cstate in self._cluster_state.values():
            cstate.release()
        self._state = {s.index: _GpuState() for s in self.problem.subdomains}
        self._cluster_state = {}

    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
        self._release_device_state()
        cfg = self.config
        breakdown = {"symbolic": 0.0, "persistent_upload": 0.0, "analysis": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                solver = self._cpu_solvers[sub.index]

                symbolic = solver.analyze(sub.K_reg)
                cost = cluster.cpu.symbolic_factorization(
                    int(sub.K_reg.nnz), symbolic.nnz
                )
                clocks.advance(i, cost)
                breakdown["symbolic"] += cost
                state.perm = symbolic.perm

                B_perm = sub.B[:, symbolic.perm].tocsr()
                state.device_B, op = device.upload_sparse(
                    B_perm, stream, clocks.now(i), label=f"B[{sub.index}]"
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                pattern = sp.csc_matrix(
                    (
                        np.zeros(symbolic.nnz),
                        symbolic.row_idx.copy(),
                        symbolic.col_ptr.copy(),
                    ),
                    shape=(symbolic.n, symbolic.n),
                ).tocsr()
                factor_order = _matrix_order(cfg.forward_factor_order)
                state.device_factor, op = device.upload_sparse(
                    pattern, stream, clocks.now(i),
                    order=factor_order, label=f"L[{sub.index}]",
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                # Sparse TRSM analysis (only for sparse factor storage).
                rhs_order = _matrix_order(cfg.rhs_order)
                if cfg.forward_factor_storage is FactorStorage.SPARSE:
                    state.forward_plan, op = cusparse.trsm_analysis(
                        device, stream, state.device_factor, nrhs=sub.n_lambda,
                        submit_time=clocks.now(i), rhs_order=rhs_order,
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["analysis"] += op.duration
                if (
                    cfg.path is Path.TRSM
                    and cfg.backward_factor_storage is FactorStorage.SPARSE
                ):
                    state.backward_plan, op = cusparse.trsm_analysis(
                        device, stream, state.device_factor, nrhs=sub.n_lambda,
                        submit_time=clocks.now(i), rhs_order=rhs_order,
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["analysis"] += op.duration

                # Persistent F̃ᵢ and dual vectors.  The F̃ᵢ buffer is the
                # dominant persistent allocation and follows the precision
                # policy's storage dtype (half-size under fp32 storage).
                f_dtype = self.precision.storage_dtype
                f_bytes = f_dtype.itemsize * sub.n_lambda * sub.n_lambda
                if cfg.apply_symmetric:
                    f_bytes //= 2
                state.device_F = DeviceDenseMatrix(
                    array=np.zeros((sub.n_lambda, sub.n_lambda), dtype=f_dtype),
                    order=_matrix_order(cfg.rhs_order),
                    symmetric_triangle=cfg.apply_symmetric,
                    allocation=device.memory.allocate(f_bytes, f"F[{sub.index}]"),
                )
                state.p_vec = DeviceVector(
                    array=np.zeros(sub.n_lambda),
                    allocation=device.memory.allocate(8 * sub.n_lambda, "p"),
                )
                state.q_vec = DeviceVector(
                    array=np.zeros(sub.n_lambda),
                    allocation=device.memory.allocate(8 * sub.n_lambda, "q"),
                )

            # Cluster-wide dual vectors (GPU scatter/gather path).
            self._setup_cluster_apply(cluster, subs)

            if device.temporary is None:
                device.allocate_temporary_arena()
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _setup_cluster_apply(self, cluster: ClusterResources, subs) -> None:
        """Build the cluster-wide apply structures (shared with the hybrid).

        Allocates the cluster dual vectors of the GPU scatter/gather path,
        computes every subdomain's positions inside them, and — when the
        batched engine is active — flattens those positions into fancy-index
        maps and precomputes the per-subdomain apply costs so the hot path
        replays them vectorized.
        """
        device = cluster.device
        cluster_lambdas = (
            np.unique(np.concatenate([s.lambda_ids for s in subs]))
            if subs
            else np.empty(0, dtype=np.int64)
        )
        cstate = _ClusterState(lambda_ids=cluster_lambdas)
        if cluster_lambdas.size:
            nbytes = 8 * cluster_lambdas.size
            cstate.dual_in = DeviceVector(
                array=np.zeros(cluster_lambdas.size),
                allocation=device.memory.allocate(nbytes, "cluster-dual-in"),
            )
            cstate.dual_out = DeviceVector(
                array=np.zeros(cluster_lambdas.size),
                allocation=device.memory.allocate(nbytes, "cluster-dual-out"),
            )
        self._cluster_state[cluster.cluster_id] = cstate
        for sub in subs:
            self._state[sub.index].cluster_positions = np.searchsorted(
                cluster_lambdas, sub.lambda_ids
            )
        if self.batched:
            batch = self.batch_engine.cluster(cluster.cluster_id)
            batch.aux_map = FlatIndexMap(
                [self._state[s.index].cluster_positions for s in subs]
            )
            cost = device.cost_model
            batch.cost_arrays["apply_transfer"] = np.array(
                [cost.transfer(8 * s.n_lambda) for s in subs]
            )
            batch.cost_arrays["apply_mv"] = np.array(
                [
                    cost.symv(s.n_lambda)
                    if self.config.apply_symmetric
                    else cost.gemv(s.n_lambda, s.n_lambda)
                    for s in subs
                ]
            )

    # ------------------------------------------------------------------ #
    # Preprocessing (the accelerated explicit assembly)                   #
    # ------------------------------------------------------------------ #
    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # CPU-side numeric factorizations via the runtime (sharded futures
        # under a parallel executor); the simulated device assembly below
        # consumes the adopted factors.
        self.run_feti_preprocessing()
        cfg = self.config
        breakdown = {
            "numeric_factorization": 0.0,
            "factor_upload": 0.0,
            "sparse_to_dense": 0.0,
            "trsm": 0.0,
            "syrk": 0.0,
            "spmm": 0.0,
        }
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            arena = device.require_temporary()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                solver = self._cpu_solvers[sub.index]
                self._ensure_pack_dtype(state)

                # CPU cost: numeric factorization + factor extraction.
                fact_cost = cluster.cpu.numeric_factorization(
                    solver.factorization_flops(), solver.factor_nnz, CpuLibrary.CHOLMOD
                )
                extract_cost = cluster.cpu.factor_extraction(solver.factor_nnz)
                clocks.advance(i, fact_cost + extract_cost)
                breakdown["numeric_factorization"] += fact_cost + extract_cost

                factor = solver.extract_factor()
                lower_csr = factor.to_csc().tocsr()
                op = device.update_sparse_values(
                    state.device_factor, lower_csr, stream, clocks.now(i)
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["factor_upload"] += op.duration

                # Temporary buffers: dense RHS (and dense factor if needed).
                ndofs, n_lambda = sub.ndofs, sub.n_lambda
                # sparse_to_dense() writes every entry of both buffers.
                rhs_alloc = arena.allocate(8 * ndofs * n_lambda, "dense-rhs")
                rhs = DeviceDenseMatrix(
                    array=np.empty((ndofs, n_lambda)),
                    order=_matrix_order(cfg.rhs_order),
                    allocation=rhs_alloc,
                )
                op = cusparse.sparse_to_dense(
                    device, stream, state.device_B, rhs, clocks.now(i), transpose=True
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["sparse_to_dense"] += op.duration

                dense_factor: DeviceDenseMatrix | None = None
                need_dense = (
                    cfg.forward_factor_storage is FactorStorage.DENSE
                    or (
                        cfg.path is Path.TRSM
                        and cfg.backward_factor_storage is FactorStorage.DENSE
                    )
                )
                if need_dense:
                    dense_alloc = arena.allocate(8 * ndofs * ndofs, "dense-factor")
                    dense_factor = DeviceDenseMatrix(
                        array=np.empty((ndofs, ndofs)),
                        order=_matrix_order(cfg.forward_factor_order),
                        allocation=dense_alloc,
                    )
                    op = cusparse.sparse_to_dense(
                        device, stream, state.device_factor, dense_factor, clocks.now(i)
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["sparse_to_dense"] += op.duration

                # Forward solve: W = L⁻¹ (B̃ᵢᵀ, permuted & dense).
                op = self._triangular_solve(
                    cluster, stream, state, rhs, dense_factor,
                    storage=cfg.forward_factor_storage, transpose=False,
                    plan=state.forward_plan, submit_time=clocks.now(i), arena=arena,
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["trsm"] += op.duration

                assert state.device_F is not None
                if cfg.path is Path.SYRK:
                    op = cublas.syrk(
                        device, stream, rhs, state.device_F, clocks.now(i), transpose=True
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["syrk"] += op.duration
                else:
                    # Backward solve: Z = L⁻ᵀ W, then F̃ᵢ = B̃ᵢ Z.
                    op = self._triangular_solve(
                        cluster, stream, state, rhs, dense_factor,
                        storage=cfg.backward_factor_storage, transpose=True,
                        plan=state.backward_plan, submit_time=clocks.now(i), arena=arena,
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["trsm"] += op.duration
                    op = cusparse.spmm(
                        device, stream, state.device_B, rhs, state.device_F, clocks.now(i)
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["spmm"] += op.duration

                # Temporary buffers are only needed until the kernels finish.
                rhs.release()
                if dense_factor is not None:
                    dense_factor.release()

                if self.batched:
                    self.batch_engine.install_dense_block(
                        cluster.cluster_id, sub.index, state.device_F.array
                    )
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _triangular_solve(
        self,
        cluster: ClusterResources,
        stream,
        state: _GpuState,
        rhs: DeviceDenseMatrix,
        dense_factor: DeviceDenseMatrix | None,
        storage: FactorStorage,
        transpose: bool,
        plan: SparseTrsmPlan | None,
        submit_time: float,
        arena,
    ):
        """One triangular solve of the assembly, sparse or dense."""
        device = cluster.device
        if storage is FactorStorage.DENSE:
            assert dense_factor is not None
            return cublas.trsm(
                device, stream, dense_factor, rhs, submit_time,
                lower=True, transpose=transpose,
            )
        assert plan is not None and state.device_factor is not None
        return cusparse.trsm(
            device, stream, plan, state.device_factor, rhs, submit_time,
            transpose=transpose, arena=arena, blocked=self.blocked,
        )

    # ------------------------------------------------------------------ #
    # Application                                                         #
    # ------------------------------------------------------------------ #
    def _apply_impl(self, lam: np.ndarray) -> tuple[np.ndarray, float, dict[str, float]]:
        if self.config.scatter_gather is ScatterGatherDevice.GPU:
            if self.batched:
                return self._apply_gpu_scatter_batched(lam)
            return self._apply_gpu_scatter(lam)
        if self.batched:
            return self._apply_cpu_scatter_batched(lam)
        return self._apply_cpu_scatter(lam)

    @property
    def _mv_kernel_name(self) -> str:
        """Stream label of the application kernel (matches the looped path)."""
        return "cublas.symv" if self.config.apply_symmetric else "cublas.gemv"

    def _apply_mv(self, device, stream, state: _GpuState, submit_time: float):
        """The GEMV or SYMV kernel of one subdomain."""
        assert state.device_F is not None
        assert state.p_vec is not None and state.q_vec is not None
        if self.config.apply_symmetric:
            return cublas.symv(
                device, stream, state.device_F, state.p_vec, state.q_vec, submit_time
            )
        return cublas.gemv(
            device, stream, state.device_F, state.p_vec, state.q_vec, submit_time
        )

    def _apply_gpu_scatter(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]]:
        q = np.zeros_like(lam)
        breakdown = {"transfer": 0.0, "scatter_gather": 0.0, "mv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            cstate = self._cluster_state[cluster.cluster_id]
            assert cstate.dual_in is not None and cstate.dual_out is not None
            main_stream = cluster.stream_for(0)

            # One H2D copy of the cluster-wide dual vector + one scatter kernel.
            cstate.dual_in.array[...] = lam[cstate.lambda_ids]
            cstate.dual_out.array[...] = 0.0
            t0 = clocks.now(0)
            op = main_stream.submit(
                "h2d:cluster-dual",
                device.cost_model.transfer(8 * cstate.lambda_ids.size),
                t0,
            )
            breakdown["transfer"] += op.duration
            total_local = sum(s.n_lambda for s in subs)
            scatter_op = main_stream.submit(
                "gpu.scatter", device.cost_model.scatter_gather(total_local), op.end_time
            )
            breakdown["scatter_gather"] += scatter_op.duration
            clocks.advance(0, 2 * device.cost_model.submission_overhead_cpu)

            # GEMV/SYMV kernels on per-subdomain streams, after the scatter.
            for i, sub in enumerate(subs):
                state = self._state[sub.index]
                assert state.p_vec is not None and state.q_vec is not None
                state.p_vec.array[...] = cstate.dual_in.array[state.cluster_positions]
                stream = cluster.stream_for(i)
                stream.wait_for(scatter_op.end_time)
                op = self._apply_mv(device, stream, state, clocks.now(i))
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["mv"] += op.duration
                np.add.at(
                    cstate.dual_out.array, state.cluster_positions, state.q_vec.array
                )

            # One gather kernel + one D2H copy after all GEMVs finish.
            ready = max(s.tail for s in cluster.streams)
            main_stream.wait_for(ready)
            gather_op = main_stream.submit(
                "gpu.gather",
                device.cost_model.scatter_gather(total_local),
                clocks.max_time,
            )
            breakdown["scatter_gather"] += gather_op.duration
            op = main_stream.submit(
                "d2h:cluster-dual",
                device.cost_model.transfer(8 * cstate.lambda_ids.size),
                gather_op.end_time,
            )
            breakdown["transfer"] += op.duration
            np.add.at(q, cstate.lambda_ids, cstate.dual_out.array)
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return q, self._merge_cluster_times(cluster_times), breakdown

    def _apply_gpu_scatter_batched(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]]:
        """GPU scatter/gather path with batched numerics.

        All per-subdomain GEMVs run as one batched matrix-vector product over
        the packed ``F̃ᵢ`` blocks and the scatter/gather uses the flattened
        cluster-position maps; the per-stream timing submissions are replayed
        exactly as in the looped implementation so the simulated timeline is
        unchanged.
        """
        q = np.zeros_like(lam)
        breakdown = {"transfer": 0.0, "scatter_gather": 0.0, "mv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            cstate = self._cluster_state[cluster.cluster_id]
            batch = self.batch_engine.cluster(cluster.cluster_id)
            assert cstate.dual_in is not None and cstate.dual_out is not None
            assert batch.aux_map is not None
            main_stream = cluster.stream_for(0)

            # One H2D copy of the cluster-wide dual vector + one scatter kernel.
            cstate.dual_in.array[...] = lam[cstate.lambda_ids]
            cstate.dual_out.array[...] = 0.0
            op = main_stream.submit(
                "h2d:cluster-dual",
                device.cost_model.transfer(8 * cstate.lambda_ids.size),
                clocks.now(0),
            )
            breakdown["transfer"] += op.duration
            total_local = batch.dual_map.total
            scatter_op = main_stream.submit(
                "gpu.scatter", device.cost_model.scatter_gather(total_local), op.end_time
            )
            breakdown["scatter_gather"] += scatter_op.duration
            clocks.advance(0, 2 * device.cost_model.submission_overhead_cpu)

            # One batched MV over the packed blocks; per-stream kernel
            # submissions replayed for the timeline.
            q_concat = batch.require_dense().matvec(
                batch.aux_map.gather(cstate.dual_in.array)
            )
            mv_costs = batch.cost_arrays["apply_mv"]
            overhead = device.cost_model.submission_overhead_cpu
            for i in range(len(subs)):
                stream = cluster.stream_for(i)
                stream.wait_for(scatter_op.end_time)
                op = stream.submit(self._mv_kernel_name, mv_costs[i], clocks.now(i))
                clocks.advance(i, overhead)
                breakdown["mv"] += op.duration
            batch.aux_map.scatter_add(cstate.dual_out.array, q_concat)

            # One gather kernel + one D2H copy after all GEMVs finish.
            ready = max(s.tail for s in cluster.streams)
            main_stream.wait_for(ready)
            gather_op = main_stream.submit(
                "gpu.gather",
                device.cost_model.scatter_gather(total_local),
                clocks.max_time,
            )
            breakdown["scatter_gather"] += gather_op.duration
            op = main_stream.submit(
                "d2h:cluster-dual",
                device.cost_model.transfer(8 * cstate.lambda_ids.size),
                gather_op.end_time,
            )
            breakdown["transfer"] += op.duration
            np.add.at(q, cstate.lambda_ids, cstate.dual_out.array)
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return q, self._merge_cluster_times(cluster_times), breakdown

    def _apply_cpu_scatter_batched(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]]:
        """CPU scatter/gather path with batched numerics.

        The dual-vector scatter/gather runs as one ``take`` / ``np.add.at``
        over the flattened ``lambda_ids`` and the per-subdomain GEMVs as one
        batched matrix-vector product; the H2D / kernel / D2H stream
        submissions are replayed per subdomain with the same labels and
        durations as the looped implementation.
        """
        q = np.zeros_like(lam)
        breakdown = {"transfer": 0.0, "mv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            batch = self.batch_engine.cluster(cluster.cluster_id)
            q_concat = batch.require_dense().matvec(batch.dual_map.gather(lam))
            transfer_costs = batch.cost_arrays["apply_transfer"]
            mv_costs = batch.cost_arrays["apply_mv"]
            overhead = device.cost_model.submission_overhead_cpu
            for i in range(len(subs)):
                stream = cluster.stream_for(i)
                op = stream.submit("h2d:p", transfer_costs[i], clocks.now(i))
                breakdown["transfer"] += op.duration
                clocks.advance(i, overhead)
                op = stream.submit(self._mv_kernel_name, mv_costs[i], clocks.now(i))
                breakdown["mv"] += op.duration
                clocks.advance(i, overhead)
                op = stream.submit("d2h:q", transfer_costs[i], clocks.now(i))
                breakdown["transfer"] += op.duration
                clocks.advance(i, overhead)
            batch.dual_map.scatter_add(q, q_concat)
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return q, self._merge_cluster_times(cluster_times), breakdown

    def _apply_cpu_scatter(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]]:
        q = np.zeros_like(lam)
        breakdown = {"transfer": 0.0, "mv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                assert state.p_vec is not None and state.q_vec is not None
                state.p_vec.array[...] = sub.local_dual(lam)
                op = stream.submit(
                    "h2d:p", device.cost_model.transfer(8 * sub.n_lambda), clocks.now(i)
                )
                breakdown["transfer"] += op.duration
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                op = self._apply_mv(device, stream, state, clocks.now(i))
                breakdown["mv"] += op.duration
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                q_local, op = device.download_vector(
                    state.q_vec, stream, clocks.now(i), label="q"
                )
                breakdown["transfer"] += op.duration
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                sub.accumulate_dual(q, q_local)
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return q, self._merge_cluster_times(cluster_times), breakdown
