"""Common machinery of the dual-operator implementations.

The base class owns the phase bookkeeping (simulated + wall time, recorded in
a :class:`~repro.analysis.timing.TimingLedger`), the grouping of subdomains
by cluster, and the generic pieces every approach needs: access to a CPU-side
factorization for computing ``d = B K⁺ f − c`` and for recovering the primal
solution, and the scatter/gather between the global dual vector and the
per-subdomain local dual vectors.
"""

from __future__ import annotations

import abc
import time
from typing import ClassVar

import numpy as np

from repro.analysis.timing import PhaseTiming, ThreadClocks, TimingLedger
from repro.cluster.topology import ClusterResources, Machine
from repro.feti.config import AssemblyConfig, DualOperatorApproach
from repro.feti.operators.batch import SubdomainBatchEngine
from repro.feti.problem import FetiProblem, SubdomainProblem
from repro.memory.precision import PrecisionPolicy, resolve_precision
from repro.observe.trace import trace_span
from repro.sparse.cache import PatternCache
from repro.sparse.solvers import SparseSolverBase

__all__ = ["DualOperatorBase"]


class DualOperatorBase(abc.ABC):
    """Abstract base of the nine dual-operator approaches."""

    #: Which Table-III approach the concrete class implements.
    approach: ClassVar[DualOperatorApproach]

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        config: AssemblyConfig | None = None,
        batched: bool = True,
        blocked: bool = True,
        pattern_cache: PatternCache | None = None,
        executor=None,
        precision: "str | PrecisionPolicy" = "fp64",
    ) -> None:
        self.problem = problem
        self.machine = machine
        self.config = config or AssemblyConfig()
        #: Factor/pack storage policy (see :mod:`repro.memory.precision`).
        #: All arithmetic still runs in fp64; the policy controls what the
        #: resident factors and packed ``F̃ᵢ`` blocks are stored as, and
        #: whether solves are iteratively refined back to fp64 residuals.
        self.precision = resolve_precision(precision)
        #: Run the apply phase through the batched subdomain execution
        #: engine (vectorized scatter/gather and batched kernels) instead of
        #: the per-subdomain Python loop.  Both paths are numerically
        #: identical; the loop is kept as a reference/fallback.
        self.batched = batched
        #: Run the sparse layer through the supernodal/blocked kernels and
        #: the shared pattern cache (the default); ``False`` selects the
        #: scalar per-column reference kernels without pattern sharing.
        #: Both paths are numerically identical.
        self.blocked = blocked
        #: Caller-owned pattern cache for the sparse symbolic analysis (a
        #: :class:`repro.api.Session` passes its own); ``None`` keeps the
        #: sparse layer's default (the process-global cache when blocked).
        #: The scalar reference path never uses a cache so it stays a
        #: faithful per-subdomain baseline.
        self.pattern_cache = pattern_cache if blocked else None
        #: Runtime executor the preprocessing shards run on (a
        #: :class:`repro.runtime.executor.Executor`); ``None`` resolves to
        #: the process-wide default (``REPRO_EXECUTOR``, serial when unset)
        #: on first use.  A :class:`repro.api.Session` passes the executor
        #: it owns.
        self._executor = executor
        #: The most recent preprocessing round: keeps the shared-memory
        #: buffers backing adopted factor panels and ``local_F`` views
        #: alive until the next round replaces them.
        self._preprocess_round = None
        self.ledger = TimingLedger()
        self._prepared = False
        self._preprocessed = False
        self._batch_engine: "SubdomainBatchEngine | None" = None
        self._cluster_subdomains: dict[int, list[SubdomainProblem]] = {}
        #: Per-subdomain CPU factorizations (populated by subclasses); used
        #: for the dual right-hand side and the primal recovery.
        self._cpu_solvers: dict[int, SparseSolverBase] = {}

    # ------------------------------------------------------------------ #
    # Cluster helpers                                                     #
    # ------------------------------------------------------------------ #
    def subdomains_of_cluster(self, cluster_id: int) -> list[SubdomainProblem]:
        """Subdomains owned by one cluster (cached: the grouping is static).

        The apply phase runs once per PCPG iteration; without the cache every
        call re-scans all subdomains per cluster, which is exactly the
        per-subdomain interpreter overhead the batched engine removes.
        """
        subs = self._cluster_subdomains.get(cluster_id)
        if subs is None:
            subs = [s for s in self.problem.subdomains if s.cluster == cluster_id]
            self._cluster_subdomains[cluster_id] = subs
        return subs

    def cluster_resources(self, cluster_id: int) -> ClusterResources:
        """Resources of one cluster."""
        return self.machine.cluster(cluster_id)

    def iter_clusters(self):
        """Yield ``(resources, subdomains)`` for every cluster."""
        for cluster in self.machine.clusters:
            yield cluster, self.subdomains_of_cluster(cluster.cluster_id)

    @property
    def batch_engine(self) -> SubdomainBatchEngine:
        """The batched subdomain execution engine (built once, lazily)."""
        if self._batch_engine is None:
            self._batch_engine = SubdomainBatchEngine(
                self.problem,
                self.machine,
                dense_dtype=self.precision.storage_dtype,
            )
        return self._batch_engine

    @property
    def executor(self):
        """The runtime executor of the preprocessing shards (lazy default)."""
        if self._executor is None:
            from repro.runtime.executor import shared_executor

            self._executor = shared_executor()
        return self._executor

    def run_feti_preprocessing(
        self,
        *,
        need_schur: bool = False,
        exploit_rhs_sparsity: bool = True,
        need_rhs_fill: bool = False,
    ):
        """Factorize every subdomain (and optionally assemble ``F̃ᵢ``).

        The single entry point of the runtime layer: with a serial executor
        this is the historical per-subdomain loop; with a parallel one the
        work is sharded by cluster topology and dispatched as overlapping
        futures (see :mod:`repro.runtime.preprocess`).  On return every
        solver in ``self._cpu_solvers`` is numerically factorized; the
        returned round maps subdomain indices to their Schur blocks /
        cost-model inputs.
        """
        from repro.runtime.preprocess import run_preprocessing

        round_ = run_preprocessing(
            self.executor,
            [(c.cluster_id, subs) for c, subs in self.iter_clusters()],
            self._cpu_solvers,
            need_schur=need_schur,
            exploit_rhs_sparsity=exploit_rhs_sparsity,
            need_rhs_fill=need_rhs_fill,
            blocked=self.blocked,
        )
        self._preprocess_round = round_
        return round_

    # ------------------------------------------------------------------ #
    # Phase template methods                                              #
    # ------------------------------------------------------------------ #
    def prepare(self) -> PhaseTiming:
        """Run the preparation phase (once per mesh)."""
        wall0 = time.perf_counter()
        with trace_span("preparation", approach=self.approach.value):
            sim, breakdown = self._prepare_impl()
        phase = PhaseTiming(
            name="preparation",
            simulated_seconds=sim,
            wall_seconds=time.perf_counter() - wall0,
            breakdown=breakdown,
        )
        self._prepared = True
        # A new preparation replaces the structures the assembly filled.
        self._preprocessed = False
        return self.ledger.record(phase)

    def preprocess(self) -> PhaseTiming:
        """Run the FETI preprocessing phase (once per time step)."""
        if not self._prepared:
            self.prepare()
        wall0 = time.perf_counter()
        with trace_span("preprocessing", approach=self.approach.value):
            sim, breakdown = self._preprocess_impl()
        phase = PhaseTiming(
            name="preprocessing",
            simulated_seconds=sim,
            wall_seconds=time.perf_counter() - wall0,
            breakdown=breakdown,
        )
        self._preprocessed = True
        return self.ledger.record(phase)

    @property
    def preprocessed(self) -> bool:
        """Whether a preprocessing ran since the last preparation."""
        return self._preprocessed

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """Apply the dual operator ``q = F λ`` (once per PCPG iteration)."""
        if not self._preprocessed:
            raise RuntimeError("preprocess() must run before apply()")
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.problem.n_lambda,):
            raise ValueError(
                f"dual vector has shape {lam.shape}, expected ({self.problem.n_lambda},)"
            )
        wall0 = time.perf_counter()
        with trace_span("apply"):
            q, sim, breakdown = self._apply_impl(lam)
        phase = PhaseTiming(
            name="apply",
            simulated_seconds=sim,
            wall_seconds=time.perf_counter() - wall0,
            breakdown=breakdown,
        )
        self.ledger.record(phase)
        return q

    __call__ = apply

    def apply_multi(self, lam_block: np.ndarray, *, stacked: bool = False) -> np.ndarray:
        """Apply ``F`` to ``k`` stacked dual vectors (``(n_lambda, k)``).

        The default runs the scalar apply path once per column — bit-equal
        to ``k`` separate :meth:`apply` calls, which makes the block-PCPG
        iteration an exact lockstep of ``k`` scalar iterations.  With
        ``stacked=True`` backends that support it (the explicit approaches)
        run one batched GEMM over all columns instead, amortizing the
        scatter/gather and kernel launches; results then agree with the
        per-column path to machine rounding (≤1e-12 relative).

        One ``apply_multi`` phase is recorded per call, with simulated
        seconds equal to the ``k`` per-column applies it replaces.
        """
        if not self._preprocessed:
            raise RuntimeError("preprocess() must run before apply_multi()")
        lam_block = np.asarray(lam_block, dtype=float)
        if lam_block.ndim != 2 or lam_block.shape[0] != self.problem.n_lambda:
            raise ValueError(
                f"dual block has shape {lam_block.shape}, expected "
                f"({self.problem.n_lambda}, k)"
            )
        wall0 = time.perf_counter()
        with trace_span("apply_multi", columns=int(lam_block.shape[1]), stacked=stacked):
            result = self._apply_multi_stacked(lam_block) if stacked else None
            if result is None:
                sim = 0.0
                breakdown: dict[str, float] = {}
                columns = []
                for j in range(lam_block.shape[1]):
                    q, col_sim, col_breakdown = self._apply_impl(
                        np.ascontiguousarray(lam_block[:, j])
                    )
                    columns.append(q)
                    sim += col_sim
                    for key, value in col_breakdown.items():
                        breakdown[key] = breakdown.get(key, 0.0) + value
                out = np.column_stack(columns) if columns else np.zeros_like(lam_block)
            else:
                out, sim, breakdown = result
        phase = PhaseTiming(
            name="apply_multi",
            simulated_seconds=sim,
            wall_seconds=time.perf_counter() - wall0,
            breakdown=breakdown,
        )
        self.ledger.record(phase)
        return out

    def _apply_multi_stacked(
        self, lam_block: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]] | None:
        """Backend hook for a truly stacked multi-RHS apply (``None`` = loop)."""
        return None

    # ------------------------------------------------------------------ #
    # Abstract pieces                                                     #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
        """Return (simulated seconds, breakdown)."""

    @abc.abstractmethod
    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        """Return (simulated seconds, breakdown)."""

    @abc.abstractmethod
    def _apply_impl(self, lam: np.ndarray) -> tuple[np.ndarray, float, dict[str, float]]:
        """Return (result, simulated seconds, breakdown)."""

    # ------------------------------------------------------------------ #
    # Timing accessors used by the benchmarks                             #
    # ------------------------------------------------------------------ #
    @property
    def preparation_time(self) -> float:
        """Simulated seconds of the last preparation phase."""
        phase = self.ledger.last("preparation")
        return phase.simulated_seconds if phase else 0.0

    @property
    def preprocessing_time(self) -> float:
        """Simulated seconds of the last preprocessing phase."""
        phase = self.ledger.last("preprocessing")
        return phase.simulated_seconds if phase else 0.0

    @property
    def application_time(self) -> float:
        """Mean simulated seconds of one dual-operator application."""
        return self.ledger.mean("apply")

    def preprocessing_time_per_subdomain(self) -> float:
        """Preprocessing time divided by the number of subdomains."""
        return self.preprocessing_time / max(1, self.problem.n_subdomains)

    def application_time_per_subdomain(self) -> float:
        """Application time divided by the number of subdomains."""
        return self.application_time / max(1, self.problem.n_subdomains)

    # ------------------------------------------------------------------ #
    # K⁺ access (dual RHS and primal recovery)                            #
    # ------------------------------------------------------------------ #
    def kplus_solve(self, index: int, rhs: np.ndarray) -> np.ndarray:
        """Apply the generalized inverse ``Kᵢ⁺`` of one subdomain."""
        solver = self._cpu_solvers.get(index)
        if solver is None or not solver.is_factorized:
            raise RuntimeError(
                "no CPU factorization available; run preprocess() first"
            )
        return solver.solve(rhs)

    def apply_accurate(self, lam: np.ndarray) -> np.ndarray:
        """Reference application ``q = F λ`` through the refined CPU solves.

        Whatever a backend stores for its fast applies (fp32 ``local_F``
        packs, device factors), this routes the operator through
        :meth:`kplus_solve` — iterative refinement included under a
        refining precision policy — so the residuals it feeds are accurate
        to fp64 level.  The dual-level defect correction of ``fp32_ir``
        uses it a handful of times per solve, outside the PCPG iterations
        whose phases the benchmarks time.
        """
        q = np.zeros(self.problem.n_lambda)
        for sub in self.problem.subdomains:
            z = self.kplus_solve(sub.index, sub.B.T @ lam[sub.lambda_ids])
            np.add.at(q, sub.lambda_ids, sub.B @ z)
        return q

    def dual_rhs(self) -> np.ndarray:
        """Compute ``d = B K⁺ f − c`` using the per-subdomain factorizations."""
        d = -np.array(self.problem.c, dtype=float, copy=True)
        subdomains = self.problem.subdomains
        if not subdomains:
            return d
        if self.batched:
            contributions = np.concatenate(
                [sub.B @ self.kplus_solve(sub.index, sub.f) for sub in subdomains]
            )
            self.batch_engine.global_map.scatter_add(d, contributions)
        else:
            for sub in subdomains:
                z = self.kplus_solve(sub.index, sub.f)
                np.add.at(d, sub.lambda_ids, sub.B @ z)
        return d

    def primal_solution(self, lam: np.ndarray, alpha: np.ndarray) -> list[np.ndarray]:
        """Recover ``uᵢ = Kᵢ⁺ (fᵢ − B̃ᵢᵀ λ) + Rᵢ αᵢ``."""
        offsets = self.problem.kernel_offsets
        out = []
        for sub in self.problem.subdomains:
            rhs = sub.f - sub.B.T @ lam[sub.lambda_ids]
            u = self.kplus_solve(sub.index, rhs)
            a = alpha[offsets[sub.index] : offsets[sub.index + 1]]
            out.append(u + sub.kernel @ a)
        return out

    # ------------------------------------------------------------------ #
    # Resident-storage accounting and tiering (repro.memory)              #
    # ------------------------------------------------------------------ #
    def storage_nbytes(self) -> dict[str, int]:
        """Byte-accurate resident storage, split by kind.

        ``factor`` counts the per-subdomain numeric factors (values +
        supernodal panels + any matrix retained for refinement);
        ``pack`` the assembled/packed dense dual-operator blocks (the 3-D
        batched packs, ``local_F`` dicts, device-resident ``F̃ᵢ``); and
        ``arena`` the padded apply-scratch buffers the batched engine keeps
        warm.  The session's :class:`~repro.memory.ledger.FactorLedger`
        records these per cache entry.
        """
        factor = sum(s.storage_nbytes() for s in self._cpu_solvers.values())
        pack = self._extra_pack_nbytes()
        arena = 0
        if self._batch_engine is not None:
            for batch in self._batch_engine.clusters.values():
                if batch.dense is not None:
                    pack += int(batch.dense.blocks.nbytes)
                    arena += int(batch.dense._p_pad.nbytes)
        return {"factor": int(factor), "pack": int(pack), "arena": int(arena)}

    def _extra_pack_nbytes(self) -> int:
        """Backend hook: packed storage outside the batched engine."""
        return 0

    def demote_storage(self) -> None:
        """Halve the resident storage of a cold cache entry (fp64 → fp32).

        Called by the session's tiering only on entries it marks stale in
        the same step: the demoted factors are never read by a solve — the
        next touch re-runs the numeric preprocessing, which rebuilds every
        factor and pack at the spec's own precision.  The batched dense
        packs are dropped outright (re-preprocessing recreates them), so a
        demoted entry keeps only its structure and half-size factors warm.
        """
        for solver in self._cpu_solvers.values():
            solver.demote_storage()
        if self._batch_engine is not None:
            for batch in self._batch_engine.clusters.values():
                batch.dense = None
        self._demote_pack_storage(np.dtype(np.float32))

    def _demote_pack_storage(self, dtype: np.dtype) -> None:
        """Backend hook: demote packed storage outside the batched engine."""

    # ------------------------------------------------------------------ #
    # Misc                                                                #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge_cluster_times(times: list[float]) -> float:
        """Clusters run on different processes: the phase time is the max."""
        return max(times) if times else 0.0

    def new_thread_clocks(self, cluster: ClusterResources) -> ThreadClocks:
        """Fresh per-thread clocks for a cluster's parallel subdomain loop."""
        return ThreadClocks(cluster.n_threads)
