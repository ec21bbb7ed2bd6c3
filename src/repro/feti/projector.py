"""The natural coarse-grid projector ``P = I − G (GᵀG)⁻¹ Gᵀ``.

``G = B R`` couples the subdomain kernel modes through the gluing
constraints (equation (8) of the paper); its Gram matrix ``GᵀG`` is the
*coarse problem* — one row/column per kernel mode.  Two factorizations are
available:

``mode="dense"``
    One dense Cholesky of the full ``GᵀG`` — the exact reference, and the
    right choice for small mode counts or a single cluster.
``mode="hierarchical"``
    The kernel modes are permuted cluster-contiguously and classified
    against the *actual* sparsity of ``GᵀG``: a mode whose couplings stay
    inside its own cluster is **interior**, the rest form the small
    **interface**.  Block elimination of the interior unknowns — one dense
    Cholesky per cluster plus a dense Schur complement on the interface —
    is algebraically exact, so the results match the dense reference to
    machine rounding, while the factor cost drops from ``n³/3`` to
    ``Σ_c n_c³/3`` plus interface work.  Each cluster couples only to the
    interface columns it actually touches (``Γ_c``), which keeps both the
    Schur assembly and the per-solve corrections local.

The per-iteration products ``G @ x`` / ``Gᵀ @ x`` are plain CSR products
in the calling thread: sharding them across executor workers lost end to
end on every measured workload.  ``apply_block`` projects a whole block of
PCPG columns in two stacked sparse products (per-column coarse solves keep
it bitwise equal to column-by-column application).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.problem import FetiProblem

__all__ = ["COARSE_MODES", "Projector", "build_projector", "column_clusters_of"]

#: The recognized coarse-factorization modes of :class:`Projector` (and of
#: ``SolverSpec.coarse``); ``"auto"`` resolves per problem.
COARSE_MODES = ("auto", "dense", "hierarchical")


class _DenseCoarse:
    """Reference coarse factorization: one dense Cholesky of ``GᵀG``."""

    mode = "dense"

    def __init__(self, gtg: np.ndarray) -> None:
        self.n = gtg.shape[0]
        # G must have full column rank for (GᵀG)⁻¹ to exist — this is the
        # solvability condition of the coarse problem.
        self._cho = sla.cho_factor(gtg)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return sla.cho_solve(self._cho, rhs)

    def flops(self) -> dict[str, float]:
        n = float(self.n)
        return {"factor_flops": n**3 / 3.0, "solve_flops": 2.0 * n * n}


class _HierarchicalCoarse:
    """Two-level cluster-blocked factorization of ``GᵀG`` (exact).

    With the modes permuted to ``[interior of cluster 0, …, interior of
    cluster c, interface Γ]`` the Gram matrix reads

    .. code-block:: text

        A = [ A_II   A_IΓ ]        A_II block-diagonal per cluster
            [ A_IΓᵀ  A_ΓΓ ]

    Factorization: per-cluster dense Cholesky of ``A_II,c``, the coupling
    panels ``W_c = A_II,c⁻¹ A_IΓ,c`` restricted to the interface columns
    ``Γ_c`` the cluster actually touches, and a dense Cholesky of the Schur
    complement ``S = A_ΓΓ − Σ_c A_IΓ,cᵀ W_c``.  Solving is block forward
    elimination / back substitution — algebraically identical to the dense
    factorization (principal submatrices and Schur complements of an SPD
    matrix are SPD), so results agree with the dense path to rounding.
    """

    mode = "hierarchical"

    def __init__(self, gtg: np.ndarray, column_clusters: np.ndarray) -> None:
        n = gtg.shape[0]
        self.n = n
        clusters = np.asarray(column_clusters, dtype=np.int64)
        if clusters.shape != (n,):
            raise ValueError(
                f"column_clusters must map each of the {n} kernel modes to a "
                f"cluster id, got shape {clusters.shape}"
            )
        coupled = gtg != 0.0
        # A mode is interior iff every coupling stays inside its own cluster
        # (computed from the actual sparsity, so diagonal-neighbor coupling
        # between clusters is classified correctly).
        interface_mask = (coupled & (clusters[None, :] != clusters[:, None])).any(axis=1)
        interior_mask = ~interface_mask

        perm_parts: list[np.ndarray] = []
        self._cluster_slices: list[tuple[int, int]] = []
        start = 0
        for c in np.unique(clusters):
            cols = np.nonzero(interior_mask & (clusters == c))[0]
            perm_parts.append(cols)
            self._cluster_slices.append((start, start + cols.size))
            start += cols.size
        gamma_cols = np.nonzero(interface_mask)[0]
        perm_parts.append(gamma_cols)
        self.n_interior = start
        self.n_interface = int(gamma_cols.size)
        perm = np.concatenate(perm_parts)
        self._perm = perm
        self._iperm = np.empty(n, dtype=np.int64)
        self._iperm[perm] = np.arange(n)

        A = gtg[np.ix_(perm, perm)]
        gs = slice(self.n_interior, n)
        S = np.ascontiguousarray(A[gs, gs])
        # Per cluster: (cho(A_II,c), Γ_c local indices, A_IΓ,c|Γ_c, W_c).
        self._factors: list[tuple | None] = []
        for lo, hi in self._cluster_slices:
            if hi == lo:
                self._factors.append(None)
                continue
            cho = sla.cho_factor(np.ascontiguousarray(A[lo:hi, lo:hi]))
            panel = A[lo:hi, gs]
            local = np.nonzero(panel.any(axis=0))[0]
            if local.size:
                panel_local = np.ascontiguousarray(panel[:, local])
                W = sla.cho_solve(cho, panel_local)
                S[np.ix_(local, local)] -= panel_local.T @ W
            else:
                panel_local = np.zeros((hi - lo, 0))
                W = panel_local
            self._factors.append((cho, local, panel_local, W))
        self._schur_cho = sla.cho_factor(S) if self.n_interface else None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = rhs[self._perm]
        x = np.empty_like(b)
        nI = self.n_interior
        rhs_gamma = np.ascontiguousarray(b[nI:])
        # Forward elimination: interior solves + interface corrections.
        interior: list[np.ndarray | None] = []
        for (lo, hi), factor in zip(self._cluster_slices, self._factors):
            if factor is None:
                interior.append(None)
                continue
            cho, local, panel_local, _ = factor
            y = sla.cho_solve(cho, np.ascontiguousarray(b[lo:hi]))
            interior.append(y)
            if local.size:
                rhs_gamma[local] -= panel_local.T @ y
        # Interface solve + back substitution into each cluster.
        x_gamma = rhs_gamma
        if self.n_interface:
            x_gamma = sla.cho_solve(self._schur_cho, rhs_gamma)
            x[nI:] = x_gamma
        for (lo, hi), factor, y in zip(self._cluster_slices, self._factors, interior):
            if factor is None:
                continue
            _, local, _, W = factor
            if local.size:
                x[lo:hi] = y - W @ x_gamma[local]
            else:
                x[lo:hi] = y
        return x[self._iperm]

    def flops(self) -> dict[str, float]:
        factor = 0.0
        solve = 0.0
        for (lo, hi), entry in zip(self._cluster_slices, self._factors):
            i = float(hi - lo)
            if entry is None or i == 0.0:
                continue
            g_local = float(entry[1].size)
            # Cholesky of A_II,c, the W_c panel solve, the Schur update.
            factor += i**3 / 3.0 + 2.0 * i * i * g_local + 2.0 * i * g_local * g_local
            # Interior solve + the two interface correction products.
            solve += 2.0 * i * i + 4.0 * i * g_local
        gamma = float(self.n_interface)
        factor += gamma**3 / 3.0
        solve += 2.0 * gamma * gamma
        return {"factor_flops": factor, "solve_flops": solve}


def column_clusters_of(problem: "FetiProblem") -> np.ndarray:
    """Cluster id of every kernel-mode column of ``G``, in column order."""
    return np.repeat(
        np.array([sub.cluster for sub in problem.subdomains], dtype=np.int64),
        [sub.kernel_dim for sub in problem.subdomains],
    )


def build_projector(
    problem: "FetiProblem",
    *,
    mode: str = "auto",
) -> "Projector":
    """The coarse projector of one problem, with ``"auto"`` resolved.

    ``"auto"`` picks the hierarchical factorization exactly when the
    decomposition has more than one cluster — a single cluster has no
    interior/interface split to exploit, so the dense reference wins.
    """
    if mode not in COARSE_MODES:
        raise ValueError(
            f"unknown coarse mode {mode!r}; expected one of: {', '.join(COARSE_MODES)}"
        )
    if mode == "auto":
        mode = "hierarchical" if problem.decomposition.n_clusters > 1 else "dense"
    return Projector(
        problem.assemble_G(),
        mode=mode,
        column_clusters=column_clusters_of(problem),
    )


class Projector:
    """Projector on the natural coarse space, ``P = I − G (GᵀG)⁻¹ Gᵀ``.

    Parameters
    ----------
    G:
        The ``B R`` constraint-kernel coupling matrix (any sparse format;
        cached in CSR, with ``Gᵀ`` cached in CSR too so no apply ever pays
        a format conversion).
    mode:
        Coarse factorization: ``"dense"`` (reference), ``"hierarchical"``
        (two-level cluster-blocked solve), or ``"auto"`` (hierarchical iff
        ``column_clusters`` names more than one cluster).
    column_clusters:
        Cluster id per kernel-mode column (see :func:`column_clusters_of`);
        required by the hierarchical mode.
    """

    def __init__(
        self,
        G: sp.spmatrix,
        *,
        mode: str = "dense",
        column_clusters: "Sequence[int] | np.ndarray | None" = None,
    ) -> None:
        self.G = sp.csr_matrix(G)
        self.Gt = sp.csr_matrix(self.G.T)
        self.n_lambda, self.n_kernel = self.G.shape
        if self.n_kernel == 0:
            raise ValueError("G has no columns; the coarse problem is empty")
        if mode not in COARSE_MODES:
            raise ValueError(
                f"unknown coarse mode {mode!r}; "
                f"expected one of: {', '.join(COARSE_MODES)}"
            )

        gtg = np.asarray((self.Gt @ self.G).todense(), dtype=float)
        if mode == "auto":
            many = (
                column_clusters is not None
                and np.unique(np.asarray(column_clusters)).size > 1
            )
            mode = "hierarchical" if many else "dense"
        start = time.perf_counter()
        if mode == "hierarchical":
            if column_clusters is None:
                column_clusters = np.zeros(self.n_kernel, dtype=np.int64)
            self._coarse = _HierarchicalCoarse(gtg, np.asarray(column_clusters))
        else:
            self._coarse = _DenseCoarse(gtg)
        #: Wall seconds spent factorizing the coarse problem.
        self.factor_seconds = time.perf_counter() - start
        #: Resolved factorization mode (``"dense"`` or ``"hierarchical"``).
        self.mode = self._coarse.mode
        #: Cumulative wall seconds in applies / coarse solves.
        self.seconds = 0.0
        #: Projector applications (block applies count once per column).
        self.applies = 0
        #: Standalone coarse solves (``initial_lambda`` / ``alpha``).
        self.solves = 0

    @property
    def n_interior(self) -> int:
        """Cluster-interior kernel modes (all of them on the dense path)."""
        return int(getattr(self._coarse, "n_interior", self.n_kernel))

    @property
    def n_interface(self) -> int:
        """Kernel modes coupled across clusters (0 on the dense path)."""
        return int(getattr(self._coarse, "n_interface", 0))

    # ------------------------------------------------------------------ #
    def coarse_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(Gᵀ G) x = rhs``."""
        start = time.perf_counter()
        out = self._coarse.solve(rhs)
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply ``P x = x − G (GᵀG)⁻¹ Gᵀ x``."""
        start = time.perf_counter()
        z = self.Gt @ x
        u = self._coarse.solve(z)
        out = x - self.G @ u
        self.seconds += time.perf_counter() - start
        self.applies += 1
        return out

    __call__ = apply

    def apply_block(self, X: np.ndarray) -> np.ndarray:
        """Apply ``P`` to every column of an ``(n_lambda, k)`` block.

        The two sparse products run stacked (``csr_matvecs`` accumulates
        each output row over the same nonzeros in the same order as the
        single-column kernel, so the stacked products are bitwise equal to
        per-column matvecs); the small coarse solves stay per column, which
        keeps the whole block application bitwise equal to column-by-column
        :meth:`apply`.
        """
        start = time.perf_counter()
        Z = self.Gt @ np.ascontiguousarray(X)
        U = np.column_stack(
            [
                self._coarse.solve(np.ascontiguousarray(Z[:, j]))
                for j in range(Z.shape[1])
            ]
        )
        out = X - self.G @ U
        self.seconds += time.perf_counter() - start
        self.applies += X.shape[1]
        return out

    def initial_lambda(self, e: np.ndarray) -> np.ndarray:
        """Feasible initial iterate ``λ₀ = G (GᵀG)⁻¹ e`` (``Gᵀ λ₀ = e``)."""
        start = time.perf_counter()
        out = self.G @ self._coarse.solve(e)
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    def alpha(self, d_minus_F_lambda: np.ndarray) -> np.ndarray:
        """Kernel amplitudes ``α = −(GᵀG)⁻¹ Gᵀ (d − F λ)`` (equation (9))."""
        start = time.perf_counter()
        out = -self._coarse.solve(self.Gt @ d_minus_F_lambda)
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float | int | str]:
        """Cumulative coarse-problem counters of this projector."""
        return {
            "mode": self.mode,
            "applies": self.applies,
            "solves": self.solves,
            "seconds": self.seconds,
            "factor_seconds": self.factor_seconds,
        }

    def modeled_flops(self) -> dict[str, float | str]:
        """Deterministic flop model of the active coarse factorization.

        ``dense_*`` entries always describe the dense reference on the same
        mode count, so ``dense_factor_flops / factor_flops`` is the modeled
        hierarchical factor speedup.
        """
        n = float(self.n_kernel)
        out: dict[str, float | str] = {"mode": self.mode}
        out.update(self._coarse.flops())
        out["dense_factor_flops"] = n**3 / 3.0
        out["dense_solve_flops"] = 2.0 * n * n
        return out
