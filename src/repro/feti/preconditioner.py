"""Dual preconditioners for the PCPG iteration.

Three standard FETI preconditioners are provided:

* :class:`IdentityPreconditioner` — no preconditioning;
* :class:`LumpedPreconditioner` — ``M = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ`` with multiplicity
  scaling, cheap and usually sufficient for well-conditioned problems;
* :class:`DirichletPreconditioner` — ``M = Σᵢ B̃ᵢ Sᵢ B̃ᵢᵀ`` where ``Sᵢ`` is
  the Schur complement of the subdomain stiffness on its interface DOFs;
  more expensive to set up but the strongest of the classical options.

All preconditioners act on global dual vectors; scaling by the inverse DOF
multiplicity is applied on both sides, the usual choice for redundant-free
constraint sets on structured decompositions.

The application is a sum of independent per-subdomain products scattered
into overlapping ``lambda_ids`` in subdomain order, always in the calling
thread: a threaded dispatch of the products lost end to end on every
measured workload, since the per-subdomain products are small scipy calls.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.feti.problem import FetiProblem

__all__ = [
    "PreconditionerKind",
    "IdentityPreconditioner",
    "LumpedPreconditioner",
    "DirichletPreconditioner",
]


class PreconditionerKind(enum.Enum):
    """Dual preconditioners selectable through the solver options.

    (Historically exported from :mod:`repro.feti.solver`; it lives here so
    the :mod:`repro.api` spec layer can use it without importing the
    solver.)
    """

    NONE = "none"
    LUMPED = "lumped"
    DIRICHLET = "dirichlet"


class IdentityPreconditioner:
    """The do-nothing preconditioner (``M = I``)."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Return ``w`` unchanged."""
        return w

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Return the block unchanged."""
        return W

    __call__ = apply


class _ScaledSubdomainPreconditioner:
    """Common machinery of the lumped and Dirichlet preconditioners."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem
        self._scaled_B: list[sp.csr_matrix] = []
        for sub in problem.subdomains:
            scale = sp.diags(1.0 / sub.dof_multiplicity)
            self._scaled_B.append((sub.B @ scale).tocsr())

    def _subdomain_operator(self, index: int) -> sp.spmatrix | np.ndarray:
        raise NotImplementedError

    def _local_result(self, i: int, w: np.ndarray) -> np.ndarray | None:
        """One subdomain's contribution (``None`` = nothing to scatter)."""
        sub = self.problem.subdomains[i]
        Bs = self._scaled_B[i]
        local = Bs.T @ w[sub.lambda_ids]
        return Bs @ (self._subdomain_operator(sub.index) @ local)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply ``M w = Σᵢ B̃ᵢ,scaled Opᵢ B̃ᵢ,scaledᵀ w``."""
        out = np.zeros_like(w)
        # Scatter in subdomain order: lambda_ids overlap between
        # neighbours, so accumulation order decides the rounding.
        for i, sub in enumerate(self.problem.subdomains):
            result = self._local_result(i, w)
            if result is not None:
                np.add.at(out, sub.lambda_ids, result)
        return out

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Apply ``M`` to every column (bitwise equal to per-column apply)."""
        return np.column_stack(
            [self.apply(np.ascontiguousarray(W[:, j])) for j in range(W.shape[1])]
        )

    __call__ = apply


class LumpedPreconditioner(_ScaledSubdomainPreconditioner):
    """The lumped preconditioner ``M = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ`` (with scaling)."""

    def _subdomain_operator(self, index: int) -> sp.spmatrix:
        return self.problem.subdomains[index].K


class DirichletPreconditioner(_ScaledSubdomainPreconditioner):
    """The Dirichlet preconditioner ``M = Σᵢ B̃ᵢ Sᵢ B̃ᵢᵀ``.

    ``Sᵢ`` is the Schur complement of ``Kᵢ`` on the subdomain's *constrained*
    DOFs (the DOFs touched by any constraint row); it is assembled densely at
    construction time, which is affordable because the interface of a
    subdomain is small compared to its interior.
    """

    def __init__(self, problem: FetiProblem) -> None:
        super().__init__(problem)
        self._schur: list[np.ndarray] = []
        self._interface_dofs: list[np.ndarray] = []
        for sub in problem.subdomains:
            boundary = np.unique(sub.B.indices) if sub.B.nnz else np.empty(0, np.int64)
            self._interface_dofs.append(boundary)
            if boundary.size == 0:
                self._schur.append(np.zeros((0, 0)))
                continue
            interior = np.setdiff1d(np.arange(sub.ndofs), boundary)
            K = sub.K.tocsc()
            Kbb = K[np.ix_(boundary, boundary)].toarray()
            if interior.size == 0:
                self._schur.append(Kbb)
                continue
            Kib = K[np.ix_(interior, boundary)].tocsc()
            Kii = K[np.ix_(interior, interior)].tocsc()
            # Use the regularized interior block if Kii happens to be singular
            # (cannot occur for connected interiors, but stay safe).
            solve = spla.factorized(Kii)
            X = np.column_stack([solve(np.asarray(Kib[:, j].todense()).ravel())
                                 for j in range(boundary.size)])
            self._schur.append(Kbb - Kib.T @ X)

    def _subdomain_operator(self, index: int) -> np.ndarray:
        # Embedded Schur complement: operate only on interface DOFs.
        sub = self.problem.subdomains[index]
        boundary = self._interface_dofs[index]
        S = self._schur[index]
        op = np.zeros((sub.ndofs, sub.ndofs))
        if boundary.size:
            op[np.ix_(boundary, boundary)] = S
        return op

    def _local_result(self, i: int, w: np.ndarray) -> np.ndarray | None:
        # Interface-restricted product: skip the embedding of the dense
        # Schur block into a full (ndofs, ndofs) operator.
        boundary = self._interface_dofs[i]
        if boundary.size == 0:
            return None
        sub = self.problem.subdomains[i]
        Bs = self._scaled_B[i]
        local = Bs.T @ w[sub.lambda_ids]
        restricted = self._schur[i] @ local[boundary]
        full = np.zeros(sub.ndofs)
        full[boundary] = restricted
        return Bs @ full
