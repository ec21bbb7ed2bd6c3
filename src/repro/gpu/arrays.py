"""Host/device array handles of the simulated CUDA runtime.

Device objects wrap ordinary NumPy / SciPy arrays (the numerics are exact)
together with the metadata the cost model needs: memory order, byte size and
the memory-pool allocation backing them.  The wrappers are intentionally
thin — kernels read ``.array`` / ``.matrix`` directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.gpu.memory import Allocation

__all__ = ["MatrixOrder", "DeviceVector", "DeviceDenseMatrix", "DeviceCsrMatrix"]


class MatrixOrder(enum.Enum):
    """Memory order of a dense matrix (Table I: factor order / RHS order)."""

    ROW_MAJOR = "row-major"
    COL_MAJOR = "col-major"


@dataclass
class DeviceVector:
    """A dense vector resident in simulated device memory."""

    array: np.ndarray
    allocation: Allocation | None = None
    label: str = ""

    @property
    def nbytes(self) -> int:
        """Size in bytes."""
        return int(self.array.nbytes)

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self.array.size)

    def release(self) -> None:
        """Release the backing allocation (if any)."""
        if self.allocation is not None:
            self.allocation.release()


@dataclass
class DeviceDenseMatrix:
    """A dense matrix resident in simulated device memory.

    The stored NumPy array is C-ordered.  The dense kernels hand it to BLAS
    without a copy through its transpose ``array.T``, which is
    Fortran-contiguous over the same memory: a column-major BLAS routine
    sees the matrix transposed, and the kernel states its operation on the
    transpose (see :mod:`repro.gpu.cublas`).  ``order`` never changes the
    storage or the host computation; it only drives the cost model (kernel
    speed and the workspace sizes of the sparse TRSM).
    """

    array: np.ndarray
    order: MatrixOrder = MatrixOrder.COL_MAJOR
    symmetric_triangle: bool = False
    allocation: Allocation | None = None
    label: str = ""

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape."""
        return tuple(self.array.shape)  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        """Size in bytes (half for triangle-only symmetric storage)."""
        full = int(self.array.nbytes)
        return full // 2 if self.symmetric_triangle else full

    def release(self) -> None:
        """Release the backing allocation (if any)."""
        if self.allocation is not None:
            self.allocation.release()


@dataclass
class DeviceCsrMatrix:
    """A sparse matrix resident in simulated device memory.

    ``order`` distinguishes CSR (row-major) from CSC (column-major) storage,
    which is the *factor order* parameter of the assembly configuration.
    """

    matrix: sp.spmatrix
    order: MatrixOrder = MatrixOrder.ROW_MAJOR
    allocation: Allocation | None = None
    label: str = ""
    #: Optional reference to the in-package Cholesky factor this matrix was
    #: built from (lets the simulated kernels reuse its solve routines).
    factor: object | None = field(default=None, repr=False)
    #: Cached prepared triangular factor of the simulated TRSV/TRSM kernels
    #: (see :func:`repro.gpu.cusparse.prepared_lower_factor`); invalidated by
    #: :meth:`repro.gpu.device.Device.update_sparse_values`.
    _prepared_tri: object | None = field(default=None, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape."""
        return tuple(self.matrix.shape)  # type: ignore[return-value]

    @property
    def nnz(self) -> int:
        """Stored nonzeros."""
        return int(self.matrix.nnz)

    @property
    def nbytes(self) -> int:
        """Approximate CSR/CSC byte size (values + indices + pointers)."""
        n_major = self.shape[0] if self.order is MatrixOrder.ROW_MAJOR else self.shape[1]
        return int(12 * self.nnz + 8 * (n_major + 1))

    def release(self) -> None:
        """Release the backing allocation (if any)."""
        if self.allocation is not None:
            self.allocation.release()
