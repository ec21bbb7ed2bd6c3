"""Simulated cuBLAS kernels (dense BLAS on the device).

Every function computes the exact result on the host, submits one operation
to the given stream (so asynchronous scheduling and stream concurrency are
modelled), and returns the :class:`~repro.gpu.stream.StreamOperation`
describing the scheduled kernel.  The caller owns all device buffers.

The assembly kernels :func:`trsm` and :func:`syrk` compute in place through
BLAS (``?trsm`` / ``?syrk`` from :mod:`scipy.linalg.blas`, picked by dtype).
Device buffers are C-ordered NumPy arrays, and Fortran BLAS sees a C-ordered
``A`` through its transpose ``A.T``, which is Fortran-contiguous and shares
the memory.  So a left-side solve ``op(T) X = B`` on C-ordered ``T`` and ``B``
becomes the right-side solve ``Xᵀ op(T)ᵀ = Bᵀ`` on the transposed views, with
the stored triangle flipped, and overwrites ``B`` without a layout copy; a
rank-k update ``Aᵀ A`` becomes ``M Mᵀ`` with ``M = A.T``.  A buffer that is
not contiguous, or whose dtype does not match, takes a copying NumPy/SciPy
fallback with the same result.

The :class:`~repro.gpu.arrays.MatrixOrder` of a buffer never changes the
host computation; it only selects the modelled cost.  Every duration comes
from :class:`~repro.gpu.costmodel.GpuCostModel` with the operation's shapes,
so the simulated timeline does not depend on which host path ran.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import get_blas_funcs

from repro.gpu.arrays import DeviceDenseMatrix, DeviceVector
from repro.gpu.device import Device
from repro.gpu.stream import Stream, StreamOperation

__all__ = ["trsm", "syrk", "gemm", "gemv", "symv", "geam_transpose"]

#: Real dtypes the in-place BLAS paths accept (``?`` = ``s`` / ``d``).
_BLAS_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Block size of :func:`_mirror_lower`.
_MIRROR_BLOCK = 64


def _blas_ready(*arrays: np.ndarray) -> bool:
    """Whether C-ordered ``arrays`` can reach BLAS as views without copies."""
    dtype = arrays[0].dtype
    return dtype in _BLAS_DTYPES and all(
        a.dtype == dtype and a.flags.c_contiguous and a.size for a in arrays
    )


def _mirror_lower(c: np.ndarray) -> None:
    """Copy the lower triangle of square ``c`` onto its strict upper triangle.

    Works in blocks of rows, so the only temporaries are diagonal-block sized.
    """
    n = c.shape[0]
    for j0 in range(0, n, _MIRROR_BLOCK):
        j1 = min(j0 + _MIRROR_BLOCK, n)
        c[j0:j1, j1:] = c[j1:, j0:j1].T
        block = c[j0:j1, j0:j1]
        block[...] = np.tril(block) + np.tril(block, -1).T


def trsm(
    device: Device,
    stream: Stream,
    factor: DeviceDenseMatrix,
    rhs: DeviceDenseMatrix,
    submit_time: float,
    lower: bool = True,
    transpose: bool = False,
) -> StreamOperation:
    """Dense triangular solve ``op(T) X = B`` performed in place on ``rhs``.

    Parameters
    ----------
    factor:
        Dense triangular factor ``T`` (only the relevant triangle is read).
    rhs:
        Dense right-hand side; overwritten with the solution (as in BLAS).
    lower, transpose:
        Which triangle to use and whether to solve with its transpose.
    """
    n, nrhs = rhs.shape
    duration = device.cost_model.dense_trsm(n, nrhs)
    T, B = factor.array, rhs.array
    if _blas_ready(T, B):
        # Fortran sees T.T = Tᵀ and B.T = Bᵀ: solve Xᵀ op(T)ᵀ = Bᵀ from the
        # right, where the stored triangle of Tᵀ is the other one.
        (blas_trsm,) = get_blas_funcs(("trsm",), (T,))
        blas_trsm(
            1.0, T.T, B.T, side=1, lower=int(not lower),
            trans_a=int(transpose), overwrite_b=1,
        )
    else:
        B[...] = sla.solve_triangular(
            T, B, lower=lower, trans="T" if transpose else "N", check_finite=False
        )
    return stream.submit("cublas.trsm", duration, submit_time)


def syrk(
    device: Device,
    stream: Stream,
    a: DeviceDenseMatrix,
    out: DeviceDenseMatrix,
    submit_time: float,
    transpose: bool = True,
) -> StreamOperation:
    """Symmetric rank-k update ``out = Aᵀ A`` (or ``A Aᵀ``).

    BLAS computes one triangle; it is mirrored so ``out`` holds the full
    symmetric matrix.  An ``out`` of another dtype (the fp32 storage tier)
    receives the product cast on assignment.
    """
    A, C = a.array, out.array
    n, k = (A.shape[1], A.shape[0]) if transpose else A.shape
    if _blas_ready(A):
        # Fortran sees M = A.T, so Aᵀ A = M Mᵀ (trans=0) and A Aᵀ = Mᵀ M.
        (blas_syrk,) = get_blas_funcs(("syrk",), (A,))
        trans = int(not transpose)
        if _blas_ready(A, C):
            # The upper triangle of C.T is the lower triangle of C.
            blas_syrk(1.0, A.T, beta=0.0, c=C.T, trans=trans, overwrite_c=1)
            _mirror_lower(C)
        else:
            result = blas_syrk(1.0, A.T, trans=trans).T
            _mirror_lower(result)
            C[...] = result
    else:
        C[...] = A.T @ A if transpose else A @ A.T
    duration = device.cost_model.syrk(n, k)
    return stream.submit("cublas.syrk", duration, submit_time)


def gemm(
    device: Device,
    stream: Stream,
    a: DeviceDenseMatrix,
    b: DeviceDenseMatrix,
    out: DeviceDenseMatrix,
    submit_time: float,
    transpose_a: bool = False,
    transpose_b: bool = False,
) -> StreamOperation:
    """General dense matrix-matrix multiplication ``out = op(A) op(B)``."""
    A = a.array.T if transpose_a else a.array
    B = b.array.T if transpose_b else b.array
    out.array[...] = A @ B
    m, k = A.shape
    n = B.shape[1]
    duration = device.cost_model.gemm(m, n, k)
    return stream.submit("cublas.gemm", duration, submit_time)


def gemv(
    device: Device,
    stream: Stream,
    a: DeviceDenseMatrix,
    x: DeviceVector,
    y: DeviceVector,
    submit_time: float,
    transpose: bool = False,
) -> StreamOperation:
    """Dense matrix-vector product ``y = op(A) x``."""
    A = a.array.T if transpose else a.array
    y.array[...] = A @ x.array
    duration = device.cost_model.gemv(A.shape[0], A.shape[1])
    return stream.submit("cublas.gemv", duration, submit_time)


def symv(
    device: Device,
    stream: Stream,
    a: DeviceDenseMatrix,
    x: DeviceVector,
    y: DeviceVector,
    submit_time: float,
) -> StreamOperation:
    """Symmetric matrix-vector product using one stored triangle.

    The simulated matrix stores the full array, but the cost (and the memory
    accounting of ``a``) corresponds to touching a single triangle, as the
    paper does when ``F̃ᵢ`` is symmetric.
    """
    y.array[...] = a.array @ x.array
    duration = device.cost_model.symv(a.shape[0])
    return stream.submit("cublas.symv", duration, submit_time)


def geam_transpose(
    device: Device,
    stream: Stream,
    a: DeviceDenseMatrix,
    out: DeviceDenseMatrix,
    submit_time: float,
) -> StreamOperation:
    """Out-of-place transpose (the cuBLAS ``geam`` idiom for reordering)."""
    out.array[...] = a.array.T
    rows, cols = a.shape
    duration = device.cost_model.geam_transpose(rows, cols)
    return stream.submit("cublas.geam", duration, submit_time)


def axpy_like_copy(
    device: Device,
    stream: Stream,
    nbytes: int,
    submit_time: float,
    name: str = "cublas.copy",
) -> StreamOperation:
    """Charge a device-to-device copy of ``nbytes`` (no numerics)."""
    duration = device.cost_model.device_copy(nbytes)
    return stream.submit(name, duration, submit_time)
