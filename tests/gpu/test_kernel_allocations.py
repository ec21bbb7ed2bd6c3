"""Copy-regression guard of the explicit-assembly kernels.

``cublas.trsm``, ``cublas.syrk`` and ``cusparse.sparse_to_dense`` work in
place on the caller's buffers.  A layout copy of the factor or of the
right-hand side would show up in ``tracemalloc`` as an allocation as large
as that buffer; this test fails when one comes back.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gpu import Device, cublas, cusparse
from repro.gpu.arrays import DeviceDenseMatrix

N, NRHS = 600, 150


@pytest.fixture()
def setup():
    device = Device()
    stream = device.create_streams(1)[0]
    rng = np.random.default_rng(600)
    lower = sp.tril(sp.random(N, N, density=0.02, random_state=rng)) + sp.diags(
        N + rng.random(N)
    )
    sparse_factor, _ = device.upload_sparse(lower.tocsr(), stream, 0.0)
    B = sp.random(NRHS, N, density=0.01, random_state=rng).tocsr()
    sparse_B, _ = device.upload_sparse(B, stream, 0.0)
    factor = DeviceDenseMatrix(array=np.empty((N, N)))
    rhs = DeviceDenseMatrix(array=np.empty((N, NRHS)))
    out = DeviceDenseMatrix(array=np.empty((NRHS, NRHS)))
    return device, stream, sparse_factor, sparse_B, factor, rhs, out


def _peak_allocation(call) -> int:
    """Peak bytes allocated (beyond what was live) while ``call`` runs."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_assembly_kernels_make_no_buffer_sized_copies(setup):
    device, stream, sparse_factor, sparse_B, factor, rhs, out = setup
    limit = min(factor.array.nbytes, rhs.array.nbytes)
    calls = {
        "sparse_to_dense(factor)": lambda: cusparse.sparse_to_dense(
            device, stream, sparse_factor, factor, 0.0
        ),
        "sparse_to_dense(B^T)": lambda: cusparse.sparse_to_dense(
            device, stream, sparse_B, rhs, 0.0, transpose=True
        ),
        "trsm": lambda: cublas.trsm(device, stream, factor, rhs, 0.0, lower=True),
        "trsm^T": lambda: cublas.trsm(
            device, stream, factor, rhs, 0.0, lower=True, transpose=True
        ),
        "syrk": lambda: cublas.syrk(device, stream, rhs, out, 0.0, transpose=True),
    }
    peaks = {name: _peak_allocation(call) for name, call in calls.items()}
    assert all(peak < limit for peak in peaks.values()), (limit, peaks)
    # The guard has teeth: the copying fallback does allocate that much.
    strided = DeviceDenseMatrix(array=np.empty((N, 2 * NRHS))[:, ::2])
    strided.array[...] = rhs.array
    fallback = _peak_allocation(
        lambda: cublas.trsm(device, stream, factor, strided, 0.0, lower=True)
    )
    assert fallback >= limit
