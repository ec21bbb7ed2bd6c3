"""Numerical tests of the simulated cuBLAS kernels."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from repro.gpu import Device, cublas
from repro.gpu.arrays import DeviceDenseMatrix, DeviceVector


@pytest.fixture()
def ctx():
    device = Device()
    stream = device.create_streams(1)[0]
    rng = np.random.default_rng(123)
    return device, stream, rng


def _dense(array, **kwargs):
    return DeviceDenseMatrix(array=np.array(array, dtype=float), **kwargs)


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("transpose", [False, True])
def test_trsm_solves_in_place_like_scipy(ctx, lower, transpose):
    device, stream, rng = ctx
    n, k = 40, 9
    T = rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)
    T = np.tril(T) if lower else np.triu(T)
    B = rng.standard_normal((n, k))
    rhs = _dense(B)
    storage = rhs.array
    cublas.trsm(device, stream, _dense(T), rhs, 0.0, lower=lower, transpose=transpose)
    expected = sla.solve_triangular(T, B, lower=lower, trans="T" if transpose else "N")
    assert np.shares_memory(rhs.array, storage)
    np.testing.assert_allclose(rhs.array, expected, rtol=0.0, atol=1e-12)


def test_trsm_reads_only_its_triangle(ctx):
    device, stream, rng = ctx
    n = 12
    L = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    junk = L + np.triu(rng.standard_normal((n, n)), 1)
    B = rng.standard_normal((n, 3))
    rhs = _dense(B)
    cublas.trsm(device, stream, _dense(junk), rhs, 0.0, lower=True)
    np.testing.assert_allclose(rhs.array, sla.solve_triangular(L, B, lower=True))


def test_trsm_float32_and_fallbacks(ctx):
    device, stream, rng = ctx
    n, k = 20, 5
    L = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    B = rng.standard_normal((n, k))
    expected = sla.solve_triangular(L, B, lower=True)
    # Both fp32: the single-precision BLAS kernel, still in place.
    rhs32 = DeviceDenseMatrix(array=B.astype(np.float32))
    storage = rhs32.array
    cublas.trsm(device, stream, DeviceDenseMatrix(array=L.astype(np.float32)), rhs32, 0.0)
    assert rhs32.array is storage and rhs32.array.dtype == np.float32
    np.testing.assert_allclose(rhs32.array, expected, rtol=1e-5, atol=1e-6)
    # Mismatched dtypes and a non-contiguous RHS take the copying fallback.
    rhs = _dense(B)
    cublas.trsm(device, stream, DeviceDenseMatrix(array=L.astype(np.float32)), rhs, 0.0)
    np.testing.assert_allclose(rhs.array, expected, rtol=1e-5, atol=1e-6)
    wide = _dense(np.zeros((n, 2 * k)))
    wide.array[:, ::2] = B
    strided = DeviceDenseMatrix(array=wide.array[:, ::2])
    cublas.trsm(device, stream, _dense(L), strided, 0.0)
    np.testing.assert_allclose(wide.array[:, ::2], expected, atol=1e-12)
    assert not wide.array[:, 1::2].any()


@pytest.mark.parametrize("transpose", [True, False])
def test_syrk_produces_the_full_symmetric_matrix(ctx, transpose):
    device, stream, rng = ctx
    A = rng.standard_normal((150, 70))
    expected = A.T @ A if transpose else A @ A.T
    m = expected.shape[0]
    out = _dense(np.full((m, m), np.nan))
    cublas.syrk(device, stream, _dense(A), out, 0.0, transpose=transpose)
    np.testing.assert_allclose(out.array, expected, rtol=1e-12, atol=1e-10)
    assert np.array_equal(out.array, out.array.T)


def test_syrk_into_float32_storage(ctx):
    device, stream, rng = ctx
    A = rng.standard_normal((90, 33))
    out = DeviceDenseMatrix(array=np.zeros((33, 33), dtype=np.float32))
    storage = out.array
    cublas.syrk(device, stream, _dense(A), out, 0.0)
    assert out.array is storage and out.array.dtype == np.float32
    assert np.array_equal(out.array, out.array.T)
    np.testing.assert_allclose(out.array, A.T @ A, rtol=1e-6, atol=1e-4)


def test_dense_kernel_durations_follow_the_cost_model(ctx):
    device, stream, rng = ctx
    n, k = 30, 8
    model = device.cost_model
    L = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    A = rng.standard_normal((n, k))
    cases = [
        (lambda: cublas.trsm(device, stream, _dense(L), _dense(A), 0.0),
         model.dense_trsm(n, k)),
        (lambda: cublas.trsm(device, stream, _dense(L), _dense(A), 0.0, transpose=True),
         model.dense_trsm(n, k)),
        (lambda: cublas.syrk(device, stream, _dense(A), _dense(np.zeros((k, k))), 0.0),
         model.syrk(k, n)),
        (lambda: cublas.syrk(
            device, stream, _dense(A), _dense(np.zeros((n, n))), 0.0, transpose=False
        ), model.syrk(n, k)),
    ]
    for run, expected in cases:
        stream.reset()  # start at t=0 so end - start carries no rounding
        assert run().duration == expected


def test_gemm_with_transposes(ctx):
    device, stream, rng = ctx
    A = rng.standard_normal((5, 7))
    B = rng.standard_normal((7, 3))
    out = _dense(np.zeros((5, 3)))
    cublas.gemm(device, stream, _dense(A), _dense(B), out, 0.0)
    assert np.allclose(out.array, A @ B)
    out2 = _dense(np.zeros((7, 7)))
    cublas.gemm(
        device, stream, _dense(A), _dense(A), out2, 0.0, transpose_a=True, transpose_b=False
    )
    assert np.allclose(out2.array, A.T @ A)


def test_gemv_and_symv(ctx):
    device, stream, rng = ctx
    A = rng.standard_normal((8, 8))
    S = A + A.T
    x = DeviceVector(array=rng.standard_normal(8))
    y = DeviceVector(array=np.zeros(8))
    cublas.gemv(device, stream, _dense(A), x, y, 0.0)
    assert np.allclose(y.array, A @ x.array)
    cublas.gemv(device, stream, _dense(A), x, y, 0.0, transpose=True)
    assert np.allclose(y.array, A.T @ x.array)
    cublas.symv(device, stream, _dense(S), x, y, 0.0)
    assert np.allclose(y.array, S @ x.array)


def test_geam_transpose_and_copy(ctx):
    device, stream, rng = ctx
    A = rng.standard_normal((4, 9))
    out = _dense(np.zeros((9, 4)))
    cublas.geam_transpose(device, stream, _dense(A), out, 0.0)
    assert np.allclose(out.array, A.T)
    op = cublas.axpy_like_copy(device, stream, 1024, 0.0)
    assert op.duration > 0


def test_kernels_consistent_with_scipy_reference(ctx):
    """End-to-end: GPU TRSM+SYRK assembly equals the SciPy computation."""
    device, stream, rng = ctx
    n, m = 25, 7
    A = rng.standard_normal((n, n))
    spd = A @ A.T + n * np.eye(n)
    L = np.linalg.cholesky(spd)
    Bt = rng.standard_normal((n, m))
    rhs = _dense(Bt)
    cublas.trsm(device, stream, _dense(L), rhs, 0.0, lower=True)
    out = _dense(np.zeros((m, m)))
    cublas.syrk(device, stream, rhs, out, 0.0, transpose=True)
    expected = Bt.T @ np.linalg.inv(spd) @ Bt
    assert np.allclose(out.array, expected, atol=1e-10)
