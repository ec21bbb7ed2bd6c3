"""Tests of the batched subdomain execution engine.

The engine is a pure execution-strategy change: for every approach the
batched apply must produce the same dual vectors as the per-subdomain
reference loop, charge the same simulated time, and the index-map /
block-packing primitives must round-trip exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.decomposition.gluing import flat_scatter_maps
from repro.feti.config import (
    AssemblyConfig,
    DualOperatorApproach,
    ScatterGatherDevice,
)
from repro.feti.operators import make_dual_operator
from repro.feti.operators.batch import BatchedDenseApply, FlatIndexMap


# --------------------------------------------------------------------- #
# FlatIndexMap primitives                                                #
# --------------------------------------------------------------------- #
def test_flat_scatter_maps_concatenates_ids():
    ids = [np.array([0, 3, 5]), np.array([], dtype=np.int64), np.array([2, 4])]
    flat, offsets = flat_scatter_maps(ids)
    assert flat.tolist() == [0, 3, 5, 2, 4]
    assert offsets.tolist() == [0, 3, 3, 5]


def test_flat_scatter_maps_empty():
    flat, offsets = flat_scatter_maps([])
    assert flat.size == 0
    assert offsets.tolist() == [0]


def test_flat_index_map_gather_matches_per_item_scatter():
    rng = np.random.default_rng(3)
    ids = [rng.choice(50, size=n, replace=False) for n in (7, 0, 12, 3)]
    index_map = FlatIndexMap(ids)
    source = rng.standard_normal(50)
    gathered = index_map.gather(source)
    expected = np.concatenate([source[i] for i in ids])
    np.testing.assert_array_equal(gathered, expected)
    for i, view in enumerate(index_map.split(gathered)):
        np.testing.assert_array_equal(view, source[ids[i]])
        assert view.shape == (len(ids[i]),)


def test_flat_index_map_scatter_add_matches_np_add_at():
    rng = np.random.default_rng(4)
    # Overlapping ids: the accumulation must handle duplicates like np.add.at.
    ids = [np.array([0, 1, 2]), np.array([2, 3]), np.array([0, 3])]
    index_map = FlatIndexMap(ids)
    values = rng.standard_normal(index_map.total)
    batched = np.zeros(6)
    index_map.scatter_add(batched, values)
    looped = np.zeros(6)
    for i, sub_ids in enumerate(ids):
        np.add.at(looped, sub_ids, values[index_map.slice_of(i)])
    np.testing.assert_allclose(batched, looped, atol=1e-15)


def test_flat_index_map_pad_unpad_roundtrip():
    ids = [np.arange(4), np.arange(2), np.arange(6)]
    index_map = FlatIndexMap(ids)
    values = np.arange(index_map.total, dtype=float) + 1.0
    padded = index_map.pad(values)
    assert padded.shape == (3, 6)
    # Padding lanes stay zero.
    assert padded[0, 4:].tolist() == [0.0, 0.0]
    assert padded[1, 2:].tolist() == [0.0] * 4
    np.testing.assert_array_equal(index_map.unpad(padded), values)


def test_batched_dense_apply_matches_per_block_gemv():
    rng = np.random.default_rng(5)
    sizes = (4, 1, 7, 3)
    ids = [rng.choice(40, size=n, replace=False) for n in sizes]
    index_map = FlatIndexMap(ids)
    dense = BatchedDenseApply(index_map)
    blocks = [rng.standard_normal((n, n)) for n in sizes]
    for i, block in enumerate(blocks):
        dense.set_block(i, block)
    p = rng.standard_normal(index_map.total)
    q = dense.matvec(p)
    expected = np.concatenate(
        [blocks[i] @ p[index_map.slice_of(i)] for i in range(len(sizes))]
    )
    np.testing.assert_allclose(q, expected, atol=1e-12)


def test_batched_dense_apply_rejects_wrong_block_shape():
    index_map = FlatIndexMap([np.arange(3)])
    dense = BatchedDenseApply(index_map)
    with pytest.raises(ValueError):
        dense.set_block(0, np.zeros((2, 2)))


# --------------------------------------------------------------------- #
# Operator-level equivalence                                             #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("approach", list(DualOperatorApproach))
def test_batched_apply_matches_looped_apply(
    heat_problem_2d, approach, small_machine_config
):
    """Every approach: batched and looped paths agree on values AND timing."""
    operators = {}
    for batched in (False, True):
        operator = make_dual_operator(
            approach,
            heat_problem_2d,
            machine_config=small_machine_config,
            batched=batched,
        )
        operator.prepare()
        operator.preprocess()
        operators[batched] = operator

    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(heat_problem_2d.n_lambda)
        q_looped = operators[False].apply(x)
        q_batched = operators[True].apply(x)
        np.testing.assert_allclose(q_batched, q_looped, atol=1e-10)

    for name in ("preparation", "preprocessing"):
        assert operators[True].ledger.total(name) == pytest.approx(
            operators[False].ledger.total(name), rel=1e-12
        )
    assert operators[True].ledger.mean("apply") == pytest.approx(
        operators[False].ledger.mean("apply"), rel=1e-12
    )
    looped_breakdown = operators[False].ledger.last("apply").breakdown
    batched_breakdown = operators[True].ledger.last("apply").breakdown
    assert set(batched_breakdown) == set(looped_breakdown)
    for key, value in looped_breakdown.items():
        assert batched_breakdown[key] == pytest.approx(value, rel=1e-12)


def test_batched_dual_rhs_matches_looped(heat_problem_2d, small_machine_config):
    operators = {}
    for batched in (False, True):
        operator = make_dual_operator(
            DualOperatorApproach.IMPLICIT_CHOLMOD,
            heat_problem_2d,
            machine_config=small_machine_config,
            batched=batched,
        )
        operator.preprocess()
        operators[batched] = operator
    np.testing.assert_allclose(
        operators[True].dual_rhs(), operators[False].dual_rhs(), atol=1e-12
    )


def test_engine_groups_subdomains_by_cluster(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_MKL,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    engine = operator.batch_engine
    grouped = []
    for cluster, subs in operator.iter_clusters():
        batch = engine.cluster(cluster.cluster_id)
        assert batch.subdomain_indices == [s.index for s in subs]
        assert batch.dual_map.n_items == len(subs)
        assert batch.dual_map.total == sum(s.n_lambda for s in subs)
        for i, sub in enumerate(subs):
            assert batch.position_of(sub.index) == i
        grouped.extend(batch.subdomain_indices)
    assert sorted(grouped) == [s.index for s in heat_problem_2d.subdomains]
    # The global map mirrors the gluing data's cached flat arrays.
    flat, offsets = heat_problem_2d.gluing.scatter_maps()
    np.testing.assert_array_equal(engine.global_map.flat_ids, flat)
    np.testing.assert_array_equal(engine.global_map.offsets, offsets)


def test_gluing_scatter_maps_cached(heat_problem_2d):
    first = heat_problem_2d.gluing.scatter_maps()
    second = heat_problem_2d.gluing.scatter_maps()
    assert first[0] is second[0] and first[1] is second[1]
    expected = np.concatenate(
        [s.lambda_ids for s in heat_problem_2d.gluing.per_subdomain]
    )
    np.testing.assert_array_equal(first[0], expected)


@pytest.mark.parametrize("scatter", [ScatterGatherDevice.CPU, ScatterGatherDevice.GPU])
@pytest.mark.parametrize("symmetric", [False, True])
def test_batched_gpu_apply_matches_looped_for_nondefault_configs(
    heat_problem_2d, small_machine_config, scatter, symmetric
):
    """Both GPU apply paths and both MV kernels: values AND timing agree."""
    config = AssemblyConfig(scatter_gather=scatter, apply_symmetric=symmetric)
    operators = {}
    for batched in (False, True):
        operator = make_dual_operator(
            DualOperatorApproach.EXPLICIT_GPU_MODERN,
            heat_problem_2d,
            machine_config=small_machine_config,
            assembly_config=config,
            batched=batched,
        )
        operator.preprocess()
        operators[batched] = operator
    rng = np.random.default_rng(23)
    x = rng.standard_normal(heat_problem_2d.n_lambda)
    np.testing.assert_allclose(
        operators[True].apply(x), operators[False].apply(x), atol=1e-10
    )
    looped_phase = operators[False].ledger.last("apply")
    batched_phase = operators[True].ledger.last("apply")
    assert batched_phase.simulated_seconds == pytest.approx(
        looped_phase.simulated_seconds, rel=1e-12
    )
    assert set(batched_phase.breakdown) == set(looped_phase.breakdown)
    for key, value in looped_phase.breakdown.items():
        assert batched_phase.breakdown[key] == pytest.approx(value, rel=1e-12)


def test_pad_reused_out_buffer_rezeroes_padding_lanes():
    index_map = FlatIndexMap([np.arange(2), np.arange(4)])
    out = np.full((2, 4), 7.0)
    index_map.pad(np.arange(6, dtype=float), out=out)
    # Stale values in the padding lanes must not survive a reuse.
    assert out[0, 2:].tolist() == [0.0, 0.0]
    np.testing.assert_array_equal(index_map.unpad(out), np.arange(6, dtype=float))


# --------------------------------------------------------------------- #
# apply_multi contract                                                   #
# --------------------------------------------------------------------- #
HEAT = Workload("heat", 2, (3, 3), 6)


@pytest.mark.parametrize("approach", ["expl mkl", "expl modern", "expl hybrid"])
def test_apply_multi_default_is_bitwise_k_applies(approach):
    with Session(SolverSpec(approach=approach)) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        n = session.problem(HEAT).n_lambda
        rng = np.random.default_rng(3)
        block = rng.standard_normal((n, 3))
        multi = operator.apply_multi(block)
        for j in range(3):
            col = operator.apply(np.ascontiguousarray(block[:, j]))
            assert np.array_equal(multi[:, j], col)


@pytest.mark.parametrize("approach", ["expl mkl", "expl cholmod", "expl hybrid"])
def test_apply_multi_stacked_within_1e12_of_per_column(approach):
    with Session(SolverSpec(approach=approach)) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        n = session.problem(HEAT).n_lambda
        rng = np.random.default_rng(8)
        block = rng.standard_normal((n, 4))
        plain = operator.apply_multi(block)
        stacked = operator.apply_multi(block, stacked=True)
        denom = max(np.linalg.norm(plain), 1e-300)
        assert np.linalg.norm(stacked - plain) / denom <= 1e-12


def test_apply_multi_requires_preprocessing():
    with Session() as session:
        operator = session.operator_for(HEAT)
        with pytest.raises(RuntimeError):
            operator.apply_multi(np.zeros((3, 2)))
