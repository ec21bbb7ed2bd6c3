"""Metric names and units, and the per-layer numbers a traced run derives.

Untraced runs (``--trace 0``) report :data:`END_TO_END`; traced runs
(``--trace 1``) report :data:`PER_LAYER`.  Every workload reports every
name; a layer a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any

from common import Checks, median
from spans import Span, Tracer, covered, layer_totals

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Simulated-cost breakdown keys of the preprocessing / apply phases of the
#: approaches the workloads run (``expl modern`` and ``impl mkl``); any
#: other key lands in ``other``.
PREPROCESS_KEYS = (
    "numeric_factorization", "factor_upload", "sparse_to_dense", "trsm", "syrk", "spmm",
)
APPLY_KEYS = ("transfer", "scatter_gather", "mv", "spmv", "trsv")

#: Layers timed per operation (self seconds; ``*_calls`` for those counted).
OP_LAYERS = (
    "operators.preprocess", "operators.apply", "operators.dual_rhs",
    "operators.primal_solution", "projector.apply", "projector.initial_lambda",
    "projector.alpha", "preconditioner.apply",
)
COUNTED_LAYERS = (
    "operators.preprocess", "operators.apply", "projector.apply", "preconditioner.apply",
)
#: Layers timed per set-up (median over the set-ups of a run).
SETUP_LAYERS = (
    "api.build_problem", "operators.prepare", "projector.build", "preconditioner.build",
)

PER_LAYER: dict[str, str] = {
    **{f"{layer}_s": "s" for layer in SETUP_LAYERS},
    "operators.setup_preprocess_s": "s",
    "sparse.symbolic_analyses": "count",
    "sparse.pattern_hits": "count",
    "operators.factor_bytes": "B",
    "operators.pack_bytes": "B",
    "memory.resident_bytes": "B",
    **{f"{layer}_s": "s" for layer in OP_LAYERS},
    **{f"{layer}_calls": "count" for layer in COUNTED_LAYERS},
    "pcpg.iterations": "count",
    "pcpg.self_s": "s",
    "session.self_s": "s",
    "operators.preprocess_modeled_s": "s",
    **{f"operators.preprocess_modeled.{k}_s": "s" for k in (*PREPROCESS_KEYS, "other")},
    "operators.apply_modeled_s": "s",
    **{f"operators.apply_modeled.{k}_s": "s" for k in (*APPLY_KEYS, "other")},
    "serve.server_s": "s",
    "serve.http_s": "s",
    "serve.queue_wait_s": "s",
    "serve.cache_hit_ratio": "1",
    "serve.rejected_429": "count",
    "queue.stacked_solves": "count",
    "queue.stacked_columns": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def setup_layers(tracer: Tracer, windows: list[tuple[float, float]]) -> dict[str, float]:
    """Median self seconds per set-up layer over the set-up windows."""
    per_window = [layer_totals(tracer.between(a, b))[0] for a, b in windows]
    out = {f"{layer}_s": median(s[layer] for s in per_window) for layer in SETUP_LAYERS}
    out["operators.setup_preprocess_s"] = median(
        s["operators.preprocess"] for s in per_window
    )
    return out


def storage_layers(sessions: list[Any], solvers: list[Any]) -> dict[str, float]:
    """Symbolic-analysis counters and resident bytes of the final set-up."""
    stats = [s.cache_stats() for s in sessions]
    storage = [solver.operator.storage_nbytes() for solver in solvers]
    return {
        "sparse.symbolic_analyses": sum(s["symbolic_analyses"] for s in stats),
        "sparse.pattern_hits": sum(s["pattern_hits"] for s in stats),
        "memory.resident_bytes": sum(s["resident_bytes"] for s in stats),
        "operators.factor_bytes": sum(b["factor"] for b in storage),
        "operators.pack_bytes": sum(b["pack"] for b in storage),
    }


def modeled_layers(solvers: list[Any]) -> dict[str, float]:
    """Simulated seconds of the latest preprocessing and apply, summed over solvers."""
    out = {name: 0.0 for name in PER_LAYER if "_modeled" in name}
    for solver in solvers:
        ledger = solver.operator.ledger
        for phase, prefix, keys in (
            ("preprocessing", "operators.preprocess_modeled", PREPROCESS_KEYS),
            ("apply", "operators.apply_modeled", APPLY_KEYS),
        ):
            timing = ledger.last(phase)
            if timing is None:
                continue
            out[f"{prefix}_s"] += float(timing.simulated_seconds)
            for key, value in timing.breakdown.items():
                bucket = key if key in keys else "other"
                out[f"{prefix}.{bucket}_s"] += float(value)
    return out


def op_layers(
    tracer: Tracer,
    ops: list[tuple[Any, float, float, int]],
    checks: Checks,
) -> dict[str, float]:
    """Per-operation layer numbers of a one-caller workload.

    ``ops`` holds ``(key, start, end, iterations)`` of every traced
    operation, where ``key`` names its input (a load case, a step of the
    schedule); operations with equal keys ran equal inputs.  Times are
    medians over the operations.  Counts are means over the distinct keys
    (one full cycle of inputs), so they repeat exactly for one seed; every
    repeat of a key must reproduce its counts exactly.
    """
    seconds_per_op: list[dict[str, float]] = []
    unattributed: list[float] = []
    counts_of: dict[Any, dict[str, float]] = {}
    for key, start, end, iterations in ops:
        spans: list[Span] = tracer.between(start, end)
        seconds, calls = layer_totals(spans)
        seconds_per_op.append(seconds)
        unattributed.append(end - start - covered(spans))
        counts = {f"{layer}_calls": calls[layer] for layer in COUNTED_LAYERS}
        counts["pcpg.iterations"] = iterations
        checks.exact(f"traced counts of {key!r}", counts)
        counts_of.setdefault(key, counts)
    out = {f"{layer}_s": median(s[layer] for s in seconds_per_op) for layer in OP_LAYERS}
    out["pcpg.self_s"] = median(s["pcpg"] for s in seconds_per_op)
    out["session.self_s"] = median(s["session"] for s in seconds_per_op)
    out["trace.unattributed_s"] = median(unattributed)
    cycle = list(counts_of.values())
    for name in (*(f"{layer}_calls" for layer in COUNTED_LAYERS), "pcpg.iterations"):
        out[name] = sum(c[name] for c in cycle) / len(cycle) if cycle else 0.0
    return out
