"""The ``apply_phase`` scenario: sequential vs stacked multi-RHS applies.

This scenario isolates the hottest kernel of the solve phase — the
dual-operator apply — and measures the two ways a multi-RHS block can be
driven through it:

* **sequential** — ``k`` scalar ``operator.apply(column)`` calls, the
  bit-exact reference path (and what a naive caller would write);
* **stacked** — one ``operator.apply_multi(block, stacked=True)`` call,
  the fused-GEMM path used by ``Session.solve_many`` throughput callers.

The apply always runs in the calling thread (the runtime executor only
parallelizes preprocessing and queued solves), so the scenario measures
the serial executor only; its points keep the historical ``serial/``
prefix.  Simulated apply seconds come from the operator's timing ledger
and are deterministic, so the comparator gates them at the usual rtol.
Wall seconds are recorded (best-of-``rounds``) but not comparator-gated;
the run itself re-checks the numerical contract (stacked ≤ 1e-12 of
sequential, relative).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.workload import Workload
from repro.bench.registry import Scenario, register

__all__ = ["ApplyPhaseScenario"]

#: Seed of the deterministic multi-RHS block (fixed forever: the block is
#: part of the measured workload, so baselines depend on it).
_BLOCK_SEED = 20250806


@dataclass
class ApplyPhaseScenario(Scenario):
    """Sequential vs stacked block applies of one dual operator."""

    n_rhs: int = 8
    rounds: int = 3

    def n_points(self) -> int:
        return 2

    def run_record(
        self, check_invariants: bool = True, point_timeout: float | None = None
    ) -> dict[str, Any]:
        """Measure both variants and build the schema-v2 record.

        ``point_timeout`` is accepted for hook-signature compatibility but
        unused: the applies are short, in-process, and cannot wedge the way
        an HTTP request can.
        """
        from repro.bench.runner import SCHEMA_VERSION as RECORD_SCHEMA_VERSION
        from repro.bench.runner import environment_stamp

        measured = self._measure()
        if check_invariants:
            self._check(measured)
        points: list[dict[str, Any]] = []
        for variant in ("sequential", "stacked"):
            m = measured[variant]
            points.append(
                {
                    "key": f"serial/{variant}",
                    "invariants": {
                        "n_lambda": measured["n_lambda"],
                        "n_rhs": self.n_rhs,
                    },
                    "simulated": {
                        "apply_seconds": m["simulated_seconds"],
                    },
                    "wall": {
                        "wall_seconds": m["wall_seconds"],
                        "per_column_seconds": m["wall_seconds"] / self.n_rhs,
                    },
                }
            )
        speedup = (
            measured["sequential"]["wall_seconds"] / measured["stacked"]["wall_seconds"]
        )
        derived = {"wall_apply_stacked_speedup[serial]": speedup}
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "benchmark": self.name,
            "scenario": {
                "description": self.description,
                "physics": self.base.physics,
                "dim": self.base.dim,
                "order": self.base.order,
                "n_clusters": self.base.n_clusters,
                "tags": sorted(self.tags),
                "n_applies": self.n_applies,
            },
            "apply_phase": {
                "approach": self.approaches[0].value,
                "n_rhs": self.n_rhs,
                "rounds": self.rounds,
            },
            "environment": environment_stamp(),
            "points": points,
            "derived": derived,
        }

    # ------------------------------------------------------------------ #
    def _measure(self) -> dict[str, Any]:
        """Wall + simulated seconds of both variants."""
        from repro.api import Session, SolverSpec

        with Session(SolverSpec(approach=self.approaches[0].value)) as session:
            operator = session.operator_for(self.base)
            operator.prepare()
            operator.preprocess()
            n_lambda = session.problem(self.base).n_lambda
            rng = np.random.default_rng(_BLOCK_SEED)
            block = rng.standard_normal((n_lambda, self.n_rhs))
            columns = [np.ascontiguousarray(block[:, j]) for j in range(self.n_rhs)]

            # Warm both paths untimed.
            seq_ref = np.column_stack([operator.apply(col) for col in columns])
            stacked_ref = operator.apply_multi(block, stacked=True)

            ledger = operator.ledger
            measured: dict[str, Any] = {"n_lambda": int(n_lambda)}
            for variant in ("sequential", "stacked"):
                best_wall = float("inf")
                sim_before = len(ledger.phases)
                for _ in range(self.rounds):
                    start = time.perf_counter()
                    if variant == "sequential":
                        for col in columns:
                            operator.apply(col)
                    else:
                        operator.apply_multi(block, stacked=True)
                    best_wall = min(best_wall, time.perf_counter() - start)
                simulated = sum(
                    p.simulated_seconds for p in ledger.phases[sim_before:]
                ) / self.rounds
                measured[variant] = {
                    "wall_seconds": best_wall,
                    "simulated_seconds": simulated,
                }
            denom = max(float(np.linalg.norm(seq_ref)), 1e-300)
            measured["stacked_rel_error"] = float(
                np.linalg.norm(stacked_ref - seq_ref) / denom
            )
        return measured

    def _check(self, measured: dict[str, Any]) -> None:
        """The run-time invariant (the comparator does not gate derived)."""
        from repro.bench.runner import InvariantViolation

        rel = measured["stacked_rel_error"]
        if not rel <= 1e-12:
            raise InvariantViolation(
                f"scenario {self.name!r}: stacked apply_multi is "
                f"{rel:.3e} relative from {self.n_rhs} sequential applies "
                "(contract: <= 1e-12)"
            )


def _register_default() -> None:
    from repro.feti.config import DualOperatorApproach

    register(
        ApplyPhaseScenario(
            name="apply_phase",
            description=(
                "multi-RHS dual-operator applies: k sequential scalar applies "
                "vs one stacked GEMM block"
            ),
            base=Workload("heat", 2, (8, 8), 8),
            approaches=(DualOperatorApproach("expl mkl"),),
            tags=frozenset({"runtime", "scaling", "wall"}),
            expected={"n_subdomains": 64, "dofs_per_subdomain": 81},
        )
    )


_register_default()
