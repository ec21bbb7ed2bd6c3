"""The ``coarse_phase`` scenario: dense vs hierarchical coarse problem.

The coarse problem is structured around the cluster topology: kernel
modes are reordered cluster-contiguously so ``G^T G`` is block-sparse, and
the single dense Cholesky is replaced by per-cluster factorizations plus an
interface Schur complement.  This scenario measures that trade on a real
multi-cluster workload:

* **dense** — one ``cho_factor`` of the full ``G^T G``, the exact reference;
* **hierarchical** — the two-level per-cluster + interface-Schur solver.

The projector applies run in the calling thread under every executor, so
the scenario measures them once; its points keep the historical
``/serial`` suffix.  The factorization/solve *flop models* are
deterministic functions of the coarse-problem structure, so the
comparator gates them (and the modeled speedups) at the usual rtol.  Wall
seconds are recorded (best-of-``rounds``) but not comparator-gated; the
run itself enforces the structural floors instead: the modeled
hierarchical factorization and solve must beat the dense flop counts by
the committed minimum speedups, and the hierarchical projector must match
the dense one to 1e-12 (relative).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.workload import Workload
from repro.bench.registry import Scenario, build_feti_problem, register

__all__ = ["CoarsePhaseScenario"]

#: Seed of the deterministic dual vector (fixed forever: the vector is part
#: of the measured workload, so baselines depend on it).
_VECTOR_SEED = 20250808


@dataclass
class CoarsePhaseScenario(Scenario):
    """Dense vs hierarchical coarse-problem solves."""

    rounds: int = 3
    #: Modeled flop speedups every run must meet (two-level vs dense).
    min_modeled_factor_speedup: float = 2.0
    min_modeled_solve_speedup: float = 1.5

    def n_points(self) -> int:
        return 2

    def run_record(
        self, check_invariants: bool = True, point_timeout: float | None = None
    ) -> dict[str, Any]:
        """Measure both coarse modes and build the schema-v2 record.

        ``point_timeout`` is accepted for hook-signature compatibility but
        unused: the coarse solves are short, in-process, and cannot wedge
        the way an HTTP request can.
        """
        from repro.bench.runner import SCHEMA_VERSION as RECORD_SCHEMA_VERSION
        from repro.bench.runner import environment_stamp
        from repro.feti.projector import build_projector

        problem = build_feti_problem(self.base)
        n_lambda = problem.n_lambda
        rng = np.random.default_rng(_VECTOR_SEED)
        x = rng.standard_normal(n_lambda)
        n_applies = max(1, self.n_applies)

        points: list[dict[str, Any]] = []
        derived: dict[str, float] = {}
        factor_wall: dict[str, float] = {}
        flops: dict[str, dict[str, float]] = {}
        n_kernel = 0
        applies: dict[str, np.ndarray] = {}
        apply_wall: dict[str, float] = {}

        for mode in ("dense", "hierarchical"):
            best_factor = float("inf")
            for _ in range(self.rounds):
                start = time.perf_counter()
                projector = build_projector(problem, mode=mode)
                best_factor = min(best_factor, time.perf_counter() - start)
            factor_wall[mode] = best_factor
            flops[mode] = projector.modeled_flops()
            n_kernel = int(projector.n_kernel)
            applies[mode] = projector.apply(x)  # warm
            best_apply = float("inf")
            for _ in range(self.rounds):
                start = time.perf_counter()
                for _ in range(n_applies):
                    projector.apply(x)
                best_apply = min(best_apply, (time.perf_counter() - start) / n_applies)
            apply_wall[mode] = best_apply

        if check_invariants:
            self._check_invariants(flops, applies)

        for mode in ("dense", "hierarchical"):
            points.append(
                {
                    "key": f"{mode}/serial",
                    "invariants": {
                        "n_lambda": int(n_lambda),
                        "n_kernel": n_kernel,
                    },
                    "simulated": {
                        "factor_flops": flops[mode]["factor_flops"],
                        "solve_flops": flops[mode]["solve_flops"],
                    },
                    "wall": {
                        "factor_seconds": factor_wall[mode],
                        "apply_seconds": apply_wall[mode],
                    },
                }
            )
        derived["modeled_factor_speedup"] = (
            flops["hierarchical"]["dense_factor_flops"]
            / flops["hierarchical"]["factor_flops"]
        )
        derived["modeled_solve_speedup"] = (
            flops["hierarchical"]["dense_solve_flops"]
            / flops["hierarchical"]["solve_flops"]
        )
        if factor_wall["hierarchical"] > 0.0:
            derived["wall_coarse_factor_speedup"] = (
                factor_wall["dense"] / factor_wall["hierarchical"]
            )
        if apply_wall["hierarchical"] > 0.0:
            derived["wall_coarse_apply_speedup[serial]"] = (
                apply_wall["dense"] / apply_wall["hierarchical"]
            )
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
            "coarse_phase": {
                "rounds": self.rounds,
                "min_modeled_factor_speedup": self.min_modeled_factor_speedup,
                "min_modeled_solve_speedup": self.min_modeled_solve_speedup,
            },
            "environment": environment_stamp(),
            "points": points,
            "derived": derived,
        }

    # ------------------------------------------------------------------ #
    def _check_invariants(
        self,
        flops: dict[str, dict[str, float]],
        applies: dict[str, np.ndarray],
    ) -> None:
        """The run-time invariants (the comparator does not gate derived)."""
        from repro.bench.runner import InvariantViolation

        dense = applies["dense"]
        denom = max(float(np.linalg.norm(dense)), 1e-300)
        rel = float(np.linalg.norm(applies["hierarchical"] - dense) / denom)
        if not rel <= 1e-12:
            raise InvariantViolation(
                f"scenario {self.name!r}: hierarchical projector apply is "
                f"{rel:.3e} relative from the dense reference "
                "(contract: <= 1e-12)"
            )
        factor_speedup = (
            flops["hierarchical"]["dense_factor_flops"]
            / flops["hierarchical"]["factor_flops"]
        )
        if not factor_speedup >= self.min_modeled_factor_speedup:
            raise InvariantViolation(
                f"scenario {self.name!r}: modeled hierarchical factorization "
                f"speedup {factor_speedup:.2f}x is below the "
                f"{self.min_modeled_factor_speedup}x floor — the cluster "
                "reordering no longer exposes enough block sparsity"
            )
        solve_speedup = (
            flops["hierarchical"]["dense_solve_flops"]
            / flops["hierarchical"]["solve_flops"]
        )
        if not solve_speedup >= self.min_modeled_solve_speedup:
            raise InvariantViolation(
                f"scenario {self.name!r}: modeled hierarchical solve speedup "
                f"{solve_speedup:.2f}x is below the "
                f"{self.min_modeled_solve_speedup}x floor"
            )


def _register_default() -> None:
    from repro.feti.config import DualOperatorApproach

    register(
        CoarsePhaseScenario(
            name="coarse_phase",
            description=(
                "coarse-problem factorization and projector applies: dense "
                "Cholesky vs two-level cluster hierarchy"
            ),
            base=Workload("heat", 2, (16, 16), 2, n_clusters=4),
            approaches=(DualOperatorApproach("expl mkl"),),
            n_applies=20,
            coarse=("dense", "hierarchical"),
            tags=frozenset({"quick", "runtime", "cluster", "wall", "coarse"}),
            expected={"n_subdomains": 256, "kernel_dim": 1},
        )
    )


_register_default()
