"""Shared pieces of the three workloads: inputs, answer checks, statistics."""

from __future__ import annotations

import hashlib
import resource
import statistics
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Relative error against the direct saddle-point solve above which an
#: answer counts as failed.  PCPG stops at a 1e-9 relative dual residual;
#: the answers of every workload sit near 1e-8 or below.
TOLERANCE = 1e-6


# --------------------------------------------------------------------- #
# Seeded inputs                                                          #
# --------------------------------------------------------------------- #
def random_loads(rng: np.random.Generator, problem: Any) -> list[np.ndarray]:
    """Per-subdomain load vectors: normal noise at the declared loads' scale."""
    loads = []
    for sub in problem.subdomains:
        scale = float(np.sqrt(np.mean(sub.f**2))) or 1.0
        loads.append(scale * rng.standard_normal(sub.f.shape))
    return loads


class Fingerprint:
    """SHA-256 over every generated input, so two runs provably match."""

    def __init__(self, *labels: Any) -> None:
        self._hash = hashlib.sha256(repr(labels).encode())

    def add(self, arrays: Iterable[np.ndarray]) -> None:
        for a in arrays:
            self._hash.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


# --------------------------------------------------------------------- #
# Answer checks                                                          #
# --------------------------------------------------------------------- #
class DirectReference:
    """The torn saddle-point system, factorized once, solved per load case.

    Mirrors :meth:`repro.feti.problem.FetiProblem.saddle_point_solution`
    (same system, same direct method) but takes the loads as an argument
    and reuses one LU factorization for every case.  :meth:`verify`
    checks it against that method once.
    """

    def __init__(self, problem: Any) -> None:
        self.problem = problem
        K = sp.block_diag([s.K for s in problem.subdomains]).tocsr()
        B = problem.gluing.global_B([s.ndofs for s in problem.subdomains])
        self.n = K.shape[0]
        self._lu = spla.splu(sp.bmat([[K, B.T], [B, None]]).tocsc())

    def solve(self, loads: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        x = self._lu.solve(np.concatenate([*loads, self.problem.c]))
        return x[: self.n], x[self.n :]

    def verify(self) -> float:
        """Relative distance to ``saddle_point_solution()`` at the declared loads."""
        u_ref, lam_ref = self.problem.saddle_point_solution()
        u, lam = self.solve([s.f for s in self.problem.subdomains])
        return max(rel_error(u, u_ref), rel_error(lam, lam_ref))


def rel_error(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / max(np.linalg.norm(ref), 1e-300))


@dataclass
class Checks:
    """Failed operations and exact-count drift of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _exact: dict[str, Any] = field(default_factory=dict)
    max_error: float = 0.0

    def operation(self, label: str, *, error: str | None = None, converged: bool = True,
                  rel_errors: Iterable[float] = (), timed: bool = True) -> None:
        """Check one operation: raised, unconverged or inaccurate fails it.

        Timed operations count in ``attempted``/``failed``; a failed untimed
        one (a set-up warm-up) still makes the run incorrect.
        """
        self.attempted += timed
        reason = error
        if reason is None and not converged:
            reason = "PCPG reported converged=False"
        if reason is None:
            worst = max(rel_errors, default=0.0)
            self.max_error = max(self.max_error, worst)
            if not worst <= TOLERANCE:
                reason = f"relative error {worst:.3e} > {TOLERANCE:g}"
        if reason is not None:
            self.failed += timed
            self.problems.append(f"{label}: {reason}")

    def exact(self, key: str, value: Any) -> None:
        """Require ``value`` to equal the first value recorded under ``key``."""
        if key not in self._exact:
            self._exact[key] = value
        elif self._exact[key] != value:
            self.problems.append(
                f"exact count drifted: {key} was {self._exact[key]!r}, now {value!r}"
            )

    def fail(self, message: str) -> None:
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


# --------------------------------------------------------------------- #
# Statistics                                                             #
# --------------------------------------------------------------------- #
def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With fewer than 21 samples that
    percentile would sit at or below the median; the median is returned
    instead, labelled 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11
    if index <= (n - 1) // 2:
        return median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def timed_phase(seconds: float, tracer: Any, timed: Callable[[float, bool], Any]) -> Any:
    """Call ``timed(until, traced)`` for the measured ``seconds``.

    Untraced runs measure all of it.  Traced runs pass the first half
    through the wrappers untraced and trace the second half, so one run
    gives both sides of ``trace.overhead_s``; the second call's result is
    returned.
    """
    begin = perf_counter()
    if tracer is None:
        return timed(begin + seconds, False)
    tracer.enabled = False
    timed(begin + seconds / 2, False)
    tracer.enabled = True
    try:
        return timed(begin + seconds, True)
    finally:
        tracer.enabled = False


def end_to_end(
    setups: list[float], walls: list[float], busy_seconds: float
) -> tuple[dict[str, float], str]:
    """The end-to-end metrics of one untraced run, and a report line."""
    tail_value, percentile = tail(walls)
    metrics = {
        "setup_s": median(setups),
        "op_p50_s": median(walls),
        "op_tail_s": tail_value,
        "throughput_per_s": len(walls) / busy_seconds if busy_seconds > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    note = (
        f"samples: {len(setups)} set-ups, {len(walls)} operations; "
        f"op_tail_s is p{percentile:.1f}"
    )
    return metrics, note


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    checks: Checks
    metrics: dict[str, float]
    #: Extra report lines (sample counts, tail percentile, fingerprint).
    notes: list[str] = field(default_factory=list)
