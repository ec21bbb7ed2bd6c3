"""Shard planning: partition subdomains across workers by cluster topology.

A *shard* is the unit of work one runtime worker executes: a contiguous
slice of one cluster's subdomain list.  Shards never span clusters — a
cluster models one MPI process in the paper, so its subdomains share
per-cluster resources (:class:`~repro.cluster.topology.ClusterResources`)
and must stay together for the simulated-time bookkeeping to be meaningful.

Within a shard the preprocessing runs *batched* (see
:mod:`repro.runtime.kernels`): same-pattern subdomains are factored as one
stacked problem and their local dual operators are assembled with padded
stacked kernels.  Each shard can also carry its own
:class:`~repro.feti.operators.batch.SubdomainBatchEngine` restricted to its
subdomains, so shard-local scatter/gather state never aliases another
worker's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Machine
    from repro.feti.operators.batch import SubdomainBatchEngine
    from repro.feti.problem import FetiProblem

__all__ = ["Shard", "ShardPlan", "balanced_spans"]


@dataclass(frozen=True)
class Shard:
    """One worker's slice of one cluster's subdomains."""

    shard_id: int
    cluster_id: int
    #: Loop positions inside the cluster's subdomain list (contiguous).
    positions: tuple[int, ...]
    #: Global ``SubdomainProblem.index`` values of the shard's subdomains.
    subdomain_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        """Subdomains in the shard."""
        return len(self.subdomain_indices)


def balanced_spans(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``min(parts, n)`` contiguous near-equal spans.

    Shard planning uses it to slice each cluster's subdomains.
    """
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    spans = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


class ShardPlan:
    """The shard decomposition of a problem for a given worker count."""

    def __init__(self, shards: Sequence[Shard], workers: int) -> None:
        self.shards = list(shards)
        self.workers = int(workers)

    @classmethod
    def for_clusters(
        cls,
        clusters: Sequence[tuple[int, Sequence[int]]],
        workers: int,
    ) -> "ShardPlan":
        """Plan shards over ``(cluster_id, subdomain_indices)`` groups.

        Every cluster is split into up to ``workers`` contiguous shards, so
        with ``c`` clusters the plan dispatches up to ``c * workers``
        futures and each worker's queue interleaves clusters — clusters
        overlap instead of running back-to-back.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        shards: list[Shard] = []
        for cluster_id, indices in clusters:
            for lo, hi in balanced_spans(len(indices), workers):
                if hi == lo:
                    continue
                shards.append(
                    Shard(
                        shard_id=len(shards),
                        cluster_id=int(cluster_id),
                        positions=tuple(range(lo, hi)),
                        subdomain_indices=tuple(int(i) for i in indices[lo:hi]),
                    )
                )
        return cls(shards, workers)

    @classmethod
    def for_problem(
        cls, problem: "FetiProblem", machine: "Machine", workers: int
    ) -> "ShardPlan":
        """Plan shards for a problem using the machine's cluster topology."""
        clusters = []
        for cluster in machine.clusters:
            subs = [
                s.index for s in problem.subdomains if s.cluster == cluster.cluster_id
            ]
            clusters.append((cluster.cluster_id, subs))
        return cls.for_clusters(clusters, workers)

    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    def shards_of_cluster(self, cluster_id: int) -> list[Shard]:
        """The shards covering one cluster, in position order."""
        return [s for s in self.shards if s.cluster_id == cluster_id]

    def engine_for(
        self, shard: Shard, problem: "FetiProblem", machine: "Machine"
    ) -> "SubdomainBatchEngine":
        """A shard-private batched engine restricted to the shard's subdomains."""
        from repro.feti.operators.batch import SubdomainBatchEngine

        return SubdomainBatchEngine(
            problem, machine, subdomain_indices=shard.subdomain_indices
        )

    def describe(self) -> str:
        """Human-readable shard layout (for logs and the example script)."""
        per_cluster: dict[int, list[int]] = {}
        for s in self.shards:
            per_cluster.setdefault(s.cluster_id, []).append(s.size)
        layout = ", ".join(
            f"cluster {c}: {sizes}" for c, sizes in sorted(per_cluster.items())
        )
        return f"{self.n_shards} shard(s) over {self.workers} worker(s) ({layout})"
