"""serve-mixed: one closed-loop HTTP client against an in-process server.

The server is a :class:`repro.serve.ServerThread` with the default
implicit approach (``impl mkl``).  The client holds one connection and
sends its next request only after the previous answer arrived.  One client
keeps a single solve in flight: two clients put two solves and the clients'
JSON work on one interpreter lock and two vCPUs, so their latencies follow
how the requests interleave rather than the server.  Requests
come from one seeded sequence: each picks one of two patterns and carries
fresh per-subdomain loads, except that a seeded one in four repeats an
earlier request verbatim (so the result cache is exercised).  The sequence
is drawn in shuffled blocks that keep the pattern mix and the repeat share
fixed (see :func:`make_requests`).  Set-up is the
time from booting the server until one warm-up request per pattern was
answered, which builds each pattern's pooled session.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np
from common import (
    Checks,
    DirectReference,
    Fingerprint,
    Result,
    end_to_end,
    median,
    random_loads,
    rel_error,
    timed_phase,
)
from metrics import (
    COUNTED_LAYERS,
    OP_LAYERS,
    modeled_layers,
    setup_layers,
    storage_layers,
    zero_layers,
)
from spans import LAYER_OF, Tracer, layer_totals

from repro.api import SolverSpec, Workload
from repro.api.workload import build_problem
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.client import ServeError

PATTERNS = (Workload("heat", 2, (4, 4), 8), Workload("elasticity", 2, (4, 2), 6))
CONFIG = ServeConfig(port=0, spec=SolverSpec(execution="threads:2"), concurrency=2)
N_SETUPS = 5
#: Length of the seeded request sequence (far more than a run sends).
N_REQUESTS = 1024
#: Requests per shuffled block, and the repeats among them (one in four).
BLOCK = 8
REPEATS_PER_BLOCK = 2
MAX_RETRIES = 50


@dataclass
class Request:
    index: int
    pattern: int
    #: Index of the request whose loads this one carries (itself if fresh).
    origin: int
    loads: list[np.ndarray]
    wire: list[list[float]]


@dataclass
class Reply:
    request: Request
    start: float
    end: float
    payload: dict[str, Any] | None
    error: str | None
    traced: bool


def make_requests(seed: int) -> list[Request]:
    """The seeded request sequence, in shuffled blocks of ``BLOCK`` requests.

    Each block holds every pattern equally often, and a seeded
    ``REPEATS_PER_BLOCK`` of its requests repeat an earlier request of the
    same pattern verbatim; so the pattern mix and the repeat share do not
    vary from seed to seed, only the order, the loads and the repeats do.
    """
    rng = np.random.default_rng([seed, 3])
    problems = [build_problem(w) for w in PATTERNS]
    requests: list[Request] = []
    fresh: list[list[Request]] = [[] for _ in PATTERNS]
    while len(requests) < N_REQUESTS:
        patterns = rng.permutation(np.arange(BLOCK) % len(PATTERNS))
        repeats = set(rng.choice(BLOCK, REPEATS_PER_BLOCK, replace=False).tolist())
        for slot, pattern in enumerate(patterns.tolist()):
            k = len(requests)
            if slot in repeats and fresh[pattern]:
                earlier = fresh[pattern][int(rng.integers(len(fresh[pattern])))]
                requests.append(
                    Request(k, pattern, earlier.origin, earlier.loads, earlier.wire)
                )
                continue
            loads = random_loads(rng, problems[pattern])
            request = Request(k, pattern, k, loads, [f.tolist() for f in loads])
            fresh[pattern].append(request)
            requests.append(request)
    return requests


def send(client: ServeClient, request: Request) -> tuple[dict[str, Any] | None, str | None]:
    """One request; a 429 is retried after its Retry-After (inside the latency)."""
    for _ in range(MAX_RETRIES):
        try:
            payload = client.solve(
                PATTERNS[request.pattern], rhs=request.wire, return_primal=True
            )
            return payload, None
        except ServeError as exc:
            if exc.status != 429:
                return None, str(exc)
            time.sleep(exc.retry_after or 0.05)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            return None, repr(exc)
    return None, f"still 429 after {MAX_RETRIES} retries"


def run(seed: int, seconds: float, tracer: Tracer | None) -> Result:
    checks = Checks()
    requests = make_requests(seed)
    fingerprint = Fingerprint(
        "serve-mixed", [w.to_dict() for w in PATTERNS], CONFIG.spec.to_dict(), N_REQUESTS
    )
    for request in requests:
        fingerprint.add([np.array([request.pattern, request.origin], dtype=float)])
        fingerprint.add(request.loads)

    # Set-up, several times: boot a server and warm one session per pattern.
    setups: list[float] = []
    windows: list[tuple[float, float]] = []
    warmups: list[tuple[int, dict[str, Any]]] = []
    server: ServerThread | None = None
    for _ in range(N_SETUPS):
        if server is not None:
            server.stop()
        server = None
        gc.collect()
        build_problem.cache_clear()
        start = perf_counter()
        server = ServerThread(CONFIG).start()
        if tracer is not None:
            tracer.instrument_pool(server.server.pool)
        with ServeClient("127.0.0.1", server.port) as client:
            for p, workload in enumerate(PATTERNS):
                warmups.append((p, client.solve(workload, return_primal=True)))
            end = perf_counter()
            pool = client.metrics()["session_pool"]
        setups.append(end - start)
        windows.append((start, end))
        checks.exact(
            "set-up counts",
            sorted((q["symbolic_analyses"], q["pattern_hits"]) for q in pool["patterns"]),
        )

    replies: list[Reply] = []
    sequence = iter(requests)
    metrics_at: dict[str, dict[str, Any]] = {}

    def timed(until: float, traced: bool) -> tuple[float, float]:
        """Run the client until ``until``; returns the phase's wall interval.

        A traced phase also scrapes ``/v1/metrics`` before and after.
        """
        if traced:
            metrics_at["before"] = client.metrics()
        begin = perf_counter()
        while perf_counter() < until:
            request = next(sequence)
            start = perf_counter()
            payload, error = send(client, request)
            replies.append(Reply(request, start, perf_counter(), payload, error, traced))
        end = perf_counter()
        if traced:
            metrics_at["after"] = client.metrics()
        return begin, end

    with ServeClient("127.0.0.1", server.port) as client:
        phase = timed_phase(seconds, tracer, timed)
    walls = [r.end - r.start for r in replies]
    metrics, note = end_to_end(setups, walls, phase[1] - phase[0])

    if tracer is not None:  # the pooled sessions, before stop() closes them
        sessions = [server.server.pool.entry_for(w).session for w in PATTERNS]
        solvers = [session.solver(w) for session, w in zip(sessions, PATTERNS)]
    server.stop()

    # Answer check, untimed: primal and multipliers against a direct solve.
    references = [DirectReference(build_problem(w)) for w in PATTERNS]
    for reference in references:
        distance = reference.verify()
        if distance > 1e-8:
            checks.fail(f"direct reference disagrees with saddle_point_solution: {distance:.3e}")
    expected: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def check(label: str, payload: dict[str, Any], u_ref: np.ndarray, lam_ref: np.ndarray,
              key: str, timed: bool = True) -> None:
        result = payload["result"]
        checks.operation(
            label,
            timed=timed,
            converged=result["converged"],
            rel_errors=[
                rel_error(np.concatenate([np.asarray(u) for u in result["primal"]]), u_ref),
                rel_error(np.asarray(result["lam"]), lam_ref),
            ],
        )
        checks.exact(key, result["iterations"])

    for p, payload in warmups:
        problem = references[p].problem
        u_ref, lam_ref = references[p].solve([s.f for s in problem.subdomains])
        check(f"warm-up of pattern {p}", payload, u_ref, lam_ref,
              f"pattern {p} declared loads", timed=False)
    for reply in replies:
        request = reply.request
        label = f"request {request.index} (pattern {request.pattern}, origin {request.origin})"
        if reply.error is not None:
            checks.operation(label, error=reply.error)
            continue
        if request.origin not in expected:
            expected[request.origin] = references[request.pattern].solve(request.loads)
        check(label, reply.payload, *expected[request.origin],
              f"iterations of request {request.origin}")

    notes = [
        note,
        f"inputs sha256:{fingerprint.hexdigest()} ({N_REQUESTS} seeded requests, seed {seed}; "
        f"{len(replies)} sent)",
    ]
    if tracer is None:
        return Result(checks, metrics, notes)

    traced = [r for r in replies if r.traced and r.payload is not None]
    solved = [r for r in traced if not r.payload["cached"]]
    n_req = max(len(traced), 1)
    n_solved = max(len(solved), 1)
    spans = tracer.between(*phase)
    seconds_of, calls_of = layer_totals(spans)
    session_wall = sum(s.duration * s.columns for s in spans if LAYER_OF[s.name] == "session")
    queue_wait = (sum(r.payload["solve_seconds"] for r in solved) - session_wall) / n_solved

    layers = zero_layers()
    layers.update(setup_layers(tracer, windows))
    layers.update(storage_layers(sessions, solvers))
    layers.update(modeled_layers(solvers))
    for layer in OP_LAYERS:
        layers[f"{layer}_s"] = seconds_of[layer] / n_req
    for layer in COUNTED_LAYERS:
        layers[f"{layer}_calls"] = calls_of[layer] / n_req
    layers["pcpg.self_s"] = seconds_of["pcpg"] / n_req
    layers["session.self_s"] = seconds_of["session"] / n_req
    layers["pcpg.iterations"] = median(r.payload["result"]["iterations"] for r in solved)
    layers["serve.server_s"] = median(r.payload["solve_seconds"] for r in traced)
    layers["serve.http_s"] = median(r.end - r.start - r.payload["solve_seconds"] for r in traced)
    layers["serve.queue_wait_s"] = queue_wait
    layers["trace.unattributed_s"] = queue_wait

    def delta(*path: str) -> float:
        a, b = metrics_at["before"], metrics_at["after"]
        for key in path:
            a, b = a.get(key, 0), b.get(key, 0)
        return float(b) - float(a)

    hits = delta("result_cache", "hits")
    misses = delta("result_cache", "misses")
    layers["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["serve.rejected_429"] = delta("counters", "solve_rejected_429")
    layers["queue.stacked_solves"] = delta("session_pool", "stacked_solves")
    layers["queue.stacked_columns"] = delta("session_pool", "stacked_columns")
    untraced = [r.end - r.start for r in replies if not r.traced]
    layers["trace.overhead_s"] = median(r.end - r.start for r in traced) - median(untraced)
    notes.append(
        f"traced requests: {len(traced)} ({len(solved)} solved), untraced: {len(untraced)}"
    )
    return Result(checks, layers, notes)
