"""Unit tests of the benchmark's own pieces (no timing)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from common import Checks, tail
from metrics import END_TO_END, PER_LAYER
from spans import Tracer, covered, layer_totals

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


class Toy:
    def apply(self, x: float) -> float:
        time.sleep(0.002)
        return x

    def solve(self) -> float:
        time.sleep(0.002)
        return self.apply(1.0) + self.apply(2.0)


def test_self_time_is_span_minus_children() -> None:
    tracer = Tracer()
    toy = Toy()
    tracer.wrap(toy, "apply", "operators.apply")
    tracer.wrap(toy, "solve", "solver.solve")
    tracer.enabled = True
    assert toy.solve() == 3.0
    seconds, calls = layer_totals(tracer.spans)
    assert calls["operators.apply"] == 2 and calls["pcpg"] == 1
    (outer,) = [s for s in tracer.spans if s.parent is None]
    assert seconds["pcpg"] + seconds["operators.apply"] == pytest.approx(outer.duration)
    assert covered(tracer.spans) == outer.duration


def test_disabled_tracer_passes_through() -> None:
    tracer = Tracer()
    toy = Toy()
    tracer.wrap(toy, "solve", "solver.solve")
    assert toy.solve() == 3.0
    assert tracer.spans == []


def test_tail_has_ten_samples_beyond_it() -> None:
    samples = [float(i) for i in range(1, 61)]
    value, percentile = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 50 / 60)
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_exact_counts_must_repeat() -> None:
    checks = Checks()
    checks.exact("case 0", (131, 0.5))
    checks.exact("case 0", (131, 0.5))
    assert checks.correct
    checks.exact("case 0", (132, 0.5))
    assert not checks.correct


def test_failed_operations_are_counted() -> None:
    checks = Checks()
    checks.operation("ok", rel_errors=[1e-9])
    checks.operation("raised", error="boom")
    checks.operation("unconverged", converged=False)
    checks.operation("inaccurate", rel_errors=[1e-3])
    assert (checks.attempted, checks.failed) == (4, 3)


def test_benchmark_json_names_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "heat2d-loadcases", "elasticity3d-steps", "serve-mixed",
    ]


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / BENCH.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
