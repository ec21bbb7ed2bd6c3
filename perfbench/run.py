"""Wall-clock benchmark of whole FETI solves, split by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload heat2d-loadcases --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it with spans around the public methods of the
layer objects and reports the per-layer metrics.  Each run checks every
answer against a direct solve afterwards and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every operation succeeded and every exact count
repeated; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heat2d-loadcases", "elasticity3d-steps", "serve-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from metrics import END_TO_END, PER_LAYER
    from spans import Tracer

    if args.workload == "heat2d-loadcases":
        import heat2d_loadcases as workload
    elif args.workload == "elasticity3d-steps":
        import elasticity3d_steps as workload
    else:
        import serve_mixed as workload

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.enabled = True
    result = workload.run(args.seed, args.seconds, tracer)

    units = PER_LAYER if args.trace else END_TO_END
    if set(result.metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(result.metrics) ^ set(units))}")
    checks = result.checks
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for line in result.notes:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"{name:<44} {result.metrics[name]:>16.6g} {unit}")
    print(f"# failed/attempted: {checks.failed}/{checks.attempted}; "
          f"max relative error {checks.max_error:.2e}")
    for problem in checks.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
