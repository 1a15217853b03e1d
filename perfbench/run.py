"""Run one workload of the LINX end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Prints a run record (inputs digest, reference-loop readings, machine
metadata, set-up times) and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics.  Exits non-zero, without
a result line, when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path.cwd()

#: The string-hash seed every run executes under.
HASH_SEED = "0"

def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no LINX sources under {source}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Some utility scores differ in their last bit with the order of a
        # str-keyed set, so equal seeds only give equal payloads under one
        # hash seed.  Re-executing keeps this process (no child to reap).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, run  # noqa: E402

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result["metrics"] = with_units(result["metrics"], PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def with_units(metrics: dict[str, float], units: tuple[tuple[str, str], ...]) -> dict:
    """``{name: {"value", "unit"}}`` in declared order; names must match exactly."""
    mismatch = sorted({name for name, _ in units} ^ set(metrics))
    if mismatch:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {mismatch}")
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units}


if __name__ == "__main__":
    sys.exit(main())
