"""Tiny-size self-test of the benchmark (about 20 seconds on two cores).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` lists exactly the metric names and units the runs print;
* every workload completes at tiny size with ``--trace 0`` and ``--trace 1``,
  reports correct outputs, and prints every metric by name with its unit;
* the traced run emits exactly the documented per-layer names;
* equal seeds give equal payload digests;
* a tampered payload trips each workload's output checks;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.common import ReferenceLoop  # noqa: E402
from perfbench.run import with_units  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    SetupTimes,
    Sizes,
    planned_rounds,
    run,
    timed_phase,
)

TINY = Sizes(setup_repeats=1, min_samples=40, episodes=3, fill_episodes=2, blocks=1)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
    check(declared == list(END_TO_END), "BENCHMARK.json end_to_end matches the printed metrics")
    declared = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
    check(declared == list(PER_LAYER), "BENCHMARK.json per_layer matches the traced metrics")
    names = [w["name"] for w in manifest["workloads"]]
    check(names == list(WORKLOADS), "BENCHMARK.json workloads match the implemented ones")


def check_runs() -> None:
    for name in WORKLOADS:
        digests = []
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            result, record = run(name, 1, 0.0, trace, ROOT, TINY)
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)} is correct: {record['check_problems']}")
            printed = with_units(result["metrics"], units)
            check(list(printed) == [n for n, _ in units]
                  and all(printed[n]["unit"] == u for n, u in units),
                  f"{name} trace={int(trace)} prints every metric with its unit")
            digests.append(record["payload_digest"])
        check(digests[0] == digests[1], f"{name}: equal seeds give equal payload digests")


def _tiny_phase(name: str, workdir: Path):
    workload = WORKLOADS[name](1, workdir, TINY)
    workload.build(SetupTimes())
    phase = timed_phase(workload, planned_rounds(workload, 0.0, TINY.min_samples),
                        ReferenceLoop(), None)
    return workload, phase


def check_tampering() -> None:
    tamperers = {
        "explore": lambda sample: sample.payload.update(
            utility_score=sample.payload["utility_score"] + 1e-9),
        "serve": lambda sample: setattr(
            sample.served, "result_text",
            sample.served.result_text.replace(b'"episodes_trained": ', b'"episodes_trained": 1')),
        "serve-repeat": lambda sample: setattr(
            sample.served, "result_text", sample.served.result_text[:-2] + b" }"),
    }
    for name, tamper in tamperers.items():
        workdir = ROOT / ".perfbench_tmp" / f"selftest-{name}"
        workload, phase = _tiny_phase(name, workdir)
        try:
            check(not workload.check(phase.samples), f"{name}: untouched outputs pass the checks")
            tamper(phase.samples[0])
            check(bool(workload.check(phase.samples)), f"{name}: a tampered payload trips the checks")
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(completed.returncode != 0 and not completed.stdout.strip(),
          "without the program's sources the benchmark exits non-zero and prints no result")


def main() -> int:
    check_manifest()
    check_bare_directory()
    check_tampering()
    check_runs()
    shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
