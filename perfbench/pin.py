#!/usr/bin/env python3
"""Write ``reference.json``: each workload's artifacts at seeds 0 to 20.

    python3 perfbench/pin.py

Run from the root of a checkout of the commit whose output is the
reference. Each seed gets one mock-backend pass; teacher-http is pinned
from the mock backend too, because ``run.py`` requires its HTTP path to
write the same artifacts.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import inputs
from run import HERE, WORK_ROOT, check_pass, run_child

SEEDS = range(21)
PIN_KEYS = ("seeds.jsonl", "expanded.jsonl", "dataset.jsonl", "manifest_per_task", "report")


def main() -> int:
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    pins: dict = {}
    for name, workload in spec["workloads"].items():
        mix = spec["generation_mix"]["weights"] if "evaluate" in workload["stages"] else None
        pins[name] = {}
        for seed in SEEDS:
            work = WORK_ROOT / f"pin-{name}-{seed}"
            try:
                inputs.write_inputs(work / "inputs", seed, workload["records"], workload["qa"], mix)
                out_dir = work / "out"
                pass_spec = {
                    "mode": "pass",
                    "inputs": str(work / "inputs"),
                    "stages": workload["stages"],
                    "backend": "mock",
                    "overrides": workload["overrides"],
                    "out_dir": str(out_dir),
                    "trace": False,
                    "pass_id": 0,
                }
                result = run_child(pass_spec, work, "pin", time.perf_counter() + 600)
                digest = check_pass(workload, out_dir, result)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            pins[name][str(seed)] = {k: digest[k] for k in PIN_KEYS if k in digest}
            print(name, seed, file=sys.stderr)
    reference = {
        "why": "Artifacts of each workload at seeds 0 to 20, written by the seed commit "
        "with perfbench/pin.py. A change that alters any of them changes the pipeline's output.",
        "workloads": pins,
    }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
