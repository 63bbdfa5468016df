"""Recompute the pinned per-method mAP values that run.py checks against.

Usage, from the root of a source checkout:

    python3 perfbench/pin.py --workload walkthrough --seeds 0-63 7919

Runs one untimed pass of the workload per seed and merges every method's mAP
from eval's report into pinned_map.json under the workload's pin key. Pins
belong to the code that computed them: rerun this only when a change is
meant to alter fused scores, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin(workload: run.Workload, seed: int) -> dict[str, float]:
    work_dir = run.ROOT / ".perfbench_work" / f"pin-{workload.name}-{seed}-{os.getpid()}"
    try:
        inputs = run.write_inputs(workload, seed, work_dir)
        for _, argv in run.commands(inputs, 1):
            code = run.invoke(argv)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code} at seed {seed}")
        return run.report_maps(inputs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-63")
    args = parser.parse_args()
    run.import_package()
    workload = run.WORKLOADS[args.workload]
    pins = {str(seed): pin(workload, seed) for seed in parse_seeds(args.seeds)}
    table = json.loads(run.PINNED_FILE.read_text()) if run.PINNED_FILE.is_file() else {}
    entry = table.get(workload.pins)
    if entry is None or entry["images"] != workload.images:
        entry = {"images": workload.images, "seeds": {}}
    entry["seeds"].update(pins)
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    table[workload.pins] = entry
    run.PINNED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} seeds for {workload.pins} in {run.PINNED_FILE.name}")


if __name__ == "__main__":
    main()
