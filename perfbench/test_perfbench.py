"""Self-test of the benchmark at tiny size.

Each workload's path runs once untraced and once traced and must report
exactly the metric names and units that BENCHMARK.json declares. A fused line
whose score is not m_target - m_nontarget, and a pinned mAP that does not
match, must each fail a check and show in ``failed``. The host clock must
take the time of its own probes out of the wall time it reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import run  # noqa: E402

run.import_package()

from beliefuse import io  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, images=8 if workload.detectors > 3 else 24)


def declared_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_reports_every_declared_metric(name, trace, tmp_path):
    result = run.run_workload(tiny(name), seed=3, seconds=0.0, trace=trace,
                              work_dir=tmp_path / "work")
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == (16 if trace else 8)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared_units("per_layer" if trace else "end_to_end")
    if not trace:
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_pool_bytes_are_counted_only_when_a_pool_runs(tmp_path):
    serial = run.run_workload(tiny("dense"), 3, 0.0, True, tmp_path / "serial")
    pooled = run.run_workload(tiny("parallel"), 3, 0.0, True, tmp_path / "pooled")
    assert serial["metrics"]["pipeline.pool_bytes_shipped"]["value"] == 0
    assert pooled["metrics"]["pipeline.pool_bytes_shipped"]["value"] > 0
    for name in ("geometry.iou_calls", "trust.table_rows", "pipeline.images"):
        assert serial["metrics"][name]["value"] > 0


def test_a_fused_score_that_disagrees_with_its_joint_mass_fails(monkeypatch, tmp_path):
    write_fused = io.write_fused

    def write_with_one_bad_score(fused, path, config=None):
        write_fused(fused, path, config=config)
        lines = Path(path).read_text().splitlines()
        bad = json.loads(lines[1])
        bad["score"] += 0.25
        lines[1] = json.dumps(bad, sort_keys=True)
        Path(path).write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(io, "write_fused", write_with_one_bad_score)
    result = run.run_workload(tiny("walkthrough"), 3, 0.0, False, tmp_path / "work")
    assert not result["correct"]
    assert result["failed"] == 2  # the dbf and static-dst fuses
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_a_map_that_differs_from_its_pin_fails(tmp_path):
    pinned = {name: 0.5 for name in ("dbf", "static-dst", "platt", "ws", "bayes",
                                      "det_a", "det_b", "det_c")}
    result = run.run_workload(tiny("walkthrough"), 3, 0.0, False, tmp_path / "work", pinned)
    assert not result["correct"]
    assert result["failed"] == 1  # eval


def test_pins_cover_the_tuning_and_hold_out_seeds_at_the_pinned_size():
    for name in run.WORKLOADS:
        for seed in (*range(64), 7919):
            assert run.load_pins(run.WORKLOADS[name], seed) is not None, (name, seed)
    tiny_walkthrough = tiny("walkthrough")
    assert run.load_pins(tiny_walkthrough, 0) is None


def test_host_clock_takes_its_probes_out_of_the_wall_time():
    clock = hostclock.HostClock()
    with clock.measure() as timing:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:  # the alarm's probes pause this loop
            pass
    assert 0.1 < timing.wall < 0.2
    assert timing.seconds > 0
