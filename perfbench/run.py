"""Seeded benchmark of the beliefuse train -> fuse -> eval pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 40 --trace 0

The benchmark generates one workload's inputs from the seed, writes them as
JSON lines, then runs the README's CLI commands in-process through
``beliefuse.cli.main`` on those files, over and over until the time is up.
Each pass runs build-trust, build-baselines, five fuse methods and eval, and
every pass's outputs are checked. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count commands, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics of ``spans.py`` (``--trace 1``). See README.md in this directory for
why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io as stdio
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_FILE = HERE / "pinned_map.json"
FUSE_METHODS = ("dbf", "static-dst", "platt", "ws", "bayes")
BELIEF_METHODS = ("dbf", "static-dst")
POOLED_METHOD = "dbf"  # the only command given the workload's --jobs
FUSE_STEMS = {f"fuse_{m.replace('-', '_')}": m for m in FUSE_METHODS}  # metric stem -> method
SETUP_REPEATS = 5
MAP_TOLERANCE = 1e-9


def import_package():
    """Import beliefuse from this checkout's ``src``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "beliefuse" / "__init__.py").is_file():
        print(f"error: no beliefuse package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import beliefuse

    if Path(beliefuse.__file__).resolve().parent != (src / "beliefuse").resolve():
        print(f"error: imported beliefuse from {beliefuse.__file__}", file=sys.stderr)
        sys.exit(2)


@dataclass(frozen=True)
class Workload:
    """Input shape of one workload.

    ``jobs`` is the ``--jobs`` of ``fuse --method dbf``, the command whose
    pool the ``parallel`` workload measures; ``jobs=0`` means one worker per
    CPU. Every other command runs at ``--jobs 1``.
    """

    name: str
    images: int
    detectors: int
    fp_rate: float | None  # None keeps cli.default_profiles' own rate
    jobs: int
    pins: str  # key into pinned_map.json; parallel shares dense's inputs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walkthrough", images=1000, detectors=3, fp_rate=None, jobs=1, pins="walkthrough"),
        Workload("dense", images=100, detectors=6, fp_rate=20.0, jobs=1, pins="dense"),
        Workload("parallel", images=100, detectors=6, fp_rate=20.0, jobs=0, pins="dense"),
    )
}


@dataclass
class Inputs:
    root: Path
    detector_ids: list[str]
    test_detections: int

    @property
    def validation(self) -> Path:
        return self.root / "validation"

    @property
    def test(self) -> Path:
        return self.root / "test"

    @property
    def models(self) -> Path:
        return self.root / "models"


def profiles_for(workload: Workload):
    from beliefuse import cli

    profiles = cli.default_profiles(workload.detectors)
    if workload.fp_rate is not None:
        profiles = [dataclasses.replace(p, fp_rate=workload.fp_rate) for p in profiles]
    return profiles


def write_inputs(workload: Workload, seed: int, root: Path) -> Inputs:
    """Generate the workload's dataset and write both splits as JSON lines."""
    from beliefuse import datagen, io

    dataset = datagen.generate(seed, workload.images, profiles_for(workload))
    provenance = {"seed": seed, "workload": workload.name, "images": workload.images}
    test_detections = 0
    for split, ids in (("validation", dataset.validation_image_ids), ("test", dataset.test_image_ids)):
        (root / split).mkdir(parents=True, exist_ok=True)
        for det_id in sorted(dataset.detections):
            dets = dataset.detections_for(det_id, ids)
            io.write_detections(dets, root / split / f"{det_id}.jsonl",
                                class_label=dataset.class_label, config=provenance)
            if split == "test":
                test_detections += len(dets)
        io.write_annotations(dataset.ground_truths(ids), root / split / "annotations.jsonl",
                             config=provenance)
    return Inputs(root, sorted(dataset.detections), test_detections)


def invoke(args: list[str]) -> int:
    """Run one CLI command in-process; its stdout is discarded."""
    from beliefuse import cli

    with contextlib.redirect_stdout(stdio.StringIO()):
        try:
            cli.main.main(args=args, prog_name="beliefuse", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            return 1
    return 0


def fused_path(inputs: Inputs, method: str, tag: str = "") -> Path:
    return inputs.root / f"fused_{method}{tag}.jsonl"


def commands(inputs: Inputs, jobs: int) -> list[tuple[str, list[str]]]:
    """The README walkthrough, one (metric stem, argv) pair per command."""
    train = ["--detections-dir", str(inputs.validation),
             "--annotations", str(inputs.validation / "annotations.jsonl"),
             "--models-dir", str(inputs.models), "--jobs", "1"]
    cmds = [("build_trust", ["build-trust", *train]),
            ("build_baselines", ["build-baselines", *train])]
    for stem, method in FUSE_STEMS.items():
        cmds.append((stem, fuse_args(inputs, method, jobs if method == POOLED_METHOD else 1)))
    ev = ["eval", "--annotations", str(inputs.test / "annotations.jsonl"),
          "--out", str(inputs.root / "report"), "--jobs", "1"]
    for method in FUSE_METHODS:
        ev += ["-i", f"{method}={fused_path(inputs, method)}"]
    for det_id in inputs.detector_ids:
        ev += ["-i", f"{det_id}={inputs.test / (det_id + '.jsonl')}"]
    cmds.append(("eval", ev))
    return cmds


def fuse_args(inputs: Inputs, method: str, jobs: int, tag: str = "") -> list[str]:
    return ["fuse", "--method", method, "--detections-dir", str(inputs.test),
            "--models-dir", str(inputs.models), "--out", str(fused_path(inputs, method, tag)),
            "--jobs", str(jobs)]


# ---- output checks --------------------------------------------------------


def fused_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if line and '"_header"' not in line]


def score_mismatches(path: Path) -> int:
    """Fused lines whose score is not exactly m_target - m_nontarget."""
    bad = 0
    for line in fused_lines(path):
        obj = json.loads(line)
        joint = obj.get("joint")
        if joint is None or obj["score"] != joint[0] - joint[1]:
            bad += 1
    return bad


def map_mismatches(maps: dict[str, float], pinned: dict[str, float]) -> list[str]:
    """Methods whose mAP is missing from either side or off by more than 1e-9."""
    return [
        name for name in sorted(set(maps) | set(pinned))
        if name not in maps or name not in pinned
        or abs(maps[name] - pinned[name]) > MAP_TOLERANCE
    ]


def report_maps(inputs: Inputs) -> dict[str, float]:
    """Per-method mAP from the last eval's report.json."""
    report = json.loads((inputs.root / "report" / "report.json").read_text())
    return {name: m["mAP"] for name, m in report["methods"].items()}


def load_pins(workload: Workload, seed: int) -> dict[str, float] | None:
    """Pinned per-method mAP for this workload's inputs at this seed, if any."""
    if not PINNED_FILE.is_file():
        return None
    entry = json.loads(PINNED_FILE.read_text()).get(workload.pins)
    if entry is None or entry["images"] != workload.images:
        return None
    return entry["seeds"].get(str(seed))


class Checker:
    """Counts commands attempted and failed (non-zero exit or failed check)."""

    def __init__(self, pinned: dict[str, float] | None, reference: dict[str, list[str]]):
        self.pinned = pinned
        self.reference = reference  # method -> serial fused lines (parallel only)
        self.attempted = 0
        self.failed = 0
        self.map_dbf: float | None = None

    def record(self, stem: str, code: int, inputs: Inputs) -> None:
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            problems += self._check(stem, inputs)
        if problems:
            self.failed += 1
            print(f"check failed: {stem}: {'; '.join(problems)}", file=sys.stderr)

    def _check(self, stem: str, inputs: Inputs) -> list[str]:
        problems = []
        method = FUSE_STEMS.get(stem)
        if method in BELIEF_METHODS:
            path = fused_path(inputs, method)
            bad = score_mismatches(path)
            if bad:
                problems.append(f"{bad} fused lines with score != joint[0] - joint[1]")
            if method in self.reference and fused_lines(path) != self.reference[method]:
                problems.append("fused lines differ from a serial fuse of the same inputs")
        if stem == "eval":
            maps = report_maps(inputs)
            self.map_dbf = maps["dbf"]
            bad = map_mismatches(maps, self.pinned) if self.pinned is not None else []
            if bad:
                problems.append(f"mAP differs from the pinned value for {', '.join(bad)}")
        return problems


# ---- the measured loop ----------------------------------------------------


def run_pass(inputs: Inputs, jobs: int, checker: Checker, clock: HostClock,
             tracer=None) -> dict[str, float]:
    """One pass of the walkthrough.

    Returns each command's time at the reference host speed (``hostclock``),
    their sum as ``pipeline``, and the uncorrected wall-time sum as
    ``wall_pipeline``. Traced passes and pooled commands are probed only
    before and after each command, so that no probe lands in a span or
    competes with pool workers.
    """
    times, wall = {}, 0.0
    for stem, argv in commands(inputs, jobs):
        pooled = jobs > 1 and FUSE_STEMS.get(stem) == POOLED_METHOD
        gc.collect()
        with clock.measure(sample=tracer is None and not pooled) as timing:
            if tracer is None:
                code = invoke(argv)
            else:
                with tracer.command(f"cli.{argv[0]}"):
                    code = invoke(argv)
        times[stem] = timing.seconds
        wall += timing.wall
        checker.record(stem, code, inputs)
    times["pipeline"] = sum(times.values())
    times["wall_pipeline"] = wall
    return times


def serial_reference(inputs: Inputs) -> dict[str, list[str]]:
    """Serial fused lines that the pooled fuse must reproduce line for line."""
    for argv in (commands(inputs, 1)[0][1], fuse_args(inputs, POOLED_METHOD, 1, "_serial")):
        code = invoke(argv)
        if code != 0:
            raise RuntimeError(f"serial reference {' '.join(argv[:3])} exited {code}")
    return {POOLED_METHOD: fused_lines(fused_path(inputs, POOLED_METHOD, "_serial"))}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path, pinned: dict[str, float] | None = None) -> dict:
    """Set up, run passes for ``seconds``, check outputs, and return the result."""
    import spans

    jobs = workload.jobs or len(os.sched_getaffinity(0))
    tracer = spans.Tracer() if trace else None
    clock = HostClock()
    setup_times, generate_times = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        gc.collect()
        with clock.measure(sample=not trace) as timing:
            with (tracer.installed() if tracer else contextlib.nullcontext()):
                inputs = write_inputs(workload, seed, work_dir)
        setup_times.append(timing.seconds)
        if tracer:
            generate_times.append(tracer.total("datagen.generate"))
            tracer.reset()

    checker = Checker(pinned, serial_reference(inputs) if jobs > 1 else {})

    passes, traced_passes, layer_passes = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) > len(traced_passes)
        if traced:
            with tracer.installed():
                traced_passes.append(run_pass(inputs, jobs, checker, clock, tracer))
            layer_passes.append(tracer.pass_metrics())
            tracer.reset()
        else:
            passes.append(run_pass(inputs, jobs, checker, clock))
        elapsed = time.perf_counter() - start
        done = len(passes) + len(traced_passes)
        # Start another pass only if it is expected to end before the deadline,
        # so a run never measures much longer than ``seconds``.
        if (tracer is None or traced_passes) and elapsed * (done + 1) / done > seconds:
            break

    for label, runs in (("untraced", passes), ("traced", traced_passes)):
        if runs:
            per_pass = " ".join(f"{p['pipeline']:.2f}/{p['wall_pipeline']:.2f}" for p in runs)
            print(f"{workload.name}: {len(runs)} {label} passes, pipeline_s corrected/wall "
                  f"{per_pass}", file=sys.stderr)
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed}
    if tracer is not None:
        metrics = spans.summarize(layer_passes, generate_times, tracer.image_samples)
        traced_s = statistics.median(p["pipeline"] for p in traced_passes)
        untraced_s = statistics.median(p["pipeline"] for p in passes)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    else:
        metrics = end_to_end(passes, setup_times, inputs, checker)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def end_to_end(passes, setup_times, inputs: Inputs, checker: Checker) -> dict:
    def median(stem):
        return statistics.median(p[stem] for p in passes)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "build_trust_s": (median("build_trust"), "s"),
        "build_baselines_s": (median("build_baselines"), "s"),
    }
    for stem in FUSE_STEMS:
        metrics[f"{stem}_det_per_s"] = (inputs.test_detections / median(stem), "det/s")
    metrics.update({
        "eval_s": (median("eval"), "s"),
        "pipeline_s": (median("pipeline"), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "map_dbf": (checker.map_dbf or 0.0, "1"),  # 0.0 only when eval failed
        "ok_share": (1.0 - checker.failed / max(checker.attempted, 1), "1"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    workload = WORKLOADS[args.workload]
    pinned = load_pins(workload, args.seed)
    if pinned is None:
        print(f"note: no pinned mAP for {workload.name} at seed {args.seed}; "
              "mAP check skipped", file=sys.stderr)
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                              work_dir, pinned)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
