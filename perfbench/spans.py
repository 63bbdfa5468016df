"""In-memory span tracing of beliefuse's modules for the benchmark's traced run.

The tracer wraps public functions of each package module at every module
attribute its callers look it up through (the package imports names
directly, so patching only the defining module would miss calls). Each
wrapped call records a span ``[name, start, end, parent]`` in memory; a
span's self time is its duration minus its children's. ``geometry.iou`` is
only counted, because it is called millions of times. Calls made inside
pool workers are not recorded: forked workers inherit the wrappers, which
then call straight through.

``pass_metrics`` turns one pass's spans and counts into the per-layer
metrics; ``summarize`` takes their medians over the traced passes.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import statistics
import sys
import time
from collections import Counter

from beliefuse import baselines, datagen, dst, evaluation, fusion, geometry, io, pipeline, trust

IO_READS = ("io.read_detections_by_class", "io.read_detections", "io.read_annotations", "io.read_fused")
IO_WRITES = ("io.write_fused", "evaluation.write_reports_json", "evaluation.write_reports_csv")
VERDICTS = ("fusion.dbf_fuse", "fusion.static_dst_fuse")
BASELINE_SCORES = ("baselines.platt_fuse", "baselines.weighted_sum_fuse", "baselines.bayes_fuse")


# ---- per-call counters: (tracer, args, result) -> None ---------------------


def _count_read(t, args, result):
    t.counts["io.lines_read"] += (
        sum(len(v) for v in result.values()) if isinstance(result, dict) else len(result)
    )


def _count_write(t, args, result):
    t.counts["io.bytes_written"] += os.path.getsize(args[1])


def _count_nms(t, args, result):
    t.counts["geometry.nms_suppressed"] += len(args[0]) - len(result)


def _count_vectors(t, args, result):
    detectors = len(args[0])
    t.counts["fusion.vectors_built"] += len(result)
    t.counts["fusion.slots_possible"] += len(result) * max(detectors - 1, 0)
    t.counts["fusion.slots_present"] += sum(len(v.slots) - 1 for v in result)


def _count_verdict(t, args, result):
    t.counts["fusion.vacuous_verdicts"] += result.joint.is_vacuous()


def _count_combine(t, args, result):
    t.counts["dst.sources"] += len(args[0])


def _count_score_to_bpa(t, args, result):
    model, score = args[0], args[1]
    table = model.table
    t.counts["trust.out_of_range"] += (
        score > table[0].score_threshold or score < table[-1].score_threshold
    )


def _count_table_rows(t, args, result):
    t.counts["trust.table_rows"] += sum(len(m.table) for m in result.values())


def _count_ws_vectors(t, args, result):
    t.counts["baselines.ws_training_vectors"] += len(args[0])


def _count_images(t, args, result):
    per_detector, jobs = args[0], args[7] if len(args) > 7 else 1
    images = pipeline.group_by_image([d for ds in per_detector.values() for d in ds])
    t.counts["pipeline.images"] += len(images)
    if jobs > 1:
        # The work items fuse_corpus hands its pool, one per image, as pickled.
        models, class_label, method = args[1], args[2], args[3]
        thresholds, absent = (args[4], args[5]), args[6]
        t.counts["pipeline.pool_bytes_shipped"] += sum(
            len(pickle.dumps((pipeline.group_by_detector(dets), models, class_label,
                              method, thresholds, absent)))
            for _, dets in sorted(images.items())
        )


def _count_dets_scored(t, args, result):
    t.counts["evaluation.dets_scored"] += len(args[0])


# (span name "module.function", object defining it, modules that imported the
# name directly, counter). Methods are patched on their class.
TRACED = [
    ("datagen.generate", datagen, (), None),
    ("io.read_detections_by_class", io, (), _count_read),
    ("io.read_detections", io, (), _count_read),
    ("io.read_annotations", io, (), _count_read),
    ("io.read_fused", io, (), _count_read),
    ("io.write_fused", io, (), _count_write),
    ("evaluation.write_reports_json", evaluation, (), _count_write),
    ("evaluation.write_reports_csv", evaluation, (), _count_write),
    ("geometry.nms", geometry, (fusion,), _count_nms),
    ("geometry.match_detections", geometry, (pipeline,), None),
    ("fusion.build_detection_vectors", fusion, (pipeline,), _count_vectors),
    ("fusion.fuse_image", fusion, (), None),
    ("fusion.dbf_fuse", fusion, (), _count_verdict),
    ("fusion.static_dst_fuse", fusion, (), _count_verdict),
    ("dst.combine_all", dst, (fusion,), _count_combine),
    ("trust.score_to_bpa", trust.TrustModel, (), _count_score_to_bpa),
    ("trust.static_bpa", trust.TrustModel, (), None),
    ("trust.build_pr_table", trust, (), None),
    ("baselines.fit_platt", baselines, (), None),
    ("baselines.fit_weighted_sum", baselines, (), _count_ws_vectors),
    ("baselines.platt_fuse", baselines, (), None),
    ("baselines.weighted_sum_fuse", baselines, (), None),
    ("baselines.bayes_fuse", baselines, (), None),
    ("pipeline.label_detections", pipeline, (), None),
    ("pipeline.build_trust_models", pipeline, (), _count_table_rows),
    ("pipeline.fit_baselines", pipeline, (), None),
    ("pipeline.fuse_corpus", pipeline, (), _count_images),
    ("pipeline.fuse_corpus_baseline", pipeline, (), None),
    ("evaluation.evaluate_methods", evaluation, (), None),
    ("evaluation.evaluate_method", evaluation, (), _count_dets_scored),
]
# geometry.iou is only counted: it runs millions of times per pass.
IOU_SITES = (geometry, fusion, evaluation)


class Tracer:
    """Spans and counts of the calls made while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.image_samples: list[float] = []  # fuse_image wall ms, all traced passes
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._smoothings_at_reset = self._smoothings()

    @staticmethod
    def _smoothings() -> int:
        return getattr(fusion, "conflict_smoothing_count", 0)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._smoothings_at_reset = self._smoothings()

    @contextlib.contextmanager
    def command(self, name: str):
        """A root span around one CLI command; yields the span record."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        pid = self._pid

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                # A child span, so counting stays out of every layer's self time.
                counting = self._open("trace.count")
                count(self, args, result)
                self._close(counting)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced lookup site; restore the originals on exit."""
        patches = []  # (owner, attribute, original)

        def patch(owners, attr, wrapper, original):
            if original is None:
                print(f"note: {attr} not found, not traced", file=sys.stderr)
                return
            for owner in owners:
                if getattr(owner, attr, None) is original:
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                else:
                    print(f"note: {owner.__name__}.{attr} not traced", file=sys.stderr)

        try:
            for name, owner, importers, count in TRACED:
                attr = name.split(".", 1)[1]
                original = getattr(owner, attr, None)
                patch((owner, *importers), attr, self._wrap(name, original, count), original)
            iou = getattr(geometry, "iou", None)
            patch(IOU_SITES, "iou", self._counted("geometry.iou_calls", iou), iou)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        totals: Counter = Counter()
        calls: Counter = Counter()
        outer_io_read = 0.0
        for s in spans:
            duration = s[2] - s[1]
            totals[s[0]] += duration
            calls[s[0]] += 1
            if s[3] >= 0:
                child_time[s[3]] += duration
            if s[0] in IO_READS and (s[3] < 0 or spans[s[3]][0] not in IO_READS):
                outer_io_read += duration
        self_time: Counter = Counter()
        for i, s in enumerate(spans):
            self_time[s[0]] += s[2] - s[1] - child_time[i]
        self.image_samples.extend(
            (s[2] - s[1]) * 1000.0 for s in spans if s[0] == "fusion.fuse_image"
        )
        c = self.counts

        def share(part, whole):
            return c[part] / c[whole] if c[whole] else 0.0

        return {
            "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
            "io.read_s": outer_io_read,
            "io.lines_read": c["io.lines_read"],
            "io.write_s": sum(totals[k] for k in IO_WRITES),
            "io.bytes_written": c["io.bytes_written"],
            "geometry.iou_calls": c["geometry.iou_calls"],
            "geometry.nms_s": totals["geometry.nms"],
            "geometry.nms_suppressed": c["geometry.nms_suppressed"],
            "geometry.match_s": totals["geometry.match_detections"],
            "geometry.match_calls": calls["geometry.match_detections"],
            "fusion.vectors_s": totals["fusion.build_detection_vectors"],
            "fusion.vectors_built": c["fusion.vectors_built"],
            "fusion.slots_present_share": share("fusion.slots_present", "fusion.slots_possible"),
            "fusion.verdict_s": sum(self_time[k] for k in VERDICTS),
            "fusion.conflict_smoothings": self._smoothings() - self._smoothings_at_reset,
            "fusion.vacuous_verdicts": c["fusion.vacuous_verdicts"],
            "dst.combine_calls": calls["dst.combine_all"],
            "dst.combine_s": totals["dst.combine_all"],
            "dst.sources_per_combine": (
                c["dst.sources"] / calls["dst.combine_all"] if calls["dst.combine_all"] else 0.0
            ),
            "trust.score_to_bpa_calls": calls["trust.score_to_bpa"],
            "trust.score_to_bpa_s": totals["trust.score_to_bpa"],
            "trust.out_of_range_share": (
                c["trust.out_of_range"] / calls["trust.score_to_bpa"]
                if calls["trust.score_to_bpa"] else 0.0
            ),
            "trust.static_bpa_calls": calls["trust.static_bpa"],
            "trust.static_bpa_s": totals["trust.static_bpa"],
            "trust.table_rows": c["trust.table_rows"],
            "trust.build_pr_table_s": totals["trust.build_pr_table"],
            "baselines.fit_platt_s": totals["baselines.fit_platt"],
            "baselines.fit_ws_s": totals["baselines.fit_weighted_sum"],
            "baselines.ws_training_vectors": c["baselines.ws_training_vectors"],
            "baselines.score_s": sum(totals[k] for k in BASELINE_SCORES),
            "baselines.score_calls": sum(calls[k] for k in BASELINE_SCORES),
            "pipeline.label_s": totals["pipeline.label_detections"],
            "pipeline.fuse_corpus_s": totals["pipeline.fuse_corpus"],
            "pipeline.images": c["pipeline.images"],
            "pipeline.pool_bytes_shipped": c["pipeline.pool_bytes_shipped"],
            "evaluation.evaluate_s": totals["evaluation.evaluate_methods"],
            "evaluation.dets_scored": c["evaluation.dets_scored"],
        }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "1"
    return "B" if "bytes" in name else "count"


def summarize(passes: list[dict], generate_times: list[float],
              image_samples: list[float]) -> dict[str, tuple[float, str]]:
    """Median of each per-pass metric, plus set-up and per-image fuse times."""
    metrics = {"datagen.generate_s": (statistics.median(generate_times), "s")}
    for name in passes[0]:
        metrics[name] = (statistics.median(p[name] for p in passes), unit_of(name))
    samples = sorted(image_samples)
    metrics["fusion.image_samples"] = (len(samples), "count")
    metrics["fusion.image_p50_ms"] = (percentile(samples, 0.50), "ms")
    metrics["fusion.image_p99_ms"] = (percentile(samples, 0.99), "ms")
    return metrics


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]
