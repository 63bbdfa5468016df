"""JSON-lines file formats for detections, annotations, and fused outputs.

Detection line: {"image_id", "detector_id", "class", "bbox": [x_min, y_min,
x_max, y_max], "score"}. Annotation line: {"image_id", "class", "bbox",
"difficult"}. Output files start with a header line embedding the resolved
run configuration as a provenance block.
"""

from __future__ import annotations

import json
from pathlib import Path

from .fusion import FusedDetection
from .geometry import BoundingBox, Detection, GroundTruthObject


class DataError(ValueError):
    """Malformed or unreadable input data file."""


def _parse_bbox(raw, path, lineno) -> BoundingBox:
    try:
        x_min, y_min, x_max, y_max = (float(v) for v in raw)
        return BoundingBox(x_min, y_min, x_max, y_max)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}:{lineno}: bad bbox {raw!r}: {exc}") from exc


def _iter_jsonl(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if "_header" in obj:
            continue
        yield lineno, obj


def read_detections_by_class(path: str | Path) -> dict[str, list[Detection]]:
    """Read one detector file, grouping by the per-line class label."""
    path = Path(path)
    by_class: dict[str, list[Detection]] = {}
    for lineno, obj in _iter_jsonl(path):
        try:
            det = Detection(
                image_id=str(obj["image_id"]),
                detector_id=str(obj["detector_id"]),
                box=_parse_bbox(obj["bbox"], path, lineno),
                score=float(obj["score"]),
            )
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing field {exc}") from exc
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        by_class.setdefault(str(obj.get("class", "object")), []).append(det)
    return by_class


def read_detections(path: str | Path) -> list[Detection]:
    return [d for dets in read_detections_by_class(path).values() for d in dets]


def read_annotations(path: str | Path) -> list[GroundTruthObject]:
    path = Path(path)
    gts = []
    for lineno, obj in _iter_jsonl(path):
        difficult = obj.get("difficult", False)
        if not isinstance(difficult, bool):
            raise DataError(
                f"{path}:{lineno}: difficult must be true or false, got {difficult!r}"
            )
        try:
            gts.append(
                GroundTruthObject(
                    image_id=str(obj["image_id"]),
                    class_label=str(obj["class"]),
                    box=_parse_bbox(obj["bbox"], path, lineno),
                    difficult=difficult,
                )
            )
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing field {exc}") from exc
    return gts


def read_any_detections(path: str | Path) -> list[Detection] | list[FusedDetection]:
    """Read a raw detector file or a fused output file, told apart by
    whether the first data line names a detector."""
    for _, obj in _iter_jsonl(Path(path)):
        return read_detections(path) if "detector_id" in obj else read_fused(path)
    return []


def _bbox_list(box: BoundingBox) -> list[float]:
    return [box.x_min, box.y_min, box.x_max, box.y_max]


def write_detections(
    dets: list[Detection],
    path: str | Path,
    class_label: str = "object",
    config: dict | None = None,
) -> None:
    lines = []
    if config is not None:
        lines.append(json.dumps({"_header": True, "config": config}, sort_keys=True))
    for d in dets:
        lines.append(
            json.dumps(
                {
                    "image_id": d.image_id,
                    "detector_id": d.detector_id,
                    "class": class_label,
                    "bbox": _bbox_list(d.box),
                    "score": d.score,
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_annotations(gts: list[GroundTruthObject], path: str | Path, config: dict | None = None) -> None:
    lines = []
    if config is not None:
        lines.append(json.dumps({"_header": True, "config": config}, sort_keys=True))
    for g in gts:
        lines.append(
            json.dumps(
                {
                    "image_id": g.image_id,
                    "class": g.class_label,
                    "bbox": _bbox_list(g.box),
                    "difficult": g.difficult,
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_fused(fused: list[FusedDetection], path: str | Path, config: dict | None = None) -> None:
    lines = []
    if config is not None:
        lines.append(json.dumps({"_header": True, "config": config}, sort_keys=True))
    for f in fused:
        obj = {
            "image_id": f.image_id,
            "class": f.class_label,
            "bbox": _bbox_list(f.box),
            "score": f.score,
            "source_detector_id": f.source_detector_id,
        }
        if f.verdict is not None:
            obj["joint"] = list(f.verdict.joint.as_tuple())
        lines.append(json.dumps(obj, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def read_fused(path: str | Path) -> list[FusedDetection]:
    from .dst import Bpa, FusedVerdict

    path = Path(path)
    fused = []
    for lineno, obj in _iter_jsonl(path):
        try:
            verdict = None
            if "joint" in obj:
                verdict = FusedVerdict(Bpa(*obj["joint"]))
            fused.append(
                FusedDetection(
                    box=_parse_bbox(obj["bbox"], path, lineno),
                    image_id=str(obj["image_id"]),
                    class_label=str(obj["class"]),
                    score=float(obj["score"]),
                    verdict=verdict,
                    source_detector_id=str(obj.get("source_detector_id", "")),
                )
            )
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing field {exc}") from exc
    return fused
