"""JSON-lines file formats for detections, annotations, and fused outputs,
and the one store for every kind of model file.

Detection line: {"image_id", "detector_id", "class", "bbox": [x_min, y_min,
x_max, y_max], "score"}. Annotation line: {"image_id", "class", "bbox",
"difficult"}. Output files start with a header line embedding the resolved
run configuration as a provenance block. Model files are one JSON object
each, told apart by ``kind``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .baselines import PlattModel, ScoreLikelihood, WeightVector
from .fusion import FusedDetection
from .geometry import BoundingBox, Detection, GroundTruthObject
from .trust import TrustModel


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


def _write_jsonl(path: str | Path, rows, config: dict | None) -> None:
    """One JSON object per line, after a provenance header when ``config`` is given."""
    lines = []
    if config is not None:
        lines.append(json.dumps({"_header": True, "config": config}, sort_keys=True))
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_detections(
    dets: list[Detection],
    path: str | Path,
    class_label: str = "object",
    config: dict | None = None,
) -> None:
    rows = (
        {
            "image_id": d.image_id,
            "detector_id": d.detector_id,
            "class": class_label,
            "bbox": _bbox_list(d.box),
            "score": d.score,
        }
        for d in dets
    )
    _write_jsonl(path, rows, config)


def write_annotations(gts: list[GroundTruthObject], path: str | Path, config: dict | None = None) -> None:
    rows = (
        {
            "image_id": g.image_id,
            "class": g.class_label,
            "bbox": _bbox_list(g.box),
            "difficult": g.difficult,
        }
        for g in gts
    )
    _write_jsonl(path, rows, config)


def _fused_row(f: FusedDetection) -> dict:
    row = {
        "image_id": f.image_id,
        "class": f.class_label,
        "bbox": _bbox_list(f.box),
        "score": f.score,
        "source_detector_id": f.source_detector_id,
    }
    if f.verdict is not None:
        row["joint"] = list(f.verdict.joint.as_tuple())
    return row


def write_fused(fused: list[FusedDetection], path: str | Path, config: dict | None = None) -> None:
    _write_jsonl(path, map(_fused_row, fused), config)


def read_fused(path: str | Path) -> list[FusedDetection]:
    from .dst import Bpa, FusedVerdict

    path = Path(path)
    fused = []
    for lineno, obj in _iter_jsonl(path):
        try:
            verdict = None
            if "joint" in obj:
                # As written: the constructor would rescale a joint whose
                # float sum is not exactly 1.0, and break score == verdict.score.
                verdict = FusedVerdict(Bpa.exact(*obj["joint"]))
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
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return fused


FORMAT_VERSION = 1  # of every model file
_MODEL_KINDS = {
    "trust_model": TrustModel,
    "platt_model": PlattModel,
    "weight_vector": WeightVector,
    "score_likelihood": ScoreLikelihood,
}
_KIND_OF = {cls: kind for kind, cls in _MODEL_KINDS.items()}


def model_path(models_dir: str | Path, prefix: str, class_label: str, detector_id: str = "") -> Path:
    """``<prefix>__<detector>__<class>.json``, or ``<prefix>__<class>.json``
    for a model over all detectors. Prefixes: ``trust``, ``platt``,
    ``bayes`` (per detector) and ``ws`` (weighted sum)."""
    parts = [prefix, detector_id, class_label] if detector_id else [prefix, class_label]
    return Path(models_dir) / ("__".join(parts) + ".json")


def save_model(model, path: str | Path, config: dict | None = None) -> None:
    """Write a trust, Platt, weighted-sum or likelihood model as JSON, with
    the run config as provenance when given."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": _KIND_OF[type(model)],
        **model.to_dict(),
    }
    if config is not None:
        payload["config"] = config
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_model(path: str | Path):
    """Read a model file of any kind; a malformed one raises ``DataError``."""
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        if data.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {data.get('format_version')!r}")
        if data.get("kind") not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {data.get('kind')!r}")
        return _MODEL_KINDS[data["kind"]].from_dict(data)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad model file: {type(exc).__name__}: {exc}") from exc
