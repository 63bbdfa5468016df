"""JSON-lines file formats for detections, annotations, and fused outputs,
and the one store for every kind of model file.

Detection line: {"image_id", "detector_id", "class", "bbox": [x_min, y_min,
x_max, y_max], "score"}. Annotation line: {"image_id", "class", "bbox",
"difficult"}. Output files start with a header line embedding the resolved
run configuration as a provenance block. Every reader goes through one
parser, which reads a file into checked columns. Model files are one JSON
object each, told apart by ``kind``.
"""

from __future__ import annotations

import gc
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

from .baselines import PlattModel, ScoreLikelihood, WeightVector
from .dst import Bpa, sums_to_one
from .geometry import BoundingBox, Detection, Truth, truths
from .trust import TrustModel


class DataError(ValueError):
    """Malformed or unreadable input data file."""


@dataclass(frozen=True, eq=False)
class Ids:
    """An id column: each row's code, an index into ``names``, the distinct
    names in Python's string order, so codes sort as names do. Indexing
    picks rows and keeps every name."""

    codes: np.ndarray  # (N,) intp
    names: tuple[str, ...]
    __iter__ = None  # indexing picks rows, not names: ``decoded`` lists the names

    @classmethod
    def of(cls, values: list[str]) -> Ids:
        """Code a list of names by a dict: ``np.unique`` drops trailing NULs."""
        names = sorted(set(values))
        code = dict(zip(names, range(len(names))))
        return cls(np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values)), tuple(names))

    @classmethod
    def concat(cls, parts: list[Ids]) -> Ids:
        """The rows of every part, part after part, coded over the names they use."""
        names = sorted({p.names[k] for p in parts for k in p.used().tolist()})
        code = dict(zip(names, range(len(names))))
        # Each part's codes index its names' new codes; a name no row has is never picked.
        recoded = [np.array([code.get(n, -1) for n in p.names], dtype=np.intp)[p.codes] for p in parts]
        return cls(np.concatenate(recoded), tuple(names))

    def __getitem__(self, rows) -> Ids:
        return Ids(self.codes[rows], self.names)

    def decoded(self) -> list[str]:
        """Each row's name."""
        return np.array(self.names, dtype=object)[self.codes].tolist()

    def matches(self, name: str) -> np.ndarray:
        """Whether each row has ``name``."""
        return self.codes == (self.names.index(name) if name in self.names else len(self.names))

    def used(self) -> np.ndarray:
        """The codes some row has, ascending."""
        return np.flatnonzero(np.bincount(self.codes, minlength=len(self.names)))

    def groups(self) -> list[tuple[str, list[int]]]:
        """Each name some row has, first seen first, with its rows in row order."""
        order = np.argsort(self.codes, kind="stable")
        runs = _runs(self.codes[order])
        runs, rows = runs[np.argsort(order[runs[:, 0]])], order.tolist()
        return [(self.names[self.codes[rows[a]]], rows[a:b]) for a, b in runs.tolist()]


def _runs(codes: np.ndarray) -> np.ndarray:
    """Each run of equal codes as (first row, stop row), in row order: a
    (runs, 2) array."""
    cuts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [len(codes)])) if len(codes) else np.zeros(1, dtype=np.intp)
    return np.column_stack((bounds[:-1], bounds[1:]))


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """Detections as columns, one row per detection: what ``eval`` scores,
    and, in subject order (``pipeline.windows_of``), the windows fusion
    works on.

    Every row names its class, raw or fused. ``detectors`` names a raw row's
    detector or a fused row's source detector; ``joints`` holds fused rows'
    joint masses, NaN where a row has none.
    """

    images: Ids
    classes: Ids
    boxes: np.ndarray  # (N, 4): x_min, y_min, x_max, y_max
    scores: np.ndarray  # (N,)
    detectors: Ids
    joints: np.ndarray  # (N, 3): m_T, m_~T, m_I

    def __len__(self) -> int:
        return len(self.scores)

    def __eq__(self, other) -> bool:
        """Row for row and bit for bit, NaN joints included; ids by name, not code."""
        return isinstance(other, DetectionColumns) and all(
            a.decoded() == b.decoded() if isinstance(a, Ids) else a.tobytes() == b.tobytes()
            for a, b in zip(vars(self).values(), vars(other).values()))

    @classmethod
    def of(cls, dets: list[Detection], class_label: str = "object") -> DetectionColumns:
        """The columns of raw ``Detection``s, each of class ``class_label`` (a line's default)."""
        return cls(
            Ids.of([d.image_id for d in dets]), Ids.of([class_label] * len(dets)),
            np.array([d.box.as_tuple() for d in dets], dtype=float).reshape(-1, 4),
            np.array([d.score for d in dets], dtype=float), Ids.of([d.detector_id for d in dets]),
            np.full((len(dets), 3), np.nan),
        )

    # Only perfbench/spans.py iterates columns; it goes with ROADMAP items 1-2.
    def __iter__(self) -> Iterator[Detection]:
        """Each row as a raw ``Detection``, the inverse of ``of``: its class
        and a fused row's joints are dropped."""
        boxes = (BoundingBox(*box) for box in self.boxes.tolist())
        return map(Detection, self.images.decoded(), self.detectors.decoded(), boxes, self.scores.tolist())

    @classmethod
    def concat(cls, parts: list[DetectionColumns]) -> DetectionColumns:
        """The rows of every part, part after part, ids coded over the names used (``Ids.concat``)."""
        columns = zip(*(vars(p).values() for p in [cls.of([]), *parts]))
        return cls(*(np.concatenate(c) if isinstance(c[0], np.ndarray) else Ids.concat(c) for c in columns))

    def take(self, rows) -> DetectionColumns:
        """The given rows (indices, a mask or a slice); id columns keep every name."""
        return DetectionColumns(*(c[rows] for c in vars(self).values()))

    def split(self, ids: Ids) -> dict[str, DetectionColumns]:
        """Each name's rows, ``ids`` holding one code per row (``Ids.groups``)."""
        return {name: self.take(np.array(rows)) for name, rows in ids.groups()}

    def spans(self) -> np.ndarray:
        """Each image's run of rows as (first row, stop row): an (images, 2) array."""
        return _runs(self.images.codes)


# ---- the one parser of JSON-lines files -----------------------------------
#
# A file is read as columns, one per field. Ordinary input takes the array
# path: every line parsed, then each field's values checked as one column.
# Anything out of the ordinary sends the file through the line-by-line
# path, whose per-value checks are the reference: it names the first bad
# line, and its checked values make up the columns.

_REQUIRED = object()  # the default of a field every line must have
_ABSENT = object()  # the default of an optional field with no default value


class _Field(NamedTuple):
    name: str
    default: object
    value: Callable  # one raw value -> checked value; raises TypeError/ValueError
    column: Callable  # raw values -> column, or None unless every value is ordinary


def _ids(values: list) -> Ids | None:
    # Strings only: orjson reads an integer past 64 bits as a float, not as json's int.
    return Ids.of(values) if {str}.issuperset(map(type, values)) else None


def _id(raw) -> str:
    """An id as read: a JSON string, or a finite number as its text."""
    if type(raw) is str or type(raw) is int or type(raw) is float and math.isfinite(raw):
        return str(raw)
    raise ValueError(f"an id must be a JSON string or a finite number, got {json.dumps(raw):.40}")


def _numbers(values: list, width: int | None = None) -> np.ndarray | None:
    """The values as a float array of N rows (of ``width`` each), or None
    unless every one is a JSON number (or boolean, which ``float`` takes)."""
    shape = (len(values),) if width is None else (len(values), width)
    if not values:
        return np.empty(shape)
    try:
        array = np.array(values)
    except (ValueError, OverflowError):  # ragged rows
        return None
    if array.shape != shape or array.dtype.kind not in "biuf":
        return None
    return array.astype(float)


def _box(raw) -> tuple[float, float, float, float]:
    if not isinstance(raw, list):
        raise ValueError(f"bbox must be a JSON array of four numbers, got {raw!r}")
    try:
        x_min, y_min, x_max, y_max = (float(v) for v in raw)
        return BoundingBox(x_min, y_min, x_max, y_max).as_tuple()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad bbox {raw!r}: {exc}") from exc


def _box_column(values: list) -> np.ndarray | None:
    boxes = _numbers(values, 4)
    if boxes is None:
        return None
    x_min, y_min, x_max, y_max = boxes.T
    # BoundingBox's checks, elementwise; a huge box's area is inf, as in Python.
    with np.errstate(over="ignore"):
        ok = (
            np.isfinite(boxes).all()
            and (x_max > x_min).all()
            and (y_max > y_min).all()
            and ((x_max - x_min) * (y_max - y_min) > 0).all()
        )
    return boxes if ok else None


def _score(raw) -> float:
    score = float(raw)
    if not math.isfinite(score):
        raise ValueError(f"detection score must be finite, got {score}")
    return score


def _score_column(values: list) -> np.ndarray | None:
    scores = _numbers(values)
    return scores if scores is not None and np.isfinite(scores).all() else None


def _joint(raw) -> tuple[float, float, float]:
    # As written: the Bpa constructor would rescale a joint whose float sum
    # is not exactly 1.0, and break score == verdict.score.
    return Bpa.exact(*raw).as_tuple()


def _joint_column(values: list) -> np.ndarray | None:
    joints = np.full((len(values), 3), np.nan)
    rows = [i for i, v in enumerate(values) if v is not _ABSENT]
    given = _numbers([values[i] for i in rows], 3)
    if given is None:
        return None
    # Bpa.exact's checks, elementwise; both are false for NaN.
    if not ((given >= 0.0).all() and sums_to_one(*given.T).all()):
        return None
    joints[rows] = given
    return joints


def _flag(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"difficult must be true or false, got {raw!r}")
    return raw


def _flag_column(values: list) -> np.ndarray | None:
    return np.array(values, dtype=bool) if all(type(v) is bool for v in values) else None


# Each file kind's fields, in the order a line's checks run.
_DETECTION = (
    _Field("image_id", _REQUIRED, _id, _ids),
    _Field("detector_id", _REQUIRED, _id, _ids),
    _Field("bbox", _REQUIRED, _box, _box_column),
    _Field("score", _REQUIRED, _score, _score_column),
    _Field("class", "object", _id, _ids),
)
_FUSED = (
    _Field("joint", _ABSENT, _joint, _joint_column),
    _Field("bbox", _REQUIRED, _box, _box_column),
    _Field("image_id", _REQUIRED, _id, _ids),
    _Field("class", _REQUIRED, _id, _ids),
    _Field("score", _REQUIRED, _score, _score_column),
    _Field("source_detector_id", "", _id, _ids),
)
_ANNOTATION = (
    _Field("difficult", False, _flag, _flag_column),
    _Field("image_id", _REQUIRED, _id, _ids),
    _Field("class", _REQUIRED, _id, _ids),
    _Field("bbox", _REQUIRED, _box, _box_column),
)
_VALUE_ERRORS = (TypeError, ValueError, OverflowError, RecursionError)
# orjson nests without a depth limit and overflows the C stack about 10^5 deep; json,
# which reads longer lines, stops at its recursion limit (about 10^3). orjson reads no
# line of more characters, and no model file of more brackets, than this.
_LONGEST_LINE = 10_000


def _read_columns(path: str | Path, fields: tuple[_Field, ...]) -> dict:
    """Every data line of a JSON-lines file (header lines left out), as one
    checked column per field; a bad line raises a ``DataError`` naming it."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # The parsed rows hold no cycles: a collection while they pile up only
    # traverses them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        rows = _objects([line for line in map(str.strip, text.splitlines()) if line])
        columns = None if rows is None else _columns(rows, fields)
        if columns is None:
            columns = _columns(list(_checked_rows(path, text, fields)), fields)
    finally:
        if collecting:
            gc.enable()
    return columns


def _objects(lines: list[str]) -> list[dict] | None:
    """The lines' data objects, or None unless each is one JSON object of at most ``_LONGEST_LINE`` characters."""
    if max(map(len, lines), default=0) > _LONGEST_LINE:
        return None
    try:
        objects = list(map(orjson.loads, lines))  # a line orjson rejects raises JSONDecodeError, a ValueError
    except ValueError:
        return None
    if not {dict}.issuperset(map(type, objects)):
        return None
    return [obj for obj in objects if "_header" not in obj]


def _columns(rows: list[dict], fields: tuple[_Field, ...]) -> dict | None:
    """One column per field, or None when a value is missing or out of the ordinary."""
    columns = {}
    for field in fields:
        try:
            if field.default is _REQUIRED:
                values = list(map(itemgetter(field.name), rows))
            else:
                values = list(map(dict.get, rows, repeat(field.name), repeat(field.default)))
            columns[field.name] = field.column(values)
        except (KeyError, *_VALUE_ERRORS):
            return None
        if columns[field.name] is None:
            return None
    return columns


def _checked_rows(path: Path, text: str, fields: tuple[_Field, ...]):
    """Line by line: each data line's checked values, until the first bad line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: not a JSON object: {line:.60}")
        if "_header" in obj:
            continue
        row = {}
        for field in fields:
            raw = obj.get(field.name, field.default)
            if raw is _REQUIRED:
                raise DataError(f"{path}:{lineno}: missing field {field.name!r}")
            try:
                row[field.name] = raw if raw is _ABSENT else field.value(raw)
            except _VALUE_ERRORS as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
        yield row


def read_detections(path: str | Path) -> DetectionColumns:
    """Read one detector file as columns, in file order, each row of its line's class."""
    c = _read_columns(path, _DETECTION)
    return DetectionColumns(c["image_id"], c["class"], c["bbox"], c["score"], c["detector_id"],
                            np.full((len(c["score"]), 3), np.nan))


def read_detections_by_class(path: str | Path) -> dict[str, DetectionColumns]:
    """Read one detector file as each class's rows (``read_detections``),
    classes in order of first appearance, each class's rows in file order."""
    rows = read_detections(path)
    return rows.split(rows.classes)


def read_fused(path: str | Path) -> DetectionColumns:
    """Read a fused output file as columns, joint masses as written."""
    c = _read_columns(path, _FUSED)
    return DetectionColumns(
        c["image_id"], c["class"], c["bbox"], c["score"], c["source_detector_id"], c["joint"]
    )


def read_annotations(path: str | Path) -> dict[str, Truth]:
    """Read an annotations file as each class's ground truth (``geometry.truths``)."""
    c = _read_columns(path, _ANNOTATION)
    return truths(c["image_id"], c["class"], c["bbox"], c["difficult"])


def read_any_detections(path: str | Path) -> DetectionColumns:
    """Read a raw detector file or a fused output file, told apart by
    whether the first data line names a detector."""
    return read_detections(path) if _names_a_detector(path) else read_fused(path)


def _names_a_detector(path: str | Path) -> bool:
    """Whether the first data line has a ``detector_id``, read without
    reading the rest; False when it cannot tell (the full read says why)."""
    try:
        with open(path) as fh:
            for chunk in fh:
                for line in filter(None, map(str.strip, chunk.splitlines())):
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        return False
                    if "_header" not in obj:
                        return "detector_id" in obj
    except (OSError, ValueError, RecursionError):
        pass
    return False


# ---- the one writer of JSON-lines files -----------------------------------
#
# Each line fills one %-template with its row's values, each encoded as
# JSON; the template lays keys out as ``json.dumps(row, sort_keys=True)``.


def _json_numbers(values: list) -> list[str]:
    """``json.dumps`` of each number: orjson's text where it equals ``json``'s (an int, a boolean,
    or a float that ``float.__repr__`` writes with no exponent: 0, or 1e-4 <= |x| < 1e16)."""
    try:
        texts = orjson.dumps(values)[1:-1].decode().split(",") if values else []
        magnitudes = np.abs(np.array(values, dtype=float))
    except (TypeError, ValueError, OverflowError):  # an int past 64 bits; orjson.JSONEncodeError is a TypeError
        return list(map(json.dumps, values))
    for k in np.flatnonzero(~((magnitudes == 0) | ((magnitudes >= 1e-4) & (magnitudes < 1e16)))).tolist():
        texts[k] = json.dumps(values[k])
    return texts


def _distinct_json_numbers(values: np.ndarray) -> list[str]:
    """``_json_numbers`` of a float array's values, each distinct value
    encoded once, told apart bit for bit (-0.0 is not 0.0)."""
    values = np.ascontiguousarray(values, dtype=float).ravel()
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    return np.array(_json_numbers(values[first].tolist()), dtype=object)[inverse].tolist()


def _json_ids(ids: Ids) -> list[str]:
    """``json.dumps`` of each row's name, each used name once."""
    encoded = np.empty(len(ids.names), dtype=object)
    for k in ids.used().tolist():
        encoded[k] = json.dumps(ids.names[k])
    return encoded[ids.codes].tolist()


def _lines(template: str, columns: list) -> list[str]:
    """One line per row, ending in a newline: ``template`` filled with the
    row's encoded value from each column."""
    return list(map(f"{template}\n".__mod__, zip(*columns)))


def _write_jsonl(path: str | Path, lines: list[str], config: dict | None) -> None:
    """The lines (``_lines``), after a provenance header when ``config`` is
    given. A file of no line holds one newline."""
    header = [] if config is None else [json.dumps({"_header": True, "config": config}, sort_keys=True) + "\n"]
    Path(path).write_text("".join(header + lines) or "\n")


def write_detections(dets: DetectionColumns, path: str | Path, class_label: str | None = None,
                     config: dict | None = None) -> None:
    """Raw rows, each of its own class; ``class_label``, when given, must be every row's."""
    if class_label is not None and not dets.classes.matches(class_label).all():
        raise ValueError(f"not every row to write is of class {class_label!r}")
    numbers = _json_numbers(np.column_stack((dets.boxes, dets.scores)).ravel().tolist())
    ids = [_json_ids(dets.classes), _json_ids(dets.detectors), _json_ids(dets.images)]
    columns = [*(numbers[k::5] for k in range(4)), *ids, numbers[4::5]]
    _write_jsonl(path, _lines(
        '{"bbox": [%s, %s, %s, %s], "class": %s, "detector_id": %s, "image_id": %s, "score": %s}', columns
    ), config)


def write_annotations(gts: dict[str, Truth], path: str | Path, config: dict | None = None) -> None:
    """Class by class, each image's objects together, in row order."""
    numbers = _json_numbers([v for truth in gts.values() for v in truth.boxes.ravel().tolist()])
    labels = [text for label, truth in gts.items() for text in [json.dumps(label)] * len(truth)]
    image_ids = [text for truth in gts.values() for i, (a, b) in truth.spans.items()
                 for text in [json.dumps(i)] * (b - a)]
    difficult = [("false", "true")[f] for truth in gts.values() for f in truth.difficult.tolist()]
    columns = [*(numbers[k::4] for k in range(4)), labels, difficult, image_ids]
    _write_jsonl(path, _lines(
        '{"bbox": [%s, %s, %s, %s], "class": %s, "difficult": %s, "image_id": %s}', columns
    ), config)


def fused_lines(fused: DetectionColumns) -> list[str]:
    """The lines of fused rows, each ending in a newline; a row's joint
    masses are written unless all are NaN."""
    coordinates = _json_numbers(fused.boxes.ravel().tolist())
    # Fused scores and masses repeat: each distinct value is encoded once.
    scores = _distinct_json_numbers(fused.scores)
    has_joint = ~np.isnan(fused.joints).all(axis=1)
    masses = _distinct_json_numbers(fused.joints[has_joint])
    given = map('"joint": [%s, %s, %s], '.__mod__, zip(masses[0::3], masses[1::3], masses[2::3]))
    joints = [next(given) if h else "" for h in has_joint.tolist()]
    labels, image_ids, sources = map(_json_ids, (fused.classes, fused.images, fused.detectors))
    return _lines(
        '{"bbox": [%s, %s, %s, %s], "class": %s, "image_id": %s, %s"score": %s, "source_detector_id": %s}',
        [*(coordinates[k::4] for k in range(4)), labels, image_ids, joints, scores, sources],
    )


def write_fused(parts: list[DetectionColumns], path: str | Path, config: dict | None = None) -> None:
    """Fused rows, one part after another, each part laid out on its own (``fused_lines``)."""
    _write_jsonl(path, [line for part in parts for line in fused_lines(part)], config)


# ---- the one indent-2 writer of JSON files --------------------------------
#
# ``json.dumps(value, indent=2)``, byte for byte, for model files and
# ``report.json``. ``indent`` makes ``json`` fall back to its pure-Python
# encoder, so the bulky parts (PR curves, trust tables) are arrays, each laid
# out with one row template.


class ArrayRows(NamedTuple):
    """A float array that ``indent2_parts`` lays out as a list of its rows
    (``laid_out_rows``) when it reaches it, at the depth it is reached."""

    rows: np.ndarray
    keys: tuple[str, ...] | None = None


def indent2(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)``, for a value nested ``depth`` levels
    deep: the text of ``indent2_parts``."""
    return "".join(indent2_parts(value, depth))


def indent2_parts(value, depth: int = 0) -> Iterator[str]:
    """``indent2``'s text in parts, for a writer to write one by one. Dicts
    with string keys are laid out here, and each ``ArrayRows`` is one part,
    laid out only when it is reached. Anything else goes to ``json.dumps``."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if isinstance(value, ArrayRows):
        yield laid_out_rows(value.rows, depth, value.keys)
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        opening = "{" + inner
        for k, v in value.items():
            yield f"{opening}{json.dumps(k)}: "
            yield from indent2_parts(v, depth + 1)
            opening = "," + inner
        yield pad + "}"
    else:
        yield json.dumps(value, indent=2).replace("\n", pad)


def laid_out_rows(rows: np.ndarray, depth: int, keys: tuple[str, ...] | None = None) -> str:
    """``indent2`` of a float array's rows as a list at ``depth``: each row a
    list of its numbers, or a dict of them under ``keys``. One row template
    lays out every row, filled with the numbers as ``json`` writes them."""
    if not len(rows):
        return "[]"
    width = rows.shape[1]
    numbers = [""] * rows.size
    for k in range(width):
        numbers[k::width] = _distinct_json_numbers(rows[:, k])
    pad = "\n" + "  " * (depth + 1)
    inner = pad + "  "
    slots = ["%s"] * width if keys is None else [json.dumps(key) + ": %s" for key in keys]
    body = inner + ("," + inner).join(slots) + pad
    row = "[" + body + "]" if keys is None else "{" + body + "}"
    return "[" + pad + ("," + pad).join([row] * len(rows)) % tuple(numbers) + pad[:-2] + "]"


FORMAT_VERSION = 1  # of every model file
# Each kind's class and the fields its file holds, in file order.
_MODEL_KINDS = {
    "trust_model": (
        TrustModel, ("detector_id", "class_label", "bpd_exponent", "num_validation_positives", "table")
    ),
    "platt_model": (PlattModel, ("detector_id", "a", "b", "converged")),
    "weight_vector": (WeightVector, ("detector_ids", "weights", "bias")),
    "score_likelihood": (ScoreLikelihood, ("detector_id", "target_bins", "nontarget_bins")),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _MODEL_KINDS.items()}
# The fields that hold numbers, each checked as it is read (``table`` apart).
_NUMBER_FIELDS = {"bpd_exponent", "num_validation_positives", "a", "b", "weights", "bias",
                  "target_bins", "nontarget_bins"}
# A trust table's columns, each row a dict of them in its model file.
_TABLE_KEYS = ("score", "recall", "precision_raw", "precision_monotone")


def _encoded(model, field: str):
    """A model's field as its file holds it: tuples as lists, an infinite
    exponent as ``"inf"`` and a trust table as one dict per row."""
    value = getattr(model, field)
    if field == "bpd_exponent" and value == math.inf:
        return "inf"
    if field == "table":
        return ArrayRows(value, _TABLE_KEYS)
    return list(value) if isinstance(value, tuple) else value


def _decoded(field: str, value):
    """A field's value from a model file, the inverse of ``_encoded``; a
    number field that holds anything else raises a ValueError naming it."""
    if field == "bpd_exponent" and value == "inf":
        return math.inf
    if field == "table":
        table = _numbers(list(map(itemgetter(*_TABLE_KEYS), value)), 4)
        if table is None:
            raise ValueError("field 'table' must hold rows of numbers")
        return table
    if field in _NUMBER_FIELDS and _numbers(value if isinstance(value, list) else [value]) is None:
        raise ValueError(f"field {field!r} must hold numbers, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def model_path(models_dir: str | Path, prefix: str, class_label: str, detector_id: str = "") -> Path:
    """``<prefix>__<detector>__<class>.json``, or ``<prefix>__<class>.json``
    for a model over all detectors. Prefixes: ``trust``, ``platt``,
    ``bayes`` (per detector) and ``ws`` (weighted sum)."""
    parts = [prefix, detector_id, class_label] if detector_id else [prefix, class_label]
    return Path(models_dir) / ("__".join(parts) + ".json")


def save_model(model, path: str | Path, config: dict | None = None) -> None:
    """Write a trust, Platt, weighted-sum or likelihood model as JSON, with
    the run config as provenance when given."""
    kind = _KIND_OF[type(model)]
    payload = {"format_version": FORMAT_VERSION, "kind": kind}
    payload.update((field, _encoded(model, field)) for field in _MODEL_KINDS[kind][1])
    if config is not None:
        payload["config"] = config
    Path(path).write_text(indent2(payload) + "\n")


def _model_fields(data, expected: type | None) -> tuple[type, dict]:
    """The class of a decoded model file and the values of its fields."""
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {data.get('format_version')!r}")
    if data.get("kind") not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {data.get('kind')!r}")
    cls, fields = _MODEL_KINDS[data["kind"]]
    if expected not in (None, cls):
        raise ValueError(f"a {data['kind']} where a {_KIND_OF[expected]} belongs")
    return cls, {field: _decoded(field, data[field]) for field in fields}


def _past_64_bits(values: dict) -> bool:
    """Whether a number field holds a finite float of magnitude 2**63 or more:
    orjson reads an integer past 64 bits as one, where json reads an int,
    which ``_numbers`` refuses."""
    numbers = np.concatenate([np.ravel(np.asarray(v, dtype=float)) for f, v in values.items()
                              if f in _NUMBER_FIELDS or f == "table"])
    return bool((np.abs(numbers[np.isfinite(numbers)]) >= 2.0 ** 63).any())


def load_model(path: str | Path, expected: type | None = None):
    """Read a model file of any kind, or only of the ``expected`` class's
    kind; a malformed file, or one of another kind, raises ``DataError``.
    The model's own checks run on the values read.

    orjson decodes the file, and json decodes it again wherever their values
    might differ or a check fails: orjson refuses NaN, Infinity and an
    escaped lone surrogate, nests without a depth limit, and reads an
    integer past 64 bits as a float."""
    try:
        text = Path(path).read_text()
        try:
            if text.count("[") + text.count("{") > _LONGEST_LINE:
                raise ValueError("more brackets than orjson may nest")
            cls, values = _model_fields(orjson.loads(text), expected)
            if _past_64_bits(values):
                raise ValueError("a number past 64 bits")
        except (KeyError, TypeError, ValueError, OverflowError):
            cls, values = _model_fields(json.loads(text), expected)
        return cls(**values)
    except (OSError, KeyError, RecursionError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: bad model file: {type(exc).__name__}: {exc}") from exc
