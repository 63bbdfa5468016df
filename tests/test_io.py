import dataclasses
import gc
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from beliefuse import io
from beliefuse.baselines import PlattModel
from beliefuse.dst import Bpa, fused_scores
from beliefuse.geometry import BoundingBox, Detection, truths
from beliefuse.io import (
    DataError,
    DetectionColumns,
    Ids,
    read_annotations,
    read_any_detections,
    read_detections,
    read_detections_by_class,
    read_fused,
    write_annotations,
    write_detections,
    write_fused,
)
from beliefuse.trust import TrustModel


def rows(columns):
    """Every row of ``DetectionColumns`` as a tuple; repr tells NaN joints
    apart from values, and every float bit."""
    return repr(list(zip(columns.images.decoded(), columns.classes.decoded(), columns.boxes.tolist(),
                         columns.scores.tolist(), columns.detectors.decoded(), columns.joints.tolist())))


def fused_columns(*rows):
    """``DetectionColumns`` of fused rows: (box, image id, score, source
    detector, joint masses or None), class "object"."""
    boxes, image_ids, scores, sources, joints = zip(*rows)
    return DetectionColumns(
        Ids.of(list(image_ids)), Ids.of(["object"] * len(rows)), np.array(boxes, dtype=float),
        np.array(scores), Ids.of(list(sources)),
        np.array([(np.nan,) * 3 if j is None else j for j in joints], dtype=float),
    )


def sample_detections():
    return DetectionColumns.of([
        Detection("img1", "d1", BoundingBox(0, 0, 10, 10), 0.9),
        Detection("img2", "d1", BoundingBox(5, 5, 25, 25), 0.4),
    ])


def sample_annotations():
    return truths(Ids.of(["img1", "img2"]), Ids.of(["object"] * 2), [(0, 0, 10, 10), (5, 5, 25, 25)], [False, True])


def truth_rows(gts):
    """Every object of each class's ``Truth`` as (class, image, box, difficult),
    with each class's span and positive count; repr tells every float bit."""
    return repr([(c, t.spans, t.num_positives, t.boxes.tolist(), t.difficult.tolist()) for c, t in gts.items()])


class TestDetectionsRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        dets = sample_detections()
        write_detections(dets, path)
        assert rows(read_detections(path)) == rows(dets)

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        write_detections(sample_detections(), path, config={"seed": 7})
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"_header": True, "config": {"seed": 7}}
        assert rows(read_detections(path)) == rows(sample_detections())

    def test_grouped_by_class(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        lines = [
            json.dumps({"image_id": "i", "detector_id": "d1", "class": cls,
                        "bbox": [0, 0, 10, 10], "score": 0.5})
            for cls in ("cat", "dog", "cat")
        ]
        path.write_text("\n".join(lines) + "\n")
        by_class = read_detections_by_class(path)
        assert len(by_class["cat"]) == 2
        assert len(by_class["dog"]) == 1

    def test_default_class(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        write_detections(sample_detections(), path)
        assert set(read_detections_by_class(path)) == {"object"}

    def test_each_row_keeps_its_class(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        dets = dataclasses.replace(sample_detections(), classes=Ids.of(["cat", "dog"]))
        write_detections(dets, path)
        assert rows(read_detections(path)) == rows(dets)
        assert list(read_detections_by_class(path)) == ["cat", "dog"]

    def test_class_label_must_name_every_row(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        dets = dataclasses.replace(sample_detections(), classes=Ids.of(["cat", "dog"]))
        with pytest.raises(ValueError, match="of class 'cat'"):
            write_detections(dets, path, class_label="cat")
        assert not path.exists()
        # A class_label every row has writes what no class_label writes: it never relabels.
        cats = dataclasses.replace(sample_detections(), classes=Ids.of(["cat", "cat"]))
        write_detections(cats, path)
        text = path.read_text()
        write_detections(cats, path, class_label="cat")
        assert path.read_text() == text
        assert set(read_detections_by_class(path)) == {"cat"}

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        write_detections(sample_detections(), path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_detections(path)) == 2


class TestDataErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_detections(tmp_path / "nope.jsonl")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"image_id": "\xff"}\n')
        with pytest.raises(DataError, match="cannot read"):
            read_detections(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"image_id": "i", "detector_id": "d", "bbox": [0, 0, 5, 5], "score": 1}'
        path.write_text(good + "\nnot json\n")
        with pytest.raises(DataError, match=r"bad\.jsonl:2"):
            read_detections(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "i", "detector_id": "d"}\n')
        with pytest.raises(DataError, match="missing field"):
            read_detections(path)

    def test_bad_bbox(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"image_id": "i", "detector_id": "d", "bbox": [0, 0, 10], "score": 1}\n'
        )
        with pytest.raises(DataError, match="bbox"):
            read_detections(path)

    @pytest.mark.parametrize("bbox", ['"0519"', '{"0": 0, "5": 0, "1": 0, "9": 0}'])
    def test_bbox_that_is_not_an_array(self, tmp_path, bbox):
        # Iterated, either would read as the box [0, 5, 1, 9].
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "i", "detector_id": "d", "class": "object", '
                        f'"bbox": {bbox}, "score": 1}}\n')
        for reader in (read_detections, read_detections_by_class, read_fused, read_annotations):
            with pytest.raises(DataError, match=r"bad\.jsonl:1: bbox must be a JSON array"):
                reader(path)

    def test_degenerate_box(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"image_id": "i", "detector_id": "d", "bbox": [10, 0, 0, 10], "score": 1}\n'
        )
        with pytest.raises(DataError):
            read_detections(path)


    @pytest.mark.parametrize("line", ["5", '"x"', '["_header"]', "null"])
    def test_line_that_is_not_an_object(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        for reader in (read_detections, read_detections_by_class, read_fused,
                       read_annotations, read_any_detections):
            with pytest.raises(DataError, match=r"bad\.jsonl:1: not a JSON object"):
                reader(path)

    @pytest.mark.parametrize("tail", [" x", " {}", ", 1"])
    def test_text_after_the_object_on_a_line(self, tmp_path, tail):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "i", "detector_id": "d", "class": "object", '
                        '"bbox": [0, 0, 5, 5], "score": 1}' + tail + "\n")
        for reader in (read_detections, read_detections_by_class, read_fused, read_annotations):
            with pytest.raises(DataError, match=r"bad\.jsonl:1: invalid JSON: Extra data"):
                reader(path)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_reading_leaves_garbage_collection_as_it_found_it(self, tmp_path, enabled):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_detections(sample_detections(), good)
        bad.write_text(good.read_text() + "not json\n")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            read_detections(good)
            assert gc.isenabled() is enabled
            with pytest.raises(DataError):
                read_detections(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("score", ["[1]", "null", '{"a": 1}', "1e999", '"nan"'])
    def test_score_of_the_wrong_type(self, tmp_path, score):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "i", "detector_id": "d", "class": "object", '
                        f'"bbox": [0, 0, 5, 5], "score": {score}}}\n')
        for reader in (read_detections, read_detections_by_class, read_fused):
            with pytest.raises(DataError, match=r"bad\.jsonl:1: "):
                reader(path)

    @pytest.mark.parametrize("value", ["null", "true", "false", "NaN", "-Infinity", "1e999", "[1]", '{"a": 1}'])
    @pytest.mark.parametrize("field", ["image_id", "detector_id", "class", "source_detector_id"])
    def test_an_id_that_is_not_a_string_or_a_finite_number(self, tmp_path, field, value):
        # Each is a data error naming its line, not an id spelled "None", "True" or "nan".
        good = {"image_id": "i", "detector_id": "d", "class": "object", "source_detector_id": "d",
                "bbox": [0, 0, 5, 5], "score": 1}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: "@"}).replace('"@"', value) + "\n")
        readers = {read_detections: ("image_id", "detector_id", "class"),
                   read_detections_by_class: ("image_id", "detector_id", "class"),
                   read_fused: ("image_id", "class", "source_detector_id"), read_annotations: ("image_id", "class")}
        for reader, fields in readers.items():
            if field in fields:
                with pytest.raises(DataError, match=r"bad\.jsonl:2: an id must be a JSON string or a finite number"):
                    reader(path)
            else:
                reader(path)

    def test_number_ids_read_as_their_text(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        path.write_text('{"image_id": 7, "detector_id": 2.5, "class": -0.0, "bbox": [0, 0, 1, 1], "score": 1}\n'
                        '{"image_id": 100000000000000000000, "detector_id": 1e2, "bbox": [0, 0, 1, 1], "score": 1}\n')
        rows = read_detections(path)
        assert rows.images.decoded() == ["7", "100000000000000000000"]
        assert rows.detectors.decoded() == ["2.5", "100.0"]
        assert rows.classes.decoded() == ["-0.0", "object"]

    def test_a_deeply_nested_line_is_a_data_error_not_a_crash(self, tmp_path):
        # Nested 200,000 deep: json stops at its recursion limit, where orjson
        # would overflow the C stack. Read in a child process, so that a crash
        # fails this test alone.
        path = tmp_path / "deep.jsonl"
        path.write_text('{"image_id": "i", "detector_id": "d", "bbox": ' + "[" * 200_000 + "]" * 200_000
                        + ', "score": 1}\n')
        read = ("import sys\nfrom beliefuse import io\n"
                "try: io.read_detections(sys.argv[1])\nexcept io.DataError as e: print(e)")
        result = subprocess.run([sys.executable, "-c", read, str(path)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "deep.jsonl:1: invalid JSON: maximum recursion depth exceeded" in result.stdout

    def test_first_bad_line_is_named(self, tmp_path):
        # Line 2 lacks a field and line 3 is not JSON: line 2 is reported.
        good = '{"image_id": "i", "detector_id": "d", "bbox": [0, 0, 5, 5], "score": 1}'
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{good}\n{{"image_id": "i"}}\nnot json\n')
        with pytest.raises(DataError, match=r"bad\.jsonl:2: missing field 'detector_id'"):
            read_detections(path)

    def test_lines_split_across_json_values_are_rejected(self, tmp_path):
        # Joined into one array these lines would parse as three objects.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": [{}\n{}]}, {"b": [{}\n{}]}\n')
        with pytest.raises(DataError, match=r"bad\.jsonl:1: invalid JSON"):
            read_fused(path)

    def test_string_numbers_are_read_as_before(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        path.write_text('{"image_id": 7, "detector_id": "d", "bbox": ["0", 0, 10, true], '
                        '"score": "0.5"}\n')
        expected = [Detection("7", "d", BoundingBox(0, 0, 10, 1), 0.5)]
        assert rows(read_detections(path)) == rows(DetectionColumns.of(expected))


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        gts = sample_annotations()
        write_annotations(gts, path)
        assert truth_rows(read_annotations(path)) == truth_rows(gts)

    def test_written_class_by_class_each_image_together(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text("".join(
            f'{{"image_id": "{i}", "class": "{c}", "bbox": [0, 0, {w}, 5]}}\n'
            for i, c, w in [("b", "dog", 1), ("a", "cat", 2), ("b", "cat", 3), ("a", "cat", 4)]))
        gts = read_annotations(path)
        assert list(gts) == ["cat", "dog"]
        assert gts["cat"].spans == {"a": (0, 2), "b": (2, 3)}
        assert gts["cat"].boxes[:, 2].tolist() == [2, 4, 3]
        out = tmp_path / "out.jsonl"
        write_annotations(gts, out)
        assert [(o["class"], o["image_id"], o["bbox"][2]) for o in map(json.loads, out.read_text().splitlines())] == [
            ("cat", "a", 2), ("cat", "a", 4), ("cat", "b", 3), ("dog", "b", 1)]
        assert truth_rows(read_annotations(out)) == truth_rows(gts)

    def test_difficult_defaults_false(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"image_id": "i", "class": "object", "bbox": [0, 0, 5, 5]}\n')
        assert read_annotations(path)["object"].difficult.tolist() == [False]

    @pytest.mark.parametrize("raw", ['"false"', '"true"', "0", "1", "null"])
    def test_difficult_must_be_a_json_boolean(self, tmp_path, raw):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"image_id": "i", "class": "object", "bbox": [0, 0, 5, 5], "difficult": false}\n'
            f'{{"image_id": "i", "class": "object", "bbox": [0, 0, 5, 5], "difficult": {raw}}}\n'
        )
        with pytest.raises(DataError, match=r"ann\.jsonl:2: difficult"):
            read_annotations(path)


class TestReadAnyDetections:
    def test_raw_and_fused_files(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        write_detections(sample_detections(), raw, config={"seed": 1})
        assert rows(read_any_detections(raw)) == rows(sample_detections())
        fused_path = tmp_path / "fused.jsonl"
        fused = fused_columns(((0, 0, 10, 10), "img1", 2.5, "d1", None))
        write_fused([fused], fused_path, config={"method": "ws"})
        assert rows(read_any_detections(fused_path)) == rows(fused)

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_detections(DetectionColumns.of([]), path, config={"seed": 1})
        for reader in (read_any_detections, read_detections, read_fused, read_annotations):
            assert len(reader(path)) == 0
        assert read_detections_by_class(path) == {}

    def test_unreadable_file_raises_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_any_detections(tmp_path / "absent.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(DataError, match="bad.jsonl:1"):
            read_any_detections(bad)


class TestFused:
    def test_round_trip_with_and_without_verdict(self, tmp_path):
        path = tmp_path / "fused.jsonl"
        joint = Bpa(0.6, 0.1, 0.3)
        fused = fused_columns(
            ((0, 0, 10, 10), "img1", joint.m_target - joint.m_nontarget, "d1", joint.as_tuple()),
            ((5, 5, 25, 25), "img2", 2.5, "d2", None),
        )
        write_fused([fused], path, config={"method": "dbf"})
        loaded = read_fused(path)
        assert rows(loaded) == rows(fused)
        assert loaded.joints[0].tolist() == list(joint.as_tuple())
        assert np.isnan(loaded.joints[1]).all()  # no joint

    def test_joint_is_read_back_bit_for_bit(self, tmp_path):
        # A normalized joint whose float sum is not exactly 1.0: building a
        # Bpa from it again would rescale it and change its score.
        joint = Bpa(0.2922489550617629, 0.4549249442515907, 0.2528261006866465)
        assert Bpa(*joint.as_tuple()).as_tuple() != joint.as_tuple()
        path = tmp_path / "fused.jsonl"
        write_fused([fused_columns(
            ((0, 0, 10, 10), "img1", fused_scores(np.array([joint.as_tuple()]))[0], "d1",
             joint.as_tuple()))], path)
        loaded = read_fused(path)
        assert loaded.joints[0].tolist() == list(joint.as_tuple())
        assert loaded.scores.tolist() == fused_scores(loaded.joints).tolist()

    @pytest.mark.parametrize("joint", ["[0.5, 0.5]", "[1.5, -0.5, 0.0]", "[0.2, 0.2, 0.2]",
                                       '["a", 0.5, 0.5]'])
    def test_bad_joint_raises_data_error(self, tmp_path, joint):
        path = tmp_path / "fused.jsonl"
        path.write_text('{"image_id": "i", "class": "object", "bbox": [0, 0, 1, 1], '
                        f'"score": 0.0, "joint": {joint}}}\n')
        with pytest.raises(DataError, match=":1:"):
            read_fused(path)


def model_files(tmp_path):
    """A trust and a Platt model file, as ``save_model`` writes them."""
    trust = TrustModel("d1", "object", [[4.0, 0.2, 0.9, 0.9], [1.0, 1.0, 0.3, 0.3]], 2.0, 10)
    paths = {"trust": tmp_path / "trust.json", "platt": tmp_path / "platt.json"}
    io.save_model(trust, paths["trust"], {"seed": 1})
    io.save_model(PlattModel("d1", -1.5, 0.25), paths["platt"], {"seed": 1})
    return paths


def loaded(path):
    """What ``load_model`` makes of a file: the model's file as ``save_model``
    writes it again, or the message of its ``DataError``."""
    try:
        model = io.load_model(path)
    except DataError as exc:
        return f"DataError: {exc}"
    again = path.with_suffix(".again")
    io.save_model(model, again)
    return again.read_text()


class TestModelFiles:
    def test_ordinary_files_are_decoded_by_orjson_alone(self, tmp_path):
        paths = model_files(tmp_path)
        expected = {kind: loaded(path) for kind, path in paths.items()}
        with mock.patch.object(io.json, "loads", side_effect=AssertionError("json decoded a model file")):
            assert {kind: loaded(path) for kind, path in paths.items()} == expected

    @pytest.mark.parametrize("kind, edit, fails", [
        ("trust", lambda m: m.update(num_validation_positives=10**20), True),
        ("trust", lambda m: m.update(num_validation_positives=2**64 - 1), False),
        ("trust", lambda m: m.update(format_version=10**20), True),
        ("trust", lambda m: m["table"][0].update(score=10**20), True),
        ("platt", lambda m: m.update(a=-2**63 - 1), True),
        ("platt", lambda m: m.update(a=1e20), False),
        ("platt", lambda m: m.update(detector_id="\ud800"), False),
        ("platt", lambda m: m.update(a=float("nan")), True),
        ("platt", lambda m: m.update(b=float("inf")), True),
    ], ids=["positives_1e20", "positives_2_64", "format_version_1e20", "table_int_1e20", "a_past_int64",
            "a_float_1e20", "lone_surrogate_id", "a_nan", "b_infinity"])
    def test_a_file_loads_as_json_alone_loads_it(self, tmp_path, kind, edit, fails):
        # Integers past 64 bits (orjson reads them as floats), an escaped lone
        # surrogate, NaN and Infinity (orjson refuses them) give what json gives.
        path = model_files(tmp_path)[kind]
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload, indent=2))
        with mock.patch.object(io.orjson, "loads", side_effect=ValueError("json alone")):
            expected = loaded(path)
        assert expected.startswith("DataError") == fails
        assert loaded(path) == expected

    def test_a_deeply_nested_file_is_a_data_error(self, tmp_path):
        # orjson overflows the C stack about 10^5 deep; json stops at its recursion limit.
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**6 + "]" * 10**6)
        load = ("import sys\nfrom beliefuse import io\n"
                "try: io.load_model(sys.argv[1])\nexcept io.DataError as e: print(e)")
        result = subprocess.run([sys.executable, "-c", load, str(path)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "bad model file: RecursionError" in result.stdout
