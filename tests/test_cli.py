import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import beliefuse
from beliefuse import fusion, io, pipeline
from beliefuse.cli import main
from beliefuse.geometry import BoundingBox, Detection
from beliefuse.pipeline import METHODS


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated benchmark with trust and baseline models already built."""
    root = tmp_path_factory.mktemp("ws")
    runner = CliRunner()
    args = ["generate", "--out-dir", str(root / "data"),
            "--seed", "42", "--num-images", "60", "--num-detectors", "3"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    for cmd in ("build-trust", "build-baselines"):
        result = runner.invoke(main, [
            cmd,
            "--detections-dir", str(root / "data" / "validation"),
            "--annotations", str(root / "data" / "validation" / "annotations.jsonl"),
            "--models-dir", str(root / "models"),
        ])
        assert result.exit_code == 0, result.output
    return root


def run(args):
    return CliRunner().invoke(main, args)


def exited_cleanly(result, code):
    """The command ended with ``code`` through sys.exit, not a traceback."""
    return result.exit_code == code and (
        result.exception is None or isinstance(result.exception, SystemExit)
    )


NOWHERE_GT = '{"image_id": "nowhere", "class": "object", "bbox": [0, 0, 1, 1]}\n'


def path_args(workspace, out):
    """Each command with every path flag it needs, outputs under ``out``."""
    data = workspace / "data"
    train = {"--detections-dir": data / "validation",
             "--annotations": data / "validation" / "annotations.jsonl",
             "--models-dir": out / "m"}
    return {
        "build-trust": ([], train),
        "build-baselines": ([], train),
        "fuse": ([], {"--detections-dir": data / "test",
                      "--models-dir": workspace / "models",
                      "--out": out / "f.jsonl"}),
        "eval": (["-i", "det_a=" + str(data / "test" / "det_a.jsonl")],
                 {"--annotations": data / "test" / "annotations.jsonl", "--out": out / "r"}),
        "sweep-n": (["--n-values", "2"],
                    {"--detections-dir": data / "validation",
                     "--annotations": data / "validation" / "annotations.jsonl",
                     "--out": out / "s.csv"}),
    }


REQUIRED_PATHS = [
    ("build-trust", "--detections-dir"), ("build-trust", "--annotations"),
    ("build-trust", "--models-dir"), ("build-baselines", "--detections-dir"),
    ("build-baselines", "--annotations"), ("build-baselines", "--models-dir"),
    ("fuse", "--detections-dir"), ("fuse", "--models-dir"), ("fuse", "--out"),
    ("eval", "--annotations"), ("eval", "--out"),
    ("sweep-n", "--detections-dir"), ("sweep-n", "--annotations"), ("sweep-n", "--out"),
]


@pytest.mark.parametrize("command,flag", REQUIRED_PATHS)
def test_missing_path_flag_exits_2_naming_it(workspace, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    extra, paths = path_args(workspace, tmp_path)[command]
    args = [command, *extra]
    for name, path in paths.items():
        if name != flag:
            args += [name, str(path)]
    result = run(args)
    assert exited_cleanly(result, 2), result.output
    assert flag in result.output
    assert list(tmp_path.iterdir()) == []  # nothing written, here or elsewhere


# The flags each pipeline command no longer takes, since it does not read
# their settings, with a value each would accept where it is taken.
UNREAD_FLAGS = [
    ("build-trust", "--out", "x"), ("build-trust", "--absent-policy", "recall_one"),
    ("build-trust", "--ap-interp", "11-point"),
    ("build-baselines", "--out", "x"), ("build-baselines", "--absent-policy", "recall_one"),
    ("build-baselines", "--ap-interp", "11-point"),
    ("fuse", "--annotations", "a.jsonl"), ("fuse", "--duplicate-policy", "false_positive"),
    ("fuse", "--ap-interp", "11-point"),
    ("eval", "--detections-dir", "d"), ("eval", "--models-dir", "m"),
    ("eval", "--absent-policy", "recall_one"), ("eval", "--duplicate-policy", "false_positive"),
    ("sweep-n", "--models-dir", "m"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
def test_flag_of_a_setting_the_command_does_not_read_exits_2(workspace, tmp_path, command, flag, value):
    extra, paths = path_args(workspace, tmp_path)[command]
    args = [command, *extra, *(str(a) for pair in paths.items() for a in pair), flag, value]
    result = run(args)
    assert exited_cleanly(result, 2), result.output
    assert flag in result.output
    assert list(tmp_path.iterdir()) == []


# Each command's unwritable output: the command, the flag, and a path
# under tmp_path that cannot be written (a file where a directory goes, or
# a file in a directory that does not exist).
UNWRITABLE = [
    ("generate", "--out-dir", "file"), ("build-trust", "--models-dir", "file"),
    ("build-baselines", "--models-dir", "file"), ("fuse", "--out", "missing/f.jsonl"),
    ("eval", "--out", "file"), ("sweep-n", "--out", "missing/s.csv"),
]


@pytest.mark.parametrize("command,flag,target", UNWRITABLE)
def test_output_path_that_cannot_be_written_exits_2_naming_it(workspace, tmp_path, command, flag, target):
    (tmp_path / "file").write_text("")
    path = tmp_path / target
    if command == "generate":
        args = ["generate", "--out-dir", str(path), "--num-images", "10"]
    else:
        extra, paths = path_args(workspace, tmp_path)[command]
        args = [command, *extra, *(str(a) for pair in {**paths, flag: path}.items() for a in pair)]
    result = run(args)
    assert exited_cleanly(result, 2), result.output
    assert str(path) in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_fuse_checks_its_output_directory_before_any_work(workspace, tmp_path):
    # No model files either: fuse would exit 4 if it looked for them first.
    out = tmp_path / "missing" / "f.jsonl"
    result = run(["fuse", "--detections-dir", str(workspace / "data" / "test"),
                  "--models-dir", str(tmp_path), "--out", str(out)])
    assert exited_cleanly(result, 2), result.output
    assert str(out) in result.output


# The config keys each command's output records: the settings it reads.
RECORDED_KEYS = {
    "build-trust": {"detections_dir", "annotations", "models_dir", "bpd_exponent", "match_iou",
                    "duplicate_policy"},
    "build-baselines": {"detections_dir", "annotations", "models_dir", "match_iou", "vector_iou",
                        "duplicate_policy"},
    "fuse": {"detections_dir", "models_dir", "out", "vector_iou", "nms_iou", "absent_policy", "jobs"},
    "eval": {"annotations", "out", "match_iou", "ap_interpolation"},
    "sweep-n": {"detections_dir", "annotations", "out", "match_iou", "vector_iou", "nms_iou",
                "absent_policy", "duplicate_policy", "ap_interpolation", "jobs"},
}


def test_each_output_records_the_settings_its_command_reads(workspace, tmp_path):
    data, models = workspace / "data", tmp_path / "models"
    train = ["--detections-dir", str(data / "validation"),
             "--annotations", str(data / "validation" / "annotations.jsonl"),
             "--models-dir", str(models), "--duplicate-policy", "false_positive"]
    fused = tmp_path / "fused.jsonl"
    commands = [
        ["build-trust", *train, "--n", "inf"],
        ["build-baselines", *train],
        ["fuse", "--detections-dir", str(data / "test"), "--models-dir", str(models),
         "--out", str(fused), "--absent-policy", "recall_one", "--jobs", "2"],
        ["eval", "--annotations", str(data / "test" / "annotations.jsonl"), "--out", str(tmp_path / "r"),
         "--ap-interp", "11-point", "-i", f"dbf={fused}"],
        ["sweep-n", "--n-values", "2", "--method", "static-dst", "--detections-dir", str(data / "validation"),
         "--annotations", str(data / "validation" / "annotations.jsonl"), "--out", str(tmp_path / "s.csv"),
         "--absent-policy", "recall_one", "--duplicate-policy", "false_positive", "--ap-interp", "11-point"],
    ]
    for args in commands:
        result = run(args)
        assert result.exit_code == 0, (args[0], result.output)

    def config(path):
        return json.loads(path.read_text())["config"]

    with open(tmp_path / "s.csv", newline="") as fh:
        sweep = json.loads(next(csv.reader(fh))[1])
    recorded = {
        "build-trust": [config(models / "trust__det_a__object.json")],
        "build-baselines": [config(models / name) for name in (PLATT, BAYES, WS)],
        "fuse": [json.loads(fused.read_text().splitlines()[0])["config"]],
        "eval": [config(tmp_path / "r" / "report.json")],
        "sweep-n": [sweep],
    }
    extra = {"fuse": {"method"}, "sweep-n": {"method", "test_detections_dir", "test_annotations"}}
    set_by_flag = {"duplicate_policy": "false_positive", "absent_policy": "recall_one",
                   "ap_interpolation": "11-point"}
    for command, configs in recorded.items():
        for c in configs:
            assert set(c) == RECORDED_KEYS[command] | extra.get(command, set()), command
            for key, value in set_by_flag.items():
                assert c.get(key, value) == value, (command, key)
    assert recorded["build-trust"][0]["bpd_exponent"] == "inf"
    assert recorded["fuse"][0]["jobs"] == 2
    assert sweep["method"] == "static-dst"


class TestGenerate:
    def test_layout(self, workspace):
        data = workspace / "data"
        assert (data / "annotations.jsonl").exists()
        for split in ("validation", "test"):
            assert (data / split / "annotations.jsonl").exists()
            assert sorted(p.name for p in (data / split).glob("det_*.jsonl")) == [
                "det_a.jsonl", "det_b.jsonl", "det_c.jsonl",
            ]

    def test_deterministic_regeneration(self, workspace, tmp_path):
        result = run(["generate", "--out-dir", str(tmp_path / "again"),
                      "--seed", "42", "--num-images", "60", "--num-detectors", "3"])
        assert result.exit_code == 0
        for rel in ("annotations.jsonl", "validation/det_a.jsonl", "test/det_c.jsonl"):
            assert (tmp_path / "again" / rel).read_bytes() == \
                (workspace / "data" / rel).read_bytes()

    def test_bad_config_exits_2(self, tmp_path):
        result = run(["generate", "--out-dir", str(tmp_path / "x"),
                      "--num-detectors", "0"])
        assert result.exit_code == 2


class TestBuildTrust:
    def test_model_files_written(self, workspace):
        names = sorted(p.name for p in (workspace / "models").glob("trust__*.json"))
        assert names == [
            "trust__det_a__object.json",
            "trust__det_b__object.json",
            "trust__det_c__object.json",
        ]

    def test_model_files_embed_config(self, workspace):
        payload = json.loads(
            (workspace / "models" / "trust__det_a__object.json").read_text()
        )
        assert payload["config"]["bpd_exponent"] == 2.0
        assert payload["format_version"] == 1

    def test_missing_detections_dir_exits_3(self, workspace, tmp_path):
        result = run(["build-trust",
                      "--detections-dir", str(tmp_path / "absent"),
                      "--annotations", str(workspace / "data" / "annotations.jsonl"),
                      "--models-dir", str(tmp_path / "m")])
        assert result.exit_code == 3

    @staticmethod
    def with_cats(workspace, tmp_path, annotated):
        """The validation split with every 7th image's detection lines of class
        "cat", and its annotation lines too when ``annotated``."""
        validation = tmp_path / "validation"
        validation.mkdir()
        for path in (workspace / "data" / "validation").glob("*.jsonl"):
            lines = path.read_text().splitlines()
            if annotated or path.name != "annotations.jsonl":
                lines = [line.replace('"class": "object"', '"class": "cat"')
                         if '"_header"' not in line and int(json.loads(line)["image_id"][4:]) % 7 == 0
                         else line for line in lines]
            (validation / path.name).write_text("\n".join(lines) + "\n")
        return validation

    def build_trust(self, validation, models):
        return run(["build-trust", "--detections-dir", str(validation),
                    "--annotations", str(validation / "annotations.jsonl"), "--models-dir", str(models)])

    def test_each_class_gets_its_models(self, workspace, tmp_path):
        result = self.build_trust(self.with_cats(workspace, tmp_path, annotated=True), tmp_path / "m")
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (tmp_path / "m").glob("trust__det_a__*.json")) == [
            "trust__det_a__cat.json", "trust__det_a__object.json"]

    def test_class_without_ground_truth_is_named_in_warnings(self, workspace, tmp_path, caplog):
        result = self.build_trust(self.with_cats(workspace, tmp_path, annotated=False), tmp_path / "m")
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (tmp_path / "m").glob("*.json")) == [
            f"trust__det_{d}__object.json" for d in "abc"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        skipped = [w for w in warnings if w.startswith("skipping detector")]
        assert len(skipped) == 3 and all("class cat" in w for w in skipped), warnings
        assert [w for w in warnings if w not in skipped] == ["no trust model could be built for class 'cat'"]

    def test_bad_n_exits_2(self, workspace, tmp_path):
        result = run(["build-trust",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations",
                      str(workspace / "data" / "validation" / "annotations.jsonl"),
                      "--models-dir", str(tmp_path / "m"),
                      "--n", "-3"])
        assert result.exit_code == 2


class TestBuildBaselines:
    def test_model_files_written(self, workspace):
        models = workspace / "models"
        for det in ("det_a", "det_b", "det_c"):
            assert (models / f"platt__{det}__object.json").exists()
            assert (models / f"bayes__{det}__object.json").exists()
        assert (models / "ws__object.json").exists()

    def test_model_files_embed_config(self, workspace):
        for name in ("platt__det_a__object.json", "bayes__det_a__object.json", "ws__object.json"):
            payload = json.loads((workspace / "models" / name).read_text())
            assert payload["config"]["match_iou"] == 0.5

    def test_no_platt_model_exits_3(self, workspace, tmp_path):
        # No ground truth lies in any detector's image: every window is a
        # false positive, and Platt scaling needs both labels.
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(NOWHERE_GT)
        result = run(["build-baselines",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations", str(annotations),
                      "--models-dir", str(tmp_path / "m")])
        assert exited_cleanly(result, 3), result.output
        assert "no Platt model" in result.output

    def test_class_without_ground_truth_is_named_in_warnings(self, workspace, tmp_path, caplog):
        validation = TestBuildTrust.with_cats(workspace, tmp_path, annotated=False)
        result = run(["build-baselines", "--detections-dir", str(validation),
                      "--annotations", str(validation / "annotations.jsonl"), "--models-dir", str(tmp_path / "m")])
        assert result.exit_code == 0, result.output
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 4 and all("for class cat:" in w for w in warnings), warnings
        for d in "abc":
            assert any(w.startswith(f"skipping Platt model for detector det_{d} for class cat") for w in warnings)
        assert any(w.startswith("skipping weighted-sum model") for w in warnings)


def test_no_command_builds_a_detection_or_a_box_object(workspace, tmp_path, monkeypatch):
    # The generator, the writers and the readers work on columns and row
    # tuples, and the labeler matches rows as they are.
    def refuse(*args):
        raise AssertionError("a Detection or a BoundingBox was built")

    monkeypatch.setattr(Detection, "__post_init__", refuse)
    monkeypatch.setattr(BoundingBox, "__new__", refuse)
    data = workspace / "data"
    train = ["--detections-dir", str(data / "validation"),
             "--annotations", str(data / "validation" / "annotations.jsonl")]
    commands = [["generate", "--out-dir", str(tmp_path / "data"), "--num-images", "20"],
                ["build-trust", *train, "--models-dir", str(tmp_path / "m")],
                ["build-baselines", *train, "--models-dir", str(tmp_path / "m")]]
    commands += [["fuse", "--method", method, "--detections-dir", str(data / "test"),
                  "--models-dir", str(tmp_path / "m"), "--out", str(tmp_path / f"{method}.jsonl")]
                 for method in METHODS]
    commands.append(["sweep-n", "--n-values", "1,inf", *train, "--out", str(tmp_path / "s.csv")])
    for args in commands:
        result = run(args)
        assert result.exit_code == 0, (args, result.output)


# Runs each command given as JSON, one after another in one fresh process,
# and names the first after which numpy.ma has been imported.
NO_MASKED_ARRAYS = """
import json, sys
from beliefuse.cli import main
for args in json.loads(sys.argv[1]):
    main(args, standalone_mode=False)
    if "numpy.ma" in sys.modules:
        sys.exit(f"{args[0]} imported numpy.ma")
"""


def test_no_command_imports_numpy_ma(workspace, tmp_path):
    # numpy 2's plain np.unique imports numpy.ma (10-19 ms) on its first call.
    data = workspace / "data"
    train = ["--detections-dir", str(data / "validation"),
             "--annotations", str(data / "validation" / "annotations.jsonl")]
    commands = [["build-trust", *train, "--models-dir", str(tmp_path / "m")],
                ["build-baselines", *train, "--models-dir", str(tmp_path / "m")]]
    commands += [["fuse", "--method", method, "--detections-dir", str(data / "test"),
                  "--models-dir", str(tmp_path / "m"), "--out", str(tmp_path / f"{method}.jsonl")]
                 for method in METHODS]
    commands.append(["sweep-n", "--n-values", "1,inf", *train, "--out", str(tmp_path / "s.csv")])
    src = str(Path(beliefuse.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, json.dumps(commands)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# Runs each command given as JSON in one fresh process, then fails if the
# process has imported multiprocessing.
NO_POOL_IMPORTS = """
import json, sys
from beliefuse.cli import main
for args in json.loads(sys.argv[1]):
    main(args, standalone_mode=False)
sys.exit("multiprocessing was imported" if "multiprocessing" in sys.modules else 0)
"""


def test_serial_fuse_imports_no_pool_machinery(workspace, tmp_path):
    # concurrent.futures.process pulls in multiprocessing (about 9 ms at
    # startup); a command that opens no pool never needs it.
    data = workspace / "data"
    commands = [["fuse", "--method", method, "--detections-dir", str(data / "test"), "--models-dir",
                 str(workspace / "models"), "--out", str(tmp_path / f"{method}.jsonl"), "--jobs", "1"]
                for method in METHODS]
    src = str(Path(beliefuse.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", NO_POOL_IMPORTS, json.dumps(commands)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert all((tmp_path / f"{method}.jsonl").is_file() for method in METHODS)


TRUST, PLATT = "trust__det_a__object.json", "platt__det_a__object.json"
BAYES, WS = "bayes__det_a__object.json", "ws__object.json"


def with_first(values, value):
    return [value, *values[1:]]


# Model files that fuse cannot serve its method from: the method, the file,
# and the file's new content, made from the workspace's model files.
BAD_MODEL_FILES = {
    "platt-a-string": ("platt", PLATT, lambda model: {**model(PLATT), "a": "1.0"}),
    "platt-b-null": ("platt", PLATT, lambda model: {**model(PLATT), "b": None}),
    "platt-a-nan": ("platt", PLATT, lambda model: {**model(PLATT), "a": math.nan}),
    "ws-bias-nan": ("ws", WS, lambda model: {**model(WS), "bias": math.nan}),
    "ws-weight-string": (
        "ws", WS, lambda model: {**model(WS), "weights": with_first(model(WS)["weights"], "x")}
    ),
    "ws-unknown-detectors": ("ws", WS, lambda model: {**model(WS), "detector_ids": ["x", "y", "z"]}),
    "bayes-bin-nan": (
        "bayes", BAYES,
        lambda model: {**model(BAYES), "target_bins": with_first(model(BAYES)["target_bins"], math.nan)},
    ),
    # The last two non-target bins merged: one bin short, and still summing to 1.
    "bayes-short-bins": (
        "bayes", BAYES,
        lambda model: {**model(BAYES), "nontarget_bins": [
            *model(BAYES)["nontarget_bins"][:-2], sum(model(BAYES)["nontarget_bins"][-2:])]},
    ),
    "trust-threshold-nan": (
        "dbf", TRUST,
        lambda model: {**model(TRUST), "table": with_first(
            model(TRUST)["table"], {**model(TRUST)["table"][0], "score": math.nan})},
    ),
    "trust-as-platt": ("platt", PLATT, lambda model: model(TRUST)),
    "platt-as-trust": ("dbf", TRUST, lambda model: model(PLATT)),
    "platt-as-ws": ("ws", WS, lambda model: model(PLATT)),
}


class TestFuse:
    def fuse_args(self, workspace, out, method="dbf", models="models"):
        return ["fuse", "--method", method,
                "--detections-dir", str(workspace / "data" / "test"),
                "--models-dir", str(workspace / models),
                "--out", str(out)]

    @pytest.mark.parametrize("method", ["dbf", "static-dst", "platt", "ws", "bayes"])
    def test_each_method_writes_output(self, workspace, tmp_path, method):
        out = tmp_path / f"{method}.jsonl"
        result = run(self.fuse_args(workspace, out, method))
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["_header"] is True
        assert header["config"]["method"] == method
        assert len(lines) > 1

    def test_n_is_a_config_error_and_left_out_of_the_header(self, workspace, tmp_path):
        # fuse takes n from each trust model file, so it neither takes nor records one.
        result = run([*self.fuse_args(workspace, tmp_path / "n.jsonl"), "--n", "4"])
        assert exited_cleanly(result, 2), result.output
        assert "--n" in result.output
        assert not (tmp_path / "n.jsonl").exists()
        assert run(self.fuse_args(workspace, tmp_path / "o.jsonl")).exit_code == 0
        header = json.loads((tmp_path / "o.jsonl").read_text().splitlines()[0])
        assert "bpd_exponent" not in header["config"]

    @pytest.mark.parametrize("method", ["static-dst", "platt", "ws", "bayes"])
    def test_absent_policy_is_read_and_recorded_by_dbf_only(self, workspace, tmp_path, method):
        result = run([*self.fuse_args(workspace, tmp_path / "p.jsonl", method), "--absent-policy", "vacuous"])
        assert exited_cleanly(result, 2), result.output
        assert "--absent-policy" in result.output and method in result.output
        assert not (tmp_path / "p.jsonl").exists()
        assert run(self.fuse_args(workspace, tmp_path / "o.jsonl", method)).exit_code == 0
        header = json.loads((tmp_path / "o.jsonl").read_text().splitlines()[0])
        assert "absent_policy" not in header["config"]

    def test_rerun_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "a.jsonl"
        assert run(self.fuse_args(workspace, out)).exit_code == 0
        first = out.read_bytes()
        assert run(self.fuse_args(workspace, out)).exit_code == 0
        assert out.read_bytes() == first

    def test_missing_models_exits_4(self, workspace, tmp_path):
        result = run(self.fuse_args(workspace, tmp_path / "o.jsonl", models="nomodels"))
        assert result.exit_code == 4

    def test_ws_without_weights_exits_4(self, workspace, tmp_path):
        partial = tmp_path / "partial_models"
        partial.mkdir()
        for p in (workspace / "models").glob("platt__*.json"):
            (partial / p.name).write_bytes(p.read_bytes())
        result = run(["fuse", "--method", "ws",
                      "--detections-dir", str(workspace / "data" / "test"),
                      "--models-dir", str(partial),
                      "--out", str(tmp_path / "o.jsonl")])
        assert result.exit_code == 4

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "detections_dir": str(workspace / "data" / "test"),
            "models_dir": str(workspace / "models"),
            "out": str(tmp_path / "from_cfg.jsonl"),
            "nms_iou": 0.4,
        }))
        out = tmp_path / "flag_wins.jsonl"
        result = run(["fuse", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = json.loads(out.read_text().splitlines()[0])
        assert header["config"]["nms_iou"] == 0.4
        assert header["config"]["out"] == str(out)

    def corrupted_models(self, workspace, tmp_path, name, content):
        models = tmp_path / "models"
        models.mkdir()
        for p in (workspace / "models").glob("*.json"):
            (models / p.name).write_bytes(p.read_bytes())
        (models / name).write_text(content)
        return models

    @pytest.mark.parametrize("content", ["{not json", '{"format_version": 1, "kind": "trust_model"}'],
                             ids=["not-json", "missing-fields"])
    def test_malformed_trust_model_exits_3(self, workspace, tmp_path, content):
        models = self.corrupted_models(workspace, tmp_path, "trust__det_a__object.json", content)
        result = run(self.fuse_args(workspace, tmp_path / "o.jsonl", models=models))
        assert exited_cleanly(result, 3), result.output
        assert "trust__det_a__object.json" in result.output

    def test_trust_model_recall_above_one_exits_3(self, workspace, tmp_path):
        name = "trust__det_a__object.json"
        model = json.loads((workspace / "models" / name).read_text())
        model["table"][0]["recall"] = 1.5
        models = self.corrupted_models(workspace, tmp_path, name, json.dumps(model))
        result = run(self.fuse_args(workspace, tmp_path / "o.jsonl", models=models))
        assert exited_cleanly(result, 3), result.output
        assert name in result.output and "recall" in result.output

    def test_malformed_baseline_model_exits_3(self, workspace, tmp_path):
        models = self.corrupted_models(workspace, tmp_path, "platt__det_b__object.json", "{not json")
        result = run(self.fuse_args(workspace, tmp_path / "o.jsonl", "platt", models=models))
        assert exited_cleanly(result, 3), result.output
        assert "platt__det_b__object.json" in result.output

    @pytest.mark.parametrize("method, name, content", BAD_MODEL_FILES.values(), ids=BAD_MODEL_FILES)
    def test_bad_model_file_exits_3_naming_it(self, workspace, tmp_path, method, name, content):
        def model(file_name):
            return json.loads((workspace / "models" / file_name).read_text())

        models = self.corrupted_models(workspace, tmp_path, name, json.dumps(content(model)))
        result = run(self.fuse_args(workspace, tmp_path / "o.jsonl", method, models=models))
        assert exited_cleanly(result, 3), result.output
        assert name in result.output

    def models_without(self, workspace, tmp_path, *names):
        models = tmp_path / "models"
        models.mkdir()
        for p in (workspace / "models").glob("*.json"):
            if p.name not in names:
                (models / p.name).write_bytes(p.read_bytes())
        return models

    @pytest.mark.parametrize("method, names", [
        ("dbf", ["trust__det_c__object.json"]),
        ("static-dst", ["trust__det_c__object.json"]),
        ("platt", ["platt__det_c__object.json"]),
        ("bayes", ["platt__det_c__object.json", "bayes__det_c__object.json"]),
    ])
    def test_detector_without_a_model_file_is_left_out_with_a_warning(
        self, workspace, tmp_path, caplog, method, names
    ):
        models = self.models_without(workspace, tmp_path, *names)
        result = run(self.fuse_args(workspace, tmp_path / "o.jsonl", method, models=models))
        assert result.exit_code == 0, result.output
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "det_c" in warnings[0] and names[0] in warnings[0], warnings

    @pytest.mark.parametrize("method, name", [
        ("ws", "platt__det_c__object.json"),  # the ws weights weigh det_c
        ("bayes", "bayes__det_c__object.json"),  # det_c has a Platt model
    ])
    def test_model_file_another_one_calls_for_exits_4_naming_it(self, workspace, tmp_path, method, name):
        models = self.models_without(workspace, tmp_path, name)
        result = run(self.fuse_args(workspace, tmp_path / "o.jsonl", method, models=models))
        assert exited_cleanly(result, 4), result.output
        assert name in result.output

    @pytest.mark.parametrize("config, flags", [
        ({"match_iou": "0.5"}, []),
        ({"jobs": "2"}, []),
        ({}, ["--jobs", "0"]),
        ({}, ["--jobs", "-3"]),
        ([1, 2], []),
        ("x", []),
    ], ids=["string-iou", "string-jobs", "zero-jobs", "negative-jobs", "list-file", "string-file"])
    def test_bad_config_value_exits_2(self, workspace, tmp_path, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = self.fuse_args(workspace, tmp_path / "o.jsonl", "platt")
        result = run([*args, "--config", str(cfg), *flags])
        assert exited_cleanly(result, 2), result.output
        assert not (tmp_path / "o.jsonl").exists()

    def test_unknown_config_key_exits_2(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}))
        result = run(["fuse", "--config", str(cfg),
                      "--detections-dir", str(workspace / "data" / "test"),
                      "--models-dir", str(workspace / "models"),
                      "--out", str(tmp_path / "o.jsonl")])
        assert result.exit_code == 2


    def test_seed_is_neither_a_config_key_nor_a_flag(self, workspace, tmp_path):
        # Fusion draws no random numbers; only ``generate`` takes a seed.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0}))
        args = self.fuse_args(workspace, tmp_path / "o.jsonl", "dbf")
        for extra in (["--config", str(cfg)], ["--seed", "0"]):
            result = run([*args, *extra])
            assert exited_cleanly(result, 2), result.output
            assert "seed" in result.output
        assert not (tmp_path / "o.jsonl").exists()


class TestEval:
    def test_eval_reports(self, workspace, tmp_path):
        fused = tmp_path / "fused.jsonl"
        assert run(["fuse",
                    "--detections-dir", str(workspace / "data" / "test"),
                    "--models-dir", str(workspace / "models"),
                    "--out", str(fused)]).exit_code == 0
        out = tmp_path / "report"
        result = run(["eval",
                      "--annotations",
                      str(workspace / "data" / "test" / "annotations.jsonl"),
                      "--out", str(out),
                      "-i", f"dbf={fused}",
                      "-i", "det_a=" + str(workspace / "data" / "test" / "det_a.jsonl")])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["methods"]) == {"dbf", "det_a"}
        assert 0.0 <= payload["methods"]["dbf"]["mAP"] <= 1.0
        assert (out / "report.csv").read_text().startswith("method,class,ap")

    def test_malformed_inputs_pair_exits_2(self, workspace, tmp_path):
        result = run(["eval",
                      "--annotations", str(workspace / "data" / "annotations.jsonl"),
                      "--out", str(tmp_path / "r"),
                      "-i", "no-equals-sign"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("inputs", [
        ["dbf=A.jsonl", "dbf=B.jsonl"], ["=A.jsonl"], ["dbf="],
    ], ids=["repeated-name", "empty-name", "empty-path"])
    def test_bad_inputs_pair_exits_2_naming_it(self, workspace, tmp_path, inputs):
        args = ["eval", "--annotations", str(workspace / "data" / "annotations.jsonl"),
                "--out", str(tmp_path / "r")]
        for item in inputs:
            args += ["-i", item]
        result = run(args)
        assert exited_cleanly(result, 2), result.output
        assert inputs[-1] in result.output
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("content", [None, '{"image_id": "i", "bbox": [\n'],
                             ids=["missing", "malformed"])
    def test_unreadable_input_exits_3(self, workspace, tmp_path, content):
        path = tmp_path / "in.jsonl"
        if content is not None:
            path.write_text(content)
        result = run(["eval",
                      "--annotations", str(workspace / "data" / "annotations.jsonl"),
                      "--out", str(tmp_path / "r"),
                      "-i", f"x={path}"])
        assert result.exit_code == 3, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert str(path) in result.output


    def test_all_difficult_class_exits_3(self, workspace, tmp_path):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(NOWHERE_GT.replace("}", ', "difficult": true}'))
        result = run(["eval",
                      "--annotations", str(annotations),
                      "--out", str(tmp_path / "r"),
                      "-i", "det_a=" + str(workspace / "data" / "test" / "det_a.jsonl")])
        assert exited_cleanly(result, 3), result.output
        assert "'object'" in result.output

    def test_all_difficult_class_without_rows_exits_3(self, tmp_path):
        # The fused file has no cat row; cat's AP is still undefined.
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(
            '{"image_id": "i", "class": "object", "bbox": [0, 0, 4, 4]}\n'
            '{"image_id": "i", "class": "cat", "bbox": [5, 5, 9, 9], "difficult": true}\n'
        )
        fused = tmp_path / "fused.jsonl"
        fused.write_text('{"image_id": "i", "class": "object", "bbox": [0, 0, 4, 4], "score": 1.0}\n')
        result = run(["eval", "--annotations", str(annotations), "--out", str(tmp_path / "r"),
                      "-i", f"dbf={fused}"])
        assert exited_cleanly(result, 3), result.output
        assert "'cat'" in result.output
        assert not (tmp_path / "r").exists()


    @pytest.mark.parametrize("content", ["", '{"_header": true, "config": {"seed": 7}}\n'],
                             ids=["empty", "header-only"])
    def test_annotations_without_an_object_exit_3_naming_the_file(self, workspace, tmp_path, content):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(content)
        result = run(["eval", "--annotations", str(annotations), "--out", str(tmp_path / "r"),
                      "-i", "det_a=" + str(workspace / "data" / "test" / "det_a.jsonl")])
        assert exited_cleanly(result, 3), result.output
        assert str(annotations) in result.output
        assert not (tmp_path / "r").exists()

    def test_a_raw_file_of_two_classes_scores_each_class_on_its_own_lines(self, two_classes, tmp_path):
        # Each class's AP, curve and counts from det_a's whole file equal an
        # eval of that class's lines alone.
        test = two_classes / "data" / "test"
        lines = (test / "det_a.jsonl").read_text().splitlines()

        def report(name, path):
            result = run(["eval", "--annotations", str(test / "annotations.jsonl"), "--out", str(tmp_path / name),
                          "-i", f"det_a={path}"])
            assert result.exit_code == 0, result.output
            return json.loads((tmp_path / name / "report.json").read_text())["methods"]["det_a"]

        whole = report("whole", test / "det_a.jsonl")
        for cls in ("cat", "object"):
            path = tmp_path / f"{cls}.jsonl"
            path.write_text("".join(f"{line}\n" for line in lines if f'"class": "{cls}"' in line))
            alone = report(cls, path)
            assert whole["per_class_ap"][cls] == alone["per_class_ap"][cls]
            assert whole["pr_samples"][cls] == alone["pr_samples"][cls]
            assert whole["counts"][cls] == alone["counts"][cls]
            assert alone["counts"][cls]["num_detections"] == len(path.read_text().splitlines()) > 0

    def test_an_id_of_null_exits_3_naming_the_line(self, workspace, tmp_path):
        path = tmp_path / "det_a.jsonl"
        path.write_text('{"image_id": "img_00030", "detector_id": "det_a", "class": null, '
                        '"bbox": [0, 0, 5, 5], "score": 1}\n')
        result = run(["eval", "--annotations", str(workspace / "data" / "test" / "annotations.jsonl"),
                      "--out", str(tmp_path / "r"), "-i", f"det_a={path}"])
        assert exited_cleanly(result, 3), result.output
        assert f"{path}:1: an id must be a JSON string or a finite number, got null" in result.output
        assert not (tmp_path / "r").exists()

    def test_input_off_every_ground_truth_image_is_named_in_a_warning(self, workspace, tmp_path, caplog):
        # The validation detections lie on none of the test images.
        data = workspace / "data"
        off, on = data / "validation" / "det_a.jsonl", data / "test" / "det_b.jsonl"
        result = run(["eval", "--annotations", str(data / "test" / "annotations.jsonl"),
                      "--out", str(tmp_path / "r"), "-i", f"off={off}", "-i", f"on={on}"])
        assert result.exit_code == 0, result.output
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and str(off) in warnings[0], warnings


class TestSweepN:
    def test_sweep_csv(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run(["sweep-n", "--n-values", "1,2,inf",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations",
                      str(workspace / "data" / "validation" / "annotations.jsonl"),
                      "--test-detections-dir", str(workspace / "data" / "test"),
                      "--test-annotations",
                      str(workspace / "data" / "test" / "annotations.jsonl"),
                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config")
        labels = [line.split(",")[0] for line in lines[2:]]
        assert labels == ["1", "1", "2", "2", "inf", "inf"]

    def test_config_line_names_the_method_and_the_test_split(self, workspace, tmp_path):
        data = workspace / "data"
        validation = [str(data / "validation"), str(data / "validation" / "annotations.jsonl")]
        test = [str(data / "test"), str(data / "test" / "annotations.jsonl")]
        runs = {"dbf": [], "static-dst": ["--test-detections-dir", test[0], "--test-annotations", test[1]]}
        for method, extra in runs.items():
            out = tmp_path / f"{method}.csv"
            result = run(["sweep-n", "--n-values", "2", "--method", method, "--detections-dir", validation[0],
                          "--annotations", validation[1], "--out", str(out), *extra])
            assert result.exit_code == 0, result.output
            with open(out, newline="") as fh:
                config = json.loads(next(csv.reader(fh))[1])
            # Without the test flags, the validation split is the test split.
            expected = validation if method == "dbf" else test
            assert (config["method"], config["test_detections_dir"], config["test_annotations"]) == \
                (method, *expected)
            assert "models_dir" not in config

    def test_all_difficult_test_class_exits_3(self, workspace, tmp_path):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(NOWHERE_GT.replace("}", ', "difficult": true}'))
        result = run(["sweep-n", "--n-values", "2",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations",
                      str(workspace / "data" / "validation" / "annotations.jsonl"),
                      "--test-detections-dir", str(workspace / "data" / "test"),
                      "--test-annotations", str(annotations),
                      "--out", str(tmp_path / "s.csv")])
        assert exited_cleanly(result, 3), result.output
        assert "'object'" in result.output

    def test_no_trust_model_for_a_class_exits_3(self, workspace, tmp_path):
        # No validation window hits ground truth, so no detector yields a
        # trust model: fusing would score every window vacuous.
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(NOWHERE_GT)
        out = tmp_path / "s.csv"
        result = run(["sweep-n", "--n-values", "1,2",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations", str(annotations),
                      "--test-detections-dir", str(workspace / "data" / "test"),
                      "--test-annotations", str(workspace / "data" / "test" / "annotations.jsonl"),
                      "--out", str(out)])
        assert exited_cleanly(result, 3), result.output
        assert "'object'" in result.output
        assert not out.exists()

    def test_class_without_test_ground_truth_exits_3(self, workspace, tmp_path):
        # Validation holds a second class, "cat"; the test split has no cat at
        # all. Its AP is undefined and must not be averaged in as 0.
        validation = tmp_path / "validation"
        validation.mkdir()
        for path in (workspace / "data" / "validation").glob("*.jsonl"):
            lines = path.read_text().splitlines()
            cats = [line.replace('"class": "object"', '"class": "cat"')
                    for line in lines if '"_header"' not in line]
            (validation / path.name).write_text("\n".join(lines + cats) + "\n")
        out = tmp_path / "s.csv"
        result = run(["sweep-n", "--n-values", "1,2",
                      "--detections-dir", str(validation),
                      "--annotations", str(validation / "annotations.jsonl"),
                      "--test-detections-dir", str(workspace / "data" / "test"),
                      "--test-annotations", str(workspace / "data" / "test" / "annotations.jsonl"),
                      "--out", str(out)])
        assert exited_cleanly(result, 3), result.output
        assert "'cat'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("given", ["--test-detections-dir", "--test-annotations"])
    def test_half_a_test_split_exits_2(self, workspace, tmp_path, given):
        test = {"--test-detections-dir": workspace / "data" / "test",
                "--test-annotations": workspace / "data" / "test" / "annotations.jsonl"}
        out = tmp_path / "s.csv"
        result = run(["sweep-n", "--n-values", "2",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations", str(workspace / "data" / "validation" / "annotations.jsonl"),
                      given, str(test[given]), "--out", str(out)])
        assert exited_cleanly(result, 2), result.output
        assert all(flag in result.output for flag in test)
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0", "-1", "nan", "-inf", "2,0"])
    def test_non_positive_n_value_exits_2_naming_it(self, workspace, tmp_path, values):
        out = tmp_path / "s.csv"
        result = run(["sweep-n", f"--n-values={values}",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations", str(workspace / "data" / "annotations.jsonl"),
                      "--out", str(out)])
        assert exited_cleanly(result, 2), result.output
        assert repr(values.split(",")[-1]) in result.output
        assert not out.exists()

    def test_empty_n_values_exits_2(self, workspace, tmp_path):
        result = run(["sweep-n", "--n-values", ",",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations", str(workspace / "data" / "annotations.jsonl"),
                      "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 2


@pytest.fixture(scope="module")
def two_classes(tmp_path_factory):
    """A generated benchmark whose every third image's lines, detections and
    annotations both, are of class "cat", with models built for both classes."""
    root = tmp_path_factory.mktemp("two_classes")
    assert run(["generate", "--out-dir", str(root / "data"), "--seed", "7", "--num-images", "60"]).exit_code == 0
    for path in (root / "data").glob("*/*.jsonl"):
        lines = [line.replace('"class": "object"', '"class": "cat"')
                 if '"_header"' not in line and int(json.loads(line)["image_id"][4:]) % 3 == 0 else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
    for command in ("build-trust", "build-baselines"):
        result = run([command, "--detections-dir", str(root / "data" / "validation"),
                      "--annotations", str(root / "data" / "validation" / "annotations.jsonl"),
                      "--models-dir", str(root / "models")])
        assert result.exit_code == 0, result.output
    return root


def two_class_fuse(root, out, models="models", method="dbf", jobs="1"):
    return run(["fuse", "--method", method, "--detections-dir", str(root / "data" / "test"),
                "--models-dir", str(root / models), "--out", str(out), "--jobs", jobs])


def two_class_sweep(root, out, jobs="1"):
    data = root / "data"
    return run(["sweep-n", "--n-values", "1,2,inf", "--detections-dir", str(data / "validation"),
                "--annotations", str(data / "validation" / "annotations.jsonl"),
                "--test-detections-dir", str(data / "test"),
                "--test-annotations", str(data / "test" / "annotations.jsonl"), "--out", str(out), "--jobs", jobs])


@pytest.fixture
def inline_pools(monkeypatch):
    """Put executors that run each task where it is called, and start no
    process, in place of the pool's; the list each one's ``max_workers``."""
    started = []

    class Inline:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    # worker_pool imports the executor from its module when a pool opens.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    return started


class TestPool:
    def test_fuse_and_sweep_start_one_pool_each(self, two_classes, tmp_path, monkeypatch):
        pools = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for command, out in ((two_class_fuse, tmp_path / "f.jsonl"), (two_class_sweep, tmp_path / "s.csv")):
            result = command(two_classes, out, jobs="2")
            assert result.exit_code == 0, result.output
            assert len(pools) == 1
            pools.clear()
        assert {json.loads(line)["class"] for line in (tmp_path / "f.jsonl").read_text().splitlines()[1:]} == \
            {"cat", "object"}

    # The command's process is one of the workers, so the executor forks one fewer.
    @pytest.mark.parametrize("cpus, jobs, forks", [(8, "100000", 7), (2, "100000", 1), (8, "3", 2)])
    def test_a_pool_has_no_more_workers_than_cpus(self, two_classes, tmp_path, monkeypatch, inline_pools,
                                                  cpus, jobs, forks):
        started = inline_pools
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert two_class_fuse(two_classes, tmp_path / "serial.jsonl").exit_code == 0
        result = two_class_fuse(two_classes, tmp_path / "pooled.jsonl", jobs=jobs)
        assert result.exit_code == 0, result.output
        assert started == [forks]
        header, lines = (tmp_path / "pooled.jsonl").read_text().split("\n", 1)
        assert json.loads(header)["config"]["jobs"] == int(jobs)
        assert lines == (tmp_path / "serial.jsonl").read_text().split("\n", 1)[1]

    def test_one_file_detections_dirs_start_one_pool_or_none(self, two_classes, tmp_path, monkeypatch, inline_pools):
        # Workers only fuse, so the number of detector files does not size the
        # pool: fuse over one file, and a sweep of one split or of two, each
        # start one pool at --jobs 2 (one forked worker beside the command's
        # process) and none at --jobs 1.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        one = tmp_path / "one"
        for split in ("validation", "test"):
            (one / "data" / split).mkdir(parents=True)
            for name in ("det_a.jsonl", "annotations.jsonl"):
                (one / "data" / split / name).write_bytes((two_classes / "data" / split / name).read_bytes())
        (one / "models").symlink_to(two_classes / "models")
        validation = one / "data" / "validation"

        def sweep_one_split(root, out, jobs):
            return run(["sweep-n", "--n-values", "1,2,inf", "--detections-dir", str(validation), "--annotations",
                        str(validation / "annotations.jsonl"), "--out", str(out), "--jobs", jobs])

        for command, out in ((two_class_fuse, "f"), (sweep_one_split, "v"), (two_class_sweep, "s")):
            for jobs in ("1", "2"):
                result = command(one, tmp_path / f"{out}_{jobs}", jobs=jobs)
                assert result.exit_code == 0, result.output
            assert inline_pools == [1]
            inline_pools.clear()
            serial, pooled = ((tmp_path / f"{out}_{jobs}").read_text().split("\n", 1)[1] for jobs in ("1", "2"))
            assert pooled == serial

    def test_inputs_and_models_are_read_in_the_commands_process(self, two_classes, tmp_path, monkeypatch):
        # Each call appends its name and pid to a file, so that a call made
        # in a worker process shows too.
        calls = tmp_path / "calls"

        def recorded(name, fn):
            def call(*args, **kwargs):
                with open(calls, "a") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return call

        for module, name in ((io, "read_detections"), (io, "load_model"), (fusion, "fuse_images")):
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for command, out in ((two_class_fuse, tmp_path / "f.jsonl"), (two_class_sweep, tmp_path / "s.csv")):
            result = command(two_classes, out, jobs="2")
            assert result.exit_code == 0, result.output
        pids = {}
        for line in calls.read_text().splitlines():
            name, pid = line.split()
            pids.setdefault(name, set()).add(int(pid))
        assert pids["read_detections"] == pids["load_model"] == {os.getpid()}
        assert pids["fuse_images"] - {os.getpid()}, "no batch was fused in a worker"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_class_without_a_model_file_is_left_out_with_a_warning(self, two_classes, tmp_path, caplog, jobs):
        no_cat = tmp_path / "models_no_cat"
        no_cat.mkdir()
        for path in (two_classes / "models").glob("*.json"):
            if not path.name.endswith("__cat.json"):
                (no_cat / path.name).write_bytes(path.read_bytes())
        assert two_class_fuse(two_classes, tmp_path / "full.jsonl").exit_code == 0
        result = two_class_fuse(two_classes, tmp_path / "o.jsonl", models=no_cat, jobs=jobs)
        assert result.exit_code == 0, result.output
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "class cat" in warnings[0], warnings
        full = (tmp_path / "full.jsonl").read_text().splitlines()[1:]
        assert (tmp_path / "o.jsonl").read_text().splitlines()[1:] == [
            line for line in full if '"class": "object"' in line]
        assert any('"class": "cat"' in line for line in full)
