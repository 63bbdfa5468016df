import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from beliefuse.cli import main


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

    def test_unknown_config_key_exits_2(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}))
        result = run(["fuse", "--config", str(cfg),
                      "--detections-dir", str(workspace / "data" / "test"),
                      "--models-dir", str(workspace / "models"),
                      "--out", str(tmp_path / "o.jsonl")])
        assert result.exit_code == 2


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

    def test_empty_n_values_exits_2(self, workspace, tmp_path):
        result = run(["sweep-n", "--n-values", ",",
                      "--detections-dir", str(workspace / "data" / "validation"),
                      "--annotations", str(workspace / "data" / "annotations.jsonl"),
                      "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 2
