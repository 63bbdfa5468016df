"""Command-line entry point for the late-fusion pipeline.

Commands: generate a synthetic benchmark, build trust models, train
baseline models, fuse detections, evaluate detection files, and sweep the
best-possible-detector exponent. All commands are deterministic given their
config, and every output file embeds the settings its command read
(``READS``) as provenance.

Exit codes: 0 success, 2 config error, 3 data error, 4 missing model.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import datagen, evaluation, io, pipeline
from .baselines import PlattModel, ScoreLikelihood, WeightVector
from .datagen import ConfigError, SyntheticDetectorProfile
from .evaluation import NoGroundTruth
from .io import DataError
from .trust import TrustModel

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4

# The value types each RunConfig field annotation accepts; bools are refused.
_FIELD_TYPES = {"str": str, "float": (int, float), "int": int}
# The values each policy field accepts.
_CHOICES = {
    "absent_policy": ("vacuous", "recall_one"),
    "duplicate_policy": ("undecided", "false_positive"),
    "ap_interpolation": ("all-points", "11-point"),
}


@dataclass
class RunConfig:
    detections_dir: str = ""
    annotations: str = ""
    models_dir: str = ""
    out: str = ""
    bpd_exponent: float = 2.0
    match_iou: float = 0.5
    vector_iou: float = 0.5
    nms_iou: float = 0.5
    absent_policy: str = "vacuous"
    duplicate_policy: str = "undecided"
    ap_interpolation: str = "all-points"
    jobs: int = 1

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be a {f.type}, got {value!r}")
        for name in ("match_iou", "vector_iou", "nms_iou"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ConfigError(f"{name} must be in (0,1), got {v}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"bad {name} {getattr(self, name)!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    def as_dict(self, fields) -> dict:
        """The values of ``fields``, in field order, for an output to record."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name in fields}
        if math.isinf(d.get("bpd_exponent", 0)):
            d["bpd_exponent"] = "inf"
        return d


def _parse_n(raw: str) -> float:
    """An exponent n: a positive real or 'inf'."""
    try:
        n = math.inf if raw.strip().lower() == "inf" else float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse n value {raw!r}")
    if not n > 0:  # false for NaN too
        raise ConfigError(f"n must be positive or 'inf', got {raw!r}")
    return n


def _resolve_config(config_file: str | None, **flags) -> RunConfig:
    """Precedence: CLI flags > config file > defaults."""
    cfg = RunConfig()
    values = {}
    if config_file:
        try:
            values = json.loads(Path(config_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_file}: {exc}")
        if not isinstance(values, dict):
            raise ConfigError(f"config file {config_file} holds a {type(values).__name__}, not a JSON object")
    values.update((key, value) for key, value in flags.items() if value is not None)
    for key, value in values.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config key {key!r}")
        if key == "bpd_exponent":
            value = _parse_n(str(value))
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _detection_files(detections_dir: str) -> list[Path]:
    """The detector files of a detections dir, in sorted order."""
    root = Path(detections_dir)
    if not root.is_dir():
        raise DataError(f"detections dir {detections_dir} does not exist")
    # Split directories keep their ground truth alongside the detector files.
    files = sorted(f for f in root.glob("*.jsonl") if f.name != "annotations.jsonl")
    if not files:
        raise DataError(f"no .jsonl detection files in {detections_dir}")
    return files


def _load_detections_dir(detections_dir: str) -> dict[str, dict[str, io.DetectionColumns]]:
    """-> class -> detector_id -> its rows, files in sorted order, lines in file order."""
    rows = io.DetectionColumns.concat([io.read_detections(path) for path in _detection_files(detections_dir)])
    return {cls: part.split(part.detectors) for cls, part in rows.split(rows.classes).items()}


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Late fusion of object-detector outputs via dynamic belief assignment."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


# The RunConfig fields each pipeline command reads. A command takes the flag
# of each field in its row that has one, needs each path in it, and records
# exactly these keys in its output. --config and --jobs are on every command.
READS = {
    "build-trust": ("detections_dir", "annotations", "models_dir", "bpd_exponent", "match_iou", "duplicate_policy"),
    "build-baselines": ("detections_dir", "annotations", "models_dir", "match_iou", "vector_iou", "duplicate_policy"),
    "fuse": ("detections_dir", "models_dir", "out", "vector_iou", "nms_iou", "absent_policy", "jobs"),
    "eval": ("annotations", "out", "match_iou", "ap_interpolation"),
    "sweep-n": ("detections_dir", "annotations", "out", "match_iou", "vector_iou", "nms_iou",
                "absent_policy", "duplicate_policy", "ap_interpolation", "jobs"),
}
_PATHS = ("detections_dir", "annotations", "models_dir", "out")
# The flag of each field that has one, --jobs aside; the IoU thresholds are config keys only.
_FLAGS = {"detections_dir": "--detections-dir", "annotations": "--annotations", "models_dir": "--models-dir",
          "out": "--out", "bpd_exponent": "--n", "absent_policy": "--absent-policy",
          "duplicate_policy": "--duplicate-policy", "ap_interpolation": "--ap-interp"}


def _pipeline_command(name: str):
    """Register pipeline command ``name`` with the flags of its READS row."""
    def register(fn):
        fn = click.option("--jobs", type=int, default=None)(fn)
        fn = click.option("--config", "config_file", type=str, default=None,
                          help="JSON config file; CLI flags take precedence.")(fn)
        for field in reversed([f for f in READS[name] if f in _FLAGS]):
            kind = click.Choice(_CHOICES[field]) if field in _CHOICES else str
            fn = click.option(_FLAGS[field], field, type=kind, default=None)(fn)
        return main.command(name)(fn)
    return register


def _build_cfg(config_file, **flags) -> tuple[RunConfig, dict]:
    """The running command's resolved config and the keys its output records.
    A path of its READS row that is left empty is a config error naming its flag."""
    reads = READS[click.get_current_context().command.name]
    cfg = _resolve_config(config_file, **flags)
    missing = [_FLAGS[name] for name in reads if name in _PATHS and not getattr(cfg, name)]
    if missing:
        raise ConfigError(f"missing {', '.join(missing)} (a flag or config key)")
    return cfg, cfg.as_dict(reads)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class MissingModel(LookupError):
    """A model file the command needs does not exist."""


@contextlib.contextmanager
def _exit_on_error():
    """End the command with the exit code of a config, data or model error."""
    try:
        yield
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except (DataError, NoGroundTruth) as exc:
        _fail(EXIT_DATA, str(exc))
    except MissingModel as exc:
        _fail(EXIT_MODEL, str(exc))


@contextlib.contextmanager
def _writing(path: str):
    """End the command with a config error naming ``path``, the output it
    was given, if writing there fails."""
    try:
        yield
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot write {path}: {exc}")


def _check_out_dir(path: str) -> None:
    """A config error, before the work whose result it is to hold, if the
    directory of the output file ``path`` does not exist."""
    if not Path(path).parent.is_dir():
        raise ConfigError(f"cannot write {path}: {Path(path).parent} is not a directory")


@main.command("generate")
@click.option("--out-dir", required=True, type=str)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--num-images", type=int, default=300, show_default=True)
@click.option("--num-detectors", type=int, default=3, show_default=True)
def cmd_generate(out_dir: str, seed: int, num_images: int, num_detectors: int):
    """Generate a complementary synthetic benchmark on disk."""
    with _exit_on_error():
        profiles = default_profiles(num_detectors)
        dataset = datagen.generate(seed, num_images, profiles)
    root = Path(out_dir)
    provenance = {"seed": seed, "num_images": num_images, "num_detectors": num_detectors}
    with _writing(out_dir):
        for split, ids in (("validation", dataset.validation_image_ids), ("test", dataset.test_image_ids)):
            (root / split).mkdir(parents=True, exist_ok=True)
            for det_id in sorted(dataset.detections):
                io.write_detections(
                    dataset.detections_for(det_id, ids), root / split / f"{det_id}.jsonl",
                    class_label=dataset.class_label, config=provenance,
                )
            io.write_annotations(dataset.ground_truths(ids), root / split / "annotations.jsonl", config=provenance)
        io.write_annotations(dataset.ground_truths(), root / "annotations.jsonl", config=provenance)
    click.echo(f"wrote synthetic benchmark to {out_dir}")


def default_profiles(num_detectors: int) -> list[SyntheticDetectorProfile]:
    """Complementary profiles: each detector is strong on its own object group."""
    if num_detectors < 1:
        raise ConfigError("need at least one detector")
    profiles = []
    for k in range(num_detectors):
        profiles.append(
            SyntheticDetectorProfile(
                detector_id=f"det_{chr(ord('a') + k)}",
                tp_score_mean=6.0 + 0.4 * k,
                tp_score_std=1.2,
                fp_score_mean=3.0,
                fp_score_std=1.2,
                detection_rate=0.35,
                easy_group=k,
                easy_detection_rate=0.9,
                fp_rate=1.5,
                localization_jitter=3.0,
            )
        )
    return profiles


@_pipeline_command("build-trust")
def cmd_build_trust(config_file, **flags):
    """Build one trust model file per (detector, class) from validation data.
    --n is the best-possible-detector exponent: a positive number or 'inf'."""
    with _exit_on_error():
        cfg, provenance = _build_cfg(config_file, **flags)
        per_class = _load_detections_dir(cfg.detections_dir)
        gts = io.read_annotations(cfg.annotations)
    models_dir = Path(cfg.models_dir)
    with _writing(cfg.models_dir):
        models_dir.mkdir(parents=True, exist_ok=True)
    built, untrained = 0, []
    for cls in sorted(per_class):
        models = pipeline.build_trust_models(
            per_class[cls], gts.get(cls), cls, cfg.bpd_exponent,
            cfg.match_iou, cfg.duplicate_policy,
        )
        if not models:
            untrained.append(cls)
        for det_id, model in sorted(models.items()):
            path = io.model_path(models_dir, "trust", cls, det_id)
            with _writing(cfg.models_dir):
                io.save_model(model, path, provenance)
            built += 1
            click.echo(
                f"{det_id}/{cls}: {len(model.table)} rows, "
                f"{model.num_validation_positives} positives, "
                f"max precision {model.table[:, 3].max():.3f}"
            )
    if built == 0:
        _fail(EXIT_DATA, "no trust model could be built from the validation data")
    for cls in untrained:
        log.warning("no trust model could be built for class %r", cls)


@_pipeline_command("build-baselines")
def cmd_build_baselines(config_file, **flags):
    """Train Platt, weighted-sum, and naive-Bayes models from validation data."""
    with _exit_on_error():
        cfg, provenance = _build_cfg(config_file, **flags)
        per_class = _load_detections_dir(cfg.detections_dir)
        gts = io.read_annotations(cfg.annotations)
    models_dir = Path(cfg.models_dir)
    with _writing(cfg.models_dir):
        models_dir.mkdir(parents=True, exist_ok=True)
    fitted = 0
    for cls in sorted(per_class):
        models = pipeline.fit_baselines(
            per_class[cls], gts.get(cls), cls, cfg.match_iou, cfg.duplicate_policy, cfg.vector_iou
        )
        with _writing(cfg.models_dir):
            for det_id in sorted(models.platt):
                for prefix, by_detector in (("platt", models.platt), ("bayes", models.likelihoods)):
                    path = io.model_path(models_dir, prefix, cls, det_id)
                    io.save_model(by_detector[det_id], path, provenance)
            if models.weights is not None:
                io.save_model(models.weights, io.model_path(models_dir, "ws", cls), provenance)
        fitted += len(models.platt)
        click.echo(f"{cls}: {len(models.platt)} Platt models, ws={'yes' if models.weights else 'no'}")
    if fitted == 0:
        _fail(EXIT_DATA, "no Platt model could be fitted from the validation data")


def _load_models(models_dir: Path, cls: str, detector_ids: list[str], method: str):
    """The models ``pipeline.fuse_corpus`` takes for ``method`` on one class,
    or None when the class has no model file for it. A class or a detector
    without a model file for the method is left out with a warning; a model
    file that another one calls for must exist."""

    def path(prefix: str, detector_id: str = "") -> Path:
        return io.model_path(models_dir, prefix, cls, detector_id)

    def per_detector(prefix: str, kind: type, detectors) -> dict:
        return {d: io.load_model(path(prefix, d), kind) for d in detectors if path(prefix, d).exists()}

    belief = method in pipeline.BELIEF_METHODS
    prefix, kind = ("trust", TrustModel) if belief else ("platt", PlattModel)
    loaded = per_detector(prefix, kind, detector_ids)
    if not loaded:
        log.warning("no %s model files for class %s in %s: its detections are left out", prefix, cls, models_dir)
        return None
    models = loaded if belief else pipeline.BaselineModels(platt=loaded)
    if method == "ws":
        ws_path = path("ws")
        if not ws_path.exists():
            raise MissingModel(f"missing weighted-sum weights file {ws_path}")
        models.weights = io.load_model(ws_path, WeightVector)
        if loaded.keys().isdisjoint(models.weights.detector_ids):
            raise DataError(f"{ws_path}: detector_ids name none of the detectors with a Platt model")
        for d in models.weights.detector_ids:
            if not path("platt", d).exists():
                raise MissingModel(f"missing {path('platt', d)}, the Platt model of a detector {ws_path} weighs")
    if method == "bayes":
        for d in loaded:
            if not path("bayes", d).exists():
                raise MissingModel(f"missing {path('bayes', d)}, the likelihoods of {path('platt', d)}")
        models.likelihoods = per_detector("bayes", ScoreLikelihood, loaded)
    for d in detector_ids:
        if d not in loaded:
            log.warning("no %s: the scores of detector %s are left out", path(prefix, d), d)
    return models


@_pipeline_command("fuse")
@click.option("--method", type=click.Choice(pipeline.METHODS), default="dbf", show_default=True)
def cmd_fuse(method, config_file, **flags):
    """Fuse a detections directory into one JSON-lines output file."""
    with _exit_on_error():
        cfg, provenance = _build_cfg(config_file, **flags)
        if method != "dbf":
            # Only dbf fills an absent detector's slot, so only its output records the policy.
            if flags["absent_policy"] is not None:
                raise ConfigError(f"--absent-policy is read by --method dbf only, not by {method}")
            del provenance["absent_policy"]
        _check_out_dir(cfg.out)
        per_class = _load_detections_dir(cfg.detections_dir)
        models_dir = Path(cfg.models_dir)
        models = {cls: _load_models(models_dir, cls, sorted(per_class[cls]), method) for cls in sorted(per_class)}
        if all(m is None for m in models.values()):
            raise MissingModel(f"no model files for --method {method} for any class in {models_dir}")
    # One pool for the command, or none, opened once every input is read: its
    # workers only fuse each class's batches. Each class's rows come back in
    # file order, and are laid out as lines here, class by class.
    with pipeline.worker_pool(cfg.jobs) as pool:
        parts = [pipeline.fuse_corpus(per_class[cls], class_models, cls, method, cfg.vector_iou, cfg.nms_iou,
                                      cfg.absent_policy, pool.workers if pool else 1, pool=pool)
                 for cls, class_models in models.items() if class_models is not None]
    provenance["method"] = method
    with _writing(cfg.out):
        io.write_fused(parts, cfg.out, config=provenance)
    click.echo(f"wrote {sum(map(len, parts))} fused detections to {cfg.out}")


@_pipeline_command("eval")
@click.option("--inputs", "-i", "inputs", multiple=True, required=True,
              help="name=path pairs of fused or raw detection files to score.")
def cmd_eval(inputs, config_file, **flags):
    """Evaluate detection files against annotations (AP / mAP, JSON + CSV)."""
    with _exit_on_error():
        cfg, provenance = _build_cfg(config_file, **flags)
        gts = io.read_annotations(cfg.annotations)
        if not gts:
            raise DataError(f"{cfg.annotations}: no ground-truth object to score against")
        paths: dict[str, str] = {}
        for item in inputs:
            name, sep, path = item.partition("=")
            if not (name and sep and path):
                raise ConfigError(f"--inputs expects name=path, got {item!r}")
            if name in paths:
                raise ConfigError(f"--inputs gives {name!r} twice: {name}={paths[name]} and {item}")
            paths[name] = path
        methods = {name: io.read_any_detections(path) for name, path in paths.items()}
        reports = evaluation.evaluate_methods(
            methods, gts, cfg.match_iou, cfg.ap_interpolation
        )
    out = Path(cfg.out)
    with _writing(cfg.out):
        out.mkdir(parents=True, exist_ok=True)
        evaluation.write_reports_json(reports, out / "report.json", config=provenance)
        evaluation.write_reports_csv(reports, out / "report.csv")
    for name in sorted(reports):
        if len(methods[name]) and not reports[name].on_truth_images:
            log.warning("%s: no detection lies on an image with ground truth of its class", paths[name])
        click.echo(f"{name}: mAP {reports[name].map_score:.4f}")


@_pipeline_command("sweep-n")
@click.option("--n-values", required=True, type=str,
              help="Comma-separated exponents, e.g. '1,2,4,8,inf'.")
@click.option("--method", type=click.Choice(pipeline.BELIEF_METHODS), default="dbf", show_default=True)
@click.option("--test-detections-dir", type=str, default=None,
              help="Detections to fuse and score, given with --test-annotations; "
                   "both default to the validation split.")
@click.option("--test-annotations", type=str, default=None,
              help="Ground truth of --test-detections-dir.")
def cmd_sweep_n(n_values, method, test_detections_dir, test_annotations, config_file, **flags):
    """Fuse and score the test split at each exponent; CSV of AP per class."""
    with _exit_on_error():
        cfg, provenance = _build_cfg(config_file, **flags)
        if bool(test_detections_dir) != bool(test_annotations):
            raise ConfigError("--test-detections-dir and --test-annotations go together: give both or neither")
        _check_out_dir(cfg.out)
        values = [_parse_n(v) for v in n_values.split(",") if v.strip()]
        if not values:
            raise ConfigError("empty n-values list")
        per_class_val = _load_detections_dir(cfg.detections_dir)
        gts = io.read_annotations(cfg.annotations)
        per_class_test = _load_detections_dir(test_detections_dir) if test_detections_dir else per_class_val
        test_gts = io.read_annotations(test_annotations) if test_annotations else gts

    # A PR table does not depend on n: each class's models are built once,
    # and each n only swaps the exponent.
    trained = {}
    for cls in sorted(per_class_val):
        trained[cls] = pipeline.build_trust_models(
            per_class_val[cls], gts.get(cls), cls, cfg.bpd_exponent, cfg.match_iou, cfg.duplicate_policy
        )
        if not trained[cls]:
            _fail(EXIT_DATA, f"no trust model could be built for class {cls!r}")
    # One pool for the command, or none, as in fuse: its workers fuse the
    # batches of every class at every n.
    rows = []
    with pipeline.worker_pool(cfg.jobs) as pool:
        for n in values:
            n_label = "inf" if math.isinf(n) else f"{n:g}"
            per_class_ap = {}
            for cls, models in trained.items():
                models = {d: dataclasses.replace(m, bpd_exponent=n) for d, m in models.items()}
                fused = pipeline.fuse_corpus(
                    per_class_test.get(cls, {}), models, cls, method,
                    cfg.vector_iou, cfg.nms_iou, cfg.absent_policy, pool.workers if pool else 1, pool=pool,
                )
                with _exit_on_error():
                    try:
                        per_class_ap[cls] = evaluation.average_precision(
                            fused, test_gts.get(cls), cfg.match_iou, cfg.ap_interpolation
                        )
                    except NoGroundTruth as exc:
                        raise NoGroundTruth(f"class {cls!r}: {exc}") from None
            rows += [(n_label, cls, ap) for cls, ap in per_class_ap.items()]
            rows.append((n_label, "mAP", sum(per_class_ap.values()) / len(per_class_ap)))

    provenance.update(method=method, test_detections_dir=test_detections_dir or cfg.detections_dir,
                      test_annotations=test_annotations or cfg.annotations)
    with _writing(cfg.out), open(cfg.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# config", json.dumps(provenance, sort_keys=True)])
        writer.writerow(["n", "class", "ap"])
        for n_label, cls, ap in rows:
            writer.writerow([n_label, cls, f"{ap:.6f}"])
    click.echo(f"wrote sweep results to {cfg.out}")


if __name__ == "__main__":
    main()
