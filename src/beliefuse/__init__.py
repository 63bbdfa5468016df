"""Detector-agnostic late fusion of object-detection scores."""

from .dst import Bpa, FusedVerdict, Hypothesis, TotalConflict, belief, combine, combine_all, vacuous
from .geometry import BoundingBox, Detection, GroundTruthObject, MatchLabel, iou, match_detections
from .trust import InsufficientData, PrPoint, TrustModel, bpd_precision, build_pr_table, build_trust_model
from .fusion import FusedDetection, fuse_images
from .evaluation import EvalReport, NoGroundTruth, average_precision, evaluate_methods
from .datagen import ConfigError, SyntheticDataset, SyntheticDetectorProfile, generate

__all__ = [
    "Bpa",
    "BoundingBox",
    "ConfigError",
    "Detection",
    "EvalReport",
    "FusedDetection",
    "FusedVerdict",
    "GroundTruthObject",
    "Hypothesis",
    "InsufficientData",
    "MatchLabel",
    "NoGroundTruth",
    "PrPoint",
    "SyntheticDataset",
    "SyntheticDetectorProfile",
    "TotalConflict",
    "TrustModel",
    "average_precision",
    "belief",
    "bpd_precision",
    "build_pr_table",
    "build_trust_model",
    "combine",
    "combine_all",
    "evaluate_methods",
    "fuse_images",
    "generate",
    "iou",
    "match_detections",
    "vacuous",
]
