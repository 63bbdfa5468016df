"""Detector-agnostic late fusion of object-detection scores."""

from .dst import Bpa, TotalConflict, combine, combine_all, fused_scores
from .geometry import BoundingBox, Detection, MatchLabel, Truth, iou, match_detections, truths
from .trust import InsufficientData, TrustModel, bpd_precision, build_pr_table
from .fusion import fuse_images
from .io import DetectionColumns, Ids
from .evaluation import EvalReport, NoGroundTruth, average_precision, evaluate_methods
from .datagen import ConfigError, SyntheticDataset, SyntheticDetectorProfile, generate

__all__ = [
    "Bpa",
    "BoundingBox",
    "ConfigError",
    "Detection",
    "DetectionColumns",
    "EvalReport",
    "Ids",
    "InsufficientData",
    "MatchLabel",
    "NoGroundTruth",
    "SyntheticDataset",
    "SyntheticDetectorProfile",
    "TotalConflict",
    "TrustModel",
    "Truth",
    "average_precision",
    "bpd_precision",
    "build_pr_table",
    "combine",
    "combine_all",
    "evaluate_methods",
    "fused_scores",
    "fuse_images",
    "generate",
    "iou",
    "match_detections",
    "truths",
]
