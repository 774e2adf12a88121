"""Oriented object detection in polar coordinates.

Boxes are represented by a pole point (the centroid), one shared radius
and the two smallest corner angles; the network regresses those three
numbers per object on a stride-4 grid next to a per-class center heatmap.
"""

from .encoding import GridConfig, Targets, encode_regression
from .evaluation import (ClassEval, EvalReport, PRPoint, average_precision,
                         evaluate, match_detections, mean_ap,
                         precision_recall_curve)
from .formats import GroundTruth
from .geometry import (PolarBox, Point2, QuadBox, intersection_area,
                       normalize_angle, oriented_nms, pairwise_iou,
                       polar_to_quad, quad_to_polar,
                       rotated_iou, signed_area)
from .losses import (LossConfig, LossValue, pole_focal_loss, polar_ring_loss,
                     ring_area, smooth_l1, total_loss, total_regression_loss)
from .postprocess import (DecodeResult, Detections, Poles, decode_poles,
                          extract_pole_points)
from .synthdata import (SceneSpec, generate_dataset, generate_scene, read_pgm,
                        write_dataset, write_pgm)
from .toynet import (Adam, ToyNet, TrainConfig, compute_batch_loss,
                     image_to_input, load_checkpoint, predict_planes,
                     save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "Adam", "ClassEval", "DecodeResult", "Detections", "EvalReport",
    "GridConfig", "GroundTruth", "LossConfig", "LossValue", "PRPoint",
    "Point2", "PolarBox", "Poles", "QuadBox", "SceneSpec", "Targets",
    "ToyNet", "TrainConfig", "average_precision", "compute_batch_loss",
    "decode_poles", "encode_regression", "evaluate", "extract_pole_points",
    "generate_dataset", "generate_scene", "image_to_input",
    "intersection_area", "load_checkpoint", "match_detections", "mean_ap",
    "normalize_angle", "oriented_nms", "pairwise_iou", "polar_to_quad",
    "pole_focal_loss", "polar_ring_loss", "precision_recall_curve",
    "predict_planes", "quad_to_polar", "read_pgm", "ring_area",
    "rotated_iou", "save_checkpoint", "signed_area", "smooth_l1",
    "total_loss", "total_regression_loss", "train", "write_dataset",
    "write_pgm",
]
