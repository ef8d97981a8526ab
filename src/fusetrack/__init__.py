"""fusetrack: radar-camera fusion multi-object tracking on image center points.

The package provides the building blocks of a camera-first 3D tracking
pipeline that consumes per-frame center detections (pixel position, depth,
velocity, displacement) together with sparse radar returns:

* :mod:`fusetrack.geometry` - batched pinhole projection and back-projection
  between vehicle frame and image.
* :mod:`fusetrack.heatmap` - center heatmaps, peak decoding, penalty-shaped focal loss.
* :mod:`fusetrack.fusion` - radar pillars, frustum association, depth/velocity fusion.
* :mod:`fusetrack.association` - displacement-guided greedy matching with a
  pixel/depth/velocity cost.
* :mod:`fusetrack.tracker` - online track lifecycle around the association step.
* :mod:`fusetrack.metrics` - CLEAR-style counts, MOTAR, AMOTA/AMOTP evaluation.
* :mod:`fusetrack.simulator` - seeded synthetic scenes with noisy detections and radar.
* :mod:`fusetrack.fileio` / :mod:`fusetrack.cli` - JSONL replay/result files,
  YAML configs, and the command-line front end.
"""

__version__ = "0.1.0"

from .association import AssociationResult, CostWeights, Detection, Track, cost_matrix, greedy_associate
from .fusion import Pillar, PillarDims, PreliminaryDetection, RadarMatch, RadarPoint, expand_pillars, frustum_associate
from .geometry import CameraModel, image_to_vehicle, project_points
from .heatmap import FocalParams, Heatmap, HeatmapConfig, Peak, extract_peaks, focal_loss, render_gaussian
from .metrics import (
    ErrorCounts,
    GroundTruthFrame,
    GroundTruthObject,
    MetricsReport,
    PredictedFrame,
    PredictedObject,
    amota,
    count_sequence_errors,
    motar,
)
from .simulator import NoiseModel, RadarModel, ScenarioConfig, Scene, crossing_scenario, generate
from .tracker import FrameInput, FrameResult, LatencyStats, Tracker, TrackerConfig, TrackSnapshot, run_sequence

__all__ = [
    "__version__",
    # geometry
    "CameraModel",
    "image_to_vehicle",
    "project_points",
    # heatmap
    "FocalParams",
    "Heatmap",
    "HeatmapConfig",
    "Peak",
    "extract_peaks",
    "focal_loss",
    "render_gaussian",
    # fusion
    "Pillar",
    "PillarDims",
    "PreliminaryDetection",
    "RadarMatch",
    "RadarPoint",
    "expand_pillars",
    "frustum_associate",
    # association
    "AssociationResult",
    "CostWeights",
    "Detection",
    "Track",
    "cost_matrix",
    "greedy_associate",
    # tracker
    "FrameInput",
    "FrameResult",
    "LatencyStats",
    "Tracker",
    "TrackerConfig",
    "TrackSnapshot",
    "run_sequence",
    # metrics
    "ErrorCounts",
    "GroundTruthFrame",
    "GroundTruthObject",
    "MetricsReport",
    "PredictedFrame",
    "PredictedObject",
    "amota",
    "count_sequence_errors",
    "motar",
    # simulator
    "NoiseModel",
    "RadarModel",
    "Scene",
    "ScenarioConfig",
    "crossing_scenario",
    "generate",
]
