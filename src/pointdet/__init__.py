"""pointdet: a prediction-decoupled dense object detector at desk scale.

The detector reads each target (object class; each box side) from its own
favorable location instead of a single shared grid cell: a two-step module
predicts a coarse box per grid, places one dynamic point on each coarse edge
and N semantic points inside, and collects regression/classification
predictions at those points via bilinear sampling, blending regression
samples across neighboring pyramid levels with learned softmax weights.

Everything (tensor kernels, gradients, optimizer, NMS, AP) is implemented on
plain numpy float64 arrays.
"""

from .estimator import PointDetector, check_annotations, check_images
from .geometry import Box
from .inference import Detection, average_precision, detect, nms
from .model import DetectionModel, ModelConfig
from .scenes import GroundTruth, generate_scene

__version__ = "0.1.0"

__all__ = [
    "PointDetector",
    "check_images",
    "check_annotations",
    "Box",
    "Detection",
    "detect",
    "nms",
    "average_precision",
    "DetectionModel",
    "ModelConfig",
    "GroundTruth",
    "generate_scene",
    "__version__",
]
