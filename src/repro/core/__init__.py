"""The paper's analysis technique: detection, enumeration, geolocation."""

from .detection import DetectionResult, detect, detection_mask, radius_matrix
from .enumeration import (
    exact_mis,
    greedy_approximation_ratio,
    greedy_mis,
    is_independent_set,
)
from .geolocation import (
    GeolocatedReplica,
    classify_disk,
    classify_nearest,
    geolocation_error_km,
)
from .igreedy import IGreedyConfig, IGreedyResult, igreedy
from .samples import LatencySample, min_rtt_samples, samples_to_disks

__all__ = [
    "DetectionResult",
    "detect",
    "detection_mask",
    "radius_matrix",
    "exact_mis",
    "greedy_approximation_ratio",
    "greedy_mis",
    "is_independent_set",
    "GeolocatedReplica",
    "classify_disk",
    "classify_nearest",
    "geolocation_error_km",
    "IGreedyConfig",
    "IGreedyResult",
    "igreedy",
    "LatencySample",
    "min_rtt_samples",
    "samples_to_disks",
]
