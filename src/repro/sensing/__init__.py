"""The sensing subsystem: sensor frames in, StepID stream out."""

from repro.sensing.history import DwellStats, UsageHistory, UsageRecord
from repro.sensing.segmentation import infer_routine, segment_episodes
from repro.sensing.step_extractor import StepExtractor
from repro.sensing.subsystem import SensingSubsystem

__all__ = [
    "DwellStats",
    "SensingSubsystem",
    "StepExtractor",
    "UsageHistory",
    "UsageRecord",
    "infer_routine",
    "segment_episodes",
]
