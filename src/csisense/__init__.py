"""Wi-Fi CSI human-interaction sensing: synthesis, features, model, pipeline.

The subpackages are importable directly; this namespace re-exports only the
handful of names almost every caller touches.
"""

__version__ = "0.1.0"

from .channel import PropagationConfig
from .domain import LABELS, NUM_CLASSES, STEADY_STATE, Trial
from .errors import (
    ChecksumError,
    CsiSenseError,
    DomainError,
    FormatError,
    TrainingDiverged,
    VersionError,
)
from .model import ArchConfig, TrainConfig, build

__all__ = [
    "ArchConfig",
    "ChecksumError",
    "CsiSenseError",
    "DomainError",
    "FormatError",
    "LABELS",
    "NUM_CLASSES",
    "PropagationConfig",
    "STEADY_STATE",
    "TrainConfig",
    "Trial",
    "TrainingDiverged",
    "VersionError",
    "__version__",
    "build",
]
