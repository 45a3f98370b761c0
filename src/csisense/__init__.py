"""Wi-Fi CSI human-interaction sensing: synthesis, features, model, pipeline.

Import the subpackages directly (``csisense.cli``, ``csisense.model``, ...);
this namespace holds only the version.
"""

__version__ = "0.1.0"
