"""Energy-based OOD detection under long-tailed imbalance, with streaming
test-time adaptation of the outlier energy distribution."""

# not cli: `python -m adaptod.cli` must find it unimported (`from adaptod import cli` works)
from . import data, dne, doda, energy, errors, metrics, nn  # noqa: F401

__all__ = ["cli", "data", "dne", "doda", "energy", "errors", "metrics", "nn"]
__version__ = "0.1.0"
