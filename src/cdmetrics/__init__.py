"""Class-diagram design metrics, understandability estimation, and validation."""

__version__ = "0.1.0"
