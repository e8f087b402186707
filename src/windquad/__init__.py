"""Quadrotor simulation with geometric adaptive control under wind."""

from .config import default_config_text

__version__ = "0.1.0"
