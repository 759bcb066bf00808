"""Hand-grasp gesture authoring, recognition, and placement simulation."""

__version__ = "0.1.0"
