"""Shared fixtures: a demo scene on disk and random pose helpers."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from handgrasp.scene import load_scene
from handgrasp.scripts import build_demo_scene
from handgrasp.streams import POSE_KINDS, keypose


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("demo-scene")
    return build_demo_scene(directory).parent


@pytest.fixture(scope="session")
def demo_config(demo_dir: Path) -> Path:
    return demo_dir / "scene.json"


@pytest.fixture()
def demo(demo_config: Path):
    # reloaded per test: template stores are mutable
    return load_scene(demo_config)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose_joints(rng: np.random.Generator, wobble: float = 0.004) -> np.ndarray:
    """A plausible hand: a key pose with per-joint wobble."""
    kind = POSE_KINDS[rng.integers(len(POSE_KINDS))]
    joints = keypose(kind).copy()
    joints += rng.normal(0.0, wobble, joints.shape)
    return joints
