"""The seeded uniform stream: bit-equal to numpy's default_rng, and the
reason protocol runs never load numpy.random."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from handgrasp.errors import InvalidArgument
from handgrasp.scene import load_scene
from handgrasp.scripts import script_protocol_run
from handgrasp.seeded import SeededStream
from handgrasp.streams import COORDINATE_LIMIT, write_frames

ROOT = Path(__file__).resolve().parent.parent
SCENE = ROOT / "data" / "demo" / "scene.json"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}

_coordinates = st.floats(-COORDINATE_LIMIT, COORDINATE_LIMIT)
_seeds = st.integers(0, 2**256)
# no explain phase, as elsewhere in the suite
_PHASES = [Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink]




def _ordered(pair: tuple[float, float]) -> tuple[float, float]:
    """(low, high) with high >= low; a zero width is +0.0, as numpy needs."""
    low, high = sorted(pair)
    return (low, high) if high > low else (low, low)


# numpy.random is the oracle here, and only here
@settings(max_examples=200, deadline=None, phases=_PHASES)
@given(
    seed=_seeds,
    bounds=st.lists(st.tuples(_coordinates, _coordinates).map(_ordered), min_size=1, max_size=4),
    rounds=st.integers(1, 24),
)
@example(seed=0, bounds=[(0.25, 0.25), (-0.0, -0.0), (0.0, 0.0)], rounds=3)  # zero width
@example(seed=2**256, bounds=[(-COORDINATE_LIMIT, COORDINATE_LIMIT)], rounds=3)
@example(seed=2**32, bounds=[(-0.45, 0.45), (-0.15, 0.25), (0.25, 0.65)], rounds=24)
def test_draws_equal_numpy_default_rng_uniform(seed, bounds, rounds):
    lows = [low for low, _ in bounds]
    highs = [high for _, high in bounds]
    ours = SeededStream(seed)
    theirs = np.random.default_rng(seed)
    for _ in range(rounds):
        drawn = [ours.uniform(low, high) for low, high in bounds]
        assert np.array(drawn).tobytes() == theirs.uniform(lows, highs).tobytes()
        low, high = bounds[0]
        assert np.float64(ours.uniform(low, high)).tobytes() == np.float64(theirs.uniform(low, high)).tobytes()


@settings(max_examples=50, deadline=None, phases=_PHASES)
@given(seed=_seeds, bounds=st.tuples(_coordinates, _coordinates).filter(lambda pair: pair[1] < pair[0]))
@example(seed=0, bounds=(0.65, 0.25))
def test_high_below_low_is_refused_where_numpy_refuses_it(seed, bounds):
    low, high = bounds
    with pytest.raises(ValueError, match="high - low < 0"):
        np.random.default_rng(seed).uniform(low, high)
    with pytest.raises(InvalidArgument, match="low <= high"):
        SeededStream(seed).uniform(low, high)


def test_a_zero_width_with_its_sign_bit_set_is_drawn_although_numpy_refuses_it():
    # 0.0 to -0.0: numpy refuses the width -0.0 by its sign bit; the stream
    # refuses only high < low, as the scene loader does, and draws low
    with pytest.raises(ValueError, match="high - low < 0"):
        np.random.default_rng(3).uniform(0.0, -0.0)
    assert SeededStream(3).uniform(0.0, -0.0) == 0.0


def test_a_negative_seed_is_refused():
    with pytest.raises(InvalidArgument, match="seed must be >= 0"):
        SeededStream(-1)


# ── protocol runs leave numpy.random unloaded ────────────────────────────

_SIMULATE = """
import sys
from handgrasp import cli
code = cli.main(["simulate", "--in", sys.argv[1], "--scene", sys.argv[2], "--technique", "custom",
                 "--out", sys.argv[3]])
assert code == 0, code
assert "numpy.random" not in sys.modules
"""

_ENGINE = """
import sys
from handgrasp.scene import load_scene
from handgrasp.sim import SessionEngine
from handgrasp.streams import read_frames
scene, store = load_scene(sys.argv[2])
engine = SessionEngine(scene, store, "custom")
frames = read_frames(sys.argv[1])
engine.feed(next(frames))
assert "numpy.random" not in sys.modules
# through the second trial, whose target is the first seeded draw
for frame in frames:
    engine.feed(frame)
    if len(engine.results) == 2:
        break
assert len(engine.results) == 2
assert "numpy.random" not in sys.modules
"""


@pytest.fixture(scope="module")
def custom_frames(tmp_path_factory) -> Path:
    scene, _ = load_scene(SCENE)
    path = tmp_path_factory.mktemp("streams") / "custom.frames"
    write_frames(path, script_protocol_run(scene, "custom"))
    return path


@pytest.mark.parametrize("program", [_SIMULATE, _ENGINE], ids=["simulate", "engine"])
def test_a_protocol_run_never_loads_numpy_random(program, custom_frames, tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", program, str(custom_frames), str(SCENE), str(tmp_path / "results.csv")],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
