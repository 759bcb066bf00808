"""Hand skeleton model and wrist-anchored canonicalization.

A tracked hand is 25 joints in world space (meters). Recognition never
works on world coordinates directly: every frame is re-expressed in a
palm-local basis anchored at the wrist and divided by a per-hand size
factor, which makes the downstream template comparison invariant to
where the hand is, how it is rotated, and how large it is. Left hands
are mirrored onto right-hand convention so one template serves both.

Every frame is admitted by canonicalization, whatever the technique: a
skeleton without a palm basis or a size is refused before anything reads
it. The palm basis is computed once per frame, in scalar arithmetic: the
same operations in the same order as the cross-product formulation, so
the same bits. `canonicalize` hands its palm transform on with the
canonical joints, and a held object rides that transform. Two kernels
give those bits: `canonicalize` for live frames (server, capture, a
library caller's `feed`) and `canonicalize_block` for the blocks of a
file replay, which takes the same operations in the same order over
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DegenerateHand, SideError, TimeOrderError

JOINT_COUNT = 25
REFERENCE_LENGTH = 0.09  # wrist -> middle proximal, meters, defines size 1.0
DEGENERATE_EPS = 1e-9  # anchor collinearity / coincidence tolerance


class JointId(IntEnum):
    """Joint indices in the fixed 25-joint layout."""

    WRIST = 0
    THUMB_METACARPAL = 1
    THUMB_PROXIMAL = 2
    THUMB_DISTAL = 3
    THUMB_TIP = 4
    INDEX_METACARPAL = 5
    INDEX_PROXIMAL = 6
    INDEX_INTERMEDIATE = 7
    INDEX_DISTAL = 8
    INDEX_TIP = 9
    MIDDLE_METACARPAL = 10
    MIDDLE_PROXIMAL = 11
    MIDDLE_INTERMEDIATE = 12
    MIDDLE_DISTAL = 13
    MIDDLE_TIP = 14
    RING_METACARPAL = 15
    RING_PROXIMAL = 16
    RING_INTERMEDIATE = 17
    RING_DISTAL = 18
    RING_TIP = 19
    PINKY_METACARPAL = 20
    PINKY_PROXIMAL = 21
    PINKY_INTERMEDIATE = 22
    PINKY_DISTAL = 23
    PINKY_TIP = 24


FINGERTIPS = (
    JointId.THUMB_TIP,
    JointId.INDEX_TIP,
    JointId.MIDDLE_TIP,
    JointId.RING_TIP,
    JointId.PINKY_TIP,
)


def vector_length(v: np.ndarray) -> float:
    """Euclidean length of a 3-vector, squares summed left to right.

    1-D ``np.linalg.norm`` goes through the BLAS dot product, and OpenBLAS
    picks that kernel (and with it the rounding) from the CPU at run time.
    A plain scalar sum gives the same bits on every machine.
    """
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


@dataclass(frozen=True)
class HandFrame:
    """One tracked hand sample: timestamp, side, and 25 world joints."""

    timestamp: float
    side: str  # "left" | "right"
    joints: np.ndarray  # (25, 3) float64, world meters
    grip: bool | None = None  # controller grip bit, absent for bare hands
    line_no: int = 0  # stream line it was read from, named by its rejection; 0 when not read

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=np.float64)
        if joints.shape != (JOINT_COUNT, 3):
            raise ValueError(f"joints must be ({JOINT_COUNT}, 3), got {joints.shape}")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "joints", joints)


@dataclass(frozen=True)
class CanonicalHand:
    """Palm-local, size-normalized joints plus the size factor removed.

    `palm` is the frame's palm transform (never mirrored) when the hand
    came from `canonicalize`; a hand built from joints alone has none.
    """

    joints_local: np.ndarray  # (25, 3) float64, wrist at origin
    scale: float
    palm: RigidTransform | None = None


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation. Columns of `rotation` are the basis axes."""

    rotation: np.ndarray  # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation

    def compose(self, other: RigidTransform) -> RigidTransform:
        """Return self ∘ other (apply `other` first, then self)."""
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> RigidTransform:
        rot_t = self.rotation.T
        return RigidTransform(rotation=rot_t, translation=-(rot_t @ self.translation))


def check_time_order(frame: HandFrame, last_time: float | None) -> None:
    """Raise TimeOrderError when `frame` is stamped earlier than `last_time`; equal stamps are fine."""
    if last_time is not None and frame.timestamp < last_time:
        message = f"frame time {frame.timestamp!r} is earlier than the previous frame's {last_time!r}"
        raise TimeOrderError(message, frame.line_no, "t")


def check_side(frame: HandFrame, side: str | None) -> None:
    """Raise SideError when `frame` is not of `side`, the hand its stream is bound to (None: unbound)."""
    if side is not None and frame.side != side:
        raise SideError(f"a {frame.side} hand in a stream bound to the {side} hand", frame.line_no, "hand")


def _palm_basis(frame: HandFrame) -> np.ndarray:
    """Palm basis of `frame` as a 3x3 matrix with columns lateral, normal, forward.

    Scalar arithmetic on the four anchor joints: the same operations, in
    the same order, as the vector formulation (two cross products and
    three normalisations), so the same bits, without numpy's per-call
    dispatch on 3-vectors.
    """
    # rows 0, 5, 10, 15, 20: the wrist and the four finger metacarpals
    (wx, wy, wz), (ix, iy, iz), (mx, my, mz), _, (px, py, pz) = frame.joints[::5].tolist()
    fx, fy, fz = mx - wx, my - wy, mz - wz
    sx, sy, sz = ix - px, iy - py, iz - pz

    forward_len = math.sqrt(fx * fx + fy * fy + fz * fz)
    span_len = math.sqrt(sx * sx + sy * sy + sz * sz)
    if forward_len < DEGENERATE_EPS or span_len < DEGENERATE_EPS:
        raise DegenerateHand("palm anchors coincide", frame.line_no, "joints")

    fx, fy, fz = fx / forward_len, fy / forward_len, fz / forward_len
    sx, sy, sz = sx / span_len, sy / span_len, sz / span_len
    nx, ny, nz = fy * sz - fz * sy, fz * sx - fx * sz, fx * sy - fy * sx
    normal_len = math.sqrt(nx * nx + ny * ny + nz * nz)
    if normal_len < DEGENERATE_EPS:
        raise DegenerateHand("palm anchors are collinear", frame.line_no, "joints")

    nx, ny, nz = nx / normal_len, ny / normal_len, nz / normal_len
    # unit: normal ⟂ forward by construction
    lx, ly, lz = ny * fz - nz * fy, nz * fx - nx * fz, nx * fy - ny * fx
    return np.array([[lx, nx, fx], [ly, ny, fy], [lz, nz, fz]])


def canonicalize(frame: HandFrame) -> CanonicalHand:
    """Express all joints in the palm basis, divided by the size factor.

    The palm basis has its origin at the wrist and right-handed axes:
    forward points from the wrist toward the middle metacarpal, the normal
    is perpendicular to the palm, and the lateral axis completes the basis
    (lateral x normal = forward). The size factor is the wrist-to-middle-
    proximal length over REFERENCE_LENGTH. Left hands get their palm-normal
    coordinate negated, which maps a left hand onto the right-hand
    convention: mirror-image poses canonicalize identically regardless of
    side. The unmirrored palm transform comes back as `palm`, for callers
    that move a held object with the hand.

    Raises DegenerateHand when the wrist and the index/middle/pinky
    metacarpals do not span a plane, or the wrist and the middle proximal
    coincide.
    """
    rotation = _palm_basis(frame)
    wrist = frame.joints[JointId.WRIST]
    length = vector_length(frame.joints[JointId.MIDDLE_PROXIMAL] - wrist)
    if length < DEGENERATE_EPS:
        raise DegenerateHand("wrist and middle proximal coincide", frame.line_no, "joints")
    scale = length / REFERENCE_LENGTH
    local = ((frame.joints - wrist) @ rotation) / scale
    if frame.side == "left":
        local = local.copy()
        local[:, 1] = -local[:, 1]
    return CanonicalHand(joints_local=local, scale=scale, palm=RigidTransform(rotation, wrist.copy()))


def canonicalize_block(frames: list[HandFrame]) -> list[CanonicalHand | None]:
    """`canonicalize` of each frame in one pass; None where it would raise DegenerateHand.

    Component arrays over the block take `canonicalize`'s operations in the
    same order, each row rounded as the scalar code rounds it, then one
    stacked matmul, the division by the scale and the left-hand flip: every
    hand has the same bits as `canonicalize` gives. It pays only
    over many frames (a file replay); at one frame it costs several times
    `canonicalize`.
    """
    joints = np.array([frame.joints for frame in frames])
    wrist = joints[:, JointId.WRIST]
    # Python floats never warn; a degenerate row's 0/0 is dropped below
    with np.errstate(all="ignore"):
        fx, fy, fz = (joints[:, JointId.MIDDLE_METACARPAL] - wrist).T
        sx, sy, sz = (joints[:, JointId.INDEX_METACARPAL] - joints[:, JointId.PINKY_METACARPAL]).T
        forward_len = np.sqrt(fx * fx + fy * fy + fz * fz)
        span_len = np.sqrt(sx * sx + sy * sy + sz * sz)
        fx, fy, fz = fx / forward_len, fy / forward_len, fz / forward_len
        sx, sy, sz = sx / span_len, sy / span_len, sz / span_len
        nx, ny, nz = fy * sz - fz * sy, fz * sx - fx * sz, fx * sy - fy * sx
        normal_len = np.sqrt(nx * nx + ny * ny + nz * nz)
        nx, ny, nz = nx / normal_len, ny / normal_len, nz / normal_len
        lx, ly, lz = ny * fz - nz * fy, nz * fx - nx * fz, nx * fy - ny * fx
        dx, dy, dz = (joints[:, JointId.MIDDLE_PROXIMAL] - wrist).T
        size_len = np.sqrt(dx * dx + dy * dy + dz * dz)
    rotations = np.stack([lx, nx, fx, ly, ny, fy, lz, nz, fz], axis=-1).reshape(-1, 3, 3)
    # the comparisons read as `canonicalize` reads them, NaN included
    valid = ~(
        (forward_len < DEGENERATE_EPS)
        | (span_len < DEGENERATE_EPS)
        | (normal_len < DEGENERATE_EPS)
        | (size_len < DEGENERATE_EPS)
    )
    rows = np.flatnonzero(valid)
    if len(rows) < len(frames):
        joints, wrist, rotations, size_len = joints[rows], wrist[rows], rotations[rows], size_len[rows]
    scales = size_len / REFERENCE_LENGTH
    local = ((joints - wrist[:, None, :]) @ rotations) / scales[:, None, None]
    rows = rows.tolist()
    left = [k for k, row in enumerate(rows) if frames[row].side == "left"]
    local[left, :, 1] = -local[left, :, 1]
    hands: list[CanonicalHand | None] = [None] * len(frames)
    for row, joints_local, scale, rotation, translation in zip(rows, local, scales.tolist(), rotations, wrist):
        palm = RigidTransform(rotation=rotation, translation=translation)
        hands[row] = CanonicalHand(joints_local=joints_local, scale=scale, palm=palm)
    return hands
