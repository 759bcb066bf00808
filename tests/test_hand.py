"""Canonicalization geometry: palm frame, scale, invariances."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from handgrasp.errors import DegenerateHand, SideError
from handgrasp.hand import (
    DEGENERATE_EPS,
    JOINT_COUNT,
    REFERENCE_LENGTH,
    HandFrame,
    JointId,
    RigidTransform,
    canonicalize,
    canonicalize_block,
    check_side,
    vector_length,
)

from conftest import random_pose_joints, random_rotation


def _axis_aligned_joints() -> np.ndarray:
    """Wrist at origin, palm flat in the xz plane, fingers along +z."""
    joints = np.zeros((JOINT_COUNT, 3))
    joints[JointId.MIDDLE_METACARPAL] = (0.0, 0.0, 0.08)
    joints[JointId.INDEX_METACARPAL] = (0.03, 0.0, 0.075)
    joints[JointId.PINKY_METACARPAL] = (-0.03, 0.0, 0.07)
    joints[JointId.MIDDLE_PROXIMAL] = (0.0, 0.0, 0.09)
    joints[JointId.INDEX_TIP] = (0.035, 0.01, 0.17)
    joints[JointId.THUMB_TIP] = (0.07, 0.0, 0.06)
    return joints


def _frame(joints: np.ndarray, side: str = "right") -> HandFrame:
    return HandFrame(0.0, side, joints)


def test_palm_frame_axis_aligned_is_identity():
    transform = canonicalize(_frame(_axis_aligned_joints())).palm
    assert np.allclose(transform.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(transform.translation, 0.0)


def test_palm_frame_covariant_under_rigid_motion():
    joints = _axis_aligned_joints()
    angle = np.pi / 2
    rot = np.array(
        [
            [np.cos(angle), 0.0, np.sin(angle)],
            [0.0, 1.0, 0.0],
            [-np.sin(angle), 0.0, np.cos(angle)],
        ]
    )
    shift = np.array([1.0, 2.0, 3.0])
    moved = joints @ rot.T + shift
    transform = canonicalize(_frame(moved)).palm
    assert np.allclose(transform.rotation, rot, atol=1e-12)
    assert np.allclose(transform.translation, shift, atol=1e-12)


def test_palm_frame_rejects_collinear_anchors():
    joints = np.zeros((JOINT_COUNT, 3))
    # wrist and all three anchor metacarpals on the z-axis
    joints[JointId.MIDDLE_METACARPAL] = (0.0, 0.0, 0.08)
    joints[JointId.INDEX_METACARPAL] = (0.0, 0.0, 0.06)
    joints[JointId.PINKY_METACARPAL] = (0.0, 0.0, 0.04)
    joints[JointId.MIDDLE_PROXIMAL] = (0.0, 0.0, 0.09)
    with pytest.raises(DegenerateHand):
        canonicalize(_frame(joints))


def test_palm_frame_rejects_coincident_anchors():
    joints = np.zeros((JOINT_COUNT, 3))
    joints[JointId.MIDDLE_PROXIMAL] = (0.0, 0.0, 0.09)
    with pytest.raises(DegenerateHand):
        canonicalize(_frame(joints))


def test_hand_scale_reference_length_is_one():
    joints = _axis_aligned_joints()
    assert np.linalg.norm(joints[JointId.MIDDLE_PROXIMAL]) == REFERENCE_LENGTH
    assert canonicalize(_frame(joints)).scale == 1.0


def test_hand_scale_linear_ratio():
    joints = _axis_aligned_joints()
    joints[JointId.MIDDLE_PROXIMAL] = (0.0, 0.0, 0.108)
    assert canonicalize(_frame(joints)).scale == 1.2


def test_hand_scale_rejects_coincident_joints():
    joints = _axis_aligned_joints()
    joints[JointId.MIDDLE_PROXIMAL] = (0.0, 0.0, 0.0)
    with pytest.raises(DegenerateHand):
        canonicalize(_frame(joints))


def test_canonicalize_axis_aligned_divides_by_scale():
    joints = _axis_aligned_joints()
    canonical = canonicalize(_frame(joints))
    assert canonical.scale == 1.0
    assert np.allclose(canonical.joints_local, joints, atol=1e-12)
    bigger = canonicalize(_frame(joints * 2.0))
    assert bigger.scale == 2.0
    assert np.allclose(bigger.joints_local, joints, atol=1e-12)


def test_canonical_wrist_at_origin():
    rng = np.random.default_rng(11)
    for _ in range(50):
        joints = random_pose_joints(rng) + rng.uniform(-1.0, 1.0, 3)
        canonical = canonicalize(_frame(joints))
        assert np.linalg.norm(canonical.joints_local[JointId.WRIST]) < 1e-9


def test_rigid_motion_invariance_brute_force():
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(100):
        joints = random_pose_joints(rng)
        base = canonicalize(_frame(joints))
        rot = random_rotation(rng)
        shift = rng.uniform(-2.0, 2.0, 3)
        moved = canonicalize(_frame(joints @ rot.T + shift))
        worst = max(worst, np.abs(moved.joints_local - base.joints_local).max())
        assert abs(moved.scale - base.scale) < 1e-12
    assert worst < 1e-9


def test_uniform_scaling_about_wrist_only_changes_scale():
    rng = np.random.default_rng(77)
    for _ in range(100):
        joints = random_pose_joints(rng)
        wrist = joints[JointId.WRIST].copy()
        base = canonicalize(_frame(joints))
        scaled = (joints - wrist) * 1.15 + wrist
        other = canonicalize(_frame(scaled))
        assert np.abs(other.joints_local - base.joints_local).max() < 1e-9
        assert abs(other.scale / base.scale - 1.15) < 1e-12


def test_palm_frame_idempotent_on_canonical_pose():
    rng = np.random.default_rng(23)
    joints = random_pose_joints(rng)
    canonical = canonicalize(_frame(joints))
    again = canonicalize(_frame(canonical.joints_local)).palm
    assert np.abs(again.rotation - np.eye(3)).max() < 1e-9
    assert np.abs(again.translation).max() < 1e-9


def test_left_hand_mirror_matches_right():
    # the same grasp performed by the other hand is its mirror image;
    # both sides must canonicalize to the same template coordinates
    rng = np.random.default_rng(99)
    for _ in range(100):
        joints = random_pose_joints(rng)
        right = canonicalize(HandFrame(0.0, "right", joints))
        mirrored = joints * np.array([-1.0, 1.0, 1.0])
        left = canonicalize(HandFrame(0.0, "left", mirrored))
        assert np.abs(left.joints_local - right.joints_local).max() < 1e-12
        assert left.scale == right.scale


def test_canonicalize_deterministic():
    rng = np.random.default_rng(3)
    joints = random_pose_joints(rng)
    a = canonicalize(_frame(joints.copy()))
    b = canonicalize(_frame(joints.copy()))
    assert np.array_equal(a.joints_local, b.joints_local)
    assert a.scale == b.scale


def test_hand_frame_validates_joint_count():
    with pytest.raises(ValueError):
        HandFrame(0.0, "right", np.zeros((24, 3)))
    with pytest.raises(ValueError):
        HandFrame(0.0, "right", np.zeros((25, 2)))


def test_rigid_transform_compose_inverse_roundtrip():
    rng = np.random.default_rng(8)
    rot = random_rotation(rng)
    transform = RigidTransform(rot, rng.uniform(-1.0, 1.0, 3))
    points = rng.normal(size=(10, 3))
    back = transform.inverse().apply(transform.apply(points))
    assert np.abs(back - points).max() < 1e-12
    both = transform.compose(transform.inverse())
    assert np.allclose(both.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(both.translation, 0.0, atol=1e-12)


# ── the scalar palm kernel against the vector formulation ───────────────


def _reference_basis(joints: np.ndarray) -> np.ndarray:
    """The palm basis as cross products of 3-vectors, which the scalar
    kernel replaced; it must keep giving the same bits."""
    wrist = joints[JointId.WRIST]
    forward_raw = joints[JointId.MIDDLE_METACARPAL] - wrist
    span_raw = joints[JointId.INDEX_METACARPAL] - joints[JointId.PINKY_METACARPAL]
    forward_len = vector_length(forward_raw)
    span_len = vector_length(span_raw)
    if forward_len < DEGENERATE_EPS or span_len < DEGENERATE_EPS:
        raise DegenerateHand("palm anchors coincide")
    forward = forward_raw / forward_len
    normal_raw = np.cross(forward, span_raw / span_len)
    normal_len = vector_length(normal_raw)
    if normal_len < DEGENERATE_EPS:
        raise DegenerateHand("palm anchors are collinear")
    normal = normal_raw / normal_len
    lateral = np.cross(normal, forward)
    return np.column_stack((lateral, normal, forward))


def _reference_canonical(frame: HandFrame) -> tuple[np.ndarray, float]:
    basis = _reference_basis(frame.joints)
    scale = vector_length(frame.joints[JointId.MIDDLE_PROXIMAL] - frame.joints[JointId.WRIST]) / REFERENCE_LENGTH
    local = ((frame.joints - frame.joints[JointId.WRIST]) @ basis) / scale
    if frame.side == "left":
        local = local.copy()
        local[:, 1] = -local[:, 1]
    return local, scale


def _outcome(basis_of, joints: np.ndarray):
    try:
        return basis_of(joints)
    except DegenerateHand as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    side=st.sampled_from(("left", "right")),
    size=st.floats(0.5, 2.0),
    shift=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
)
def test_palm_basis_and_canonical_joints_are_bit_equal_to_the_reference(seed, side, size, shift):
    rng = np.random.default_rng(seed)
    joints = random_pose_joints(rng)
    if side == "left":
        joints = joints * np.array([-1.0, 1.0, 1.0])
    joints = (joints * size) @ random_rotation(rng).T + np.array(shift)
    frame = HandFrame(0.0, side, joints)

    canonical = canonicalize(frame)
    # the palm canonicalize returns is unmirrored, on both sides
    assert np.array_equal(canonical.palm.rotation, _reference_basis(joints))
    assert np.array_equal(canonical.palm.translation, joints[JointId.WRIST])
    local, scale = _reference_canonical(frame)
    assert np.array_equal(canonical.joints_local, local)
    assert canonical.scale == scale


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("forward", "span", "collinear")),
    gap=st.one_of(
        st.sampled_from((0.0, 1e-12, DEGENERATE_EPS, 1e-6)),
        st.floats(0.0, 1e-8),
    ),
)
def test_degenerate_anchors_raise_exactly_where_the_reference_does(seed, kind, gap):
    rng = np.random.default_rng(seed)
    joints = random_pose_joints(rng) @ random_rotation(rng).T
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    if kind == "forward":  # middle metacarpal on (or next to) the wrist
        joints[JointId.MIDDLE_METACARPAL] = joints[JointId.WRIST] + gap * direction
    elif kind == "span":  # index metacarpal on (or next to) the pinky one
        joints[JointId.INDEX_METACARPAL] = joints[JointId.PINKY_METACARPAL] + gap * direction
    else:  # index-pinky span along the wrist-middle line, then nudged off it
        forward = joints[JointId.MIDDLE_METACARPAL] - joints[JointId.WRIST]
        joints[JointId.INDEX_METACARPAL] = (
            joints[JointId.PINKY_METACARPAL] + rng.uniform(-1.0, 1.0) * forward + gap * direction
        )

    expected = _outcome(_reference_basis, joints)
    actual = _outcome(lambda j: canonicalize(HandFrame(0.0, "right", j)).palm.rotation, joints)
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert np.array_equal(actual, expected)


def _spoil(joints: np.ndarray, rng: np.random.Generator, kind: str, gap: float) -> None:
    """Move one anchor so that the length one degenerate test reads is about `gap`."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    if kind == "forward":  # middle metacarpal on the wrist
        joints[JointId.MIDDLE_METACARPAL] = joints[JointId.WRIST] + gap * direction
    elif kind == "span":  # index metacarpal on the pinky one
        joints[JointId.INDEX_METACARPAL] = joints[JointId.PINKY_METACARPAL] + gap * direction
    elif kind == "collinear":  # index-pinky span along the wrist-middle line, nudged off it
        forward = joints[JointId.MIDDLE_METACARPAL] - joints[JointId.WRIST]
        span = rng.uniform(0.5, 1.5) * forward
        across = np.cross(forward, direction)
        across /= np.linalg.norm(across)
        # the unit normal's length is then about `gap`
        joints[JointId.INDEX_METACARPAL] = (
            joints[JointId.PINKY_METACARPAL] + span + gap * np.linalg.norm(span) * across
        )
    else:  # "size": middle proximal on the wrist
        joints[JointId.MIDDLE_PROXIMAL] = joints[JointId.WRIST] + gap * direction


# no explain phase: on a failure it runs for minutes and grows to a gigabyte
@settings(
    max_examples=150,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.sampled_from((1, 63, 64, 65)),
    spoiled=st.lists(
        st.tuples(
            st.integers(0, 64),
            st.sampled_from(("forward", "span", "collinear", "size")),
            st.one_of(st.sampled_from((0.0, 1e-12, DEGENERATE_EPS, 1e-6)), st.floats(0.0, 1e-8)),
        ),
        max_size=6,
    ),
)
def test_block_kernel_is_bit_equal_to_canonicalize_and_none_exactly_where_it_raises(seed, length, spoiled):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(length):
        side = ("left", "right")[rng.integers(2)]
        joints = random_pose_joints(rng)
        if side == "left":
            joints = joints * np.array([-1.0, 1.0, 1.0])
        joints = (joints * rng.uniform(0.5, 2.0)) @ random_rotation(rng).T + rng.uniform(-5.0, 5.0, 3)
        frames.append(HandFrame(0.0, side, joints))
    for row, (kind, gap) in {row % length: (kind, gap) for row, kind, gap in spoiled}.items():
        _spoil(frames[row].joints, rng, kind, gap)

    for frame, hand in zip(frames, canonicalize_block(frames), strict=True):
        try:
            expected = canonicalize(frame)
        except DegenerateHand:
            assert hand is None
            continue
        assert hand is not None
        assert hand.joints_local.tobytes() == expected.joints_local.tobytes()
        assert np.float64(hand.scale).tobytes() == np.float64(expected.scale).tobytes()
        assert hand.palm.rotation.tobytes() == expected.palm.rotation.tobytes()
        assert hand.palm.translation.tobytes() == expected.palm.translation.tobytes()


@pytest.mark.parametrize("kind", ["forward", "span", "collinear", "size"])
def test_block_kernel_draws_each_degenerate_bound_where_canonicalize_does(kind):
    rng = np.random.default_rng(19)
    frames = []
    for factor in (0.5, 0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1, 2.0):
        joints = random_pose_joints(rng) @ random_rotation(rng).T
        _spoil(joints, rng, kind, factor * DEGENERATE_EPS)
        frames.append(HandFrame(0.0, "right", joints))
    refused = []
    for frame, hand in zip(frames, canonicalize_block(frames), strict=True):
        try:
            expected = canonicalize(frame)
        except DegenerateHand:
            refused.append(True)
            assert hand is None
            continue
        refused.append(False)
        assert hand.joints_local.tobytes() == expected.joints_local.tobytes()
    assert refused[0] and not refused[-1]  # both sides of the bound are drawn


def test_check_side_refuses_only_the_other_side_of_a_bound_stream():
    frame = HandFrame(0.0, "left", _axis_aligned_joints(), line_no=7)
    check_side(frame, None)
    check_side(frame, "left")
    with pytest.raises(SideError) as caught:
        check_side(frame, "right")
    assert (caught.value.code, caught.value.line_no, caught.value.field) == ("hand", 7, "hand")
