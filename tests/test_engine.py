"""Template matching, hover gating, stillness, capture, grab/release."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from handgrasp.engine import (
    DISTANCE_BUDGET,
    HOVER_RADIUS,
    RELEASE,
    CaptureEvent,
    CaptureSession,
    GestureTemplate,
    GrabTracker,
    Match,
    StillnessWindow,
    TemplateIntent,
    TemplateStore,
    hover_update,
    match_score,
    pose_distance,
    recognize,
    surface_distance,
)
from handgrasp.errors import DegenerateHand, HandLost, InvalidArgument, TimeOrderError
from handgrasp.hand import (
    JOINT_COUNT,
    CanonicalHand,
    HandFrame,
    JointId,
    RigidTransform,
    canonicalize,
    palm_frame,
)
from handgrasp.scene import SceneObject
from handgrasp.streams import ScriptBuilder, keypose, pose_frame

from conftest import random_pose_joints


def _fist_template(name: str = "fist-g", object_id: str = "obj") -> GestureTemplate:
    local = canonicalize(pose_frame("fist")).joints_local
    return GestureTemplate(name, object_id, "grab", local)


def _shifted(template: GestureTemplate, per_joint: float) -> CanonicalHand:
    return CanonicalHand(template.joints_local + np.array([per_joint, 0.0, 0.0]), 1.0)


# ── similarity ───────────────────────────────────────────────────────────


def test_similarity_zero_against_own_frame():
    template = _fist_template()
    assert pose_distance(CanonicalHand(template.joints_local.copy(), 1.0), template) == 0.0


def test_similarity_single_joint_term():
    template = _fist_template()
    probe = template.joints_local.copy()
    probe[JointId.RING_TIP] += (0.0, 0.01, 0.0)
    assert pose_distance(CanonicalHand(probe, 1.0), template) == pytest.approx(0.01, abs=1e-15)


def test_similarity_uniform_two_millimetres_hits_budget_exactly():
    template = _fist_template()
    score = pose_distance(_shifted(template, 0.002), template)
    assert score == 0.05
    assert score <= DISTANCE_BUDGET


def test_similarity_symmetric():
    rng = np.random.default_rng(31)
    a = CanonicalHand(random_pose_joints(rng), 1.0)
    b = GestureTemplate("b", "o", "grab", random_pose_joints(rng))
    a_as_template = GestureTemplate("a", "o", "grab", a.joints_local)
    b_as_hand = CanonicalHand(b.joints_local, 1.0)
    assert pose_distance(a, b) == pose_distance(b_as_hand, a_as_template)


def test_similarity_monotone_under_bounded_noise():
    rng = np.random.default_rng(67)
    template = _fist_template()
    for _ in range(200):
        eps = float(rng.uniform(0.0, 0.01))
        noise = rng.uniform(-1.0, 1.0, (JOINT_COUNT, 3))
        noise *= eps / np.linalg.norm(noise, axis=1, keepdims=True)
        base = CanonicalHand(template.joints_local + noise, 1.0)
        assert pose_distance(base, template) <= 25.0 * eps + 1e-12


# ── recognition ──────────────────────────────────────────────────────────


def _hovered_with(store: TemplateStore, *templates: GestureTemplate) -> frozenset[str]:
    """Store the templates; the ids of the objects that own them, all hovered."""
    for template in templates:
        store.add(template)
    return frozenset(template.object_id for template in templates)


def test_recognize_exact_frame_scores_zero():
    store = TemplateStore()
    template = _fist_template()
    hovered = _hovered_with(store, template)
    match = recognize(CanonicalHand(template.joints_local.copy(), 1.0), hovered, store, "grab")
    assert match is not None
    assert match.gesture == "fist-g"
    assert match.score == 0.0


def test_recognize_smallest_distance_wins():
    store = TemplateStore()
    base = canonicalize(pose_frame("fist")).joints_local
    near = GestureTemplate("near-g", "obj", "grab", base + np.array([0.0008, 0.0, 0.0]))
    far = GestureTemplate("far-g", "obj", "grab", base + np.array([0.0016, 0.0, 0.0]))
    hovered = _hovered_with(store, far, near)
    match = recognize(CanonicalHand(base, 1.0), hovered, store, "grab")
    assert match.gesture == "near-g"
    assert match.score == pytest.approx(0.02, abs=1e-12)


def test_recognize_just_above_budget_returns_none():
    store = TemplateStore()
    template = _fist_template()
    hovered = _hovered_with(store, template)
    probe = _shifted(template, 0.051 / 25.0)
    assert pose_distance(probe, template) == pytest.approx(0.051, abs=1e-12)
    assert recognize(probe, hovered, store, "grab") is None


def test_recognize_boundary_match_is_inclusive():
    store = TemplateStore()
    template = _fist_template()
    hovered = _hovered_with(store, template)
    match = recognize(_shifted(template, 0.002), hovered, store, "grab")
    assert match is not None
    assert match.score == 0.05


def test_recognize_tie_breaks_on_lowest_name():
    store = TemplateStore()
    local = canonicalize(pose_frame("fist")).joints_local
    b = GestureTemplate("b-gesture", "obj2", "grab", local.copy())
    a = GestureTemplate("a-gesture", "obj1", "grab", local.copy())
    hovered = _hovered_with(store, b, a)
    match = recognize(CanonicalHand(local.copy(), 1.0), hovered, store, "grab")
    assert match.gesture == "a-gesture"
    assert match.object_id == "obj1"


def test_recognize_with_nothing_hovered_returns_none():
    store = TemplateStore()
    store.add(_fist_template())
    assert recognize(CanonicalHand(keypose("fist"), 1.0), frozenset(), store, "grab") is None


def test_recognize_role_filter_selects_release_templates():
    # smaller distance wins among release templates too: a partially
    # open hand picks the partial template over a nearby alternative
    store = TemplateStore()
    partial = canonicalize(pose_frame("partial_open")).joints_local
    store.add(_fist_template("grab-g", "obj"))
    store.add(GestureTemplate("release-exact", "obj", "release", partial.copy()))
    store.add(
        GestureTemplate(
            "release-off", "obj", "release", partial + np.array([0.001, 0.0, 0.0])
        )
    )
    hand = CanonicalHand(partial.copy(), 1.0)
    match = recognize(hand, frozenset({"obj"}), store, "release")
    assert match.gesture == "release-exact"
    assert match.score == 0.0
    # the grab-role template is not consulted
    assert recognize(hand, frozenset({"obj"}), store, "grab") is None


def test_template_store_stacks_the_role_templates_of_the_given_owners():
    store = TemplateStore()
    local = canonicalize(pose_frame("fist")).joints_local
    for name, owner, role in [
        ("b-grab", "b", "grab"), ("a-grab", "a", "grab"), ("a-release", "a", "release"), ("c-grab", "c", "grab")
    ]:
        store.add(GestureTemplate(name, owner, role, local))
    names, joints, budgets = store.stack(frozenset({"a", "b"}), "grab")
    assert names == ("a-grab", "b-grab")  # sorted, release and unhovered owners left out
    assert joints.shape == (2, JOINT_COUNT, 3) and np.array_equal(joints[0], local)
    assert budgets.tolist() == [DISTANCE_BUDGET, DISTANCE_BUDGET]
    assert store.stack(frozenset({"b", "a"}), "grab")[1] is joints  # cached per key
    assert store.stack(frozenset({"a"}), "release")[0] == ("a-release",)
    assert store.stack(frozenset(), "grab")[0] == ()
    store.add(GestureTemplate("a-grab-2", "a", "grab", local))
    assert store.stack(frozenset({"a", "b"}), "grab")[0] == ("a-grab", "a-grab-2", "b-grab")


def test_template_store_rejects_duplicate_names():
    store = TemplateStore()
    store.add(_fist_template("same"))
    with pytest.raises(InvalidArgument):
        store.add(_fist_template("same"))


# ── match_score view ─────────────────────────────────────────────────────


def test_match_score_agrees_at_exact_boundary():
    template = _fist_template()
    probe = _shifted(template, 0.002)
    assert pose_distance(probe, template) == 0.05
    assert match_score(probe, template) == 0.05


def test_match_score_rejects_just_past_boundary():
    template = _fist_template()
    assert match_score(_shifted(template, 0.0021), template) is None


def test_match_score_agrees_with_full_sum_near_boundary():
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(2000):
        reference = random_pose_joints(rng)
        template = GestureTemplate("g", "o", "grab", reference)
        delta = rng.normal(0.0, 0.002, (JOINT_COUNT, 3))
        raw = float(np.sqrt((delta * delta).sum(axis=1)).sum())
        delta *= (DISTANCE_BUDGET / raw) * rng.uniform(0.9, 1.1)
        probe = CanonicalHand(reference + delta, 1.0)
        full = pose_distance(probe, template)
        fast = match_score(probe, template)
        if (fast is not None) != (full <= template.threshold_sum):
            mismatches += 1
        elif fast is not None and fast != full:
            mismatches += 1
    assert mismatches == 0


def test_match_score_single_far_joint_discards():
    template = _fist_template()
    probe = template.joints_local.copy()
    probe[JointId.PINKY_TIP] += (0.0, 0.0, 0.06)
    assert match_score(CanonicalHand(probe, 1.0), template) is None


# ── hover gating ─────────────────────────────────────────────────────────


def _hover_frame(distance_from_surface: float, obj: SceneObject) -> HandFrame:
    joints = keypose("open").copy()
    # fingers extend along +z, away from the object, so the wrist is
    # the closest joint and sits exactly at the requested distance
    shift = obj.position + np.array(
        [0.0, 0.0, obj.bounding_radius + distance_from_surface]
    )
    return HandFrame(0.0, "right", joints + shift)


def _poses(obj: SceneObject) -> dict[str, RigidTransform]:
    return {obj.object_id: RigidTransform(np.eye(3), obj.position)}


def _cup() -> tuple[SceneObject, TemplateStore]:
    store = TemplateStore()
    store.add(_fist_template("cup-g", "cup"))
    return SceneObject("cup", np.array([0.0, 0.0, 0.4]), 0.05), store


def test_hover_event_at_nine_centimetres():
    obj, store = _cup()
    frame = _hover_frame(0.09, obj)
    assert surface_distance(frame, obj.position, obj.bounding_radius) <= HOVER_RADIUS
    events, _, hovered = hover_update(frame, [obj], _poses(obj), frozenset(), HOVER_RADIUS)
    assert [event.kind for event in events] == ["hover"]
    assert hovered == {"cup"}
    assert store.stack(hovered, "grab")[0] == ("cup-g",)


def test_unhover_event_at_eleven_centimetres():
    obj, store = _cup()
    _, _, hovered = hover_update(_hover_frame(0.09, obj), [obj], _poses(obj), frozenset(), HOVER_RADIUS)
    events, _, hovered = hover_update(_hover_frame(0.11, obj), [obj], _poses(obj), hovered, HOVER_RADIUS)
    assert [event.kind for event in events] == ["unhover"]
    assert hovered == frozenset()
    assert store.stack(hovered, "grab")[0] == ()


def test_hover_is_edge_triggered():
    obj, _ = _cup()
    events, hovered = [], frozenset()
    for _ in range(100):
        edges, _, hovered = hover_update(_hover_frame(0.09, obj), [obj], _poses(obj), hovered, HOVER_RADIUS)
        events.extend(edges)
    assert len(events) == 1


def _step(intent: TemplateIntent, tracker: GrabTracker, frame: HandFrame, hovered, poses):
    """One template-technique frame: decide the intent, then let the tracker apply it."""
    hand = canonicalize(frame)
    decided = intent.decide(tracker, frame.timestamp, hand, hovered)
    event = tracker.step(frame.timestamp, hand.palm, poses, decided)
    return [] if event is None else [event]


def test_no_grab_without_hover():
    rng = np.random.default_rng(1234)
    store = TemplateStore()
    template = _fist_template("fist-g", "ghost")
    store.add(template)
    hovered = frozenset()  # ghost never hovered
    intent, tracker = TemplateIntent(store), GrabTracker()
    poses = {"ghost": RigidTransform(np.eye(3), np.zeros(3))}
    t = 0.0
    for _ in range(200):
        # random mix of matching and non-matching hands
        if rng.random() < 0.5:
            joints = keypose("fist").copy()
        else:
            joints = random_pose_joints(rng)
        frame = HandFrame(t, "right", joints)
        assert _step(intent, tracker, frame, hovered, poses) == []
        t += 1.0 / 90.0
    assert not tracker.grabbed


# ── stillness ────────────────────────────────────────────────────────────


def test_stillness_warm_up_is_permissive():
    window = StillnessWindow()
    joints = keypose("fist")
    for i in range(9):
        assert window.update(HandFrame(i / 90.0, "right", joints.copy()))


def test_stillness_tolerates_small_jitter():
    rng = np.random.default_rng(17)
    window = StillnessWindow()
    joints = keypose("fist")
    for i in range(50):
        jittered = joints + rng.uniform(-0.004, 0.004, 3)
        assert window.update(HandFrame(i / 90.0, "right", jittered))


def test_stillness_fingertip_jump_resets_window():
    window = StillnessWindow()
    joints = keypose("fist")
    for i in range(7):
        assert window.update(HandFrame(i / 90.0, "right", joints.copy()))
    moved = joints.copy()
    moved[JointId.INDEX_TIP] += (0.0, 0.015, 0.0)
    assert not window.update(HandFrame(7 / 90.0, "right", moved))
    # the offending frame starts the new window: the original pose now
    # reads as movement relative to it
    assert not window.update(HandFrame(8 / 90.0, "right", joints.copy()))
    for i in range(9, 15):
        assert window.update(HandFrame(i / 90.0, "right", joints.copy()))


# ── capture sessions ─────────────────────────────────────────────────────


def _capture_target() -> SceneObject:
    return SceneObject("cube", np.array([0.0, 0.0, 0.0]), 0.05)


def _still_stream(duration: float, rate: float = 90.0):
    builder = ScriptBuilder(rate=rate)
    builder.hold(duration, kind="fist")
    return builder.frames()


def test_capture_completes_at_three_seconds():
    session = CaptureSession(_capture_target(), "cube-grasp")
    captured_at = None
    for frame in _still_stream(3.5):
        event = session.step(frame)
        if event.kind == "captured":
            captured_at = frame.timestamp
            template = event.template
            break
    assert captured_at is not None
    assert abs(captured_at - 3.0) <= 1.0 / 90.0
    assert template.name == "cube-grasp"
    assert template.object_id == "cube"
    expected = canonicalize(pose_frame("fist", timestamp=captured_at)).joints_local
    assert np.array_equal(template.joints_local, expected)


def test_capture_movement_spike_restarts_hold():
    session = CaptureSession(_capture_target(), "cube-grasp")
    captured_at = None
    saw_reset = False
    for frame in _still_stream(6.0):
        if abs(frame.timestamp - 2.0) < 1e-9:
            joints = frame.joints.copy()
            joints[JointId.INDEX_TIP] += (0.0, 0.015, 0.0)
            frame = HandFrame(frame.timestamp, frame.side, joints, frame.grip)
        event = session.step(frame)
        saw_reset = saw_reset or event.kind == "reset"
        if event.kind == "captured":
            captured_at = frame.timestamp
            break
    assert saw_reset
    assert captured_at is not None
    # one restart at the spike and one at the return to rest
    assert abs(captured_at - 5.0) <= 2.0 / 90.0


def test_capture_hover_loss_resets_progress():
    session = CaptureSession(_capture_target(), "cube-grasp")
    captured_at = None
    resets = []
    for frame in _still_stream(5.6):
        if 1.5 <= frame.timestamp < 2.0:
            # hand retreats far outside the hover zone
            frame = HandFrame(
                frame.timestamp, frame.side, frame.joints + np.array([0.0, 0.0, 0.6]),
                frame.grip,
            )
        event = session.step(frame)
        if event.kind == "reset":
            resets.append(frame.timestamp)
            assert event.progress == 0.0
            assert session.progress == 0.0
        if event.kind == "captured":
            captured_at = frame.timestamp
            break
    assert resets and abs(resets[0] - 1.5) <= 1.0 / 90.0
    # the hold starts over when the hand returns at t = 2.0
    assert captured_at is not None
    assert abs(captured_at - 5.0) <= 2.0 / 90.0


def test_capture_progress_is_clamped_fraction():
    session = CaptureSession(_capture_target(), "cube-grasp")
    previous = 0.0
    for frame in _still_stream(2.9):
        event = session.step(frame)
        assert 0.0 <= event.progress <= 1.0
        assert event.progress >= previous
        previous = event.progress
    assert previous == pytest.approx(2.9 / 3.0, abs=0.02)


def test_capture_tracking_gap_aborts():
    session = CaptureSession(_capture_target(), "cube-grasp")
    frames = list(_still_stream(1.0))
    for frame in frames:
        session.step(frame)
    late = HandFrame(frames[-1].timestamp + 0.6, "right", frames[-1].joints.copy())
    with pytest.raises(HandLost):
        session.step(late)


def test_capture_rejects_backwards_and_degenerate_frames_before_any_state_changes():
    session = CaptureSession(_capture_target(), "cube-grasp")
    frames = _still_stream(2.0)
    for frame in frames:
        session.step(frame)
    progress, last = session.progress, frames[-1]
    with pytest.raises(TimeOrderError) as err:
        session.step(replace(last, timestamp=last.timestamp - 0.1, line_no=7))
    assert (err.value.line_no, err.value.field) == (7, "t")
    with pytest.raises(DegenerateHand) as err:  # inside the target, so it would have read as movement
        session.step(replace(last, joints=np.zeros((JOINT_COUNT, 3)), line_no=8))
    assert (err.value.line_no, err.value.field) == (8, "joints")
    assert session.progress == progress
    # an equal stamp is accepted, and the hold goes on where it was
    assert session.step(last) == CaptureEvent("progress", progress)


def test_capture_rejects_frames_after_completion():
    session = CaptureSession(_capture_target(), "cube-grasp")
    frames = list(_still_stream(3.5))
    for frame in frames:
        if session.step(frame).kind == "captured":
            break
    with pytest.raises(InvalidArgument):
        session.step(frames[-1])


def test_capture_deterministic_templates():
    def run() -> bytes:
        session = CaptureSession(_capture_target(), "cube-grasp")
        for frame in _still_stream(3.5):
            event = session.step(frame)
            if event.kind == "captured":
                return event.template.joints_local.tobytes()
        raise AssertionError("never captured")

    assert run() == run()


# ── grab / release ───────────────────────────────────────────────────────


def _grab_setup(policy: str):
    store = TemplateStore()
    store.add(_fist_template("fist-g", "cube"))
    store.add(
        GestureTemplate(
            "cube-release", "cube", "release",
            canonicalize(pose_frame("partial_open")).joints_local,
        )
    )
    poses = {"cube": RigidTransform(np.eye(3), np.array([0.3, 0.0, 0.3]))}
    return TemplateIntent(store, release_policy=policy), GrabTracker(), frozenset({"cube"}), poses


def test_grab_rigid_attachment_zero_drift():
    intent, tracker, hovered, poses = _grab_setup("deviation")
    builder = ScriptBuilder(rate=90.0, start=(0.3, 0.0, 0.3))
    builder.hold(0.1, kind="fist")
    builder.move((0.0, 0.2, 0.6), 0.5, kind="fist")
    builder.hold(0.2)
    offsets = []
    for frame in builder.frames():
        _step(intent, tracker, frame, hovered, poses)
        if tracker.grabbed:
            offsets.append(palm_frame(frame).inverse().apply(poses["cube"].translation))
    offsets = np.array(offsets)
    assert len(offsets) > 50
    assert np.abs(offsets - offsets[0]).max() < 1e-9


def _deviated(joints: np.ndarray, amount: float) -> np.ndarray:
    moved = joints.copy()
    moved[JointId.RING_TIP] += (0.0, amount, 0.0)
    return moved


def test_deviation_release_after_dwell():
    intent, tracker, hovered, poses = _grab_setup("deviation")
    fist = keypose("fist") + np.array([0.3, 0.0, 0.3])
    events = []
    rate = 90.0
    for i in range(int(1.5 * rate)):
        t = i / rate
        joints = _deviated(fist, 0.09) if 0.5 <= t < 0.62 else fist.copy()
        frame = HandFrame(t, "right", joints)
        events.extend(_step(intent, tracker, frame, hovered, poses))
    kinds = [event.kind for event in events]
    # the hand returning to the grab pose afterwards may grab again;
    # the deviation burst itself must produce exactly one release
    assert kinds[:2] == ["grab", "release"]
    assert kinds.count("release") == 1
    release = events[1]
    assert 0.6 <= release.timestamp <= 0.62 + 1e-9
    # deviation of 0.09 is above the 1.5 x 0.05 release threshold
    assert pose_distance(
        canonicalize(HandFrame(0.0, "right", _deviated(fist, 0.09))),
        intent.store.get("fist-g"),
    ) == pytest.approx(0.09, abs=1e-9)


def test_deviation_burst_below_dwell_never_releases():
    intent, tracker, hovered, poses = _grab_setup("deviation")
    fist = keypose("fist") + np.array([0.3, 0.0, 0.3])
    events = []
    rate = 90.0
    for i in range(int(2.0 * rate)):
        t = i / rate
        burst = (0.5 <= t < 0.58) or (1.0 <= t < 1.08) or (1.5 <= t < 1.58)
        joints = _deviated(fist, 0.09) if burst else fist.copy()
        frame = HandFrame(t, "right", joints)
        events.extend(_step(intent, tracker, frame, hovered, poses))
    assert [event.kind for event in events] == ["grab"]
    assert tracker.grabbed


def test_template_release_fires_on_partial_open():
    intent, tracker, hovered, poses = _grab_setup("template")
    builder = ScriptBuilder(rate=90.0, start=(0.3, 0.0, 0.3))
    builder.hold(0.2, kind="fist")
    builder.hold(0.3)
    builder.morph("partial_open", 0.2)
    builder.hold(0.3)
    events = []
    for frame in builder.frames():
        events.extend(_step(intent, tracker, frame, hovered, poses))
    assert [event.kind for event in events] == ["grab", "release"]
    assert not tracker.grabbed


def test_template_release_consults_only_the_held_objects_templates():
    store = TemplateStore()
    store.add(_fist_template("fist-g", "cube"))
    partial = canonicalize(pose_frame("partial_open")).joints_local
    store.add(GestureTemplate("ball-release", "ball", "release", partial))
    intent, tracker = TemplateIntent(store, release_policy="template"), GrabTracker()
    poses = {"cube": RigidTransform(np.eye(3), np.array([0.3, 0.0, 0.3]))}
    builder = ScriptBuilder(rate=90.0, start=(0.3, 0.0, 0.3))
    builder.hold(0.2, kind="fist")
    builder.morph("partial_open", 0.2)
    builder.hold(0.3)
    events = []
    for frame in builder.frames():
        # ball is hovered too, but its release template never lets go of cube
        events.extend(_step(intent, tracker, frame, frozenset({"cube", "ball"}), poses))
    assert [event.kind for event in events] == ["grab"]
    assert tracker.grabbed_object == "cube"


def test_grab_records_offset_and_score():
    intent, tracker, hovered, poses = _grab_setup("deviation")
    before = poses["cube"]
    fist = keypose("fist") + np.array([0.3, 0.0, 0.3])
    frame = HandFrame(0.0, "right", fist)
    events = _step(intent, tracker, frame, hovered, poses)
    assert len(events) == 1
    grab = events[0]
    assert grab.kind == "grab"
    assert grab.object_id == "cube"
    assert grab.gesture == "fist-g"
    assert grab.score == pytest.approx(0.0, abs=1e-12)
    assert tracker.grab_time == 0.0
    # the grab frame leaves the object exactly where it was
    assert poses["cube"] is before


def test_tracker_applies_only_the_intent_that_fits():
    poses = {"cube": RigidTransform(np.eye(3), np.array([0.3, 0.0, 0.3]))}
    palm = RigidTransform(np.eye(3), np.array([0.3, 0.0, 0.2]))
    tracker = GrabTracker()
    assert tracker.step(0.0, palm, poses, RELEASE) is None  # nothing held to release
    grab = tracker.step(0.1, palm, poses, Match("grip", "cube", 0.0))
    assert (grab.kind, grab.object_id, grab.gesture, tracker.grab_time) == ("grab", "cube", "grip", 0.1)
    moved = RigidTransform(np.eye(3), np.array([0.5, 0.0, 0.2]))
    assert tracker.step(0.2, moved, poses, Match("grip", "cube", 0.0)) is None  # already held
    assert np.array_equal(poses["cube"].translation, [0.5, 0.0, 0.3])  # carried all the same
    release = tracker.step(0.3, moved, poses, RELEASE)
    assert (release.kind, release.object_id, release.timestamp) == ("release", "cube", 0.3)
    assert not tracker.grabbed and tracker.grab_time == 0.1


def test_template_intent_rejects_unknown_release_policy():
    with pytest.raises(InvalidArgument):
        TemplateIntent(TemplateStore(), release_policy="shake")
