"""Hand-grasp gesture authoring, recognition, and placement simulation."""

from .errors import (
    CountError,
    DegenerateHand,
    DegenerateInput,
    HandGraspError,
    HandLost,
    IncompleteRun,
    InvalidArgument,
    ParseError,
    ProtocolViolation,
    TimeOrderError,
)
from .hand import (
    FINGERTIPS,
    JOINT_COUNT,
    REFERENCE_LENGTH,
    CanonicalHand,
    HandFrame,
    JointId,
    RigidTransform,
    canonicalize,
    hand_scale,
    palm_frame,
)
from .engine import (
    DISTANCE_BUDGET,
    HOVER_RADIUS,
    CaptureSession,
    ContextRegistry,
    GestureTemplate,
    GrabTracker,
    Match,
    StillnessWindow,
    TemplateStore,
    hover_update,
    match_score,
    pose_distance,
    recognize,
    surface_distance,
)
from .pinch import PinchEvent, PinchState
from .scene import ProtocolSpec, ReleaseSpec, Scene, SceneObject, TargetSphere, load_scene, save_scene
from .sim import (
    RunSummary,
    SessionEngine,
    TECHNIQUES,
    color_band,
    latin_square_order,
    run_replay,
    summarize,
)
from .stats import AnovaResult, GroupStats, anova_oneway, describe, f_tail
from .streams import (
    POSE_KINDS,
    ScriptBuilder,
    TrialResult,
    keypose,
    parse_frame_line,
    pose_frame,
    read_frames,
    read_results,
    synth_stream,
    write_frames,
    write_results,
)

__version__ = "0.1.0"
