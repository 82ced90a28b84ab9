import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symvo.association import (
    HETEROGENEOUS_THRESHOLDS,
    ConstraintMode,
    Ordering,
    Site,
)
from symvo.errors import ConfigError
from symvo.evaluation import ABLATION_AXES, ablation_configs
from symvo.geometry import CameraIntrinsics, Pose
from symvo.optimizer import OutlierMode
from symvo.pipeline import FrameInput, Pipeline, PipelineConfig, reverse
from symvo.uncertainty import CovarianceModel
from symvo.synth import SceneSpec, generate
from symvo.trajectory import Trajectory

N_FRAMES = 6


@pytest.fixture(scope="module")
def orbit():
    """The first frames of a 300-landmark orbit; initializes on frame 3."""
    seq = generate(SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                             path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                             seed=61))
    return seq, seq.frames[:N_FRAMES]


def tracked_after_init(trajectory, frames):
    """Whether every frame from the initialization frame on has a pose."""
    stamps = [f.timestamp for f in frames]
    init = stamps.index(trajectory.timestamps[1])
    return list(trajectory.timestamps[1:]) == stamps[init:]


def test_standard_covariance_tracks_every_frame_after_init(orbit):
    seq, frames = orbit
    config = PipelineConfig(covariance_model="standard")
    trajectory, report = Pipeline(seq.cam, config).run(frames)
    assert report.health == "ok"
    assert tracked_after_init(trajectory, frames)


def test_runs_are_deterministic_and_track_after_init(orbit):
    seq, frames = orbit
    first, report_a = Pipeline(seq.cam, PipelineConfig()).run(frames)
    _, report_b = Pipeline(seq.cam, PipelineConfig()).run(frames)
    assert report_a.health == "ok"
    assert tracked_after_init(first, frames)
    assert report_a.digest == report_b.digest


def test_run_report_serializes(orbit):
    seq, frames = orbit
    _, report = Pipeline(seq.cam, PipelineConfig()).run(frames)
    out = report.to_dict()
    assert out["graph_stats"] == {
        "n_map_points": report.graph_stats.n_map_points,
        "n_local_keyframes": report.graph_stats.n_local_keyframes,
        "n_observation_inliers": report.graph_stats.n_observation_inliers,
    }
    assert min(out["graph_stats"].values()) > 0
    assert out["config"] == PipelineConfig().snapshot()
    assert (out["health"], out["n_frames"], out["digest"]) == \
        ("ok", N_FRAMES, report.digest)
    assert json.loads(report.to_json()) == out


def test_reverse_round_trip_and_ground_truth_timestamps(orbit):
    seq, _ = orbit
    again = reverse(reverse(seq.frames))
    assert all(a.keypoints is f.keypoints for a, f in zip(again, seq.frames))
    assert [f.timestamp for f in again] == [f.timestamp for f in seq.frames]
    backward = [f.timestamp for f in reverse(seq.frames)]
    assert backward == list(seq.ground_truth.reversed().timestamps)
    assert np.all(np.diff(backward) > 0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(start=st.floats(-1e6, 1e6),
       gaps=st.lists(st.floats(1e-6, 1e3), max_size=30))
def test_reverse_twice_gives_the_timestamps_back_exactly(start, gaps):
    stamps = (start + np.cumsum([0.0] + gaps)).tolist()
    assume(np.all(np.diff(stamps) > 0))
    frames = [FrameInput(t, np.zeros((0, 2)), np.zeros(0, np.int64),
                         np.zeros((0, 32), np.uint8)) for t in stamps]
    backward = reverse(frames)
    assert [f.timestamp for f in backward] == stamps
    assert all(b.keypoints is f.keypoints
               for b, f in zip(backward, reversed(frames)))
    assert [f.timestamp for f in reverse(backward)] == stamps
    truth = Trajectory(np.array(stamps), [Pose.identity()] * len(stamps))
    assert truth.reversed().reversed().timestamps.tolist() == stamps


@pytest.mark.parametrize("field, value", [
    ("descriptor_selection", "nearest"),
    ("association_ordering", "greedy"),
    ("constraint_mode", "symmetrical"),
    ("covariance_model", "Symmetric"),
    ("outlier_policy", "keep_some"),
])
def test_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigError, match=field):
        PipelineConfig(**{field: value})


CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                       width=640, height=480)

# each toggle -> where a Pipeline holds the value it selected
TOGGLES = {
    "descriptor_selection": lambda p: p.world.descriptor_selection,
    "use_depth_filter": lambda p: p.policy.use_depth_filter,
    "association_ordering": lambda p: p.policy.ordering.value,
    "constraint_mode": lambda p: p.policy.constraint_mode.value,
    "covariance_model": lambda p: p.covariance_model.value,
    "outlier_policy": lambda p: p.outlier_mode.value,
}


def test_config_is_the_six_toggles():
    assert [f.name for f in fields(PipelineConfig)] == list(TOGGLES)


@pytest.mark.parametrize("field, value", [
    *[("descriptor_selection", v) for v in ("geometric", "appearance")],
    *[("use_depth_filter", v) for v in (True, False)],
    *[("association_ordering", o.value) for o in Ordering],
    *[("constraint_mode", m.value) for m in ConstraintMode],
    *[("covariance_model", m.value) for m in CovarianceModel],
    *[("outlier_policy", m.value) for m in OutlierMode],
])
def test_pipeline_hands_each_toggle_to_its_component(field, value):
    pipe = Pipeline(CAM, PipelineConfig(**{field: value}))
    assert TOGGLES[field](pipe) == value


def test_every_ablation_axis_flips_one_toggle():
    base = PipelineConfig()
    for name, overrides in ABLATION_AXES:
        if name == "full":
            assert overrides == {}
            continue
        assert len(overrides) == 1, name
        (field, value), = overrides.items()
        assert field in TOGGLES and getattr(base, field) != value, name


@pytest.mark.parametrize("site", list(Site))
def test_heterogeneous_pipeline_gates_with_the_per_site_table(site):
    symmetric = Pipeline(CAM, PipelineConfig()).policy
    heterogeneous = Pipeline(
        CAM, PipelineConfig(constraint_mode="heterogeneous")).policy
    assert heterogeneous.threshold_for(site) == HETEROGENEOUS_THRESHOLDS[site]
    assert heterogeneous.threshold_for(site) != symmetric.threshold_for(site)


def test_every_ablation_config_is_valid():
    names = [name for name, _ in ablation_configs(PipelineConfig())]
    assert len(names) == 7 and names[0] == "full"
