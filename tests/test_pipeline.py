import numpy as np
import pytest

from symvo.errors import ConfigError
from symvo.evaluation import ablation_configs
from symvo.pipeline import Pipeline, PipelineConfig, reverse
from symvo.synth import SceneSpec, generate

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


def test_reverse_round_trip_and_ground_truth_timestamps(orbit):
    seq, _ = orbit
    again = reverse(reverse(seq.frames))
    assert all(a.keypoints is f.keypoints for a, f in zip(again, seq.frames))
    # equal up to rounding: t0 + (tN - t) is not an exact involution
    assert np.allclose([f.timestamp for f in again],
                       [f.timestamp for f in seq.frames], rtol=0, atol=1e-12)
    backward = [f.timestamp for f in reverse(seq.frames)]
    assert backward == list(seq.ground_truth.reversed().timestamps)
    assert np.all(np.diff(backward) > 0)


@pytest.mark.parametrize("field, value", [
    ("descriptor_selection", "nearest"),
    ("association_ordering", "greedy"),
    ("constraint_mode", "symmetrical"),
    ("covariance_model", "Symmetric"),
    ("outlier_policy", "keep_some"),
    ("pyramid_scale", 1.0),
    ("pyramid_octaves", 0),
    ("delta_l", -1),
    ("descriptor_threshold", -1),
    ("threshold_c1", -2),
    ("threshold_c2", -2),
    ("threshold_c3", -2),
    ("threshold_c4", -5),
    ("huber_delta", 0.0),
    ("huber_delta", float("nan")),
    ("chi2_threshold", -5.991),
    ("max_iterations", 0),
    ("ransac_iterations", 0),
])
def test_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigError, match=field):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("overrides", [
    {"pyramid_scale": 1.0001, "pyramid_octaves": 1, "delta_l": 0},
    {"descriptor_threshold": 0, "threshold_c1": -1, "threshold_c4": 0},
    {"max_iterations": 1, "ransac_iterations": 1, "huber_delta": 1e-9},
])
def test_config_accepts_boundary_values(overrides):
    config = PipelineConfig(**overrides)
    assert all(getattr(config, k) == v for k, v in overrides.items())


def test_every_ablation_config_is_valid():
    names = [name for name, _ in ablation_configs(PipelineConfig())]
    assert len(names) == 7 and names[0] == "full"
