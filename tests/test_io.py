"""Round trips through the on-disk formats the study reads and writes."""

import numpy as np
import pytest

from symvo.geometry import Pose, so3_exp
from symvo.errors import ParseError
from symvo.synth import (
    SceneSpec,
    export,
    generate,
    load_frames,
    load_ground_truth,
    load_intrinsics,
)
from symvo.trajectory import Trajectory, load_trajectory, save_trajectory


def wobble(n=12) -> Trajectory:
    rng = np.random.default_rng(3)
    poses = [Pose(so3_exp(rng.normal(scale=0.8, size=3)), rng.normal(scale=5.0, size=3))
             for _ in range(n)]
    return Trajectory(np.arange(n) * 0.05 + 1.0, tuple(poses))


def test_tum_round_trip(tmp_path):
    traj = wobble()
    path = tmp_path / "traj.txt"
    save_trajectory(path, traj, "tum")
    back = load_trajectory(path, "tum")
    np.testing.assert_allclose(back.timestamps, traj.timestamps, atol=1e-9)
    for a, b in zip(back.poses, traj.poses):
        np.testing.assert_allclose(a.rotation, b.rotation, atol=1e-12)
        np.testing.assert_array_equal(a.translation, b.translation)


def test_kitti_round_trip_is_exact(tmp_path):
    traj = wobble()
    path = tmp_path / "traj.txt"
    save_trajectory(path, traj, "kitti")
    back = load_trajectory(path, "kitti")
    # the line index is the timestamp
    np.testing.assert_array_equal(back.timestamps, np.arange(len(traj)))
    for a, b in zip(back.poses, traj.poses):
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    seq = generate(SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=4,
                             path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                             seed=61))
    out = tmp_path_factory.mktemp("seq")
    export(seq, out)
    return seq, out


def test_exported_frames_load_back_exactly(exported):
    seq, out = exported
    frames, cam = load_frames(out)
    assert cam == seq.cam
    assert len(frames) == len(seq.frames)
    for got, want in zip(frames, seq.frames):
        assert got.timestamp == pytest.approx(want.timestamp, abs=1e-9)
        np.testing.assert_array_equal(got.keypoints, want.keypoints)
        np.testing.assert_array_equal(got.octaves, want.octaves)
        np.testing.assert_array_equal(got.descriptors, want.descriptors)


def test_exported_ground_truth_loads_back(exported):
    seq, out = exported
    truth = load_ground_truth(out)
    np.testing.assert_allclose(truth.timestamps, seq.ground_truth.timestamps, atol=1e-9)
    for a, b in zip(truth.poses, seq.ground_truth.poses):
        np.testing.assert_allclose(a.rotation, b.rotation, atol=1e-12)
        np.testing.assert_array_equal(a.translation, b.translation)


@pytest.mark.parametrize("line", ["pyramid.scale = 1.5", "pyramid.octaves = 4"])
def test_intrinsics_naming_another_pyramid_are_refused(exported, tmp_path, line):
    """The pipeline runs the default pyramid only: a file written for
    another one raises instead of loading."""
    _, out = exported
    text = (out / "intrinsics.txt").read_text()
    path = tmp_path / "intrinsics.txt"
    path.write_text(text + "pyramid.scale = 1.2\npyramid.octaves = 8\n")
    assert load_intrinsics(path) == load_intrinsics(out / "intrinsics.txt")
    path.write_text(text + line + "\n")
    with pytest.raises(ParseError, match="not the default pyramid"):
        load_intrinsics(path)
