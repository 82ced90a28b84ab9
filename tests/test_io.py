"""Round trips through the on-disk formats the study reads and writes, and
the malformed files their loaders refuse."""

import shutil

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
    save_trajectory(path, traj)
    back = load_trajectory(path)
    np.testing.assert_allclose(back.timestamps, traj.timestamps, atol=1e-9)
    for a, b in zip(back.poses, traj.poses):
        np.testing.assert_allclose(a.rotation, b.rotation, atol=1e-12)
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


def edited_copy(exported, tmp_path, name, index, edit):
    """A copy of the exported sequence whose file ``name`` has its line
    ``index`` (0-based) replaced by ``edit(line)``."""
    _, out = exported
    copy = tmp_path / "seq"
    shutil.copytree(out, copy)
    path = copy / name
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))
    return copy


@pytest.mark.parametrize("line", ["0.05\n", "0.1 s\n", "nan\n"],
                         ids=["repeated", "non-numeric", "non-finite"])
def test_times_not_finite_and_increasing_are_refused(exported, tmp_path, line):
    """Unrefused, a repeated time would fail a run only after its last
    frame, as a ValueError that an ablation grid does not catch."""
    seq_dir = edited_copy(exported, tmp_path, "times.txt", 2, lambda _: line)
    with pytest.raises(ParseError, match=r"times\.txt:3:"):
        load_frames(seq_dir)


def test_frame_rows_of_another_descriptor_width_are_refused(exported, tmp_path):
    seq_dir = edited_copy(exported, tmp_path, "frames/frame_000001.csv", 3,
                          lambda row: row.rstrip("\n")[:-2] + "\n")  # drop a byte
    with pytest.raises(ParseError, match=r"frame_000001\.csv:4: 31-byte"):
        load_frames(seq_dir)


def test_ground_truth_times_that_do_not_increase_are_refused(exported, tmp_path):
    seq_dir = edited_copy(exported, tmp_path, "groundtruth.txt", 1,
                          lambda line: "0 " + line.split(" ", 1)[1])
    with pytest.raises(ParseError, match=r"groundtruth\.txt:2: timestamp"):
        load_ground_truth(seq_dir)


@pytest.mark.parametrize("column, value", [(0, "nan"), (2, "inf"), (7, "nan")],
                         ids=["time", "translation", "quaternion"])
def test_ground_truth_lines_holding_non_finite_values_are_refused(
        exported, tmp_path, column, value):
    """A NaN quaternion passes the unit-norm check and a NaN pose passes
    ``Pose``'s orthonormality check: both comparisons are false on NaN."""
    def poison(line):
        fields = line.split()
        fields[column] = value
        return " ".join(fields) + "\n"

    seq_dir = edited_copy(exported, tmp_path, "groundtruth.txt", 1, poison)
    with pytest.raises(ParseError, match=r"groundtruth\.txt:2: non-finite"):
        load_ground_truth(seq_dir)


@pytest.mark.parametrize("column, value, message", [
    (0, "nan", r"keypoint \(nan, .*\) at octave"),
    (1, "inf", r"keypoint \(.*, inf\) at octave"),
    (2, "8", r"keypoint \(.*\) at octave 8 is not"),
    (2, "-1", r"keypoint \(.*\) at octave -1 is not"),
], ids=["u", "v", "octave-past-the-pyramid", "negative-octave"])
def test_frame_rows_outside_the_image_model_are_refused(
        exported, tmp_path, column, value, message):
    """A keypoint with no position, or one at an octave outside the pyramid
    (``sigma2_at(99)`` is 1.2^198), would reach the pipeline."""
    def poison(row):
        fields = row.rstrip("\n").split(",")
        fields[column] = value
        return ",".join(fields) + "\n"

    seq_dir = edited_copy(exported, tmp_path, "frames/frame_000001.csv", 3, poison)
    with pytest.raises(ParseError, match=rf"frame_000001\.csv:4: {message}"):
        load_frames(seq_dir)


@pytest.mark.parametrize("index, line", [(0, "camera.fx = nan\n"),
                                         (1, "camera.fy = inf\n")], ids=["fx", "fy"])
def test_intrinsics_with_a_non_finite_focal_length_are_refused(
        exported, tmp_path, index, line):
    """Both pass a bare ``fx <= 0`` test: it is false on NaN and infinity."""
    seq_dir = edited_copy(exported, tmp_path, "intrinsics.txt", index, lambda _: line)
    with pytest.raises(ParseError, match="focal lengths must be positive and finite"):
        load_intrinsics(seq_dir / "intrinsics.txt")
