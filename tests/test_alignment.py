"""Oracle tests of the similarity alignment behind every e_r.

A trajectory carried through a known Sim(3) must be aligned back exactly:
``umeyama`` recovers the transform and ``align_start_end`` leaves no
residual error.  Supports that fix no similarity must raise.
"""

import numpy as np
import pytest

from symvo.errors import AlignmentDegenerateError
from symvo.evaluation import align_start_end, evaluate_run, umeyama
from symvo.geometry import Pose, so3_exp
from symvo.trajectory import Trajectory

SCALE = 2.5
ROTATION = so3_exp((0.3, -0.7, 1.1))
TRANSLATION = np.array([4.0, -1.5, 0.25])


def helix(n=60, fps=20.0) -> Trajectory:
    """A non-planar camera path with turning orientations."""
    a = np.linspace(0.0, 3.0, n)
    poses = [Pose(so3_exp((0.1 * t, 0.2 * t, 0.0)), (np.cos(t), np.sin(t), 0.3 * t))
             for t in a]
    return Trajectory(np.arange(n) / fps, tuple(poses))


def test_umeyama_recovers_a_known_similarity():
    rng = np.random.default_rng(0)
    source = rng.normal(size=(25, 3))
    target = SCALE * source @ ROTATION.T + TRANSLATION
    sim = umeyama(source, target)
    assert sim.scale == pytest.approx(SCALE, rel=1e-12)
    np.testing.assert_allclose(sim.rotation, ROTATION, atol=1e-12)
    np.testing.assert_allclose(sim.translation, TRANSLATION, atol=1e-12)


def test_umeyama_inverts_the_transform_it_was_given():
    rng = np.random.default_rng(1)
    source = rng.normal(size=(10, 3))
    target = SCALE * source @ ROTATION.T + TRANSLATION
    back = umeyama(target, source)
    assert back.scale == pytest.approx(1.0 / SCALE, rel=1e-12)
    np.testing.assert_allclose(back.rotation, ROTATION.T, atol=1e-12)


def test_ground_truth_under_a_known_similarity_aligns_back_exactly():
    truth = helix()
    # the estimate is the truth seen through the inverse similarity
    inv_R = ROTATION.T
    estimate = truth.transformed(1.0 / SCALE, inv_R, -(inv_R @ TRANSLATION) / SCALE)
    aligned, sim = align_start_end(estimate, truth)
    assert sim.scale == pytest.approx(SCALE, rel=1e-9)
    np.testing.assert_allclose(sim.rotation, ROTATION, atol=1e-9)
    np.testing.assert_allclose(aligned.positions(), truth.positions(), atol=1e-9)
    assert evaluate_run(estimate, truth) == pytest.approx(0.0, abs=1e-9)


def test_collinear_support_raises():
    n = 60
    poses = [Pose(np.eye(3), (0.1 * k, 0.0, 0.0)) for k in range(n)]
    line = Trajectory(np.arange(n) / 20.0, tuple(poses))
    with pytest.raises(AlignmentDegenerateError, match="collinear"):
        align_start_end(line, line)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_fewer_than_three_positions_raise(n):
    pts = np.random.default_rng(2).normal(size=(n, 3))
    with pytest.raises(AlignmentDegenerateError):
        umeyama(pts, pts)


def test_segments_with_fewer_than_three_poses_raise():
    # 12 poses span 0.55 s: each 10% segment holds two of them
    truth = helix(n=12)
    with pytest.raises(AlignmentDegenerateError, match="need 3"):
        align_start_end(truth, truth)
