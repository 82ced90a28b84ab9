"""Scene generation: every trajectory kind generates at the study's length
and keeps its frames byte for byte, and a spec the generator would
mishandle is refused."""

import hashlib

import numpy as np
import pytest

from symvo.errors import SceneSpecError
from symvo.synth import MIN_VISIBLE, SceneSpec, generate


def frames_digest(frames) -> str:
    """sha256 over each frame's timestamp, keypoints, octaves and descriptors."""
    h = hashlib.sha256()
    for f in frames:
        for part in (f.timestamp, f.keypoints, f.octaves, f.descriptors):
            h.update(np.asarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [3, 4, 5, 7, 61, 62, 1009])
def test_random_walk_generates_at_study_length(seed):
    """The landmark box reaches 0.6 Z_FAR ahead of every pose, so no late
    frame of a 100-frame walk runs out of landmarks."""
    spec = SceneSpec(trajectory="random-walk", n_frames=100, noise_px=0.5,
                     outlier_rate=0.05, seed=seed)
    seq = generate(spec)
    assert len(seq.frames) == 100
    assert min(len(ids[ids >= 0]) for ids in seq.frame_landmark_ids) >= MIN_VISIBLE


# frames_digest of each scene: the random-walk one recorded before the
# scene generator projected through ``geometry.pinhole``, the others before
# the random-walk box changed
FRAME_DIGESTS = {
    "forward-corridor":
        "b81e483a29b800f692aae6552638f2bf70f7fc771777318cc53a0dac05c8080a",
    "lateral":
        "c1e6fe3854c7f174f37e6306e9df6d34468d190e4b7282f5ce88d2cb36a561c0",
    "orbit":
        "89feb36d7daad585f0d7f6837b87f5c0999cfdd2da4fd7ede44bd608908b4b64",
    "random-walk":
        "8df8d9a501c724951e9e1a9b059bebf767831f60c59edbb385ca8284329a9624",
}

SCENES = {
    "forward-corridor": SceneSpec(trajectory="forward-corridor", n_frames=100,
                                  noise_px=0.5, outlier_rate=0.05, seed=61),
    "lateral": SceneSpec(trajectory="lateral", n_frames=100, noise_px=0.5,
                         outlier_rate=0.05, seed=61),
    "orbit": SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                       path_length=20.0, noise_px=0.5, outlier_rate=0.05, seed=61),
    "random-walk": SceneSpec(trajectory="random-walk", n_frames=100, noise_px=0.5,
                             outlier_rate=0.05, seed=61),
}


@pytest.mark.parametrize("kind", list(SCENES))
def test_other_scene_kinds_keep_their_frames(kind):
    assert frames_digest(generate(SCENES[kind]).frames) == FRAME_DIGESTS[kind]


@pytest.mark.parametrize("field, value", [
    ("noise_px", -0.5),
])
def test_spec_refuses_values_it_would_mishandle(field, value):
    with pytest.raises(SceneSpecError, match=field):
        SceneSpec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("noise_px", 0.0),
])
def test_spec_accepts_boundary_values(field, value):
    assert getattr(SceneSpec(**{field: value}), field) == value
