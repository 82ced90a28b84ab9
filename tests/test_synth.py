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


# frames_digest of each scene, recorded when the keypoint noise of each
# octave became a table of Python float powers (``features.OCTAVE_SCALE``):
# numpy's vectorized power had given these bytes only where it did not
# dispatch to its AVX-512 loop
FRAME_DIGESTS = {
    "forward-corridor":
        "59a85fe32658ba5cade89955f4eec019cbbadaf4a0c0def3ef88b87922f0f0f2",
    "lateral":
        "0858697034f3e8e956a04e73f8472408f594af543a914853ee7f8024fa664f0b",
    "orbit":
        "ca99908503adeaf2890ba9261fdb07430dae52a2ca0a4b782c4ae7b89eb5290b",
    "random-walk":
        "b46f97cca345932457f641fb7100bcffd8d06ebc5f5bf32be1d46e24471bc01c",
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
