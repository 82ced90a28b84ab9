"""Pinned pose digests: a change that moves any estimated pose bit fails here.

The scene is the benchmark's orbit (300 landmarks in view from the whole
orbit, 4.5 degrees per frame) at seed 61, cut to its first 12 frames, and
run forward and backward.  ``full`` and ``no_geometric_descriptor`` cover
both reference-descriptor rules.  A change that is meant to move poses
re-records these values and says so.
"""

import pytest

from symvo.evaluation import ABLATION_AXES
from symvo.pipeline import Pipeline, PipelineConfig, reverse
from symvo.synth import SceneSpec, generate

DIGESTS = {
    ("full", "fwd"):
        "cd16443984da16dbe5d39f3fb76e4ebf332615c5ce1c3b7acb5357ffb0458f8f",
    ("full", "bwd"):
        "645ca4a2babf590947c1160809edd04c86e16ffdcf5a55b24ebe01e32de5fae9",
    ("no_geometric_descriptor", "fwd"):
        "e12edad295c02b9c98b3c74aeea150d5d5ca7c0cc330ff13e5a7832b67201637",
    ("no_geometric_descriptor", "bwd"):
        "aa15634078cf6dcb557b6121c6535fb325e96b2a3e81f8d5f13fdf6fb060cce5",
}


@pytest.fixture(scope="module")
def scene():
    seq = generate(SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                             path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                             seed=61))
    frames = seq.frames[:12]
    return seq.cam, {"fwd": frames, "bwd": reverse(frames)}


@pytest.mark.parametrize("config_name, direction", list(DIGESTS),
                         ids=["/".join(key) for key in DIGESTS])
def test_poses_digest_is_pinned(scene, config_name, direction):
    cam, frames = scene
    config = PipelineConfig(**dict(ABLATION_AXES)[config_name])
    _, report = Pipeline(cam, config).run(frames[direction])
    assert report.health == "ok"
    assert report.digest == DIGESTS[config_name, direction]
