"""Pinned pose digests: a change that moves any estimated pose bit fails here.

Two scenes, each run forward and backward:

- the benchmark's orbit (300 landmarks in view from the whole orbit, 4.5
  degrees per frame) at seed 61, cut to its first 12 frames.  ``full`` and
  ``no_geometric_descriptor`` cover both reference-descriptor rules.
- a forward corridor (800 landmarks) at seed 61, cut to its first 10
  frames, under ``full``.  On the orbit prefix the depth filter and early
  outlier removal leave every digest as ``full`` has it; on this prefix
  ``no_depth_filter`` and ``no_keep_all_outliers`` each move both, so a
  change to either rule shows here.

A change that is meant to move poses re-records these values and says so.
"""

import pytest

from symvo.evaluation import ABLATION_AXES
from symvo.pipeline import Pipeline, PipelineConfig, reverse
from symvo.synth import SceneSpec, generate

DIGESTS = {
    ("orbit", "full", "fwd"):
        "cd16443984da16dbe5d39f3fb76e4ebf332615c5ce1c3b7acb5357ffb0458f8f",
    ("orbit", "full", "bwd"):
        "645ca4a2babf590947c1160809edd04c86e16ffdcf5a55b24ebe01e32de5fae9",
    ("orbit", "no_geometric_descriptor", "fwd"):
        "e12edad295c02b9c98b3c74aeea150d5d5ca7c0cc330ff13e5a7832b67201637",
    ("orbit", "no_geometric_descriptor", "bwd"):
        "aa15634078cf6dcb557b6121c6535fb325e96b2a3e81f8d5f13fdf6fb060cce5",
    ("corridor", "full", "fwd"):
        "371db3042459fc0e985944ebdc19013d44a5970b0c4afd3dd0f42045b8928dff",
    ("corridor", "full", "bwd"):
        "c944bf09693247961a3713eabfe3214c8e834b4c0df0b8ec5bb727cdd764bd21",
}

SCENES = {
    "orbit": (SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                        path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                        seed=61), 12),
    "corridor": (SceneSpec(trajectory="forward-corridor", n_landmarks=800,
                           n_frames=30, noise_px=0.5, outlier_rate=0.05,
                           seed=61), 10),
}


@pytest.fixture(scope="module")
def scenes():
    out = {}
    for name, (spec, n_frames) in SCENES.items():
        seq = generate(spec)
        frames = seq.frames[:n_frames]
        out[name] = seq.cam, {"fwd": frames, "bwd": reverse(frames)}
    return out


@pytest.mark.parametrize("scene_name, config_name, direction", list(DIGESTS),
                         ids=["/".join(key) for key in DIGESTS])
def test_poses_digest_is_pinned(scenes, scene_name, config_name, direction):
    cam, frames = scenes[scene_name]
    config = PipelineConfig(**dict(ABLATION_AXES)[config_name])
    _, report = Pipeline(cam, config).run(frames[direction])
    assert report.health == "ok"
    assert report.digest == DIGESTS[scene_name, config_name, direction]
