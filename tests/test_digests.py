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
        "7821916a9d7540ed9bcfe680be1c9418425024103facd36ed017bece04936fc7",
    ("orbit", "full", "bwd"):
        "7ccadf22d12978ee41509cbd6ab8362798846021b43a35bb249ee32b32e27145",
    ("orbit", "no_geometric_descriptor", "fwd"):
        "20d1c105f590a0c1407b17500bd4a38b9f1c017248227f19d1904a691e447eda",
    ("orbit", "no_geometric_descriptor", "bwd"):
        "63541164468a55431d608b320e159d228d7259d5327223fec2ed11db3bee2110",
    ("corridor", "full", "fwd"):
        "8ab5a8a2279346c8ab6ce27c0c6fcf66131df6d663ece69d80f26f36007cca40",
    ("corridor", "full", "bwd"):
        "2a7c38f237973049d4045ae0abb9cc68675eaadf6fc9a66b1e2763d49844c1ec",
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
