"""Pinned pose digests: a change that moves any estimated pose bit fails here.

Three scenes, each run forward and backward:

- the benchmark's orbit (300 landmarks in view from the whole orbit, 4.5
  degrees per frame) at seed 61, cut to its first 12 frames.  ``full`` and
  ``no_geometric_descriptor`` cover both reference-descriptor rules, and
  ``no_symmetric_covariance`` the standard covariance model, whose
  problems hold no backward terms.
- a forward corridor (800 landmarks) at seed 61, cut to its first 10
  frames.  On the orbit prefix the depth filter leaves both digests as
  ``full`` has them, and early outlier removal the backward one; on this
  prefix ``no_depth_filter`` moves both, so a change to it shows here.
  The corridor also pins the
  appearance rule (``no_geometric_descriptor``) on a map whose points
  come and go, where the orbit prefix keeps its 300 points throughout,
  and the other matching branches: ``no_depth_filter`` (no depth verdict drops a
  query), ``no_robust_matching`` (``Ordering.SEQUENTIAL``) and
  ``no_symmetric_gates`` (the per-site thresholds).  Each differs from
  ``full`` in both directions, so none of them can fall back to the
  default path unseen.  ``no_keep_all_outliers`` is pinned forward only,
  where local BA removes observations; backward it removes none, and
  that pass equals ``full``'s.
- the same corridor at seed 63, cut to its first 10 frames, under
  ``full`` and ``no_keep_all_outliers``.  Early removal moves both
  digests: forward local BA removes an observation, and backward pose
  refinement drops outlier matches.

Each case also pins the run's ``graph_stats`` and its count of removed
observations.  Only ``graph_stats`` reads the inlier flags that local BA
writes back, so a wrong flag would not move a digest.

A change that is meant to move poses re-records these values and says so.

A digest must not depend on the BLAS thread count either: the benchmark's
corridor scene, cut to 7 frames, runs in two subprocesses, at one and at
two BLAS threads, and both give the same digest.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from symvo.evaluation import ABLATION_AXES
from symvo.pipeline import Pipeline, PipelineConfig, reverse
from symvo.synth import SceneSpec, generate

DIGESTS = {
    ("orbit", "full", "fwd"):
        "49470c38d34b2cee536f608181f46896f4c80ad8b130c5b120aa731c0fe7c697",
    ("orbit", "full", "bwd"):
        "065eeea7a66f53befbaa90b83b7793b50b8123360a4830e498417d42845e78eb",
    ("orbit", "no_geometric_descriptor", "fwd"):
        "a1cfd35a1fbb92df18a02d492c86af044cde35c89d29e2c01b209a62a6fb592e",
    ("orbit", "no_geometric_descriptor", "bwd"):
        "0400f7841c7a0d9726c681a7a525016cce4dde33525647ea051b8c6c2f14384e",
    ("orbit", "no_symmetric_covariance", "fwd"):
        "d7fc04ed1c431b5c2f27175e9339fef429915fed2ecc3296f7708dc071ec485b",
    ("orbit", "no_symmetric_covariance", "bwd"):
        "c0b6678436f633de888e31fbabb3757301b8c852bed525ebf7552c21849b004e",
    ("corridor", "full", "fwd"):
        "ba9f70bd22bec026891c84a05847744d942ad1b0857840a9ad15da348d85e2f0",
    ("corridor", "full", "bwd"):
        "f2b1411278f5a38e0e31fec41a3e89f46f1d7955ab49b80ea5935c73064be16c",
    ("corridor", "no_geometric_descriptor", "fwd"):
        "a190d42b2feb0f585718f5fdfd587f46aa29e21d80589b59a16832bb0f5d1593",
    ("corridor", "no_geometric_descriptor", "bwd"):
        "da59c0caecc072d3725f3415d381346fc066431ab17e96a8dcd9bcf4840155bf",
    ("corridor", "no_depth_filter", "fwd"):
        "3969c31897b49ba0302a8494fe053d6276027202693ad19fa2171af1bc510945",
    ("corridor", "no_depth_filter", "bwd"):
        "e7239c7785d07bc036b52fc7d1b188d2aff903af5a24d6ed077f9d367c4b18fe",
    ("corridor", "no_robust_matching", "fwd"):
        "909adaa7cf27a76b5e5fdb861ce17551a347de83de9d4b669a92a9a589dd2640",
    ("corridor", "no_robust_matching", "bwd"):
        "20f5b7bb07d1b5b0ce37893bad67be1ee4b4cdde1f3782cbf876186ace43b939",
    ("corridor", "no_symmetric_gates", "fwd"):
        "d2f3e01b4b3a5bcda46e651b0dfee87cb255b6c45acdb48f74bea03c07684c30",
    ("corridor", "no_symmetric_gates", "bwd"):
        "4db95ebd174eaf5d25b09971d771876cdfdeac55a650de644d6bf064c4ab4c3a",
    ("corridor", "no_keep_all_outliers", "fwd"):
        "7ff5f26f224ad3c441f401d6ffc958ba6b793165fcc0c4246893d136cc5be0ee",
    ("corridor-63", "full", "fwd"):
        "b39feac0249987e1e415b5e59359e5203d822cc943432ba8c057e0f5a147cbad",
    ("corridor-63", "full", "bwd"):
        "85843b2e5a2b0093071c332b84830345237cbc459eb806b4eb5378bcca6f9216",
    ("corridor-63", "no_keep_all_outliers", "fwd"):
        "75fb0b2625df9d3c493619169ebc9f427c5d1872aa36aa632e14cedb2b2894f9",
    ("corridor-63", "no_keep_all_outliers", "bwd"):
        "7fcce864529eabe40da5539c1e80a1600789207dcff53bc273b39a1bd500b3c9",
}

# (graph_stats: map points, local keyframes, inlier observations;
#  observations removed by local BA) of each pinned run
GRAPHS = {
    ("orbit", "full", "fwd"): ((300, 6, 1800), 0),
    ("orbit", "full", "bwd"): ((300, 6, 1800), 0),
    ("orbit", "no_geometric_descriptor", "fwd"): ((300, 6, 1800), 0),
    ("orbit", "no_geometric_descriptor", "bwd"): ((300, 6, 1800), 0),
    ("orbit", "no_symmetric_covariance", "fwd"): ((300, 6, 1800), 0),
    ("orbit", "no_symmetric_covariance", "bwd"): ((300, 6, 1800), 0),
    ("corridor", "full", "fwd"): ((433, 5, 2047), 0),
    ("corridor", "full", "bwd"): ((500, 5, 2356), 0),
    ("corridor", "no_geometric_descriptor", "fwd"): ((435, 5, 1923), 0),
    ("corridor", "no_geometric_descriptor", "bwd"): ((500, 5, 2128), 0),
    ("corridor", "no_depth_filter", "fwd"): ((433, 5, 2058), 0),
    ("corridor", "no_depth_filter", "bwd"): ((498, 5, 2359), 0),
    ("corridor", "no_robust_matching", "fwd"): ((433, 5, 2047), 0),
    ("corridor", "no_robust_matching", "bwd"): ((500, 5, 2356), 0),
    ("corridor", "no_symmetric_gates", "fwd"): ((433, 5, 1907), 0),
    ("corridor", "no_symmetric_gates", "bwd"): ((498, 5, 2194), 0),
    ("corridor", "no_keep_all_outliers", "fwd"): ((433, 5, 2047), 3),
    ("corridor-63", "full", "fwd"): ((409, 5, 1939), 0),
    ("corridor-63", "full", "bwd"): ((493, 5, 2254), 0),
    ("corridor-63", "no_keep_all_outliers", "fwd"): ((408, 5, 1933), 1),
    ("corridor-63", "no_keep_all_outliers", "bwd"): ((493, 5, 2254), 0),
}

SCENES = {
    "orbit": (SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                        path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                        seed=61), 12),
    "corridor": (SceneSpec(trajectory="forward-corridor", n_landmarks=800,
                           n_frames=30, noise_px=0.5, outlier_rate=0.05,
                           seed=61), 10),
    "corridor-63": (SceneSpec(trajectory="forward-corridor", n_landmarks=800,
                              n_frames=30, noise_px=0.5, outlier_rate=0.05,
                              seed=63), 10),
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
    assert (tuple(report.graph_stats), report.n_observations_removed) == \
        GRAPHS[scene_name, config_name, direction]


@pytest.mark.parametrize("scene_name, config_name, direction",
                         [key for key in DIGESTS if key[1] != "full"],
                         ids=["/".join(key) for key in DIGESTS if key[1] != "full"])
def test_pinned_toggle_moves_the_digest(scene_name, config_name, direction):
    assert DIGESTS[scene_name, config_name, direction] != \
        DIGESTS[scene_name, "full", direction]


# The benchmark's corridor scene (vobench/workloads.py) at seed 61: large
# enough local windows that an unordered BLAS reduction rounds differently
# on two threads by its 7th frame.
THREADED_SCENE = """
from symvo.pipeline import Pipeline, PipelineConfig
from symvo.synth import SceneSpec, generate
seq = generate(SceneSpec(trajectory="forward-corridor", n_frames=30, noise_px=0.5,
                         outlier_rate=0.05, seed=61))
_, report = Pipeline(seq.cam, PipelineConfig()).run(seq.frames[:7])
print(report.health, report.digest)
"""


def test_digest_does_not_depend_on_blas_threads():
    src = pathlib.Path(__file__).parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):  # one subprocess at a time
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", THREADED_SCENE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout.split())
    assert outputs[0][0] == "ok"
    assert outputs[0] == outputs[1]
