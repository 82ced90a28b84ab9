"""Pinned pose digests: a change that moves any estimated pose bit fails here.

Two scenes, each run forward and backward:

- the benchmark's orbit (300 landmarks in view from the whole orbit, 4.5
  degrees per frame) at seed 61, cut to its first 12 frames.  ``full`` and
  ``no_geometric_descriptor`` cover both reference-descriptor rules, and
  ``no_symmetric_covariance`` the standard covariance model, whose
  problems hold no backward terms.
- a forward corridor (800 landmarks) at seed 61, cut to its first 10
  frames.  On the orbit prefix the depth filter leaves both digests as
  ``full`` has them, and early outlier removal the backward one; on this
  prefix ``no_depth_filter`` and ``no_keep_all_outliers`` each move both,
  so a change to either rule shows here.  The corridor also pins the other
  matching branches: ``no_depth_filter`` (no depth verdict drops a
  query), ``no_robust_matching`` (``Ordering.SEQUENTIAL``) and
  ``no_symmetric_gates`` (the per-site thresholds).  Each differs from
  ``full`` in both directions, so none of them can fall back to the
  default path unseen.  ``no_keep_all_outliers`` is the one pinned case
  in which local BA removes observations.

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
        "3a18744bce74975f0a8dce2f0d1050bdf6dafadb436be5dad5282283a77bbcba",
    ("corridor", "full", "bwd"):
        "805d98f29963c1c13cb7cfc9e93167816b96dfa8302056514b13787034342c3a",
    ("corridor", "no_depth_filter", "fwd"):
        "d421fb19cf7e475da970256cdfe91c0ff660d8d008abe12ece0ddd4a041375c4",
    ("corridor", "no_depth_filter", "bwd"):
        "dd2ad8ba81f9c87904f5fa9d9ec6537b19074eb87a1a918f949914776085371f",
    ("corridor", "no_robust_matching", "fwd"):
        "a5dcf60c6943b60e2ac29975273fb0be79fd4e1bc5b44d076b9e2a20c6809f14",
    ("corridor", "no_robust_matching", "bwd"):
        "1cb65f731285023f6da1114cfd655a794b7819ee2b8fa04435abd670f1188b50",
    ("corridor", "no_symmetric_gates", "fwd"):
        "dd18c01112e87c64acf14f83913fdcf54adbfc5e61fa242892759db480a37e11",
    ("corridor", "no_symmetric_gates", "bwd"):
        "f5982f9f5f2ffd59850e71930a1e63ab6a7ee8b628c561fd1c7d3f2ce3f75c64",
    ("corridor", "no_keep_all_outliers", "fwd"):
        "0a3edd6eb1ca530b03e5dd136794798f4326eebde58dd3f560acac3c9cb66be3",
    ("corridor", "no_keep_all_outliers", "bwd"):
        "9cefa3c9391da8e36a3233f727d686e2921c9d2672a4a6b19b37d2e7206ead0e",
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
    ("corridor", "full", "fwd"): ((433, 5, 2042), 0),
    ("corridor", "full", "bwd"): ((500, 5, 2346), 0),
    ("corridor", "no_depth_filter", "fwd"): ((433, 5, 2048), 0),
    ("corridor", "no_depth_filter", "bwd"): ((498, 5, 2349), 0),
    ("corridor", "no_robust_matching", "fwd"): ((433, 5, 2042), 0),
    ("corridor", "no_robust_matching", "bwd"): ((500, 5, 2346), 0),
    ("corridor", "no_symmetric_gates", "fwd"): ((433, 5, 1902), 0),
    ("corridor", "no_symmetric_gates", "bwd"): ((498, 5, 2189), 0),
    ("corridor", "no_keep_all_outliers", "fwd"): ((432, 5, 2042), 9),
    ("corridor", "no_keep_all_outliers", "bwd"): ((498, 5, 2346), 12),
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
