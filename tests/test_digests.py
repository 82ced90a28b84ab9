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
two BLAS threads, and both give the same digest.  Nor on numpy's SIMD
dispatch: the same scene runs in a subprocess with every AVX-512 group
that numpy dispatches to switched off (``NPY_DISABLE_CPU_FEATURES``, set
in that child's environment only) and gives the digest of this process.
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
        "38e3ce640be7b110ba284427f3c541c0b560c4358d112608d1cadc94e1a10104",
    ("orbit", "full", "bwd"):
        "7502b8f45a2b38b44ee03f79abc2209ecc4353b25926c7aa329f210c699b1ae2",
    ("orbit", "no_geometric_descriptor", "fwd"):
        "1e9fafab609be38ee42e28539b02350ca4b3550152a3fc44faf9e87f5c151249",
    ("orbit", "no_geometric_descriptor", "bwd"):
        "4231f250501af6d07071ad76a85421ddea56fc6b8e0f515384fdc7b100eb5d86",
    ("orbit", "no_symmetric_covariance", "fwd"):
        "92d3364862cd1f6beae11ae4c5a3d421c8f0152917e9a8b58697b6ded904ddd2",
    ("orbit", "no_symmetric_covariance", "bwd"):
        "102aff9384f975858c82a6290d90f5965a5dec47833ecb80c2a7f668d10db5f9",
    ("corridor", "full", "fwd"):
        "529bd325887560ce8f56496016067936c63b2b3cdf24aa7350a46046670f8a93",
    ("corridor", "full", "bwd"):
        "45ef148864f21934a10c1832d4f859ef67da1888d97a0f5e1694f6a04d9eca26",
    ("corridor", "no_geometric_descriptor", "fwd"):
        "9c0bf6ef5f9f55dbd6306aa55dc5e54d5cef74aba225eea58cb56d92b36c546c",
    ("corridor", "no_geometric_descriptor", "bwd"):
        "035e0f6a2e4349bece7decf2ca5bfaf3487f087f044ed53b164a53bd5ef258f1",
    ("corridor", "no_depth_filter", "fwd"):
        "aa20a3ddb407a76e2848fa868fd0843bba3f27356ded007566175cf1498dde5a",
    ("corridor", "no_depth_filter", "bwd"):
        "e0c96c2c9fb94cdc81ff23406bdfacc938a9a921973c2f843efc0eb6f2d4bff8",
    ("corridor", "no_robust_matching", "fwd"):
        "8a8e25c3dae8873c34bfc8520f7ca26a601931108b4b7ef841cd766e3c4f5527",
    ("corridor", "no_robust_matching", "bwd"):
        "0c39d86af02fdaf48c67163fdaa53f3a3c77e6cc5b007004cf034de03124f1e7",
    ("corridor", "no_symmetric_gates", "fwd"):
        "10771e0c21c673e9b46c4372e587cc0baeb4ada499b3bd14e92ed19e519628eb",
    ("corridor", "no_symmetric_gates", "bwd"):
        "eae7e81e8fef6713879104f7578ae1079e73711546eec76d6c7d6b164a97057a",
    ("corridor", "no_keep_all_outliers", "fwd"):
        "c49a81b1783ec3ece072dbea78e52c240352ffbd63b020eb88bb19d24c014253",
    ("corridor-63", "full", "fwd"):
        "551b6cf38444de20c30052af226f8eef203413506aec27035793dc5ec379a7a0",
    ("corridor-63", "full", "bwd"):
        "8d7349f236a1cc9aacc927e51369c0c3216f5c8f53f166b2908274f3345b1199",
    ("corridor-63", "no_keep_all_outliers", "fwd"):
        "ec37d458aaeeec39f369e51012f0ce99778e3f20fd4cd7cc9b24c1a9993d201e",
    ("corridor-63", "no_keep_all_outliers", "bwd"):
        "1632dd8f9773f018362ba3e68a01cf387af2df75c19d59e92b70b314128b0b32",
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


def run_scene(**env) -> list:
    """(health, digest) of ``THREADED_SCENE`` in a subprocess whose
    environment adds ``env``."""
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), **env}
    run = subprocess.run([sys.executable, "-c", THREADED_SCENE], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.split()


def test_digest_does_not_depend_on_blas_threads():
    outputs = [run_scene(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
               for threads in ("1", "2")]  # one subprocess at a time
    assert outputs[0][0] == "ok"
    assert outputs[0] == outputs[1]


def test_digest_does_not_depend_on_avx512_dispatch():
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    groups = [g for g in __cpu_dispatch__ if __cpu_features__.get(g)
              and (g == "X86_V4" or g.startswith("AVX512"))]
    if not groups:
        pytest.skip("numpy dispatches no AVX-512 group on this host: nothing to disable")
    want = run_scene()
    assert want[0] == "ok"
    assert run_scene(NPY_DISABLE_CPU_FEATURES=" ".join(groups)) == want
