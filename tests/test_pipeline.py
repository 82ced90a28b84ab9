import json
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symvo.association import (
    HETEROGENEOUS_THRESHOLDS,
    ConstraintMode,
    Ordering,
    Site,
)
from symvo.errors import ConfigError
from symvo.evaluation import ABLATION_AXES, ablation_configs
from symvo import association as association_module
from symvo import pipeline as pipeline_module
from symvo.features import ReferenceRule
from symvo.geometry import CameraIntrinsics, Pose, pinhole, unit_ray
from symvo.optimizer import CovarianceModel, OutlierMode
from symvo.pipeline import (
    RANSAC_ITERATIONS,
    RANSAC_SCORE_CHUNK,
    RANSAC_THRESHOLD_PX,
    RNG_SEED,
    FrameInput,
    Pipeline,
    PipelineConfig,
    _eight_point,
    _epipolar_residuals_px,
    _pixel_rows,
    _solve_hypotheses,
    initialize_two_view,
    reverse,
)
from symvo.synth import SceneSpec, generate
from symvo.trajectory import Trajectory

from oracles import (
    initialization_bytes,
    initialization_inputs,
    reference_eight_point,
    reference_epipolar_residuals_px,
    reference_initialize_two_view,
)

N_FRAMES = 6


@pytest.fixture(scope="module")
def orbit():
    """The first frames of a 300-landmark orbit; initializes on frame 3."""
    seq = generate(SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                             path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                             seed=61))
    return seq, seq.frames[:N_FRAMES]


def tracked_after_init(trajectory, frames):
    """Whether every frame from the initialization frame on has a pose."""
    stamps = [f.timestamp for f in frames]
    init = stamps.index(trajectory.timestamps[1])
    return list(trajectory.timestamps[1:]) == stamps[init:]


def test_standard_covariance_tracks_every_frame_after_init(orbit):
    seq, frames = orbit
    config = PipelineConfig(covariance_model="standard")
    trajectory, report = Pipeline(seq.cam, config).run(frames)
    assert report.health == "ok"
    assert tracked_after_init(trajectory, frames)


def test_runs_are_deterministic_and_track_after_init(orbit):
    seq, frames = orbit
    first, report_a = Pipeline(seq.cam, PipelineConfig()).run(frames)
    _, report_b = Pipeline(seq.cam, PipelineConfig()).run(frames)
    assert report_a.health == "ok"
    assert tracked_after_init(first, frames)
    assert report_a.digest == report_b.digest


def test_run_report_serializes(orbit):
    seq, frames = orbit
    _, report = Pipeline(seq.cam, PipelineConfig()).run(frames)
    out = report.to_dict()
    assert out["graph_stats"] == {
        "n_map_points": report.graph_stats.n_map_points,
        "n_local_keyframes": report.graph_stats.n_local_keyframes,
        "n_observation_inliers": report.graph_stats.n_observation_inliers,
    }
    assert min(out["graph_stats"].values()) > 0
    assert out["config"] == PipelineConfig().snapshot()
    assert (out["health"], out["n_frames"], out["digest"]) == \
        ("ok", N_FRAMES, report.digest)
    assert json.loads(json.dumps(report.to_dict())) == out


def test_reverse_round_trip_and_ground_truth_timestamps(orbit):
    seq, _ = orbit
    again = reverse(reverse(seq.frames))
    assert all(a.keypoints is f.keypoints for a, f in zip(again, seq.frames))
    assert [f.timestamp for f in again] == [f.timestamp for f in seq.frames]
    backward = [f.timestamp for f in reverse(seq.frames)]
    assert backward == list(seq.ground_truth.reversed().timestamps)
    assert np.all(np.diff(backward) > 0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(start=st.floats(-1e6, 1e6),
       gaps=st.lists(st.floats(1e-6, 1e3), max_size=30))
def test_reverse_twice_gives_the_timestamps_back_exactly(start, gaps):
    stamps = (start + np.cumsum([0.0] + gaps)).tolist()
    assume(np.all(np.diff(stamps) > 0))
    frames = [FrameInput(t, np.zeros((0, 2)), np.zeros(0, np.int64),
                         np.zeros((0, 32), np.uint8)) for t in stamps]
    backward = reverse(frames)
    assert [f.timestamp for f in backward] == stamps
    assert all(b.keypoints is f.keypoints
               for b, f in zip(backward, reversed(frames)))
    assert [f.timestamp for f in reverse(backward)] == stamps
    truth = Trajectory(np.array(stamps), [Pose.identity()] * len(stamps))
    assert truth.reversed().reversed().timestamps.tolist() == stamps


@pytest.mark.parametrize("field, value", [
    ("descriptor_selection", "nearest"),
    ("association_ordering", "greedy"),
    ("constraint_mode", "symmetrical"),
    ("covariance_model", "Symmetric"),
    ("outlier_policy", "keep_some"),
])
def test_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigError, match=field):
        PipelineConfig(**{field: value})


CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                       width=640, height=480)

# each toggle -> where a Pipeline holds the value it selected
TOGGLES = {
    "descriptor_selection": lambda p: p.world.descriptor_selection.value,
    "use_depth_filter": lambda p: p.policy.use_depth_filter,
    "association_ordering": lambda p: p.policy.ordering.value,
    "constraint_mode": lambda p: p.policy.constraint_mode.value,
    "covariance_model": lambda p: p.covariance_model.value,
    "outlier_policy": lambda p: p.outlier_mode.value,
}


def test_config_is_the_six_toggles():
    assert [f.name for f in fields(PipelineConfig)] == list(TOGGLES)


@pytest.mark.parametrize("field, value", [
    *[("descriptor_selection", r.value) for r in ReferenceRule],
    *[("use_depth_filter", v) for v in (True, False)],
    *[("association_ordering", o.value) for o in Ordering],
    *[("constraint_mode", m.value) for m in ConstraintMode],
    *[("covariance_model", m.value) for m in CovarianceModel],
    *[("outlier_policy", m.value) for m in OutlierMode],
])
def test_pipeline_hands_each_toggle_to_its_component(field, value):
    pipe = Pipeline(CAM, PipelineConfig(**{field: value}))
    assert TOGGLES[field](pipe) == value


def test_every_ablation_axis_flips_one_toggle():
    base = PipelineConfig()
    for name, overrides in ABLATION_AXES:
        if name == "full":
            assert overrides == {}
            continue
        assert len(overrides) == 1, name
        (field, value), = overrides.items()
        assert field in TOGGLES and getattr(base, field) != value, name


@pytest.mark.parametrize("site", list(Site))
def test_heterogeneous_pipeline_gates_with_the_per_site_table(site):
    symmetric = Pipeline(CAM, PipelineConfig()).policy
    heterogeneous = Pipeline(
        CAM, PipelineConfig(constraint_mode="heterogeneous")).policy
    assert heterogeneous.threshold_for(site) == HETEROGENEOUS_THRESHOLDS[site]
    assert heterogeneous.threshold_for(site) != symmetric.threshold_for(site)


def test_every_ablation_config_is_valid():
    names = [name for name, _ in ablation_configs(PipelineConfig())]
    assert len(names) == 7 and names[0] == "full"


# ----------------------------------------------------------------------
# two-view initialization against the draw-solve-score loop


def drawn_samples(n, count=RANSAC_ITERATIONS):
    """The first ``count`` samples a run's generator draws from n matches."""
    rng = np.random.default_rng(RNG_SEED)
    return np.stack([rng.choice(n, size=8, replace=False) for _ in range(count)])


def assert_same_initialization(uv1, uv2, cam, sigma):
    """``initialize_two_view`` returns the reference's bytes, or None with
    it, and leaves the generator where the reference leaves it."""
    rng, ref_rng = (np.random.default_rng(RNG_SEED) for _ in range(2))
    got = initialize_two_view(uv1, uv2, cam, rng, sigma)
    want = reference_initialize_two_view(uv1, uv2, cam, ref_rng, sigma)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert initialization_bytes(got) == initialization_bytes(want)
    return got


INIT_SCENES = {
    "orbit": dict(trajectory="orbit", n_landmarks=300, n_frames=80,
                  path_length=20.0),
    "corridor": dict(trajectory="forward-corridor", n_frames=30),
}


@pytest.fixture(scope="module", params=[
    (scene, seed) for scene in INIT_SCENES for seed in (61, 1009)],
    ids=lambda p: f"{p[0]}-{p[1]}")
def init_inputs(request):
    """Matches of frames 0 and 2 of the benchmark's orbit (about 300) and
    corridor (about 1,150) scenes, as initialization receives them."""
    scene, seed = request.param
    seq = generate(SceneSpec(noise_px=0.5, outlier_rate=0.05, seed=seed,
                             **INIT_SCENES[scene]))
    return seq.cam, initialization_inputs(seq.frames[0], seq.frames[2])


def test_initialization_matches_reference(init_inputs):
    cam, (uv1, uv2, sigma) = init_inputs
    assert 250 <= len(uv1) <= 1300
    assert assert_same_initialization(uv1, uv2, cam, sigma) is not None


def test_initialization_batch_kernels_match_scalar_ones(init_inputs):
    """Every hypothesis's essential matrix and residuals, byte for byte."""
    cam, (uv1, uv2, _) = init_inputs
    x1, x2 = unit_ray(uv1, cam)[:, :2], unit_ray(uv2, cam)[:, :2]
    samples = drawn_samples(len(x1), RANSAC_SCORE_CHUNK + 5)
    E = _eight_point(x1[samples], x2[samples])
    res = _epipolar_residuals_px(E, _pixel_rows(x1, cam), _pixel_rows(x2, cam),
                                 np.linalg.inv(cam.matrix))
    for h, sample in enumerate(samples):
        want = reference_eight_point(x1[sample], x2[sample])
        assert E[h].tobytes() == want.tobytes()
        assert res[h].tobytes() == \
            reference_epipolar_residuals_px(want, x1, x2, cam).tobytes()


def top_count_ties(uv1, uv2, cam, sigma):
    """Whether two of the hypotheses a run draws share the highest inlier
    count with different inlier sets, so that the tie rule picks the model."""
    x1, x2 = unit_ray(uv1, cam)[:, :2], unit_ray(uv2, cam)[:, :2]
    samples = drawn_samples(len(x1))
    E = _solve_hypotheses(x1[samples], x2[samples])
    mask = _epipolar_residuals_px(E, _pixel_rows(x1, cam), _pixel_rows(x2, cam),
                                  np.linalg.inv(cam.matrix)) <= RANSAC_THRESHOLD_PX * sigma
    counts = np.count_nonzero(mask, axis=1)
    top = mask[counts == counts.max()]
    return bool((top != top[0]).any())


def test_initialization_with_few_matches(init_inputs):
    """Few matches give few distinct inlier counts, so the highest is often
    shared and the first drawn hypothesis must win."""
    cam, (uv1, uv2, sigma) = init_inputs
    sizes = (8, 9, 10, 16, 20, 30, 40)
    for n in sizes:
        assert_same_initialization(uv1[:n], uv2[:n], cam, sigma[:n])
    assert any(top_count_ties(uv1[:n], uv2[:n], cam, sigma[:n]) for n in sizes[1:])
    rng = np.random.default_rng(RNG_SEED)
    assert initialize_two_view(uv1[:7], uv2[:7], cam, rng, sigma[:7]) is None
    assert rng.bit_generator.state == \
        np.random.default_rng(RNG_SEED).bit_generator.state


@pytest.mark.parametrize("n", [300, 1150])
def test_initialization_of_pure_outliers_is_none(n):
    rng = np.random.default_rng(n)
    uv1, uv2 = (rng.uniform([0.0, 0.0], [639.0, 479.0], (n, 2)) for _ in range(2))
    assert assert_same_initialization(uv1, uv2, CAM, np.ones(n)) is None


def test_initialization_skips_hypotheses_whose_svd_raises(init_inputs):
    """A NaN keypoint makes the SVD of every sample that draws it raise."""
    cam, (uv1, uv2, sigma) = init_inputs
    uv1 = uv1.copy()
    uv1[5] = np.nan
    x1, x2 = unit_ray(uv1, cam)[:, :2], unit_ray(uv2, cam)[:, :2]
    samples = drawn_samples(len(x1))
    drawn = (samples == 5).any(axis=1)
    assert drawn.any()
    with pytest.raises(np.linalg.LinAlgError):
        reference_eight_point(x1[samples[drawn][0]], x2[samples[drawn][0]])
    assert len(_solve_hypotheses(x1[samples], x2[samples])) == \
        RANSAC_ITERATIONS - np.count_nonzero(drawn)
    assert assert_same_initialization(uv1, uv2, cam, sigma) is not None


# ----------------------------------------------------------------------
# initialization in the run report


@pytest.fixture(scope="module")
def corridor_prefix():
    """The corridor of ``test_digests``' pinned 10-frame prefix: 800
    landmarks, seed 61, 30 frames."""
    seq = generate(SceneSpec(trajectory="forward-corridor", n_landmarks=800,
                             n_frames=30, noise_px=0.5, outlier_rate=0.05,
                             seed=61))
    return seq.cam, seq.frames


def observed_initialization(pipe, frames):
    """Run ``frames``, counting initialization from outside the pipeline:
    calls made before initialization while a reference was set, and the
    1-based frame after which the pipeline is initialized."""
    seen = {"calls": 0, "attempts": 0, "frame": None}
    process = pipe.process_frame

    def watched(frame):
        was_init, had_ref = pipe.initialized, pipe.init_ref is not None
        seen["calls"] += 1
        try:
            return process(frame)
        finally:
            if not was_init:
                seen["attempts"] += had_ref
                if pipe.initialized:
                    seen["frame"] = seen["calls"]

    pipe.process_frame = watched
    _, report = pipe.run(frames)
    return report, seen


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_run_report_records_initialization(corridor_prefix, direction):
    cam, frames = corridor_prefix
    frames = frames[:10]
    if direction == "bwd":
        frames = reverse(frames)
    report, seen = observed_initialization(Pipeline(cam, PipelineConfig()), frames)
    assert report.health == "ok"
    assert (report.init_attempts, report.init_frame) == \
        (seen["attempts"], seen["frame"]) == (2, 3)
    assert report.to_dict()["init_attempts"] == report.init_attempts
    assert report.to_dict()["init_frame"] == report.init_frame


def test_initialization_moves_its_reference_after_ten_failures(
        corridor_prefix, monkeypatch):
    cam, frames = corridor_prefix
    monkeypatch.setattr(pipeline_module, "initialize_two_view",
                        lambda *args: None)
    frames = frames[:14]
    pipe = Pipeline(cam, PipelineConfig())
    refs = []
    for frame in frames:
        pipe.process_frame(frame)
        refs.append(pipe.init_ref)
    # frame 1 becomes the reference; frames 2-11 fail against it, and the
    # tenth failure makes frame 11 the next reference
    assert all(ref is frames[0] for ref in refs[:10])
    assert all(ref is frames[10] for ref in refs[10:])
    assert pipe.init_attempts == len(frames) - 1
    _, report = Pipeline(cam, PipelineConfig()).run(frames)
    assert (report.health, report.init_attempts, report.init_frame) == \
        ("init_failed", len(frames) - 1, None)


# ----------------------------------------------------------------------
# per-frame records


def test_every_frame_after_initialization_gets_a_record(corridor_prefix):
    cam, frames = corridor_prefix
    frames = frames[:10]
    _, report = Pipeline(cam, PipelineConfig()).run(frames)
    assert report.health == "ok"
    after_init = frames[report.init_frame:]
    assert [(r.index, r.timestamp) for r in report.frame_records] == [
        (i, f.timestamp) for i, f in enumerate(after_init, report.init_frame + 1)]
    assert all(r.n_matches_local >= 6 and r.n_dropped == 0
               for r in report.frame_records)


def test_a_frame_that_keeps_every_match_records_no_drops(corridor_prefix, monkeypatch):
    """Early removal keeps every match when fewer than six inliers remain,
    so such a frame drops nothing."""
    cam, frames = corridor_prefix
    inner = pipeline_module.optimize_pose

    def five_inliers(problem):
        result = inner(problem)
        result.inlier = np.arange(result.inlier.size) < 5
        return result

    monkeypatch.setattr(pipeline_module, "optimize_pose", five_inliers)
    _, report = Pipeline(cam, PipelineConfig(outlier_policy="early_removal")).run(
        frames[:6])
    assert report.frame_records
    assert [r.n_dropped for r in report.frame_records] == [0] * len(report.frame_records)


def test_the_frame_that_loses_tracking_gets_a_record(corridor_prefix):
    cam, frames = corridor_prefix
    frames = list(frames[:8])
    # random descriptors on frame 6: no map point can be matched there
    blind = frames[5].descriptors
    frames[5] = replace(frames[5], descriptors=np.random.default_rng(0).integers(
        0, 256, blind.shape, dtype=np.uint8))
    _, report = Pipeline(cam, PipelineConfig()).run(frames)
    assert (report.health, report.lost_at_frame) == ("tracking_lost", 6)
    assert [r.index for r in report.frame_records] == \
        list(range(report.init_frame + 1, report.lost_at_frame + 1))
    lost = report.frame_records[-1]
    assert lost.index == report.lost_at_frame
    assert lost.timestamp == frames[5].timestamp
    assert lost.n_matches_local < 6


# ----------------------------------------------------------------------
# the depth filter over a whole corridor


def depth_filter_drops(monkeypatch) -> Counter:
    """Per ``Site``, the points that the depth filter drops in
    ``search_by_projection``: in view but outside their depth interval."""
    drops = Counter()
    inner = association_module.search_by_projection

    def counted(frame, points, predicted_pose_wc, policy, cam, site, scores=None):
        if policy.use_depth_filter:
            in_cam = predicted_pose_wc.inverse().apply(points.positions)
            uv, in_front = pinhole(in_cam, cam)
            drops[site.value] += int(np.count_nonzero(
                in_front & cam.contains(uv) & ~points.depth.contains(in_cam[:, 2])))
        return inner(frame, points, predicted_pose_wc, policy, cam, site, scores)

    # the pipeline's tracking searches and fuse each look the search up
    for module in (pipeline_module, association_module):
        monkeypatch.setattr(module, "search_by_projection", counted)
    return drops


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_depth_filter_keeps_local_matches_over_the_corridor(monkeypatch, direction):
    """On the benchmark's 30-frame corridor, the depth filter must not starve
    the local-map search: wherever both runs track, ``full`` keeps at least
    half of ``no_depth_filter``'s local matches.  An interval that every
    holder of a point narrowed would empty once the camera had moved far
    along the point's track, and would fail this in both directions."""
    seq = generate(SceneSpec(trajectory="forward-corridor", n_frames=30, noise_px=0.5,
                             outlier_rate=0.05, seed=61))
    frames = seq.frames if direction == "fwd" else reverse(seq.frames)
    _, unfiltered = Pipeline(seq.cam, PipelineConfig(use_depth_filter=False)).run(frames)
    drops = depth_filter_drops(monkeypatch)
    _, filtered = Pipeline(seq.cam, PipelineConfig()).run(frames)
    print(f"{direction}: depth-filter drops per site {dict(sorted(drops.items()))}")
    local = {r.index: r.n_matches_local for r in unfiltered.frame_records}
    both = [(r.index, r.n_matches_local, local[r.index])
            for r in filtered.frame_records if r.index in local]
    assert len(both) >= 20
    starved = [(i, kept, unfiltered_kept) for i, kept, unfiltered_kept in both
               if 2 * kept < unfiltered_kept]
    assert not starved, f"(frame, full, no_depth_filter) local matches: {starved}"
    assert sum(drops.values()) > 0  # the filter is applied, and does drop


# ----------------------------------------------------------------------
# the reference each local BA row reads


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_local_ba_references_the_holder_nearest_the_new_keyframe(
        corridor_prefix, monkeypatch, direction):
    """Every row of every local BA on the pinned corridor prefix takes its
    reference view from its point's holder nearest the new keyframe (the
    newest), ties to the lower keyframe id, as a brute-force walk finds."""
    cam, frames = corridor_prefix
    frames = frames[:10] if direction == "fwd" else reverse(frames[:10])
    pipe = Pipeline(cam, PipelineConfig())
    inner = pipeline_module.local_bundle_adjustment
    checked = []

    def brute_force(problem, mode):
        world = pipe.world
        t_new = world.keyframes[max(world.keyframes)].pose.translation

        def nearest(pid):
            _, kfs, _ = world.bindings([pid])
            d = [world.keyframes[k].pose.translation - t_new for k in kfs.tolist()]
            return min(zip([v @ v for v in d], kfs.tolist()))[1]

        want = {pid: nearest(pid) for pid in np.unique(problem.observations["point"])}
        assert [want[pid] for pid in problem.observations["point"].tolist()] == \
            problem.observations["ref_kf"].tolist()
        checked.append(len(problem.observations))
        return inner(problem, mode)

    monkeypatch.setattr(pipeline_module, "local_bundle_adjustment", brute_force)
    _, report = pipe.run(frames)
    assert report.health == "ok" and len(checked) >= 8


def test_local_ba_solves_stay_short_on_the_benchmark_corridor(monkeypatch):
    """The benchmark's corridor (30 frames, seed 61) cut to its first 12
    frames, forward: no local-BA solve takes more than 15 LM iterations.
    A solver that let a step move a term behind its camera, keeping that
    term at its last cost, alternated rejected and accepted steps here for
    25 and 41 iterations."""
    seq = generate(SceneSpec(trajectory="forward-corridor", n_frames=30, noise_px=0.5,
                             outlier_rate=0.05, seed=61))
    iterations = []
    inner = pipeline_module.local_bundle_adjustment

    def counted(*args):
        result = inner(*args)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(pipeline_module, "local_bundle_adjustment", counted)
    _, report = Pipeline(seq.cam, PipelineConfig()).run(seq.frames[:12])
    print(f"local-BA iterations per solve: {iterations}")
    assert report.health == "ok"
    assert len(iterations) >= 3
    assert max(iterations) <= 15
