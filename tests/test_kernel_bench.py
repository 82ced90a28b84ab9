"""Micro-benchmarks of the hot kernels, each checked against an oracle.

Run alone with ``python -m pytest tests/test_kernel_bench.py``; pass
``--benchmark-skip`` to leave them out of a test run.  Rounds are few so
that the suite stays fast.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

import symvo.association as association
from symvo.association import (
    DESCRIPTOR_THRESHOLD,
    AssociationPolicy,
    Site,
    fuse,
    match,
    search_for_triangulation,
)
from symvo.features import hamming_matrix
from symvo.geometry import CameraIntrinsics, Pose, pinhole, so3_exp
from symvo.optimizer import (
    OBSERVATION,
    CovarianceModel,
    OptimizationProblem,
    _build_normal_equations,
    _evaluate,
    _solve_step,
    _term_jacobians,
    optimize_pose,
    solve_problem,
)
from symvo.pipeline import RNG_SEED, Pipeline, PipelineConfig, initialize_two_view
from symvo.synth import SceneSpec, generate
from symvo.worldmap import WorldMap

from oracles import (
    Descriptor,
    corridor_match_inputs,
    einsum_term_jacobians,
    hamming,
    initialization_bytes,
    initialization_inputs,
    map_bytes,
    pack_descriptors,
    project,
    reference_apply_fuse,
    reference_bindings,
    reference_camera_points,
    reference_initialize_two_view,
    reference_match,
    reference_normal_equations,
    reference_owners,
    reference_reselect_references,
    reference_search_for_triangulation,
    reference_solve_step,
)

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def test_hamming_matrix_corridor_size(benchmark):
    """One all-pairs call at the size of a corridor frame: 1580 x 1580."""
    rng = np.random.default_rng(0)
    left = [Descriptor.random(rng) for _ in range(1580)]
    right = [Descriptor.random(rng) for _ in range(1580)]
    a, b = pack_descriptors(left), pack_descriptors(right)
    dist = benchmark.pedantic(hamming_matrix, args=(a, b), rounds=5,
                              iterations=1, warmup_rounds=1)
    assert dist.shape == (1580, 1580) and dist.dtype == np.int32
    for i in rng.choice(1580, size=12, replace=False):
        assert list(dist[i]) == [hamming(left[i], r) for r in right]


def test_pairs_within_corridor_size(benchmark):
    """The scoring of one projection search at the size of a corridor frame:
    1,300 queries x 1,300 targets, 1,100 of the queries copies of distinct
    targets with 2% of their bits flipped.  The oracle is the dense
    ``hamming_matrix``: every pair within the threshold, row-major, byte
    for byte."""
    rng = np.random.default_rng(1)
    targets = rng.integers(0, 256, (1300, 32), dtype=np.uint8)
    queries = rng.integers(0, 256, (1300, 32), dtype=np.uint8)
    flips = np.packbits(rng.random((1100, 256)) < 0.02, axis=1)
    queries[:1100] = targets[rng.permutation(1300)[:1100]] ^ flips
    got = benchmark.pedantic(association._pairs_within,
                             args=(queries, targets, DESCRIPTOR_THRESHOLD),
                             rounds=5, iterations=1, warmup_rounds=1)
    dense = hamming_matrix(queries, targets)
    within = np.nonzero(dense <= DESCRIPTOR_THRESHOLD)
    want = (*within, dense[within])
    assert len(got[0]) >= 1100
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_match_corridor_size(benchmark):
    """One local-search ``match`` at the size of a corridor frame: 1,000 live
    queries x 1,500 targets, 900 true pairs; the oracle is the dense
    matcher, row for row."""
    inputs = corridor_match_inputs()
    kwargs = dict(policy=AssociationPolicy(), site=Site.PROJECTION_LOCAL, **inputs)
    got = benchmark.pedantic(match, kwargs=kwargs, rounds=5, iterations=1,
                             warmup_rounds=1)
    want = reference_match(**kwargs)
    assert len(got) == 900
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def corridor_keyframes():
    """Frames 0 and 2 of the benchmark's corridor scene (seed 61) as keyframes
    at their true poses: about 1,280 keypoints each, all free."""
    seq = generate(SceneSpec(trajectory="forward-corridor", n_frames=30, noise_px=0.5,
                             outlier_rate=0.05, seed=61))
    world = WorldMap()
    return seq.cam, [
        world.add_keyframe(f.timestamp, seq.ground_truth.poses[i], f.keypoints,
                           f.octaves, f.descriptors)
        for i, f in ((i, seq.frames[i]) for i in (0, 2))
    ]


def test_search_for_triangulation_corridor_size(benchmark, corridor_keyframes):
    """Epipolar search of a corridor keyframe pair; the oracle is the dense
    matcher over every pair, match for match."""
    cam, (kf_a, kf_b) = corridor_keyframes
    policy = AssociationPolicy()
    free = np.full(kf_a.n_keypoints, -1), np.full(kf_b.n_keypoints, -1)
    args = (kf_a, kf_b, *free, policy, cam)
    got = benchmark.pedantic(search_for_triangulation, args=args,
                             rounds=3, iterations=1, warmup_rounds=1)
    want = reference_search_for_triangulation(*args)
    (pairs, positions), (want_pairs, want_positions) = got, want
    assert len(pairs) > 100
    assert pairs.dtype == want_pairs.dtype == np.int64
    assert np.array_equal(pairs, want_pairs)
    assert positions.shape == want_positions.shape
    assert positions.tobytes() == want_positions.tobytes()


@pytest.fixture(scope="module")
def corridor_fuse():
    """The fuse with the most fused rows in a forward pass over the
    benchmark's corridor unit (seed 61, 12 frames): the pipeline, a copy of
    its map just before the fuse, and the fuse's point ids and keyframe."""
    seq = generate(SceneSpec(trajectory="forward-corridor", n_frames=30, noise_px=0.5,
                             outlier_rate=0.05, seed=61))
    pipeline = Pipeline(seq.cam, PipelineConfig())
    calls = []
    apply_fuse = Pipeline._apply_fuse

    def capture(self, point_ids, kf):
        calls.append((copy.deepcopy(self.world), point_ids.copy(), kf.kf_id))
        apply_fuse(self, point_ids, kf)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Pipeline, "_apply_fuse", capture)
        for frame in seq.frames[:12]:
            pipeline.process_frame(frame)

    def n_rows(call):
        world, point_ids, kf_id = copy.deepcopy(call)
        kf = world.keyframes[kf_id]
        point_ids = point_ids[np.isin(point_ids, world.points)
                              & ~np.isin(point_ids, world.owners(kf_id))]
        batch = world.point_batch(point_ids, kf.pose.translation)
        return len(fuse(batch, kf, pipeline.policy, pipeline.cam))

    return pipeline, max(calls, key=n_rows)


def test_apply_fuse_corridor_size(benchmark, corridor_fuse):
    """One ``_apply_fuse`` of the corridor unit's largest fuse, about 165
    rows, all of them attaches; the oracle is the row walk, byte for byte.
    Merges are checked against the row walk by the world-map tests."""
    pipeline, call = corridor_fuse
    worlds = []

    def fresh_map():
        world, point_ids, kf_id = copy.deepcopy(call)
        worlds.append(world)
        host = SimpleNamespace(world=world, policy=pipeline.policy, cam=pipeline.cam)
        return (host, point_ids, world.keyframes[kf_id]), {}

    benchmark.pedantic(Pipeline._apply_fuse, setup=fresh_map, rounds=5,
                       iterations=1, warmup_rounds=1)
    want, point_ids, kf_id = copy.deepcopy(call)
    kf = want.keyframes[kf_id]
    n_bound = np.count_nonzero(want.owners(kf_id) >= 0)
    reference_apply_fuse(want, point_ids, kf, pipeline.policy, pipeline.cam)
    assert np.count_nonzero(want.owners(kf_id) >= 0) - n_bound > 50  # attaches
    got = worlds[-1]
    assert map_bytes(got) == map_bytes(want)
    got.check_integrity()


def test_owners_corridor_size(benchmark, corridor_fuse):
    """``owners`` of the newest keyframe at the end of the corridor unit's
    12 frames: a 2,048 x 6 table, about 1,300 keypoints; the oracle is the
    loop over the slot's cells, byte for byte."""
    world = corridor_fuse[0].world
    kf_id = world.keyframe_ids()[-1]
    assert world._held.shape == (2048, 6)
    got = benchmark.pedantic(world.owners, args=(kf_id,), rounds=20, iterations=10,
                             warmup_rounds=1)
    want = reference_owners(world, kf_id)
    assert np.count_nonzero(got >= 0) > 100
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_points_corridor_size(benchmark, corridor_fuse):
    """``points`` at the end of the corridor unit's 12 frames: a scan of the
    2,048 x 6 table; the oracle is the loop over its cells."""
    world = corridor_fuse[0].world
    assert world._held.shape == (2048, 6)
    got = benchmark.pedantic(lambda: world.points, rounds=20, iterations=10,
                             warmup_rounds=1)
    want = np.unique(reference_bindings(world)[0])
    assert got.size > 1000
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


INIT_SCENES = {
    "orbit": SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                       path_length=20.0, noise_px=0.5, outlier_rate=0.05, seed=61),
    "corridor": SceneSpec(trajectory="forward-corridor", n_frames=30, noise_px=0.5,
                          outlier_rate=0.05, seed=61),
}


def bench_initialize_two_view(benchmark, scene, size):
    """The 200-hypothesis RANSAC over the matches of frames 0 and 2 of a
    benchmark scene; the oracle is the draw-solve-score loop, byte for
    byte, with the generator left in the same state."""
    seq = generate(INIT_SCENES[scene])
    uv1, uv2, sigma = initialization_inputs(seq.frames[0], seq.frames[2])
    assert abs(len(uv1) - size) < 0.1 * size
    rngs = []

    def fresh_generator():
        rngs.append(np.random.default_rng(RNG_SEED))
        return (uv1, uv2, seq.cam, rngs[-1], sigma), {}

    got = benchmark.pedantic(initialize_two_view, setup=fresh_generator,
                             rounds=3, iterations=1, warmup_rounds=1)
    ref_rng = np.random.default_rng(RNG_SEED)
    want = reference_initialize_two_view(uv1, uv2, seq.cam, ref_rng, sigma)
    assert want is not None
    assert rngs[-1].bit_generator.state == ref_rng.bit_generator.state
    assert initialization_bytes(got) == initialization_bytes(want)


def test_initialize_two_view_orbit_size(benchmark):
    bench_initialize_two_view(benchmark, "orbit", 300)


def test_initialize_two_view_corridor_size(benchmark):
    bench_initialize_two_view(benchmark, "corridor", 1150)


@pytest.fixture(scope="module")
def ba_window():
    """A noiseless 8-view window of 200 points, started off the truth."""
    rng = np.random.default_rng(1)
    truth_poses = {
        k: Pose(so3_exp(np.array([0.0, 0.02 * k, 0.0])),
                np.array([0.1 * k, 0.0, 0.4 * k]))
        for k in range(1, 9)
    }
    truth_points = {}
    while len(truth_points) < 200:
        p = rng.uniform([-4.0, -3.0, 8.0], [4.0, 3.0, 30.0])
        uvs = [project(pose.inverse().apply(p), CAM) for pose in truth_poses.values()]
        if all(CAM.contains(uv) for uv in uvs):
            truth_points[len(truth_points) + 1] = p
    rows = []
    for pid, p in truth_points.items():
        ref_uv = project(truth_poses[1].inverse().apply(p), CAM)
        rows.append((pid, 1, ref_uv, 2.0, 1, ref_uv, 2.0))
        for k in range(2, 9):
            uv = project(truth_poses[k].inverse().apply(p), CAM)
            rows.append((pid, k, uv, 2.0, 1, ref_uv, 2.0))
    start_poses = {
        k: pose if k <= 2 else Pose(
            so3_exp(rng.normal(scale=0.01, size=3)) @ pose.rotation,
            pose.translation + rng.normal(scale=0.01, size=3))
        for k, pose in truth_poses.items()
    }
    start_points = {p: x + rng.normal(scale=0.02, size=3)
                    for p, x in truth_points.items()}
    problem = OptimizationProblem(
        cam=CAM, poses=start_poses, points=start_points,
        observations=np.array(rows, dtype=OBSERVATION),
        model=CovarianceModel.SYMMETRIC,
        variable_pose_ids=tuple(range(3, 9)),
        variable_point_ids=tuple(truth_points),
    )
    return problem, truth_points


def test_solve_problem_ba_window(benchmark, ba_window):
    """Symmetric-cost LM on the window; the oracle is the noiseless truth."""
    problem, truth_points = ba_window
    result = benchmark.pedantic(solve_problem, args=(problem,), rounds=3,
                                iterations=1)
    assert result.iterations > 0
    assert result.cost < 1e-12
    assert np.allclose(result.state.pts, np.stack(list(truth_points.values())),
                       atol=1e-6)


def test_evaluate_ba_window(benchmark, ba_window):
    """One residual evaluation of the window; the oracle maps every term's
    point row by row."""
    problem, _ = ba_window
    state = problem.initial_state()
    ev = benchmark.pedantic(_evaluate, args=(problem, state), rounds=5,
                            iterations=1, warmup_rounds=1)
    q_f, q_b = reference_camera_points(problem, state)
    assert ev.valid_f.all() and ev.valid_b.all()
    np.testing.assert_allclose(ev.q_f, q_f, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ev.q_b, q_b, rtol=1e-12, atol=0)


def test_term_jacobians_ba_window(benchmark, ba_window):
    """The window's Jacobians; the oracle is their ``np.einsum`` form."""
    problem, _ = ba_window
    state = problem.initial_state()
    ev = _evaluate(problem, state)
    jac = benchmark.pedantic(_term_jacobians, args=(problem, state, ev),
                             rounds=5, iterations=1, warmup_rounds=1)
    want = einsum_term_jacobians(problem, state, ev)
    for name in ("f_pose", "f_pt", "b_pose_k", "b_pose_j", "b_pt"):
        got, ref = getattr(jac, name), getattr(want, name)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_build_normal_equations_ba_window(benchmark, ba_window):
    """One normal-equation build at the window's start; the oracle is the
    sequential ``np.add.at`` accumulation, bit for bit."""
    problem, _ = ba_window
    state = problem.initial_state()
    ev = _evaluate(problem, state)
    got = benchmark.pedantic(_build_normal_equations, args=(problem, state, ev),
                             rounds=5, iterations=1, warmup_rounds=1)
    want = reference_normal_equations(problem, state, ev)
    assert all(g.tobytes() == w.tobytes() and g.shape == w.shape
               for g, w in zip(got, want))


@pytest.fixture(scope="module")
def corridor_window():
    """A local-BA window of the largest corridor window's size: 7 views
    advancing along +z, the 2 oldest fixed, and 1,300 points, each held by
    4-7 consecutive views and referenced to one of them drawn at random.
    About 7k rows, 5.5k-6k of them with a backward term; 0.5 px noise, 5%
    gross outliers, started off the truth."""
    rng = np.random.default_rng(3)
    truth_poses = {
        k: Pose(so3_exp(np.array([0.0, 0.01 * k, 0.0])),
                np.array([0.05 * k, 0.0, 0.5 * k]))
        for k in range(1, 8)
    }
    truth_points, rows = {}, []
    while len(truth_points) < 1300:
        p = rng.uniform([-6.0, -4.0, 8.0], [6.0, 4.0, 30.0])
        n = int(rng.integers(4, 8))
        start = int(rng.integers(1, 9 - n))
        views = range(start, start + n)
        uvs = {k: pinhole(truth_poses[k].inverse().apply(p), CAM)[0] for k in views}
        if not all(CAM.contains(uv) for uv in uvs.values()):
            continue
        pid = len(truth_points) + 1
        truth_points[pid] = p
        uvs = {k: uv + rng.normal(scale=0.5, size=2) for k, uv in uvs.items()}
        ref = int(rng.choice(list(views)))
        for k in views:
            rows.append((pid, k, uvs[k], 2.0, ref, uvs[ref], 2.0))
    observations = np.array(rows, dtype=OBSERVATION)
    outliers = rng.choice(len(rows), size=len(rows) // 20, replace=False)
    observations["uv"][outliers] += rng.uniform(-30.0, 30.0, (outliers.size, 2))
    start_poses = {
        k: pose if k <= 2 else Pose(
            so3_exp(rng.normal(scale=0.01, size=3)) @ pose.rotation,
            pose.translation + rng.normal(scale=0.01, size=3))
        for k, pose in truth_poses.items()
    }
    start_points = {p: x + rng.normal(scale=0.02, size=3)
                    for p, x in truth_points.items()}
    return OptimizationProblem(
        cam=CAM, poses=start_poses, points=start_points, observations=observations,
        model=CovarianceModel.SYMMETRIC, variable_pose_ids=tuple(range(3, 8)),
        variable_point_ids=tuple(truth_points),
    )


def test_build_normal_equations_corridor_window(benchmark, corridor_window):
    """One normal-equation build on a corridor-size window; the oracle is the
    sequential ``np.add.at`` accumulation, bit for bit."""
    problem = corridor_window
    assert 6500 < len(problem.observations) < 7500
    assert 5300 < problem.b_fwd.size < 6300
    state = problem.initial_state()
    ev = _evaluate(problem, state)
    got = benchmark.pedantic(_build_normal_equations, args=(problem, state, ev),
                             rounds=10, iterations=1, warmup_rounds=2)
    want = reference_normal_equations(problem, state, ev)
    assert all(g.tobytes() == w.tobytes() and g.shape == w.shape
               for g, w in zip(got, want))


def test_solve_step_corridor_window(benchmark, corridor_window):
    """One damped Schur step on a corridor-size window's normal equations;
    the oracle damps and inverts each point block in a loop, bit for bit."""
    problem = corridor_window
    state = problem.initial_state()
    H = _build_normal_equations(problem, state, _evaluate(problem, state))
    got = benchmark.pedantic(_solve_step, args=(*H, 1e-4), rounds=10, iterations=1,
                             warmup_rounds=2)
    want = reference_solve_step(*H, 1e-4)
    assert all(g.tobytes() == w.tobytes() and g.shape == w.shape
               for g, w in zip(got, want))


@pytest.fixture(scope="module")
def tracking_problem():
    """A tracking-sized pose problem: one variable view, 300 fixed points
    held by a fixed reference view, 10% of the keypoints gross outliers."""
    rng = np.random.default_rng(2)
    reference = Pose(so3_exp(np.array([0.0, -0.03, 0.0])), np.array([-0.2, 0.0, -0.5]))
    truth = Pose(so3_exp(np.array([0.01, 0.03, 0.0])), np.array([0.15, 0.02, 0.3]))
    points, rows = {}, []
    while len(points) < 300:
        p = rng.uniform([-4.0, -3.0, 6.0], [4.0, 3.0, 25.0])
        uv = project(truth.inverse().apply(p), CAM)
        ref_uv = project(reference.inverse().apply(p), CAM)
        if CAM.contains(uv) and CAM.contains(ref_uv):
            points[len(points) + 1] = p
            rows.append((len(points), 0, uv, 2.0, 1, ref_uv, 2.0))
    observations = np.array(rows, dtype=OBSERVATION)
    outliers = rng.choice(300, size=30, replace=False)
    observations["uv"][outliers] = rng.uniform([0.0, 0.0], [640.0, 480.0], (30, 2))
    start = Pose(so3_exp(rng.normal(scale=0.01, size=3)) @ truth.rotation,
                 truth.translation + rng.normal(scale=0.02, size=3))
    problem = OptimizationProblem(
        cam=CAM, poses={0: start, 1: reference}, points=points,
        observations=observations,
        model=CovarianceModel.SYMMETRIC,
        variable_pose_ids=(0,),
    )
    return problem, truth, set((outliers + 1).tolist())


def test_optimize_pose_tracking_size(benchmark, tracking_problem):
    """Refine/reclassify rounds on the symmetric cost; the oracle is the
    truth pose, which the inliers alone pin down exactly."""
    problem, truth, outliers = tracking_problem
    result = benchmark.pedantic(optimize_pose, args=(problem,), rounds=5,
                                iterations=1)
    assert np.allclose(result.pose.rotation, truth.rotation, atol=1e-6)
    assert np.allclose(result.pose.translation, truth.translation, atol=1e-6)
    assert result.inlier.shape == (300,)
    # row r observes point r + 1
    assert set((np.flatnonzero(~result.inlier) + 1).tolist()) == outliers


@pytest.fixture(scope="module")
def orbit_map():
    """The map after a forward pass over the benchmark's orbit unit (seed
    61, 48 frames), and its last keyframe."""
    seq = generate(SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                             path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                             seed=61))
    pipeline = Pipeline(seq.cam, PipelineConfig())
    for frame in seq.frames[:48]:
        pipeline.process_frame(frame)
    world = pipeline.world
    return world, world.keyframes[world.keyframe_ids()[-1]]


def test_reselect_references_orbit_size(benchmark, orbit_map):
    """Local BA's geometric read at the orbit's last keyframe: one id per
    binding row of the window's points, each repeated once per holder;
    the oracle is the loop over the table's cells with a lexsort of every
    row, byte for byte."""
    world, kf = orbit_map
    point, _, _ = world.bindings(world.window_point_ids())
    assert point.size > 1000
    got = benchmark.pedantic(world.reselect_references,
                             args=(point, kf.pose.translation), rounds=5,
                             iterations=1, warmup_rounds=1)
    want = reference_reselect_references(world, point, kf.pose.translation)
    assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))
