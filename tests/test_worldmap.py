import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvo.association import AssociationPolicy
from symvo.errors import WorldIntegrityError
from symvo.features import (
    DELTA_L,
    PYRAMID_SCALE,
    ReferenceRule,
    depth_invariance_interval,
    octave_for_depth,
    select_reference_appearance_index,
)
from symvo.geometry import CameraIntrinsics, Pose
from symvo.pipeline import Pipeline
from symvo.worldmap import GraphStats, WorldMap, keyframe_retention

from oracles import (
    Descriptor,
    map_bytes,
    pack_descriptors,
    project,
    reference_add_observation,
    reference_apply_fuse,
    reference_apply_retention,
    reference_bindings,
    reference_create_point,
    reference_cull_points,
    reference_merge_points,
    reference_owners,
    reference_points,
    reference_remove_observation,
    reference_reselect_references,
    select_reference_geometric_index,
)
from test_features import appearance_index_loop

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


class TestKeyframeRetention:
    def test_hand_simulation_after_twelve_frames(self):
        retained = set()
        for frame in range(1, 13):
            retained = keyframe_retention(frame, retained)
        assert retained == {5, 8, 9, 10, 11, 12}

    def test_first_five_all_survive(self):
        retained = set()
        for frame in range(1, 6):
            retained = keyframe_retention(frame, retained)
        assert retained == {1, 2, 3, 4, 5}

    def test_same_set_sizes_regardless_of_direction(self):
        # the policy is pure id arithmetic: replaying any id sequence of
        # the same length gives the same retained-set size
        sizes = []
        for n in (7, 12, 23, 100):
            retained = set()
            for frame in range(1, n + 1):
                retained = keyframe_retention(frame, retained)
            sizes.append(len(retained))
            expected = len({k for k in range(1, n + 1) if k % 5 == 0}
                           | set(range(max(1, n - 4), n + 1)))
            assert len(retained) == expected


def tiny_world(rng, n_landmarks=12, n_frames=6, spacing=0.4,
               descriptor_selection=ReferenceRule.GEOMETRIC):
    world = WorldMap(descriptor_selection)
    landmarks = []
    while len(landmarks) < n_landmarks:
        p = np.array([rng.uniform(-3, 3), rng.uniform(-2, 2),
                      rng.uniform(n_frames * spacing + 2, 20)])
        if all(CAM.contains(project(p - np.array([0, 0, k * spacing]), CAM))
               for k in range(n_frames)):
            landmarks.append(p)
    landmarks = np.stack(landmarks)
    signatures = [Descriptor.random(rng) for _ in range(n_landmarks)]
    kfs = []
    for k in range(n_frames):
        pose = Pose(np.eye(3), np.array([0.0, 0.0, k * spacing]))
        rel = pose.inverse().apply(landmarks)
        uv = np.stack([
            CAM.fx * rel[:, 0] / rel[:, 2] + CAM.cx,
            CAM.fy * rel[:, 1] / rel[:, 2] + CAM.cy,
        ], axis=1)
        octaves = octave_for_depth(rel[:, 2], z_far=30.0)
        kfs.append(world.add_keyframe(
            0.1 * k, pose, uv, octaves,
            pack_descriptors([s.flipped(rng, 0.02) for s in signatures]),
        ))
    return world, kfs, landmarks


def add_point(world, position, observations) -> int:
    """One new point, bound to the (kf_id, keypoint) pairs."""
    (pid,) = world.create_point([position], [(k, [kp]) for k, kp in observations])
    return int(pid)


def holders(world, pid) -> list:
    return world.bindings([pid])[1].tolist()


class TestObservations:
    def test_refresh_sets_reference(self):
        rng = np.random.default_rng(0)
        world, kfs, landmarks = tiny_world(
            rng, descriptor_selection=ReferenceRule.APPEARANCE)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])
        ref_kf, ref_kp = world.reselect_references([pid], kfs[3].pose.translation)
        assert (ref_kf.tolist(), ref_kp.tolist()) == ([kfs[0].kf_id], [0])
        assert np.array_equal(world.point_batch([pid], kfs[3].pose.translation)
                              .descriptors[0], kfs[0].descriptors[0])

    def test_geometric_refresh_stores_nothing(self):
        rng = np.random.default_rng(0)
        world, kfs, landmarks = tiny_world(rng)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[3].kf_id, 0)])
        before = map_bytes(world)
        for query, want in ((kfs[0], kfs[0]), (kfs[5], kfs[3])):
            ref_kf, ref_kp = world.reselect_references([pid], query.pose.translation)
            assert (ref_kf.tolist(), ref_kp.tolist()) == ([want.kf_id], [0])
        assert map_bytes(world) == before

    @pytest.mark.parametrize("rule", list(ReferenceRule))
    def test_read_of_a_point_without_holder_raises(self, rule):
        rng = np.random.default_rng(0)
        world, kfs, landmarks = tiny_world(rng, descriptor_selection=rule)
        a, b, c = (add_point(world, landmarks[i], [(kfs[i].kf_id, i)]) for i in range(3))
        world.remove_observation([b, c], [kfs[1].kf_id, kfs[2].kf_id])  # both die
        query = kfs[0].pose.translation
        # a dead id between live ones, and one past every held id
        for ids in ([a, b], [c], [b, a]):
            with pytest.raises(WorldIntegrityError, match="no reference holder"):
                world.reselect_references(ids, query)
            with pytest.raises(WorldIntegrityError, match="no reference holder"):
                world.point_batch(ids, query)
        assert world.reselect_references([a, a], query)[0].tolist() == [kfs[0].kf_id] * 2

    def test_duplicate_keyframe_observation_rejected(self):
        rng = np.random.default_rng(1)
        world, kfs, landmarks = tiny_world(rng)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])
        with pytest.raises(WorldIntegrityError):
            world.add_observation(pid, kfs[0].kf_id, 1)

    def test_bound_keypoint_rejected(self):
        rng = np.random.default_rng(1)
        world, kfs, landmarks = tiny_world(rng)
        add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])
        other = add_point(world, landmarks[1], [(kfs[1].kf_id, 1)])
        with pytest.raises(WorldIntegrityError, match="already bound"):
            world.add_observation(other, kfs[0].kf_id, 0)

    def test_batch_binds_like_one_at_a_time(self):
        rng = np.random.default_rng(4)
        world, kfs, landmarks = tiny_world(rng)
        pids = [add_point(world, landmarks[i], [(kfs[0].kf_id, i)]) for i in range(6)]
        world.add_observation(pids[:3], kfs[1].kf_id, [5, 0, 3])
        for pid, kp in zip(pids[3:], [1, 2, 4]):
            world.add_observation(pid, kfs[1].kf_id, kp)
        assert world.owners(kfs[1].kf_id)[:6].tolist() == [pids[1], pids[3], pids[4],
                                                           pids[2], pids[5], pids[0]]
        assert world._inlier[pids, 1].all() and np.count_nonzero(world._inlier[:, 1]) == 6
        world.check_integrity()

    @pytest.mark.parametrize("pids, kps, message", [
        ([0, 1, 0], [5, 6, 7], "point .* already observes"),  # a repeated point
        ([0, 1, 2], [5, 6, 5], "keypoint 5 .* already bound"),  # a repeated keypoint
        ([0, 1, 3], [5, 6, 7], "point .* already observes"),  # a held point
        ([0, 1, 2], [5, 3, 7], "keypoint 3 .* already bound"),  # a bound keypoint
        ([0, 1, 2], [5, -1, 7], "no keypoint -1 in keyframe 2"),  # outside it
        ([0, 1, 2], [5, 6, 12], "no keypoint 12 in keyframe 2"),
    ])
    def test_refused_batch_binds_nothing(self, pids, kps, message):
        rng = np.random.default_rng(4)
        world, kfs, landmarks = tiny_world(rng)
        ids = [add_point(world, landmarks[i], [(kfs[0].kf_id, i)]) for i in range(4)]
        world.add_observation(ids[3], kfs[1].kf_id, 3)
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match=message):
            world.add_observation([ids[i] for i in pids], kfs[1].kf_id, kps)
        assert map_bytes(world) == before

    def test_interval_comes_from_the_reference_holder_alone(self):
        # two holders whose depths differ by 2x, more than the band's
        # s^(2 DELTA_L + 1) = 1.73x: the interval is the reference's band
        rng = np.random.default_rng(2)
        world, kfs, landmarks = tiny_world(rng)
        z = landmarks[3, 2]
        near = world.add_keyframe(1.0, Pose(np.eye(3), np.array([0.0, 0.0, z / 2])),
                                  kfs[0].keypoints, kfs[0].octaves, kfs[0].descriptors)
        pid = add_point(world, landmarks[3], [(kfs[0].kf_id, 3), (near.kf_id, 3)])
        band = PYRAMID_SCALE ** (DELTA_L + 0.5)
        for ref, depth in ((near, z / 2), (kfs[0], z)):
            assert world.reselect_references([pid], ref.pose.translation)[0] == ref.kf_id
            got = world.point_batch([pid], ref.pose.translation).depth
            assert got.contains(depth)[0]
            assert (got.z_min[0], got.z_max[0]) == \
                pytest.approx((depth / band, depth * band), rel=1e-12)

    def test_appearance_rule_reads_interval_and_descriptor_from_its_choice(self):
        rng = np.random.default_rng(21)
        world, kfs, landmarks = tiny_world(
            rng, descriptor_selection=ReferenceRule.APPEARANCE)
        ids = [add_point(world, landmarks[i], [(kf.kf_id, i) for kf in kfs[i % 2:]])
               for i in range(len(landmarks))]
        batch = world.point_batch(ids, kfs[0].pose.translation)  # a query it ignores
        ref_kf, _ = world.reselect_references(ids, kfs[5].pose.translation)
        chosen = set()
        for row, pid in enumerate(ids):
            ref = world.keyframes[int(ref_kf[row])]
            chosen.add(ref.kf_id)
            want = depth_invariance_interval([ref.pose.depth_of(world.positions[pid])])
            assert (batch.depth.z_min[row], batch.depth.z_max[row]) == \
                (want.z_min[0], want.z_max[0])
            assert np.array_equal(batch.descriptors[row], ref.descriptors[pid - 1])
        assert len(chosen) > 1  # not one holder for every point

    def test_geometric_reference_switches_to_closer_holder(self):
        rng = np.random.default_rng(3)
        world, kfs, landmarks = tiny_world(
            rng, descriptor_selection=ReferenceRule.GEOMETRIC)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])
        world.add_observation(pid, kfs[3].kf_id, 0)  # edits need no refresh
        for query, want in ((kfs[4], kfs[3]), (kfs[1], kfs[0]), (kfs[3], kfs[3])):
            assert world.reselect_references([pid], query.pose.translation)[0] == \
                want.kf_id

    def test_nearest_holder_tie_goes_to_the_lower_keyframe_id(self):
        rng = np.random.default_rng(3)
        world, kfs, landmarks = tiny_world(rng)
        again = world.add_keyframe(1.0, kfs[2].pose, kfs[2].keypoints,
                                   kfs[2].octaves, kfs[2].descriptors)
        pid = add_point(world, landmarks[0], [(again.kf_id, 0), (kfs[2].kf_id, 0)])
        for query in (again, kfs[0], kfs[5]):
            assert world.reselect_references([pid], query.pose.translation)[0] == \
                kfs[2].kf_id

    def test_appearance_refresh_applies_the_appearance_rule(self):
        rng = np.random.default_rng(15)
        world, kfs, landmarks = tiny_world(
            rng, descriptor_selection=ReferenceRule.APPEARANCE)
        for i in range(len(landmarks)):
            world.create_point([landmarks[i]], [(kf.kf_id, [i]) for kf in kfs[i % 3:]])
        point, kf, kp = world.bindings(world.points)
        rows = world.refresh_points(point, kf, kp)
        assert point[rows].tolist() == world.points.tolist()
        # the appearance rule reads the same choice whatever the query
        ref_kf, ref_kp = world.reselect_references(world.points, kfs[0].pose.translation)
        assert np.array_equal(ref_kf, kf[rows]) and np.array_equal(ref_kp, kp[rows])
        far, _ = world.reselect_references(world.points, kfs[5].pose.translation)
        assert np.array_equal(far, ref_kf)
        for pid, chosen in zip(world.points.tolist(), ref_kf.tolist()):
            kf_ids = holders(world, pid)
            stack = np.stack([world.keyframes[k].descriptors[pid - 1] for k in kf_ids])
            (row,) = select_reference_appearance_index(stack, [0])
            assert chosen == kf_ids[row]

    def test_interval_matches_recomputation_and_follows_poses(self):
        rng = np.random.default_rng(4)
        world, kfs, landmarks = tiny_world(rng)
        for i in range(len(landmarks)):
            add_point(world, landmarks[i], [(kfs[k].kf_id, i) for k in range(4)])

        query = kfs[3].pose.translation.copy()

        def check():
            batch = world.point_batch(world.points, query)
            ref_kf, _ = world.reselect_references(world.points, query)
            assert set(ref_kf.tolist()) == {kfs[3].kf_id}
            for row, pid in enumerate(batch.ids.tolist()):
                ref = world.keyframes[int(ref_kf[row])]
                fresh = depth_invariance_interval(
                    [ref.pose.depth_of(world.positions[pid])])
                assert batch.depth.z_min[row] == fresh.z_min[0]
                assert batch.depth.z_max[row] == fresh.z_max[0]
            return batch.depth

        before = check()
        # no cache to go stale: a moved reference holder or point moves the
        # interval at once, and a moved holder that is no reference does not
        kfs[1].pose = Pose(np.eye(3), np.array([0.3, -0.1, 0.9]))
        assert np.array_equal(check(), before)
        kfs[3].pose = Pose(np.eye(3), np.array([0.05, -0.05, 1.25]))
        world.positions[2] += 0.5
        after = check()
        assert np.all(after.z_min != before.z_min)

    def test_bindings_sorted_by_point_then_keyframe(self):
        rng = np.random.default_rng(16)
        world, kfs, landmarks = tiny_world(rng)
        a = add_point(world, landmarks[0], [(kfs[3].kf_id, 0), (kfs[1].kf_id, 0)])
        b = add_point(world, landmarks[1], [(kfs[2].kf_id, 1), (kfs[0].kf_id, 1)])
        point, kf, kp = world.bindings()
        assert list(zip(point.tolist(), kf.tolist(), kp.tolist())) == [
            (a, 2, 0), (a, 4, 0), (b, 1, 1), (b, 3, 1)]
        point, kf, _ = world.bindings([b])
        assert point.tolist() == [b, b] and kf.tolist() == [1, 3]


    def test_point_batch_keeps_the_order_given(self):
        # sequential matching walks the queries in this order
        rng = np.random.default_rng(17)
        world, kfs, landmarks = tiny_world(rng)
        ids = [add_point(world, landmarks[i], [(kfs[i % 3].kf_id, i), (kfs[4].kf_id, i)])
               for i in range(5)]
        order = [ids[3], ids[0], ids[4], ids[1]]
        query = kfs[0].pose.translation
        batch = world.point_batch(order, query)
        assert batch.ids.tolist() == order
        for row, pid in enumerate(order):
            alone = world.point_batch([pid], query)
            assert np.array_equal(batch.positions[row], world.positions[pid])
            assert np.array_equal(batch.descriptors[row], alone.descriptors[0])
            assert (batch.depth.z_min[row], batch.depth.z_max[row]) == \
                (alone.depth.z_min[0], alone.depth.z_max[0])


def geometric_choice(holders, query) -> int:
    """The map's geometric read, at ``query``, of one point held by the
    (kf_id, translation) ``holders``: the index of the holder it chooses.
    Keyframes that hold nothing fill the ids between."""
    world = WorldMap(ReferenceRule.GEOMETRIC)
    at = {k: np.asarray(t, dtype=np.float64) for k, t in holders}
    for k in range(1, max(at, default=0) + 1):
        world.add_keyframe(k, Pose(np.eye(3), at.get(k, np.zeros(3))), np.zeros((1, 2)),
                           np.zeros(1, np.int64), np.zeros((1, 32), np.uint8))
    (pid,) = world.create_point([np.zeros(3)], [(k, [0]) for k in sorted(at)])
    (kf,), _ = world.reselect_references([pid], np.asarray(query, dtype=np.float64))
    return [k for k, _ in holders].index(kf)


class TestReferenceGeometric:
    def test_nearest_holder_wins(self):
        holders = [
            (1, np.array([0.0, 0.0, 0.0])),
            (2, np.array([1.0, 0.0, 0.0])),
            (3, np.array([5.0, 0.0, 0.0])),
        ]
        assert geometric_choice(holders, (1.1, 0, 0)) == 1

    def test_coincident_query(self):
        holders = [(4, np.array([2.0, 1.0, 0.0])),
                   (9, np.array([-3.0, 0.0, 1.0]))]
        assert geometric_choice(holders, (-3, 0, 1)) == 1

    def test_equidistant_tie_breaks_to_lower_id(self):
        holders = [(7, np.array([1.0, 0.0, 0.0])),
                   (3, np.array([-1.0, 0.0, 0.0]))]
        assert geometric_choice(holders, (0, 0, 0)) == 1

    def test_empty_raises(self):
        with pytest.raises(WorldIntegrityError, match="no reference holder"):
            geometric_choice([], (0, 0, 0))

    def test_points_in_one_read_match_one_read_per_point(self):
        # rounded translations put holders at equal distances now and then
        rng = np.random.default_rng(9)
        for _ in range(40):
            world = WorldMap(ReferenceRule.GEOMETRIC)
            for k in range(12):
                world.add_keyframe(k, Pose(np.eye(3), np.round(rng.normal(size=3))),
                                   np.zeros((6, 2)), np.zeros(6, np.int64),
                                   np.zeros((6, 32), np.uint8))
            for i in range(rng.integers(1, 6)):
                chosen = rng.choice(12, size=rng.integers(1, 7), replace=False) + 1
                world.create_point([np.zeros(3)], [(int(k), [i]) for k in chosen])
            ids = rng.choice(world.points, size=rng.integers(1, 9))  # repeats
            query = np.round(rng.normal(size=3))
            ref_kf, ref_kp = world.reselect_references(ids, query)
            for pid, kf, kp in zip(ids.tolist(), ref_kf.tolist(), ref_kp.tolist()):
                alone = world.reselect_references([pid], query)
                assert (alone[0].tolist(), alone[1].tolist()) == ([kf], [kp])
                point, kf_ids, _ = world.bindings([pid])
                t = np.stack([world.keyframes[k].pose.translation
                              for k in kf_ids.tolist()])
                (row,) = select_reference_geometric_index(kf_ids, t, query, [0])
                assert kf == kf_ids[row]


def batch_bytes(batch) -> tuple:
    return tuple(a.tobytes() for a in (batch.ids, batch.positions, batch.descriptors,
                                       *batch.depth))


@pytest.mark.parametrize("rule", list(ReferenceRule))
@given(seed=st.integers(0, 2**32 - 1), n_reads=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_reads_write_nothing_and_depend_on_their_query_alone(rule, seed, n_reads):
    """On a small random map, ``point_batch`` and ``reselect_references``
    leave every byte of the map equal, and a read at one query gives the
    same bytes whatever reads at other queries ran before it."""
    rng = np.random.default_rng(seed)
    world = WorldMap(rule)
    kfs = [world.add_keyframe(k, Pose(np.eye(3), rng.normal(size=3)), np.zeros((8, 2)),
                              rng.integers(0, 8, 8),
                              rng.integers(0, 256, (8, 32), np.uint8))
           for k in range(5)]
    for _ in range(10):
        holders = rng.choice(5, size=rng.integers(1, 5), replace=False)
        free = [np.flatnonzero(world.owners(kfs[k].kf_id) < 0) for k in holders]
        if all(f.size for f in free):
            world.create_point([rng.normal(size=3) * 4], [
                (kfs[k].kf_id, [rng.choice(f)]) for k, f in zip(holders, free)])
    ids = rng.permutation(world.points)
    query = rng.normal(size=3)
    first = batch_bytes(world.point_batch(ids, query))
    refs = [a.tobytes() for a in world.reselect_references(ids, query)]
    stored = map_bytes(world)
    for _ in range(n_reads):
        other = rng.choice(world.points, size=rng.integers(1, world.points.size + 1))
        world.point_batch(other, rng.normal(size=3) * 3)
        world.reselect_references(other, rng.normal(size=3) * 3)
        assert map_bytes(world) == stored
    assert batch_bytes(world.point_batch(ids, query)) == first
    assert [a.tobytes() for a in world.reselect_references(ids, query)] == refs


def read_bytes(arrays) -> list:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("rule", list(ReferenceRule))
@given(seed=st.integers(0, 2**32 - 1), n_edits=st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_table_reads_equal_the_column_scan_after_every_edit(rule, seed, n_edits):
    """After each edit of every kind, ``bindings()``, ``bindings(ids)``,
    ``reselect_references(ids, q)`` and every keyframe's ``owners`` return
    the bytes of the cell-by-cell loops in ``oracles``.  A twin map takes
    every edit from the oracle editors: the two tables stay equal byte for
    byte, and ``points`` equals the oracle editors' liveness record.  The
    ids repeat and may name dead points; keyframes and queries sit on a unit
    grid, so that holders tie on distance, and descriptors differ by few
    bits, so that medians tie."""
    rng = np.random.default_rng(seed)
    world = WorldMap(rule)
    ref = copy.deepcopy(world)  # edited by the oracle editors
    signature = rng.integers(0, 256, (8, 32), np.uint8)
    handed_out = 0  # the highest point id so far

    def new_keyframe():
        flips = np.zeros((8, 256), bool)
        flips[np.arange(8)[:, None], rng.integers(0, 256, (8, 3))] = True
        pose = Pose(np.eye(3), rng.integers(-1, 2, 3).astype(np.float64))
        args = (0.0, pose, np.zeros((8, 2)), np.zeros(8, np.int64),
                signature ^ np.packbits(flips, axis=1))
        ref.add_keyframe(*args)
        return world.add_keyframe(*args)

    def free(kf):
        return np.flatnonzero(world.owners(kf.kf_id) < 0)

    def create():
        nonlocal handed_out
        n = int(rng.integers(1, 4))
        open_kfs = [kf for kf in world.keyframes.values() if free(kf).size >= n]
        if open_kfs:
            chosen = rng.choice(len(open_kfs), size=rng.integers(1, len(open_kfs) + 1),
                                replace=False)
            positions = rng.normal(size=(n, 3))
            observations = [(open_kfs[i].kf_id, rng.choice(free(open_kfs[i]), n,
                                                           replace=False))
                            for i in chosen]
            ids = world.create_point(positions, observations)
            assert ids.tolist() == [
                reference_create_point(ref, positions[i], [(k, kps[i])
                                                           for k, kps in observations])
                for i in range(n)]
            handed_out = int(ids[-1])

    def observe():
        kf = list(world.keyframes.values())[rng.integers(len(world.keyframes))]
        pids = world.points[~np.isin(world.points, world.owners(kf.kf_id))]
        n = min(pids.size, free(kf).size, int(rng.integers(1, 4)))
        pids = rng.choice(pids, n, replace=False)
        kps = rng.choice(free(kf), n, replace=False)
        world.add_observation(pids, kf.kf_id, kps)
        for pid, kp in zip(pids.tolist(), kps.tolist()):
            reference_add_observation(ref, pid, kf.kf_id, kp)

    def remove():
        point, kf, _ = world.bindings()
        rows = rng.choice(point.size, size=rng.integers(1, min(point.size, 3) + 1),
                          replace=False)
        world.remove_observation(point[rows], kf[rows])
        for pid, kf_id in zip(point[rows].tolist(), kf[rows].tolist()):
            reference_remove_observation(ref, pid, kf_id)

    def merge():
        n = int(rng.integers(1, world.points.size // 2 + 1))
        pair = rng.choice(world.points, size=2 * n, replace=False)
        world.merge_points(pair[:n], pair[n:])
        for dst, src in zip(pair[:n].tolist(), pair[n:].tolist()):
            reference_merge_points(ref, dst, src)

    def cull():
        assert world.cull_points() == reference_cull_points(ref)

    def retain():
        kf_id = new_keyframe().kf_id
        assert world.apply_retention(kf_id) == reference_apply_retention(ref, kf_id)

    edits = {
        "add_keyframe": new_keyframe, "create_point": create,
        "add_observation": observe, "remove_observation": remove,
        "merge_points": merge, "cull_points": cull, "apply_retention": retain,
    }
    for _ in range(3):
        new_keyframe()
    create()
    for _ in range(n_edits):
        kind = list(edits)[rng.integers(len(edits))]
        if kind in ("add_observation", "remove_observation") and world.points.size == 0:
            kind = "create_point"
        if kind == "merge_points" and world.points.size < 2:
            kind = "create_point"
        edits[kind]()
        world.check_integrity()
        assert map_bytes(world) == map_bytes(ref), kind
        assert world.points.tolist() == reference_points(ref).tolist(), kind
        assert read_bytes(world.bindings()) == read_bytes(reference_bindings(world)), kind
        ids = rng.integers(1, handed_out + 1, size=rng.integers(0, 8))
        assert read_bytes(world.bindings(ids)) == \
            read_bytes(reference_bindings(world, ids)), kind
        assert read_bytes(world.owners(k) for k in world.keyframe_ids()) == read_bytes(
            reference_owners(world, k) for k in world.keyframe_ids()), kind
        if world.points.size:
            ids = rng.choice(world.points, size=rng.integers(1, 8))
            query = rng.integers(-1, 2, 3).astype(np.float64)
            assert read_bytes(world.reselect_references(ids, query)) == read_bytes(
                reference_reselect_references(world, ids, query)), kind


def appearance_choice(world, pid) -> tuple:
    """(keyframe id, keypoint) of the appearance rule over the point's
    current holders, scanned keyframe by keyframe."""
    columns = [(k, world.owners(k)) for k in world.keyframe_ids()]
    held = [(k, int(np.flatnonzero(c == pid)[0])) for k, c in columns if (c == pid).any()]
    if len(held) == 1:
        return held[0]
    return held[appearance_index_loop(
        [Descriptor(world.keyframes[k].descriptors[kp].tobytes()) for k, kp in held])]


@given(seed=st.integers(0, 2**32 - 1), n_edits=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_appearance_read_is_the_choice_over_the_current_holders(seed, n_edits):
    """After any sequence of creates, adds, removals, merges and retention,
    with nothing called between the edits and the read, the appearance
    read of every live point is the appearance rule over its holders."""
    rng = np.random.default_rng(seed)
    world = WorldMap(ReferenceRule.APPEARANCE)
    signature = rng.integers(0, 256, (8, 32), np.uint8)

    def new_keyframe():
        # few flipped bits per row, so that medians tie now and then
        flips = np.zeros((8, 256), bool)
        flips[np.arange(8)[:, None], rng.integers(0, 256, (8, 3))] = True
        return world.add_keyframe(0.0, Pose.identity(), np.zeros((8, 2)),
                                  np.zeros(8, np.int64),
                                  signature ^ np.packbits(flips, axis=1))

    def free_keypoint(kf):
        return int(rng.choice(np.flatnonzero(world.owners(kf.kf_id) < 0)))

    for _ in range(3):
        new_keyframe()
    for _ in range(n_edits):
        kfs = [kf for kf in world.keyframes.values() if (world.owners(kf.kf_id) < 0).any()]
        live = world.points
        edit = rng.integers(5) if live.size >= 2 else 0
        if edit == 0 and kfs:
            chosen = rng.choice(len(kfs), size=rng.integers(1, len(kfs) + 1),
                                replace=False)
            world.create_point([rng.normal(size=3)], [
                (kfs[i].kf_id, [free_keypoint(kfs[i])]) for i in chosen])
        elif edit == 1:
            pid = int(rng.choice(live))
            open_kfs = [kf for kf in kfs if pid not in world.owners(kf.kf_id)]
            if open_kfs:
                kf = open_kfs[rng.integers(len(open_kfs))]
                world.add_observation([pid], kf.kf_id, [free_keypoint(kf)])
        elif edit == 2:
            point, kf, _ = world.bindings()
            i = rng.integers(point.size)
            world.remove_observation([point[i]], [kf[i]])
        elif edit == 3:
            dst, src = rng.choice(live, size=2, replace=False)
            world.merge_points([dst], [src])
        else:
            world.apply_retention(new_keyframe().kf_id)
    world.check_integrity()
    if world.points.size == 0:
        return
    ref_kf, ref_kp = world.reselect_references(world.points, rng.normal(size=3))
    for pid, got in zip(world.points.tolist(), zip(ref_kf.tolist(), ref_kp.tolist())):
        assert got == appearance_choice(world, pid)


class TestCulling:
    def test_point_with_single_surviving_observation_culled(self):
        rng = np.random.default_rng(5)
        world, kfs, landmarks = tiny_world(rng)
        p1 = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        world.remove_observation(p1, kfs[1].kf_id)
        assert world.owners(kfs[1].kf_id)[0] == -1
        assert world.cull_points() == [p1]
        assert p1 not in world.points
        assert world.owners(kfs[0].kf_id)[0] == -1

    def test_removing_the_last_observation_kills_the_point(self):
        rng = np.random.default_rng(5)
        world, kfs, landmarks = tiny_world(rng)
        p1 = add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])
        world.remove_observation(p1, kfs[0].kf_id)
        assert len(world.points) == 0
        with pytest.raises(WorldIntegrityError):
            world.remove_observation(p1, kfs[0].kf_id)
        world.check_integrity()

    def test_point_with_two_observations_kept(self):
        rng = np.random.default_rng(6)
        world, kfs, landmarks = tiny_world(rng)
        p1 = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        assert world.cull_points() == []
        assert p1 in world.points

    def test_culling_idempotent(self):
        rng = np.random.default_rng(7)
        world, kfs, landmarks = tiny_world(rng)
        add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])
        add_point(world, landmarks[1], [(kfs[0].kf_id, 1), (kfs[1].kf_id, 1)])
        first = world.cull_points()
        assert first != []
        assert world.cull_points() == []
        world.check_integrity()

    def test_retention_culls_keyframes_and_orphans(self):
        rng = np.random.default_rng(8)
        world, kfs, landmarks = tiny_world(rng, n_frames=12, spacing=0.2)
        # a point observed only by keyframes 1 and 2 dies with them
        doomed = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        survivor = add_point(world, landmarks[1], [(kf.kf_id, 1) for kf in kfs])
        assert world.apply_retention(12) == [1, 2, 3, 4, 6, 7]
        assert sorted(world.keyframes) == [5, 8, 9, 10, 11, 12]
        assert doomed not in world.points
        assert survivor in world.points
        assert holders(world, survivor) == [5, 8, 9, 10, 11, 12]
        assert world.cull_points() == []
        world.check_integrity()


class TestGraphStats:
    def test_empty_map(self):
        world = WorldMap()
        assert world.graph_stats() == GraphStats(0, 0, 0)

    def test_noiseless_world_all_inliers(self):
        rng = np.random.default_rng(9)
        world, kfs, landmarks = tiny_world(rng)
        total = 0
        for i in range(len(landmarks)):
            pid = add_point(world, landmarks[i], [(kfs[k].kf_id, i) for k in range(3)])
            total += 3
        stats = world.graph_stats()
        assert stats.n_map_points == len(landmarks)
        assert stats.n_observation_inliers == total
        # latest five keyframes plus keyframe 1, covisible through the points
        assert stats.n_local_keyframes == 6
        world.set_inlier([pid], [kfs[0].kf_id], [False])
        assert world.graph_stats().n_observation_inliers == total - 1


class TestMerge:
    def test_merge_unions_observations(self):
        rng = np.random.default_rng(10)
        world, kfs, landmarks = tiny_world(rng)
        a = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        b = add_point(world, landmarks[0], [(kfs[2].kf_id, 0), (kfs[3].kf_id, 0)])
        world.merge_points(a, b)
        assert b not in world.points
        assert holders(world, a) == [k.kf_id for k in kfs[:4]]
        world.check_integrity()

    def test_merge_conflicting_keyframe_keeps_survivor(self):
        rng = np.random.default_rng(11)
        world, kfs, landmarks = tiny_world(rng)
        a = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        b = add_point(world, landmarks[1], [(kfs[0].kf_id, 1), (kfs[2].kf_id, 1)])
        world.merge_points(a, b)
        assert world.owners(kfs[0].kf_id)[0] == a  # survivor's own keypoint
        assert world.owners(kfs[0].kf_id)[1] == -1  # loser's binding released
        assert world.owners(kfs[2].kf_id)[1] == a
        world.check_integrity()


class TestUnknownIds:
    """An id the map never handed out is refused before anything changes.
    Three points leave room for four ids, so -1 would index point 3 and 4
    would index past the arrays."""

    def make(self):
        rng = np.random.default_rng(12)
        world, kfs, landmarks = tiny_world(rng)
        for i in range(3):
            add_point(world, landmarks[i], [(kfs[0].kf_id, i), (kfs[1].kf_id, i)])
        assert len(world.positions) == 4
        return world, kfs

    @pytest.mark.parametrize("ids", [[-1], [0], [4], [9], [2, -1]])
    def test_bindings_refuses_the_id(self, ids):
        world, _ = self.make()
        with pytest.raises(WorldIntegrityError, match="no point"):
            world.bindings(ids)

    def test_read_refuses_an_id_past_the_arrays(self):
        world, kfs = self.make()
        with pytest.raises(WorldIntegrityError, match="no point 9"):
            world.reselect_references([9], kfs[0].pose.translation)

    def test_binding_fewer_keypoints_than_points_changes_nothing(self):
        world, kfs = self.make()
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match="1 keypoints for 2 points"):
            world.add_observation([1, 2], kfs[2].kf_id, [5])
        assert map_bytes(world) == before

    @pytest.mark.parametrize("ids", [[7], [-1], [0], [4], [2, 4]])
    def test_refused_binding_changes_nothing(self, ids):
        world, kfs = self.make()
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match=f"no point {ids[-1]}"):
            world.add_observation(ids, kfs[2].kf_id, np.arange(len(ids)) + 5)
        assert map_bytes(world) == before
        world.check_integrity()

    @pytest.mark.parametrize("kf_id", [6, 0, 13])
    def test_binding_to_a_keyframe_the_map_does_not_hold_changes_nothing(self, kf_id):
        # retention of twelve keyframes keeps 5 and 8-12: 6 was culled
        world, _, landmarks = tiny_world(np.random.default_rng(8), n_frames=12,
                                         spacing=0.2)
        pid = add_point(world, landmarks[0], [(5, 0), (8, 0)])
        world.apply_retention(12)
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match=f"no keyframe {kf_id}"):
            world.add_observation([pid], kf_id, [1])
        with pytest.raises(WorldIntegrityError, match=f"no keyframe {kf_id}"):
            world.owners(kf_id)
        assert map_bytes(world) == before
        world.check_integrity()

    @pytest.mark.parametrize("point_ids, kf_ids, message", [
        ([1], [0], "point 1 does not observe keyframe 0"),  # never handed out
        ([1], [7], "point 1 does not observe keyframe 7"),  # past the last one
        ([1], [2], "point 1 does not observe keyframe 2"),  # held, not bound
        ([1, 1], [3, 3], "point 1 does not observe keyframe 3"),  # repeated
        ([1, 4], [1, 1], "no point 4"),
    ])
    def test_refused_set_inlier_changes_nothing(self, point_ids, kf_ids, message):
        # point 1 is bound in keyframes 1 and 3, so keyframe 0 would land on
        # keyframe 1's slot and 7 past the last
        world, _, landmarks = tiny_world(np.random.default_rng(14))
        add_point(world, landmarks[0], [(1, 0), (3, 0)])
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match=message):
            world.set_inlier(point_ids, kf_ids, [False] * len(kf_ids))
        assert map_bytes(world) == before
        world.check_integrity()

    def test_set_inlier_in_a_culled_keyframe_changes_nothing(self):
        # retention of twelve keyframes keeps 5 and 8-12: 6 was culled, and
        # its id would land on keyframe 8's slot
        world, _, landmarks = tiny_world(np.random.default_rng(8), n_frames=12,
                                         spacing=0.2)
        pid = add_point(world, landmarks[0], [(5, 0), (8, 0)])
        world.apply_retention(12)
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match=f"point {pid} does not observe"):
            world.set_inlier([pid], [6], [False])
        assert map_bytes(world) == before

    def test_binding_a_dead_point_changes_nothing(self):
        world, kfs = self.make()
        world.remove_observation([2, 2], [kfs[0].kf_id, kfs[1].kf_id])  # 2 dies
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match="point 2 is dead"):
            world.add_observation([1, 2], kfs[2].kf_id, [5, 6])
        assert map_bytes(world) == before
        world.check_integrity()

    @pytest.mark.parametrize("observations, message", [
        ([(1, [0]), (9, [0])], "no keyframe 9"),
        ([(1, [0]), (2, [12])], "no keypoint 12 in keyframe 2"),
        ([(1, [0]), (2, [3])], "keypoint 3 of keyframe 2 already bound to point 1"),
        ([(1, [0, 0])], "keypoint 0 of keyframe 1 already bound to point 2"),
        ([(1, [0]), (1, [1])], "point 2 already observes keyframe 1"),
        ([(1, [0, 1]), (2, [0])], "1 keypoints for 2 points"),
    ])
    def test_refused_create_point_writes_nothing(self, observations, message):
        # point 1 holds keypoint 3 of keyframes 1 and 2; a second id would
        # double the arrays
        world, _, landmarks = tiny_world(np.random.default_rng(13))
        add_point(world, landmarks[3], [(1, 3), (2, 3)])
        before, next_id = map_bytes(world), world._next_point_id
        with pytest.raises(WorldIntegrityError, match=message):
            world.create_point(landmarks[:len(observations[0][1])], observations)
        assert map_bytes(world) == before and world._next_point_id == next_id
        world.check_integrity()

    def test_refused_merge_changes_nothing(self):
        world, _ = self.make()
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match="no point -1"):
            world.merge_points([1], [-1])
        assert map_bytes(world) == before
        world.check_integrity()


class TestIntegrity:
    def make(self):
        rng = np.random.default_rng(12)
        world, kfs, landmarks = tiny_world(rng)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        other = add_point(world, landmarks[1], [(kfs[0].kf_id, 1), (kfs[1].kf_id, 1)])
        world.check_integrity()
        return world, pid, other

    @pytest.mark.parametrize("row", ["zero", "next"])
    def test_cell_in_a_row_never_handed_out_detected(self, row):
        world, _, other = self.make()
        row = 0 if row == "zero" else other + 1  # id 0, or the next id
        world._held[row, 0] = 7
        with pytest.raises(WorldIntegrityError,
                           match=f"keyframe 1 binds point {row}, never handed out"):
            world.check_integrity()

    def test_keyframe_binding_a_keypoint_twice_detected(self):
        world, pid, other = self.make()
        world._held[other, 1] = 0  # keyframe 2's keypoint 0 is pid's
        with pytest.raises(WorldIntegrityError, match="keyframe 2 binds keypoint 0 twice"):
            world.check_integrity()

    @pytest.mark.parametrize("keypoint", [12, 40])
    def test_keyframe_binding_a_keypoint_it_lacks_detected(self, keypoint):
        # the keyframes have 12 keypoints; 12 would alias keyframe 2's first
        world, pid, _ = self.make()
        world._held[pid, 0] = keypoint
        with pytest.raises(WorldIntegrityError,
                           match=f"keyframe 1 binds keypoint {keypoint} it lacks"):
            world.check_integrity()

    def test_clearing_a_row_kills_its_point(self):
        # liveness is a read of the row: no live point lacks a holder
        world, pid, other = self.make()
        world._held[pid], world._inlier[pid] = -1, False
        world.check_integrity()
        assert world.points.tolist() == [other]

    def test_inlier_flag_on_an_empty_cell_detected(self):
        world, pid, _ = self.make()
        world._inlier[pid, 2] = True
        with pytest.raises(WorldIntegrityError, match="inlier of point .* not bind"):
            world.check_integrity()

    @pytest.mark.parametrize("table", ["_held", "_inlier"])
    def test_table_of_the_wrong_shape_detected(self, table):
        world, _, _ = self.make()
        setattr(world, table, getattr(world, table)[:, 1:])
        with pytest.raises(WorldIntegrityError, match="wrong shape"):
            world.check_integrity()


class TestGather:
    """``gather`` reads only the keyframes the map holds, and only keypoints
    they have: retention of twelve keyframes keeps 5 and 8-12, 12
    keypoints each."""

    def make(self):
        rng = np.random.default_rng(8)
        world, kfs, _ = tiny_world(rng, n_frames=12, spacing=0.2)
        world.apply_retention(12)
        assert world.keyframe_ids() == [5, 8, 9, 10, 11, 12]
        return world, kfs

    @pytest.mark.parametrize("kf_ids, keypoints, message", [
        ([6], [1], "no keyframe 6"),  # culled, between two held ids
        ([8, 2], [0, 1], "no keyframe 2"),  # culled, below every held id
        ([0], [1], "no keyframe 0"),  # never handed out
        ([13], [1], "no keyframe 13"),  # past the last keyframe
        ([5], [12], "no keypoint 12 in keyframe 5"),  # past its keypoints
        ([8, 9], [0, -1], "no keypoint -1 in keyframe 9"),
    ])
    def test_refuses_what_the_map_does_not_hold(self, kf_ids, keypoints, message):
        world, _ = self.make()
        for name in ("keypoints", "descriptors", "noise_sigma2"):
            with pytest.raises(WorldIntegrityError, match=message):
                world.gather(kf_ids, keypoints, name)

    def test_reads_each_keyframes_own_rows(self):
        world, kfs = self.make()
        kf_ids, keypoints = np.array([12, 5, 8, 5]), np.array([11, 0, 3, 11])
        for name in ("keypoints", "descriptors", "noise_sigma2"):
            want = np.stack([getattr(kfs[k - 1], name)[i]
                             for k, i in zip(kf_ids.tolist(), keypoints.tolist())])
            assert np.array_equal(world.gather(kf_ids, keypoints, name), want)


def twin(world):
    return world, copy.deepcopy(world)


class TestBatchEditsMatchOneAtATime:
    """Each batch edit leaves the bytes its one-at-a-time oracle leaves."""

    def test_create_point_grows_capacity_as_points_one_at_a_time_do(self):
        rng = np.random.default_rng(20)
        world, kfs, landmarks = tiny_world(rng, n_landmarks=15)
        world, ref = twin(world)
        got, want = [], []
        # the last batch fills the ids up to 15: one more would double again
        for rows in (np.arange(1), np.arange(1, 6), np.arange(6, 6), np.arange(6, 15)):
            observations = [(kfs[0].kf_id, rows), (kfs[3].kf_id, rows[::-1])]
            got += world.create_point(landmarks[rows], observations).tolist()
            want += [reference_create_point(ref, landmarks[i],
                                            [(kfs[0].kf_id, i), (kfs[3].kf_id, j)])
                     for i, j in zip(rows, rows[::-1])]
        assert got == want == list(range(1, 16))
        assert len(world.positions) == 16
        assert map_bytes(world) == map_bytes(ref)
        assert world.points.tolist() == reference_points(ref).tolist() == got

    def test_remove_observation_kills_as_removals_one_at_a_time_do(self):
        rng = np.random.default_rng(21)
        world, kfs, landmarks = tiny_world(rng)
        lone = add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])
        pair = add_point(world, landmarks[1], [(kfs[0].kf_id, 1), (kfs[2].kf_id, 1)])
        many = add_point(world, landmarks[2], [(kf.kf_id, 2) for kf in kfs[:4]])
        world, ref = twin(world)
        # ``lone`` dies at its first removal, ``pair`` at its last;
        # ``many`` keeps two holders
        pids = [lone, many, pair, many, pair]
        kf_ids = [kfs[0].kf_id, kfs[2].kf_id, kfs[2].kf_id, kfs[0].kf_id, kfs[0].kf_id]
        world.remove_observation(pids, kf_ids)
        for pid, kf_id in zip(pids, kf_ids):
            reference_remove_observation(ref, pid, kf_id)
        assert world.points.tolist() == reference_points(ref).tolist() == [many]
        assert map_bytes(world) == map_bytes(ref)

    @pytest.mark.parametrize("pids, kf_ids, first_bad", [
        ([0, 1, 1], [1, 1, 1], 2),  # a repeated pair
        ([0, 1, 2], [1, 2, 2], 2),  # a pair never bound
        ([1, 0, 2], [2, 99, 3], 1),  # a keyframe that does not exist
    ])
    def test_refused_removal_unbinds_nothing(self, pids, kf_ids, first_bad):
        rng = np.random.default_rng(21)
        world, kfs, landmarks = tiny_world(rng)
        ids = [add_point(world, landmarks[0], [(kfs[0].kf_id, 0)])]
        ids += [add_point(world, landmarks[i], [(kfs[0].kf_id, i), (kfs[i].kf_id, 5)])
                for i in (1, 2)]
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match=(
                f"point {ids[pids[first_bad]]} does not observe keyframe "
                f"{kf_ids[first_bad]}")):
            world.remove_observation([ids[i] for i in pids], kf_ids)
        assert map_bytes(world) == before

    def test_set_inlier_writes_as_flags_one_at_a_time_do(self):
        rng = np.random.default_rng(25)
        world, kfs, landmarks = tiny_world(rng)
        for i in range(4):
            add_point(world, landmarks[i], [(kfs[i].kf_id, i), (kfs[i + 1].kf_id, i)])
        world, ref = twin(world)
        before = map_bytes(world)
        point, kf, _ = world.bindings()
        flags = np.arange(kf.size) % 3 != 1
        order = rng.permutation(kf.size)  # the rows need not group by keyframe
        world.set_inlier(point[order], kf[order], flags[order])
        for p, k, flag in zip(point.tolist(), kf.tolist(), flags.tolist()):
            ref._inlier[p, ref._slots.tolist().index(k)] = flag
        assert map_bytes(world) == map_bytes(ref) != before

    def test_merge_frees_src_in_a_keyframe_that_binds_both(self):
        rng = np.random.default_rng(22)
        world, kfs, landmarks = tiny_world(rng)
        a = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[2].kf_id, 0)])
        b = add_point(world, landmarks[0], [(kfs[1].kf_id, 0), (kfs[2].kf_id, 7)])
        c = add_point(world, landmarks[1], [(kfs[3].kf_id, 1), (kfs[4].kf_id, 1)])
        d = add_point(world, landmarks[1], [(kfs[4].kf_id, 6), (kfs[5].kf_id, 1)])
        world, ref = twin(world)
        world.merge_points([a, d], [b, c])  # dst below and above src
        reference_merge_points(ref, a, b)
        reference_merge_points(ref, d, c)
        assert world.owners(kfs[2].kf_id)[7] == -1 and world.owners(kfs[4].kf_id)[1] == -1
        assert world.points.tolist() == reference_points(ref).tolist() == [a, d]
        assert map_bytes(world) == map_bytes(ref)

    @pytest.mark.parametrize("dst, src", [([1, 3], [2, 1]), ([1, 2], [3, 2]),
                                          ([2], [2])])
    def test_merge_pairs_sharing_a_point_change_nothing(self, dst, src):
        rng = np.random.default_rng(23)
        world, kfs, landmarks = tiny_world(rng)
        for i in range(3):
            add_point(world, landmarks[i], [(kfs[i].kf_id, i), (kfs[i + 1].kf_id, i)])
        before = map_bytes(world)
        with pytest.raises(WorldIntegrityError, match="share a point"):
            world.merge_points(dst, src)
        assert map_bytes(world) == before

    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_merges_match_merges_one_at_a_time(self, seed, n_pairs):
        rng = np.random.default_rng(seed)
        world = WorldMap()
        kfs = [world.add_keyframe(k, Pose.identity(), np.zeros((10, 2)),
                                  np.zeros(10, np.int64), np.zeros((10, 32), np.uint8))
               for k in range(5)]
        for _ in range(14):
            holders = rng.choice(5, size=rng.integers(1, 5), replace=False)
            free = [np.flatnonzero(world.owners(kfs[k].kf_id) < 0) for k in holders]
            if all(f.size for f in free):
                reference_create_point(world, rng.normal(size=3),
                                       [(kfs[k].kf_id, rng.choice(f))
                                        for k, f in zip(holders, free)])
        live = rng.permutation(world.points)
        n_pairs = min(n_pairs, live.size // 2)
        dst, src = live[:n_pairs], live[n_pairs:2 * n_pairs]
        world, ref = twin(world)
        world.merge_points(dst, src)
        for d, s in zip(dst.tolist(), src.tolist()):
            reference_merge_points(ref, d, s)
        assert map_bytes(world) == map_bytes(ref)
        assert world.points.tolist() == reference_points(ref).tolist()

    def test_fuse_attaches_and_merges_as_the_row_walk_does(self):
        rng = np.random.default_rng(24)
        world, kfs, landmarks = tiny_world(rng)
        at = [kf.kf_id for kf in kfs]
        low = add_point(world, landmarks[0], [(at[0], 0), (at[1], 0), (at[3], 0)])
        owner_low = add_point(world, landmarks[1], [(at[2], 1), (at[3], 1)])
        owner_high = add_point(world, landmarks[0], [(at[2], 0), (at[3], 7)])
        high = add_point(world, landmarks[1], [(at[0], 1), (at[1], 1)])
        free = add_point(world, landmarks[2], [(at[0], 2), (at[1], 2)])
        held = add_point(world, landmarks[3], [(at[1], 3), (at[2], 3)])
        world, ref = twin(world)
        fused = np.array([low, high, free, held])
        host = SimpleNamespace(world=world, policy=AssociationPolicy(), cam=CAM)
        Pipeline._apply_fuse(host, fused, kfs[2])
        reference_apply_fuse(ref, fused, ref.keyframes[at[2]], AssociationPolicy(), CAM)
        # the fused point survives below its keypoint's owner and gives way
        # above it; the owner's binding to keyframe 4 loses to the survivor's
        assert world.points.tolist() == reference_points(ref).tolist() == [
            low, owner_low, free, held]
        assert world.owners(kfs[2].kf_id)[:4].tolist() == [low, owner_low, free, held]
        assert world.owners(kfs[3].kf_id)[7] == -1
        assert map_bytes(world) == map_bytes(ref)
        world.check_integrity()
