import numpy as np
import pytest

from symvo.errors import WorldIntegrityError
from symvo.features import (
    Descriptor,
    PyramidConfig,
    depth_invariance_interval,
    pack_descriptors,
)
from symvo.geometry import CameraIntrinsics, Pose, project
from symvo.worldmap import DELTA_L, GraphStats, WorldMap, keyframe_retention

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
PYR = PyramidConfig()


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
               descriptor_selection="geometric"):
    world = WorldMap(PYR, descriptor_selection=descriptor_selection)
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
        octaves = PYR.octave_for_depth(rel[:, 2], z_far=30.0)
        kfs.append(world.add_keyframe(
            0.1 * k, pose, uv, octaves,
            pack_descriptors([s.flipped(rng, 0.02) for s in signatures]),
        ))
    return world, kfs, landmarks


class TestObservations:
    def test_first_observation_sets_reference(self):
        rng = np.random.default_rng(0)
        world, kfs, landmarks = tiny_world(rng)
        point = world.create_point(landmarks[0], [(kfs[0].kf_id, 0)])
        assert point.reference_kf_id == kfs[0].kf_id
        assert np.array_equal(point.reference_descriptor, kfs[0].descriptors[0])

    def test_duplicate_keyframe_observation_rejected(self):
        rng = np.random.default_rng(1)
        world, kfs, landmarks = tiny_world(rng)
        point = world.create_point(landmarks[0], [(kfs[0].kf_id, 0)])
        with pytest.raises(WorldIntegrityError):
            world.add_observation(point, kfs[0].kf_id, 1)

    def test_adding_observation_never_widens_interval(self):
        rng = np.random.default_rng(2)
        world, kfs, landmarks = tiny_world(rng)
        point = world.create_point(landmarks[3], [(kfs[0].kf_id, 3)])
        prev = point.depth_interval
        for kf in kfs[1:]:
            world.add_observation(point, kf.kf_id, 3)
            cur = point.depth_interval
            assert cur.z_min >= prev.z_min - 1e-12
            assert cur.z_max <= prev.z_max + 1e-12
            prev = cur

    def test_geometric_reference_switches_to_closer_holder(self):
        rng = np.random.default_rng(3)
        world, kfs, landmarks = tiny_world(rng, descriptor_selection="geometric")
        point = world.create_point(landmarks[0], [(kfs[0].kf_id, 0)])
        world.add_observation(point, kfs[3].kf_id, 0)
        # newest keyframe is its own closest holder
        assert point.reference_kf_id == kfs[3].kf_id
        world.reselect_references([point], kfs[0].pose.translation)
        assert point.reference_kf_id == kfs[0].kf_id

    def test_stored_interval_matches_recomputation(self):
        rng = np.random.default_rng(4)
        world, kfs, landmarks = tiny_world(rng)
        for i in range(len(landmarks)):
            world.create_point(
                landmarks[i], [(kfs[k].kf_id, i) for k in range(4)]
            )
        for pid in sorted(world.points):
            point = world.points[pid]
            depths = [float(world.keyframes[kf_id].pose.depth_of(point.position))
                      for kf_id, _ in point.observation_items()]
            fresh = depth_invariance_interval(depths, PYR, DELTA_L)
            assert point.depth_interval == fresh


class TestCulling:
    def test_point_with_single_surviving_observation_culled(self):
        rng = np.random.default_rng(5)
        world, kfs, landmarks = tiny_world(rng)
        p1 = world.create_point(landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        world.remove_observation(p1, kfs[1].kf_id)
        assert world.cull_points() == [p1.point_id]
        assert p1.point_id not in world.points

    def test_point_with_two_observations_kept(self):
        rng = np.random.default_rng(6)
        world, kfs, landmarks = tiny_world(rng)
        p1 = world.create_point(landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        assert world.cull_points() == []
        assert p1.point_id in world.points

    def test_culling_idempotent(self):
        rng = np.random.default_rng(7)
        world, kfs, landmarks = tiny_world(rng)
        world.create_point(landmarks[0], [(kfs[0].kf_id, 0)])
        world.create_point(landmarks[1], [(kfs[0].kf_id, 1), (kfs[1].kf_id, 1)])
        first = world.cull_points()
        assert first != []
        assert world.cull_points() == []
        world.check_integrity()

    def test_retention_culls_keyframes_and_orphans(self):
        rng = np.random.default_rng(8)
        world, kfs, landmarks = tiny_world(rng, n_frames=12, spacing=0.2)
        # a point observed only by keyframes 1 and 2 dies with them
        doomed = world.create_point(
            landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)]
        )
        survivor = world.create_point(
            landmarks[1], [(kf.kf_id, 1) for kf in kfs]
        )
        world.apply_retention(12)
        assert sorted(world.keyframes) == [5, 8, 9, 10, 11, 12]
        assert doomed.point_id not in world.points
        assert survivor.point_id in world.points
        assert sorted(survivor.observations) == [5, 8, 9, 10, 11, 12]
        assert world.cull_points() == []
        world.check_integrity()


class TestGraphStats:
    def test_empty_map(self):
        world = WorldMap(PYR)
        assert world.graph_stats() == GraphStats(0, 0, 0)

    def test_noiseless_world_all_inliers(self):
        rng = np.random.default_rng(9)
        world, kfs, landmarks = tiny_world(rng)
        total = 0
        for i in range(len(landmarks)):
            world.create_point(
                landmarks[i], [(kfs[k].kf_id, i) for k in range(3)]
            )
            total += 3
        stats = world.graph_stats()
        assert stats.n_map_points == len(landmarks)
        assert stats.n_observation_inliers == total
        # latest five keyframes plus keyframe 1, covisible through the points
        assert stats.n_local_keyframes == 6


class TestMerge:
    def test_merge_unions_observations(self):
        rng = np.random.default_rng(10)
        world, kfs, landmarks = tiny_world(rng)
        a = world.create_point(landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        b = world.create_point(landmarks[0], [(kfs[2].kf_id, 0), (kfs[3].kf_id, 0)])
        world.merge_points(a.point_id, b.point_id)
        assert b.point_id not in world.points
        assert sorted(a.observations) == [k.kf_id for k in kfs[:4]]
        world.check_integrity()

    def test_merge_conflicting_keyframe_keeps_survivor(self):
        rng = np.random.default_rng(11)
        world, kfs, landmarks = tiny_world(rng)
        a = world.create_point(landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        b = world.create_point(landmarks[1], [(kfs[0].kf_id, 1), (kfs[2].kf_id, 1)])
        world.merge_points(a.point_id, b.point_id)
        assert a.observations[kfs[0].kf_id] == 0  # survivor's own keypoint
        assert kfs[0].claims.get(1) is None  # loser's claim released
        world.check_integrity()


class TestIntegrity:
    def test_dangling_claim_detected(self):
        rng = np.random.default_rng(12)
        world, kfs, landmarks = tiny_world(rng)
        world.create_point(landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        kfs[0].claims[7] = 999
        with pytest.raises(WorldIntegrityError):
            world.check_integrity()

    @pytest.mark.parametrize("edit", ["drop", "extra"])
    def test_inlier_flags_out_of_step_with_observations_detected(self, edit):
        rng = np.random.default_rng(14)
        world, kfs, landmarks = tiny_world(rng)
        point = world.create_point(landmarks[0],
                                   [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        world.check_integrity()
        if edit == "drop":
            del point.inlier[kfs[1].kf_id]
        else:
            point.inlier[kfs[2].kf_id] = True
        with pytest.raises(WorldIntegrityError, match="inlier flags"):
            world.check_integrity()
