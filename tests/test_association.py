import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symvo.association as association
from symvo.association import (
    BLOCK_PAIRS,
    DESCRIPTOR_THRESHOLD,
    HETEROGENEOUS_THRESHOLDS,
    MIN_PARALLAX,
    PREFIX_BYTES,
    AssociationPolicy,
    ConstraintMode,
    FrameScores,
    Ordering,
    PointBatch,
    Site,
    fundamental_from_relative,
    fuse,
    match,
    search_by_projection,
    search_for_triangulation,
    triangulate_rays,
)
from symvo.errors import DescriptorMismatchError
from symvo.features import (
    DepthInterval,
    hamming_matrix,
    hamming_pairs,
    octave_for_depth,
)
from symvo.geometry import CameraIntrinsics, Pose, parallax_angles, so3_exp, unit_ray
from symvo.worldmap import Keyframe, WorldMap

from oracles import (
    Descriptor,
    corridor_match_inputs,
    hamming,
    pack_descriptors,
    project,
    reference_epipolar_distances,
    reference_match,
    reference_search_by_projection,
    reference_search_for_triangulation,
)

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def make_policy(**kw):
    return AssociationPolicy(**kw)


def assert_same_rows(got, want):
    """Equal (n, 2) match arrays: shape, dtype and every row in order."""
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def assert_same_triangulation(got, want, kf_a, kf_b):
    """Equal ``search_for_triangulation`` results, positions bit for bit,
    every position in front of both keyframes."""
    (pairs, positions), (want_pairs, want_positions) = got, want
    assert_same_rows(pairs, want_pairs)
    assert positions.shape == want_positions.shape == (len(pairs), 3)
    assert positions.tobytes() == want_positions.tobytes()
    assert (kf_a.pose.depth_of(positions) > 0).all()
    assert (kf_b.pose.depth_of(positions) > 0).all()


def descriptors_at_distances(rng, base, distances):
    """Descriptors at exact Hamming distances from `base`, flipping
    disjoint bit ranges so mutual distances are sums."""
    out = []
    start = 0
    for d in distances:
        arr = bytearray(base.bits)
        for bit in range(start, start + d):
            arr[bit // 8] ^= 0x80 >> (bit % 8)
        out.append(Descriptor(bytes(arr)))
        start += d
    return out


class TestMatch:
    def test_disjoint_descriptors_give_empty_set(self):
        rng = np.random.default_rng(0)
        q = pack_descriptors([Descriptor.random(rng) for _ in range(5)])
        t = pack_descriptors([Descriptor.random(rng) for _ in range(5)])
        # random descriptors sit about 128 bits apart, far past the threshold
        assert hamming_matrix(q, t).min() > DESCRIPTOR_THRESHOLD
        got = match(range(5), q, range(5), t, make_policy(), Site.PROJECTION_TRACK)
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_hamming_ordered_is_permutation_invariant(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n_q, n_t = rng.integers(3, 12), rng.integers(3, 12)
            base = Descriptor.random(rng)
            qs = [base.flipped(rng, 0.05) for _ in range(n_q)]
            ts = [base.flipped(rng, 0.05) for _ in range(n_t)]
            policy = make_policy(ordering=Ordering.HAMMING_ORDERED)
            ref = match(
                list(range(n_q)), pack_descriptors(qs),
                list(range(n_t)), pack_descriptors(ts),
                policy, Site.PROJECTION_TRACK,
            )
            ref_set = set(map(tuple, ref.tolist()))
            for _ in range(20):
                qp = rng.permutation(n_q)
                tp = rng.permutation(n_t)
                got = match(
                    qp, pack_descriptors([qs[i] for i in qp]),
                    tp, pack_descriptors([ts[i] for i in tp]),
                    policy, Site.PROJECTION_TRACK,
                )
                got_set = set(map(tuple, got.tolist()))
                assert got_set == ref_set

    def conflict_instance(self):
        """3x3 instance where greedy order changes the outcome.

        distance matrix (rows = queries, cols = targets), T =
        ``DESCRIPTOR_THRESHOLD``:
            q1: [2, T + 8, > T]
            q2: [3, > T, > T]
            q3: [4, > T, > T]
        Only t1 is within the threshold.  Sequentially, whoever comes first
        grabs t1 and the rest stay unmatched; the hamming-ordered result
        always gives t1 to q1.
        """
        base = Descriptor(bytes(32))
        far = DESCRIPTOR_THRESHOLD + 10
        t_descs = descriptors_at_distances(
            np.random.default_rng(2), base, [0, far, 2 * far]
        )
        q1 = descriptors_at_distances(np.random.default_rng(3), t_descs[0], [2])[0]

        def flip_tail(desc, n):
            arr = bytearray(desc.bits)
            for bit in range(256 - n, 256):
                arr[bit // 8] ^= 0x80 >> (bit % 8)
            return Descriptor(bytes(arr))

        q2 = flip_tail(t_descs[0], 3)
        q3 = flip_tail(t_descs[0], 4)
        return [q1, q2, q3], t_descs

    def test_sequential_is_order_sensitive_but_hamming_is_not(self):
        qs, ts = self.conflict_instance()
        policy_seq = make_policy(ordering=Ordering.SEQUENTIAL)
        policy_ham = make_policy(ordering=Ordering.HAMMING_ORDERED)
        dist = hamming_matrix(pack_descriptors(qs), pack_descriptors(ts))
        assert dist[:, 0].tolist() == [2, 3, 4]
        assert (dist[:, 1:] > DESCRIPTOR_THRESHOLD).all()
        outcomes_seq, outcomes_ham = set(), set()
        for perm in itertools.permutations(range(3)):
            perm = list(perm)
            got_seq = match(
                perm, pack_descriptors([qs[i] for i in perm]),
                [0, 1, 2], pack_descriptors(ts),
                policy_seq, Site.PROJECTION_TRACK,
            )
            outcomes_seq.add(frozenset(map(tuple, got_seq.tolist())))
            got_ham = match(
                perm, pack_descriptors([qs[i] for i in perm]),
                [0, 1, 2], pack_descriptors(ts),
                policy_ham, Site.PROJECTION_TRACK,
            )
            outcomes_ham.add(frozenset(map(tuple, got_ham.tolist())))
        assert len(outcomes_seq) > 1
        assert len(outcomes_ham) == 1

        # an equal-distance tie: one query three bits from each of two
        # targets whose row order and id order disagree
        base = Descriptor.random(np.random.default_rng(19))
        q = pack_descriptors([base])
        t = pack_descriptors(descriptors_at_distances(
            np.random.default_rng(20), base, [3, 3]))
        assert hamming_pairs(np.concatenate([q, q]), t).tolist() == [3, 3]
        for policy, winner in ((policy_seq, 9), (policy_ham, 5)):
            got = match([0], q, [9, 5], t, policy, Site.PROJECTION_TRACK)
            # SEQUENTIAL: the lower target row; HAMMING_ORDERED: the lower id
            assert got.tolist() == [[0, winner]]

    def test_duplicate_descriptors_tie_break_on_ids(self):
        rng = np.random.default_rng(4)
        d = Descriptor.random(rng)
        policy = make_policy()
        got = match(
            [7, 3], pack_descriptors([d, d]),
            [9, 5], pack_descriptors([d, d]),
            policy, Site.PROJECTION_TRACK,
        )
        assert sorted(map(tuple, got.tolist())) == [(3, 5), (7, 9)]

    def test_one_to_one(self):
        rng = np.random.default_rng(5)
        base = Descriptor.random(rng)
        qs = [base.flipped(rng, 0.02) for _ in range(20)]
        ts = [base.flipped(rng, 0.02) for _ in range(15)]
        for ordering in Ordering:
            got = match(
                range(20), pack_descriptors(qs),
                range(15), pack_descriptors(ts),
                make_policy(ordering=ordering),
                Site.PROJECTION_TRACK,
            )
            assert len(got) > 0
            assert len(set(got[:, 0].tolist())) == len(got)
            assert len(set(got[:, 1].tolist())) == len(got)

    @pytest.mark.parametrize("widths", [(32, 33), (17, 16), (8, 16)])
    def test_descriptor_widths_must_agree(self, widths):
        """Equal 16-byte prefixes do not hide differing widths, even where the
        targets have no bytes past the prefix."""
        rng = np.random.default_rng(6)
        q = rng.integers(0, 256, (3, widths[0]), dtype=np.uint8)
        t = rng.integers(0, 256, (4, widths[1]), dtype=np.uint8)
        with pytest.raises(DescriptorMismatchError):
            match(range(3), q, range(4), t, make_policy(), Site.PROJECTION_LOCAL)


class TestSiteThresholds:
    """The descriptor threshold, the one gate ``match`` tests, at each site."""

    def one_pair(self, rng, distance):
        """A query and a target ``distance`` bits apart."""
        base = Descriptor.random(rng)
        return (pack_descriptors([base]),
                pack_descriptors(descriptors_at_distances(rng, base, [distance])))

    def test_same_threshold_at_every_site_in_symmetric_mode(self):
        policy = make_policy(constraint_mode=ConstraintMode.SYMMETRIC)
        T = DESCRIPTOR_THRESHOLD
        rng = np.random.default_rng(22)
        for distance, accepted in ((T - 20, True), (T, True), (T + 1, False),
                                   (T + 20, False)):
            q, t = self.one_pair(rng, distance)
            pairs = (np.array([0]), np.array([0]))
            for site in Site:
                assert len(match([0], q, [0], t, policy, site)) == accepted
                assert len(match([0], q, [0], t, policy, site, pairs=pairs)) == accepted

    def test_heterogeneous_mode_varies_by_site(self):
        policy = make_policy(constraint_mode=ConstraintMode.HETEROGENEOUS)
        # between the local-map (14) and the motion-model (22) thresholds
        q, t = self.one_pair(np.random.default_rng(23), 18)
        assert match([0], q, [0], t, policy, Site.PROJECTION_TRACK).tolist() == [[0, 0]]
        assert match([0], q, [0], t, policy, Site.PROJECTION_LOCAL).shape == (0, 2)

    @pytest.mark.parametrize("mode", list(ConstraintMode))
    def test_thresholds_are_inclusive(self, mode):
        """A pair at exactly a site's descriptor threshold passes and one bit
        more fails, on both scoring paths."""
        policy = make_policy(constraint_mode=mode)
        rng = np.random.default_rng(21)
        base = Descriptor.random(rng)
        q = pack_descriptors([base])
        for site in Site:
            T = (DESCRIPTOR_THRESHOLD if mode is ConstraintMode.SYMMETRIC
                 else HETEROGENEOUS_THRESHOLDS[site])
            assert policy.threshold_for(site) == T
            t = pack_descriptors(descriptors_at_distances(rng, base, [T + 1]) +
                                 descriptors_at_distances(rng, base, [T]))
            assert hamming_pairs(np.concatenate([q, q]), t).tolist() == [T + 1, T]
            assert match([0], q, [5, 6], t, policy, site).tolist() == [[0, 6]]
            pairs = (np.array([0, 0]), np.array([0, 1]))
            assert match([0], q, [5, 6], t, policy, site, pairs=pairs).tolist() == [[0, 6]]

    @pytest.mark.parametrize("mode", list(ConstraintMode))
    def test_every_accepted_match_is_an_admitted_pair_within_the_threshold(self, mode):
        rng = np.random.default_rng(5)
        n_accepted = dict.fromkeys(Site, 0)
        for trial in range(40):
            n_q, n_t = rng.integers(3, 12), rng.integers(3, 12)
            base = Descriptor.random(rng)
            # pair distances ~ 15 bits: around the heterogeneous thresholds
            q = pack_descriptors([base.flipped(rng, 0.03) for _ in range(n_q)])
            t = pack_descriptors([base.flipped(rng, 0.03) for _ in range(n_t)])
            policy = make_policy(constraint_mode=mode)
            admitted = rng.random((n_q, n_t)) < 0.7
            for site in Site:
                got = match(range(n_q), q, range(n_t), t, policy, site,
                            pairs=np.nonzero(admitted))
                # ids are rows here
                qr, tr = got.T
                assert admitted[qr, tr].all()
                assert (hamming_pairs(q[qr], t[tr]) <= policy.threshold_for(site)).all()
                n_accepted[site] += len(got)
        assert all(n > 0 for n in n_accepted.values())


def build_world(rng, n_points=40, n_frames=3, spacing=0.5, noise=0.0,
                flip=0.0, axis=(0.0, 0.0, 1.0), **world_kw):
    """A tiny world: landmarks ahead of a camera moving along ``axis``."""
    world = WorldMap(**world_kw)
    axis = np.asarray(axis, dtype=np.float64)
    landmarks = []
    while len(landmarks) < n_points:
        p = np.array([rng.uniform(-4, 4), rng.uniform(-3, 3),
                      rng.uniform(n_frames * spacing + 3, 28)])
        ok = all(
            CAM.contains(project(p - k * spacing * axis, CAM))
            for k in range(n_frames)
        )
        if ok:
            landmarks.append(p)
    landmarks = np.stack(landmarks)
    signatures = [Descriptor.random(rng) for _ in range(n_points)]
    kfs = []
    for k in range(n_frames):
        pose = Pose(np.eye(3), k * spacing * axis)
        rel = pose.inverse().apply(landmarks)
        uv = np.stack([
            CAM.fx * rel[:, 0] / rel[:, 2] + CAM.cx,
            CAM.fy * rel[:, 1] / rel[:, 2] + CAM.cy,
        ], axis=1)
        if noise:
            uv = uv + rng.normal(scale=noise, size=uv.shape)
        octaves = octave_for_depth(rel[:, 2], z_far=40.0)
        descs = pack_descriptors([s.flipped(rng, flip) for s in signatures])
        kfs.append(world.add_keyframe(k * 0.1, pose, uv, octaves, descs))
    return world, kfs, landmarks, signatures


def add_point(world, position, observations) -> int:
    """One new point, bound to the (kf_id, keypoint) pairs."""
    (pid,) = world.create_point([position], [(k, [kp]) for k, kp in observations])
    return int(pid)


def owners(world, kfs) -> list:
    """The owner columns of the first two keyframes."""
    return [world.owners(kf.kf_id) for kf in kfs[:2]]


def unheld(world, kf) -> np.ndarray:
    """The live points the keyframe does not hold: what ``fuse`` may be given."""
    return world.points[~np.isin(world.points, world.owners(kf.kf_id))]


class TestSearchByProjection:
    def test_noiseless_frame_matches_every_visible_landmark(self):
        rng = np.random.default_rng(6)
        world, kfs, landmarks, signatures = build_world(rng)
        for i in range(len(landmarks)):
            add_point(world, landmarks[i], [(kfs[0].kf_id, i), (kfs[1].kf_id, i)])
        batch = world.point_batch(world.points, kfs[2].pose.translation)
        got = search_by_projection(kfs[2], batch, kfs[2].pose, make_policy(), CAM)
        assert len(got) == len(landmarks)
        # synthetic keypoint index equals landmark index here
        assert np.array_equal(got[:, 1], got[:, 0] - 1)

    def test_point_behind_camera_never_a_candidate(self):
        rng = np.random.default_rng(7)
        world, kfs, landmarks, signatures = build_world(rng)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        world.positions[pid] = [0.0, 0.0, -10.0]
        got = search_by_projection(
            kfs[2], world.point_batch([pid], kfs[2].pose.translation), kfs[2].pose,
            make_policy(use_depth_filter=False), CAM,
        )
        assert got.shape == (0, 2)

    def test_depth_filter_excludes_out_of_interval_points(self):
        rng = np.random.default_rng(8)
        world, kfs, landmarks, signatures = build_world(rng)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        # fake a far-away interval so the true predicted depth fails it
        point = world.point_batch([pid], kfs[2].pose.translation)._replace(
            depth=DepthInterval(np.array([100.0]), np.array([200.0])))
        with_filter = search_by_projection(
            kfs[2], point, kfs[2].pose, make_policy(use_depth_filter=True), CAM
        )
        without = search_by_projection(
            kfs[2], point, kfs[2].pose, make_policy(use_depth_filter=False), CAM
        )
        assert with_filter.shape == (0, 2) and len(without) == 1

    def test_depth_interval_is_closed(self):
        """A point at exactly either end of its depth interval passes the
        filter, and one a float outside either end fails it."""
        rng = np.random.default_rng(8)
        world, kfs, landmarks, signatures = build_world(rng)
        pid = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        point = world.point_batch([pid], kfs[2].pose.translation)
        z = kfs[2].pose.inverse().apply(point.positions)[:, 2]
        policy = make_policy(use_depth_filter=True)
        for z_min, z_max, accepted in (
                (z, z + 1.0, True), (z - 1.0, z, True),
                (np.nextafter(z, np.inf), z + 1.0, False),
                (z - 1.0, np.nextafter(z, 0.0), False)):
            bounded = point._replace(depth=DepthInterval(z_min, z_max))
            got = search_by_projection(kfs[2], bounded, kfs[2].pose, policy, CAM)
            assert len(got) == accepted


def reuse_scene(rng, n_points=30):
    """A frame at the identity pose and ``n_points`` points in view of it,
    as a ``PointBatch`` whose depth intervals hold every depth.  Points come
    in twins about 10 bits apart, and each point has two keypoints, about 8
    and about 18 bits off: between the heterogeneous thresholds of the two
    projection sites (14 and 22), and on both twins' lists.  Ten decoys sit
    about 128 bits from everything."""
    bases = rng.integers(0, 256, (n_points // 2, 32), dtype=np.uint8)
    signatures = np.concatenate([near_copies(rng, base, 2, 0.01) for base in bases])
    keypoint_descriptors = np.concatenate([
        near_copies(rng, signatures[i], 1, rate)
        for i in range(n_points) for rate in (0.03, 0.07)])
    decoys = rng.integers(0, 256, (10, 32), dtype=np.uint8)
    descriptors = np.concatenate([keypoint_descriptors, decoys])
    order = rng.permutation(len(descriptors))
    n_kp = len(descriptors)
    frame = Keyframe(1, 0.0, Pose.identity(), rng.uniform(0, 480, (n_kp, 2)),
                     np.zeros(n_kp, dtype=np.int64), descriptors[order])
    positions = rng.uniform([-2, -2, 5], [2, 2, 15], (n_points, 3))
    points = PointBatch(
        ids=rng.permutation(1000)[:n_points], positions=positions,
        descriptors=signatures,
        depth=DepthInterval(np.full(n_points, 1.0), np.full(n_points, 100.0)))
    return frame, points


def batch_rows(points, rows):
    """The ``PointBatch`` of the given rows, in that order."""
    return PointBatch(points.ids[rows], points.positions[rows],
                      points.descriptors[rows],
                      DepthInterval(points.depth.z_min[rows], points.depth.z_max[rows]))


class TestFrameScores:
    """A projection search that reuses the frame's earlier scores matches
    byte for byte as a fresh search, and scores exactly the queries whose
    id and descriptor the earlier search did not score at a threshold no
    lower."""

    @pytest.mark.parametrize("case", ["changed_reference", "second_only",
                                      "lower_earlier_threshold", "empty_first"])
    @pytest.mark.parametrize("mode", list(ConstraintMode))
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_reused_search_equals_a_fresh_one(self, case, mode, ordering):
        rng = np.random.default_rng(31)
        frame, points = reuse_scene(rng)
        n = len(points.ids)
        policy = make_policy(ordering=ordering, constraint_mode=mode)
        sites = [Site.PROJECTION_TRACK, Site.PROJECTION_LOCAL]
        first = batch_rows(points, np.arange(n))
        second = batch_rows(points, rng.permutation(n))
        if case == "changed_reference":  # 5 points read another holder's descriptor
            changed = second.descriptors.copy()
            changed[:5] = near_copies(rng, changed[0], 5, 0.01)
            second = second._replace(descriptors=changed)
            rescored = 5
        elif case == "second_only":
            first = batch_rows(points, np.arange(n - 10))
            rescored = 10
        elif case == "lower_earlier_threshold":
            sites.reverse()
            lower = policy.threshold_for(sites[0]) < policy.threshold_for(sites[1])
            assert lower == (mode is ConstraintMode.HETEROGENEOUS)
            rescored = n if lower else 0
        else:
            first = batch_rows(points, np.arange(0))
            rescored = n

        scores = FrameScores(frame.descriptors)
        scored_rows = []
        inner = association._pairs_within

        def counted(queries, targets, threshold):
            scored_rows.append(len(queries))
            return inner(queries, targets, threshold)

        pose = Pose.identity()
        with mock.patch.object(association, "_pairs_within", counted):
            search_by_projection(frame, first, pose, policy, CAM, site=sites[0],
                                 scores=scores)
            scored_rows.clear()
            got = search_by_projection(frame, second, pose, policy, CAM, site=sites[1],
                                       scores=scores)
        fresh = search_by_projection(frame, second, pose, policy, CAM, site=sites[1])
        want = reference_search_by_projection(frame, second, pose, policy, CAM, sites[1])
        assert len(want) > 0
        assert_same_rows(fresh, want)
        assert_same_rows(got, want)
        assert scored_rows == [rescored]

    def test_reused_pairs_are_filtered_by_the_later_threshold(self):
        """Under the heterogeneous table the local search (14) takes the
        track search's (22) pairs: exactly those within 14 remain, in the
        row-major order one ``_pairs_within`` call gives."""
        rng = np.random.default_rng(32)
        frame, points = reuse_scene(rng)
        scores = FrameScores(frame.descriptors)
        queries = points.descriptors
        track = scores.pairs_within(points.ids, queries, frame.descriptors, 22)
        assert np.any((track[2] > 14) & (track[2] <= 22))
        local = scores.pairs_within(points.ids, queries, frame.descriptors, 14)
        want = association._pairs_within(queries, frame.descriptors, 14)
        assert all(a.tobytes() == b.tobytes() and a.dtype == b.dtype
                   for a, b in zip(local, want))

    def test_a_repeated_id_is_scored_anew(self):
        """Two queries of one id may take one earlier query's pairs only
        once; the other is scored, and both get their own pairs."""
        rng = np.random.default_rng(33)
        frame, points = reuse_scene(rng, n_points=4)
        scores = FrameScores(frame.descriptors)
        scores.pairs_within(points.ids, points.descriptors, frame.descriptors, 50)
        ids = points.ids[[0, 0, 1]]
        queries = points.descriptors[[0, 0, 1]]
        got = scores.pairs_within(ids, queries, frame.descriptors, 50)
        want = association._pairs_within(queries, frame.descriptors, 50)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert set(got[0].tolist()) == {0, 1, 2}

    def test_other_targets_are_refused(self):
        rng = np.random.default_rng(34)
        frame, points = reuse_scene(rng, n_points=4)
        scores = FrameScores(frame.descriptors)
        with pytest.raises(ValueError):
            scores.pairs_within(points.ids, points.descriptors,
                                frame.descriptors.copy(), 50)


class TestSearchForTriangulation:
    def test_pure_rotation_pair_triangulates_nothing(self):
        rng = np.random.default_rng(9)
        world, kfs, *_ = build_world(rng, n_frames=2, spacing=0.5)
        spun = world.add_keyframe(
            0.3, Pose(so3_exp((0, 0.1, 0)), kfs[0].pose.translation),
            kfs[0].keypoints, kfs[0].octaves, kfs[0].descriptors,
        )
        pairs, positions = search_for_triangulation(
            kfs[0], spun, world.owners(kfs[0].kf_id), world.owners(spun.kf_id),
            make_policy(), CAM)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64
        assert positions.shape == (0, 3)

    def test_noiseless_pair_recovers_ground_truth(self):
        rng = np.random.default_rng(10)
        # lateral baseline: every landmark has ample parallax
        world, kfs, landmarks, _ = build_world(
            rng, n_frames=2, spacing=1.0, axis=(1.0, 0.0, 0.0)
        )
        pairs, positions = search_for_triangulation(kfs[0], kfs[1], *owners(world, kfs),
                                                    make_policy(), CAM)
        assert len(pairs) == len(landmarks)
        assert np.array_equal(pairs[:, 0], pairs[:, 1])
        assert np.allclose(positions, landmarks[pairs[:, 0]], atol=1e-6)

    def test_claimed_keypoints_never_take_part(self):
        rng = np.random.default_rng(16)
        world, kfs, landmarks, _ = build_world(
            rng, n_frames=3, spacing=1.0, axis=(1.0, 0.0, 0.0)
        )
        # landmarks 0-9 are mapped through keyframe 1's keypoints, 10-19
        # through keyframe 2's; only 20-39 are free in both
        first, second = np.arange(10), np.arange(10, 20)
        world.create_point(landmarks[first], [(kfs[0].kf_id, first), (kfs[2].kf_id, first)])
        world.create_point(landmarks[second], [(kfs[1].kf_id, second), (kfs[2].kf_id, second)])
        owners_a, owners_b = owners(world, kfs)
        bound_a = set(np.flatnonzero(owners_a >= 0).tolist())
        bound_b = set(np.flatnonzero(owners_b >= 0).tolist())
        assert bound_a == set(range(10)) and bound_b == set(range(10, 20))
        got = search_for_triangulation(kfs[0], kfs[1], owners_a, owners_b,
                                       make_policy(), CAM)
        pairs = got[0]
        assert not set(pairs[:, 0].tolist()) & bound_a
        assert not set(pairs[:, 1].tolist()) & bound_b
        assert sorted(pairs[:, 0].tolist()) == list(range(20, 40))

        # oracle: the same search on keyframes cut down to their free
        # keypoints, with the cut-down indices mapped back
        def free_only(kf, column):
            keep = np.flatnonzero(column < 0)
            sub = Keyframe(kf.kf_id, kf.timestamp, kf.pose, kf.keypoints[keep],
                           kf.octaves[keep], kf.descriptors[keep])
            return sub, keep

        sub_a, keep_a = free_only(kfs[0], owners_a)
        sub_b, keep_b = free_only(kfs[1], owners_b)
        want_pairs, want_positions = search_for_triangulation(
            sub_a, sub_b, np.full(keep_a.size, -1), np.full(keep_b.size, -1),
            make_policy(), CAM)
        want_pairs = np.stack([keep_a[want_pairs[:, 0]], keep_b[want_pairs[:, 1]]],
                              axis=1)
        assert_same_triangulation(got, (want_pairs, want_positions), kfs[0], kfs[1])

    def test_low_parallax_pairs_rejected(self):
        rng = np.random.default_rng(11)
        world, kfs, landmarks, _ = build_world(rng, n_frames=2, spacing=0.01)
        pairs, positions = search_for_triangulation(kfs[0], kfs[1], *owners(world, kfs),
                                                    make_policy(), CAM)
        assert pairs.shape == (0, 2) and positions.shape == (0, 3)

    @pytest.mark.parametrize("n_from, n_to", [(200, 1500), (1500, 1300)])
    def test_epipolar_distances_equal_the_reference_bytes(self, n_from, n_to):
        rng = np.random.default_rng(n_from)
        rel = Pose(so3_exp(rng.normal(scale=0.05, size=3)), rng.normal(size=3))
        F = fundamental_from_relative(rel, CAM)
        uv_from = rng.uniform(0, 640, (n_from, 2))
        uv_to = rng.uniform(0, 640, (n_to, 2))
        got = association._epipolar_distances(uv_from, uv_to, F)
        want = reference_epipolar_distances(uv_from, uv_to, F)
        assert got.shape == want.shape == (n_from, n_to)
        assert got.tobytes() == want.tobytes()

    def test_midpoint_triangulation_exact_on_crossing_rays(self):
        p = np.array([1.0, 2.0, 7.0])
        c1, c2 = np.zeros(3), np.array([2.0, 0.0, 0.0])
        got, ok = triangulate_rays(c1, (p - c1)[None], c2, (p - c2)[None])
        assert ok.tolist() == [True]
        assert np.allclose(got[0], p, atol=1e-12)

    def test_rays_match_least_squares_reference(self):
        rng = np.random.default_rng(15)
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        d1, d2 = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        got, ok = triangulate_rays(c1, d1, c2, d2)
        assert ok.all()
        for k in range(50):
            # closest approach: c1 + s1 d1 ~ c2 + s2 d2 in least squares
            A = np.stack([d1[k], -d2[k]], axis=1)
            (s1, s2), *_ = np.linalg.lstsq(A, c2 - c1, rcond=None)
            mid = (c1 + s1 * d1[k] + c2 + s2 * d2[k]) / 2.0
            assert np.allclose(got[k], mid, rtol=1e-9, atol=1e-9)

    def test_midpoint_rejects_parallel_rays(self):
        d = np.array([[0.0, 0.0, 1.0]])
        _, ok = triangulate_rays(np.zeros(3), d, np.array([1.0, 0, 0]), d)
        assert ok.tolist() == [False]


class TestFuse:
    def test_duplicate_landmark_merges(self):
        rng = np.random.default_rng(12)
        world, kfs, landmarks, signatures = build_world(rng)
        a = add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        add_point(world, landmarks[0] + rng.normal(scale=1e-4, size=3),
                  [(kfs[2].kf_id, 0)])
        batch = world.point_batch(unheld(world, kfs[2]), kfs[2].pose.translation)
        found = fuse(batch, kfs[2], make_policy(), CAM)
        owner = world.owners(kfs[2].kf_id)[found[:, 1]]
        # a row landing on another point's keypoint is a merge, the lower
        # id surviving
        merges = np.flatnonzero(owner >= 0)
        assert merges.size == 1
        assert min(found[merges[0], 0], owner[merges[0]]) == a

    def test_distant_points_do_not_merge(self):
        rng = np.random.default_rng(13)
        world, kfs, landmarks, signatures = build_world(rng)
        add_point(world, landmarks[0], [(kfs[0].kf_id, 0), (kfs[1].kf_id, 0)])
        add_point(world, landmarks[1], [(kfs[0].kf_id, 1), (kfs[1].kf_id, 1)])
        batch = world.point_batch(unheld(world, kfs[2]), kfs[2].pose.translation)
        found = fuse(batch, kfs[2], make_policy(), CAM)
        assert (world.owners(kfs[2].kf_id)[found[:, 1]] < 0).all()

    def test_attach_matches_brute_force_best_candidate(self):
        rng = np.random.default_rng(14)
        world, kfs, landmarks, signatures = build_world(rng, flip=0.02)
        pid = add_point(world, landmarks[5], [(kfs[0].kf_id, 5), (kfs[1].kf_id, 5)])
        point = world.point_batch([pid], kfs[2].pose.translation)
        found = fuse(point, kfs[2], make_policy(), CAM)
        # brute force: the admissible keypoint with least hamming
        reference = Descriptor(point.descriptors[0].tobytes())
        dists = [
            (hamming(reference, Descriptor(kfs[2].descriptors[i].tobytes())), i)
            for i in range(kfs[2].n_keypoints)
        ]
        best = min(dists)
        assert found.tolist() == [[pid, best[1]]]


# ----------------------------------------------------------------------
# equivalence with the dense reference matcher


@st.composite
def policies(draw):
    return AssociationPolicy(
        use_depth_filter=draw(st.booleans()),
        ordering=draw(st.sampled_from(list(Ordering))),
        constraint_mode=draw(st.sampled_from(list(ConstraintMode))),
    )


def near_copies(rng, base, n, rate):
    """``n`` packed copies of the packed ``base`` with each bit flipped at ``rate``."""
    flips = np.packbits(rng.random((n, 8 * base.size)) < rate, axis=1)
    return base[None, :] ^ flips


def maybe(draw, value):
    return value if draw(st.booleans()) else None


@st.composite
def match_instances(draw):
    """Query and target stacks at distances around the thresholds, distinct
    ids in arbitrary order, and optional query, pair and depth masks.

    Two copies flipped at ``rate`` sit about 512 rate (1 - rate) bits
    apart: about 10, 20, 38, 46 and 54 bits for the rates drawn here, so
    pairs fall on both sides of the heterogeneous thresholds (12 to 22) and
    of ``DESCRIPTOR_THRESHOLD`` (50).  Parallax straddles ``MIN_PARALLAX``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_q, n_t = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rate = draw(st.sampled_from([0.02, 0.04, 0.08, 0.1, 0.12]))
    base = rng.integers(0, 256, 32, dtype=np.uint8)
    return dict(
        query_ids=rng.permutation(50)[:n_q],
        query_descriptors=near_copies(rng, base, n_q, rate),
        target_ids=rng.permutation(50)[:n_t],
        target_descriptors=near_copies(rng, base, n_t, rate),
        pair_mask=maybe(draw, rng.random((n_q, n_t)) < 0.6),
        query_mask=maybe(draw, rng.random(n_q) < 0.7),
        parallax=maybe(draw, rng.uniform(0.0, 4 * MIN_PARALLAX, (n_q, n_t))),
        depth_ok=maybe(draw, rng.random(n_q) < 0.7),
    )


def flipped_at(rng, row, n_prefix, n_tail):
    """The packed ``row`` with ``n_prefix`` distinct bits of its first
    ``PREFIX_BYTES`` bytes flipped and ``n_tail`` of its other bits."""
    bits = np.unpackbits(row)
    p = 8 * min(row.size, PREFIX_BYTES)
    bits[rng.choice(p, n_prefix, replace=False)] ^= 1
    bits[p + rng.choice(bits.size - p, n_tail, replace=False)] ^= 1
    return np.packbits(bits)


@st.composite
def two_stage_instances(draw):
    """A ``match`` instance whose pairs sit around a drawn threshold T in
    both scoring stages, with T and the block budget to patch in.

    Descriptors are 8, 16, 17, 32 or 33 bytes wide.  Most queries copy a
    target with T - 1, T or T + 1 of its prefix bits flipped (as many as the
    prefix holds) and 0, 1 or 2 of its other bits: a prefix at exactly T
    that the remaining bytes push past T among them.  Above 128 bits the
    prefix bound admits every pair.  All, most or none of the queries are
    live, and a budget of 1 or 7 pairs splits even small searches into
    blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([8, 16, 17, 32, 33]))
    threshold = draw(st.sampled_from([0, 49, 50, 64, 127, 128, 200]))
    n_q, n_t = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    prefix_bits = 8 * min(width, PREFIX_BYTES)
    targets = rng.integers(0, 256, (n_t, width), dtype=np.uint8)
    queries = rng.integers(0, 256, (n_q, width), dtype=np.uint8)
    for q in range(n_q if n_t else 0):
        if rng.random() < 0.8:
            n_prefix = int(np.clip(threshold + rng.integers(-1, 2), 0, prefix_bits))
            n_tail = min(int(rng.integers(0, 3)), 8 * width - prefix_bits)
            queries[q] = flipped_at(rng, targets[rng.integers(n_t)], n_prefix, n_tail)
    inst = dict(
        query_ids=rng.permutation(50)[:n_q],
        query_descriptors=queries,
        target_ids=rng.permutation(50)[:n_t],
        target_descriptors=targets,
        query_mask=rng.random(n_q) < draw(st.sampled_from([0.0, 0.7, 1.0])),
        depth_ok=maybe(draw, rng.random(n_q) < 0.7),
    )
    return inst, threshold, draw(st.sampled_from([1, 7, BLOCK_PAIRS]))


def patched_threshold(threshold):
    """Every site's descriptor threshold, in both modes, set to ``threshold``."""
    return mock.patch.multiple(
        association, DESCRIPTOR_THRESHOLD=threshold,
        HETEROGENEOUS_THRESHOLDS=dict.fromkeys(Site, threshold))


def per_pair_match(inst, policy, site, order=None):
    """``match`` on ``inst`` as a site calls it: only the queries that the
    query mask and, when the policy applies it, the depth verdict keep, and
    only the pairs of the dense pair mask that clear ``MIN_PARALLAX``,
    given per pair; ``order`` permutes queries and targets first."""
    n_q, n_t = inst["query_ids"].size, inst["target_ids"].size
    pq, pt = order if order is not None else (np.arange(n_q), np.arange(n_t))
    live = np.ones(n_q, dtype=bool)
    if inst["query_mask"] is not None:
        live &= inst["query_mask"]
    if policy.use_depth_filter and inst["depth_ok"] is not None:
        live &= inst["depth_ok"]
    pq = pq[live[pq]]
    mask, parallax = inst.get("pair_mask"), inst.get("parallax")
    pairs = None
    if mask is not None or parallax is not None:
        admitted = np.ones((n_q, n_t), dtype=bool) if mask is None else mask.copy()
        if parallax is not None:
            admitted &= parallax >= MIN_PARALLAX
        pairs = np.nonzero(admitted[pq][:, pt])
    return match(
        inst["query_ids"][pq], inst["query_descriptors"][pq],
        inst["target_ids"][pt], inst["target_descriptors"][pt], policy, site,
        pairs=pairs,
    )


class TestDenseReferenceEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(inst=match_instances(), policy=policies(), site=st.sampled_from(list(Site)))
    def test_match_returns_the_reference_candidates(self, inst, policy, site):
        want = reference_match(policy=policy, site=site, **inst)
        assert_same_rows(per_pair_match(inst, policy, site), want)

    @settings(max_examples=400, deadline=None)
    @given(drawn=two_stage_instances(), policy=policies(),
           site=st.sampled_from(list(Site)))
    def test_two_stage_scoring_returns_the_reference_candidates(self, drawn, policy,
                                                                site):
        inst, threshold, block_pairs = drawn
        with patched_threshold(threshold), \
                mock.patch.object(association, "BLOCK_PAIRS", block_pairs):
            assert policy.threshold_for(site) == threshold
            got = per_pair_match(inst, policy, site)
            want = reference_match(policy=policy, site=site, **inst)
            q, t = inst["query_descriptors"], inst["target_descriptors"]
            if len(t):
                # the scored pairs: exactly those within T, row-major
                scored = association._pairs_within(q, t, threshold)
                dense = hamming_matrix(q, t)
                within = np.nonzero(dense <= threshold)
                assert [a.dtype for a in scored] == [np.intp, np.intp, np.int32]
                assert all(np.array_equal(a, b) for a, b in
                           zip(scored, (*within, dense[within])))
        assert_same_rows(got, want)

    @pytest.mark.parametrize("n_q, n_t", [
        (BLOCK_PAIRS // 256 - 1, 256),  # one block, just under its budget
        (BLOCK_PAIRS // 256 + 1, 256),  # one row past a full block
        (3, BLOCK_PAIRS + 1),  # one row alone is past the budget
    ])
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_two_stage_scoring_around_one_block(self, n_q, n_t, ordering):
        rng = np.random.default_rng(n_q)
        targets = rng.integers(0, 256, (n_t, 32), dtype=np.uint8)
        # copies about 44 +- 6 bits off: on both sides of the threshold
        queries = targets[rng.integers(0, n_t, n_q)] ^ np.packbits(
            rng.random((n_q, 256)) < 0.17, axis=1)
        inst = dict(query_ids=rng.permutation(n_q), query_descriptors=queries,
                    target_ids=rng.permutation(n_t), target_descriptors=targets)
        policy = make_policy(ordering=ordering)
        got = match(policy=policy, site=Site.PROJECTION_LOCAL, **inst)
        want = reference_match(policy=policy, site=Site.PROJECTION_LOCAL, **inst)
        assert len(want) > 0
        assert_same_rows(got, want)

    @settings(max_examples=200, deadline=None)
    @given(inst=match_instances(), policy=policies(), site=st.sampled_from(list(Site)),
           seed=st.integers(0, 2**32 - 1))
    def test_walk_does_not_depend_on_candidate_order(self, inst, policy, site, seed):
        """Permuting the scored (query row, target row, distance) arrays
        before the walk leaves the accepted rows as they were: with distinct
        ids, both sort keys order every pair.  So the walk does not depend
        on the order in which scored and reused pairs are handed to it."""
        rng = np.random.default_rng(seed)
        inner = association._pairs_within

        def shuffled(queries, targets, threshold):
            found = inner(queries, targets, threshold)
            order = rng.permutation(len(found[0]))
            return tuple(a[order] for a in found)

        args = {key: inst[key] for key in ("query_ids", "query_descriptors",
                                           "target_ids", "target_descriptors")}
        want = match(policy=policy, site=site, **args)
        with mock.patch.object(association, "_pairs_within", shuffled):
            got = match(policy=policy, site=site, **args)
        assert_same_rows(got, want)

    @pytest.mark.parametrize("n_bytes", [16, 31, 32])
    def test_complementary_rows_through_the_narrow_prefix(self, n_bytes):
        """Every pair of rows and complements, at a threshold of 256: the
        uint8 prefix sum reads 128 at most, and the pairs' full distances
        128, 248 and 256 come back as the dense matrix gives them."""
        rng = np.random.default_rng(400 + n_bytes)
        q = rng.integers(0, 256, (4, n_bytes), dtype=np.uint8)
        t = np.concatenate([~q, q])
        qi, ti, dist = association._pairs_within(q, t, 256)
        dense = hamming_matrix(q, t)
        assert qi.tolist() == np.repeat(np.arange(4), 8).tolist()
        assert ti.tolist() == np.tile(np.arange(8), 4).tolist()
        assert dist.dtype == np.int32 and np.array_equal(dist, dense.ravel())
        assert dense[np.arange(4), np.arange(4)].tolist() == [8 * n_bytes] * 4

    @settings(max_examples=200, deadline=None)
    @given(inst=match_instances(), policy=policies(), seed=st.integers(0, 2**32 - 1))
    def test_hamming_ordered_does_not_depend_on_input_order(self, inst, policy, seed):
        policy = dataclasses.replace(policy, ordering=Ordering.HAMMING_ORDERED)
        rng = np.random.default_rng(seed)
        order = (rng.permutation(inst["query_ids"].size),
                 rng.permutation(inst["target_ids"].size))
        want = per_pair_match(inst, policy, Site.PROJECTION_LOCAL)
        assert_same_rows(per_pair_match(inst, policy, Site.PROJECTION_LOCAL, order), want)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), policy=policies(),
           site=st.sampled_from([Site.PROJECTION_TRACK, Site.PROJECTION_LOCAL, Site.FUSE]))
    def test_search_by_projection_returns_the_reference_candidates(self, seed, policy, site):
        rng = np.random.default_rng(seed)
        n_points, n_kp = int(rng.integers(0, 30)), int(rng.integers(0, 40))
        base = rng.integers(0, 256, 32, dtype=np.uint8)
        # pairs about 15 or 50 bits apart: around the heterogeneous
        # thresholds, or around DESCRIPTOR_THRESHOLD
        rate = rng.choice([0.03, 0.11])
        # points ahead of, beside and behind the camera, with depth intervals
        # that hold their depth or miss it
        positions = rng.uniform([-12, -9, -4], [12, 9, 25], (n_points, 3))
        z = positions[:, 2] * rng.uniform(0.5, 1.5, n_points)
        points = PointBatch(
            ids=rng.permutation(100)[:n_points],
            positions=positions,
            descriptors=near_copies(rng, base, n_points, rate),
            depth=DepthInterval(z * 0.8, z * 1.25),
        )
        frame = Keyframe(1, 0.0, Pose.identity(), rng.uniform(0, 640, (n_kp, 2)),
                         np.zeros(n_kp, dtype=np.int64),
                         near_copies(rng, base, n_kp, rate))
        pose = Pose(so3_exp(rng.normal(scale=0.05, size=3)), rng.normal(size=3))
        got = search_by_projection(frame, points, pose, policy, CAM, site=site)
        want = reference_search_by_projection(frame, points, pose, policy, CAM, site)
        assert_same_rows(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), policy=policies())
    def test_search_for_triangulation_returns_the_reference_matches(self, seed, policy):
        rng = np.random.default_rng(seed)
        (kf_a, kf_b), columns = triangulation_pair(rng, n_points=int(rng.integers(0, 60)))
        got = search_for_triangulation(kf_a, kf_b, *columns, policy, CAM)
        want = reference_search_for_triangulation(kf_a, kf_b, *columns, policy, CAM)
        assert_same_triangulation(got, want, kf_a, kf_b)


class TestMatchMemory:
    def test_corridor_size_match_peaks_under_4_mb(self):
        """A whole (queries, targets) distance block of this size takes 6 MB,
        its uint64 XOR temporary 12 MB; scored a block of rows at a time the
        call needs a fraction of either."""
        inputs = corridor_match_inputs()
        policy = make_policy()
        tracemalloc.start()
        try:
            got = match(policy=policy, site=Site.PROJECTION_LOCAL, **inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 900
        assert peak < 4_000_000


def triangulation_pair(rng, n_points):
    """Two keyframes on a lateral-and-forward baseline that see the same
    landmarks, in shuffled keypoint order, plus decoy keypoints that carry
    landmark signatures; and their owner columns, in which some keypoints of
    each are bound to points already."""
    n_decoys = n_points // 3
    landmarks = rng.uniform([-6, -4, 4], [6, 4, 30], (n_points, 3))
    signatures = rng.integers(0, 256, (n_points, 32), dtype=np.uint8)
    poses = [Pose.identity(),
             Pose(so3_exp(rng.normal(scale=0.02, size=3)),
                  np.array([rng.uniform(0.2, 1.5), rng.normal(scale=0.1),
                            rng.uniform(0.0, 1.0)]))]
    kfs, columns = [], []
    for k, pose in enumerate(poses):
        cam_pts = pose.inverse().apply(landmarks)
        uv = np.stack([CAM.fx * cam_pts[:, 0] / cam_pts[:, 2] + CAM.cx,
                       CAM.fy * cam_pts[:, 1] / cam_pts[:, 2] + CAM.cy], axis=1)
        uv += rng.normal(scale=0.5, size=uv.shape)
        descs = signatures ^ np.packbits(rng.random((n_points, 256)) < 0.02, axis=1)
        uv = np.concatenate([uv, rng.uniform(0, 480, (n_decoys, 2))])
        descs = np.concatenate(
            [descs, signatures[rng.integers(0, max(n_points, 1), n_decoys)]])
        order = rng.permutation(len(uv))
        octaves = rng.integers(0, 3, len(uv))
        kf = Keyframe(k + 1, 0.1 * k, pose, uv[order], octaves, descs[order])
        bound = rng.random(len(uv)) < 0.2
        column = np.full(len(uv), -1, dtype=np.int64)
        column[bound] = np.arange(np.count_nonzero(bound))
        kfs.append(kf)
        columns.append(column)
    return kfs, columns


def ray_pair_keyframes(keypoints_b, descriptors_b, descriptor_a):
    """Keyframe a at the origin with one keypoint at the image centre, and
    keyframe b one unit to its right with the given keypoints; all free."""
    a = Keyframe(1, 0.0, Pose.identity(), np.array([[CAM.cx, CAM.cy]]),
                 np.zeros(1, dtype=np.int64), descriptor_a)
    b = Keyframe(2, 0.1, Pose(np.eye(3), np.array([1.0, 0.0, 0.0])),
                 np.asarray(keypoints_b, dtype=np.float64),
                 np.zeros(len(keypoints_b), dtype=np.int64), descriptors_b)
    return a, b, np.full(1, -1), np.full(len(keypoints_b), -1)


class TestParallaxGate:
    def test_pair_below_min_parallax_is_never_accepted(self):
        """Keyframe a's one keypoint looks along the optical axis.  In b, the
        exact copy of its descriptor sits where a point 1,000 units deep
        projects (about 0.06 degrees of parallax), and a copy three bits
        away where a point 10 units deep projects (about 5.7 degrees).  Both
        lie on the epipolar line; the floor leaves only the second."""
        rng = np.random.default_rng(17)
        base = Descriptor.random(rng)
        near = descriptors_at_distances(rng, base, [3])[0]
        far_uv = CAM.cx - CAM.fx / 1000.0
        near_uv = CAM.cx - CAM.fx / 10.0
        kf_a, kf_b, *free = ray_pair_keyframes(
            [[far_uv, CAM.cy], [near_uv, CAM.cy]], pack_descriptors([base, near]),
            pack_descriptors([base]))
        for ordering in Ordering:
            policy = make_policy(ordering=ordering)
            pairs, positions = search_for_triangulation(kf_a, kf_b, *free, policy, CAM)
            assert pairs.tolist() == [[0, 1]]
            assert np.allclose(positions, [[0.0, 0.0, 10.0]])
            # without the parallax floor the exact copy would win
            with mock.patch.object(association, "MIN_PARALLAX", 0.0):
                pairs, _ = search_for_triangulation(kf_a, kf_b, *free, policy, CAM)
            assert pairs.tolist() == [[0, 0]]

    def test_floor_is_inclusive(self):
        """A pair whose parallax is exactly ``MIN_PARALLAX`` passes, and one
        the next float below it fails: the floor is set to the pair's own
        parallax, then one float above it."""
        rng = np.random.default_rng(24)
        base = Descriptor.random(rng)
        kf_a, kf_b, *free = ray_pair_keyframes(
            [[CAM.cx - CAM.fx / 20.0, CAM.cy]], pack_descriptors([base]),
            pack_descriptors([base]))
        rays = [unit_ray(kf.keypoints, CAM) @ kf.pose.rotation.T for kf in (kf_a, kf_b)]
        angle = parallax_angles(*rays)[0]
        for floor, accepted in ((angle, True), (np.nextafter(angle, np.inf), False)):
            with mock.patch.object(association, "MIN_PARALLAX", floor):
                pairs, _ = search_for_triangulation(kf_a, kf_b, *free, make_policy(), CAM)
            assert len(pairs) == accepted

    def test_accepted_pairs_clear_min_parallax(self):
        rng = np.random.default_rng(18)
        (kf_a, kf_b), columns = triangulation_pair(rng, n_points=60)
        pairs, _ = search_for_triangulation(kf_a, kf_b, *columns, make_policy(), CAM)
        assert len(pairs) > 0
        rays_a = unit_ray(kf_a.keypoints[pairs[:, 0]], CAM) @ kf_a.pose.rotation.T
        rays_b = unit_ray(kf_b.keypoints[pairs[:, 1]], CAM) @ kf_b.pose.rotation.T
        assert (parallax_angles(rays_a, rays_b) >= MIN_PARALLAX).all()
