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
    Ordering,
    PointBatch,
    Site,
    fundamental_from_relative,
    fuse,
    gate_mask,
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
from symvo.geometry import CameraIntrinsics, Pose, so3_exp
from symvo.worldmap import Keyframe, WorldMap

from oracles import (
    Descriptor,
    corridor_match_inputs,
    hamming,
    pack_descriptors,
    project,
    reference_epipolar_distances,
    reference_match,
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


class TestGatePredicate:
    def test_same_predicate_at_every_site_in_symmetric_mode(self):
        policy = make_policy(constraint_mode=ConstraintMode.SYMMETRIC)
        T = DESCRIPTOR_THRESHOLD
        cases = [  # (hamming, depth_ok, parallax)
            (T - 20, None, None),
            (T, None, None),
            (T + 1, None, None),
            (T + 20, None, None),
            (T - 20, None, MIN_PARALLAX / 2),
            (T - 20, None, MIN_PARALLAX),
            (T - 20, None, 3 * MIN_PARALLAX),
            (T - 20, False, None),
            (T - 20, True, None),
        ]
        for hamming, depth_ok, parallax in cases:
            verdicts = {
                bool(gate_mask(hamming, policy, site, depth_ok=depth_ok,
                               parallax=parallax))
                for site in Site
            }
            assert len(verdicts) == 1

    def test_heterogeneous_mode_varies_by_site(self):
        policy = make_policy(constraint_mode=ConstraintMode.HETEROGENEOUS)
        # between the local-map (14) and the motion-model (22) thresholds
        assert gate_mask(18, policy, Site.PROJECTION_TRACK)
        assert not gate_mask(18, policy, Site.PROJECTION_LOCAL)

    @pytest.mark.parametrize("mode", list(ConstraintMode))
    def test_thresholds_are_inclusive(self, mode):
        """A pair at exactly a site's descriptor threshold passes and one bit
        more fails; a parallax of exactly ``MIN_PARALLAX`` passes and the
        next float below fails."""
        policy = make_policy(constraint_mode=mode)
        below = np.nextafter(MIN_PARALLAX, 0.0)
        for site in Site:
            T = (DESCRIPTOR_THRESHOLD if mode is ConstraintMode.SYMMETRIC
                 else HETEROGENEOUS_THRESHOLDS[site])
            assert policy.threshold_for(site) == T
            assert gate_mask([T, T + 1], policy, site).tolist() == [True, False]
            assert gate_mask(0, policy, site,
                             parallax=[MIN_PARALLAX, below]).tolist() == [True, False]

        # through ``match``: targets at T and T + 1 bits, each on both paths
        rng = np.random.default_rng(21)
        base = Descriptor.random(rng)
        q = pack_descriptors([base])
        for site in Site:
            T = policy.threshold_for(site)
            t = pack_descriptors(descriptors_at_distances(rng, base, [T + 1]) +
                                 descriptors_at_distances(rng, base, [T]))
            assert hamming_pairs(np.concatenate([q, q]), t).tolist() == [T + 1, T]
            assert match([0], q, [5, 6], t, policy, site).tolist() == [[0, 6]]
            pairs = (np.array([0, 0]), np.array([0, 1]))
            got = match([0], q, [5, 6], t, policy, site, pairs=pairs,
                        parallax=np.array([MIN_PARALLAX, MIN_PARALLAX]))
            assert got.tolist() == [[0, 6]]
            # the admissible target with too little parallax is refused
            got = match([0], q, [5, 6], t, policy, site, pairs=pairs,
                        parallax=np.array([MIN_PARALLAX, below]))
            assert got.shape == (0, 2)

    def test_depth_filter_toggle(self):
        on = make_policy(use_depth_filter=True)
        off = make_policy(use_depth_filter=False)
        assert not gate_mask(10, on, Site.FUSE, depth_ok=False)
        assert gate_mask(10, off, Site.FUSE, depth_ok=False)

    @pytest.mark.parametrize("mode", list(ConstraintMode))
    def test_every_accepted_match_passes_the_predicate(self, mode):
        rng = np.random.default_rng(5)
        n_accepted = dict.fromkeys(Site, 0)
        for trial in range(40):
            n_q, n_t = rng.integers(3, 12), rng.integers(3, 12)
            base = Descriptor.random(rng)
            # pair distances ~ 15 bits: around the heterogeneous thresholds
            q = pack_descriptors([base.flipped(rng, 0.03) for _ in range(n_q)])
            t = pack_descriptors([base.flipped(rng, 0.03) for _ in range(n_t)])
            policy = make_policy(
                use_depth_filter=bool(trial % 2), constraint_mode=mode,
            )
            pairs = np.nonzero(np.ones((n_q, n_t), dtype=bool))
            parallax = rng.uniform(0.0, 3 * MIN_PARALLAX, pairs[0].size)
            depth_ok = rng.random(n_q) < 0.7
            for site in Site:
                got = match(range(n_q), q, range(n_t), t, policy, site,
                            pairs=pairs, parallax=parallax, depth_ok=depth_ok)
                # ids are rows here, and the pairs are every (q, t) row-major
                qr, tr = got.T
                assert gate_mask(hamming_pairs(q[qr], t[tr]), policy, site,
                                 depth_ok=depth_ok[qr],
                                 parallax=parallax[n_t * qr + tr]).all()
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
    """``match`` on ``inst`` with the dense pair mask and parallax given per
    pair; ``order`` permutes queries and targets first."""
    n_q, n_t = inst["query_ids"].size, inst["target_ids"].size
    pq, pt = order if order is not None else (np.arange(n_q), np.arange(n_t))
    mask, parallax = inst["pair_mask"], inst["parallax"]
    pairs = None
    if mask is not None or parallax is not None:
        full = np.ones((n_q, n_t), dtype=bool) if mask is None else mask
        pairs = np.nonzero(full[pq][:, pt])
    return match(
        inst["query_ids"][pq], inst["query_descriptors"][pq],
        inst["target_ids"][pt], inst["target_descriptors"][pt], policy, site,
        pairs=pairs,
        query_mask=None if inst["query_mask"] is None else inst["query_mask"][pq],
        parallax=None if parallax is None else parallax[pq][:, pt][pairs],
        depth_ok=None if inst["depth_ok"] is None else inst["depth_ok"][pq],
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
            got = match(policy=policy, site=site, **inst)
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
        with mock.patch.object(association, "match", reference_match):
            want = search_by_projection(frame, points, pose, policy, CAM, site=site)
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


class TestParallaxGate:
    def test_pair_below_min_parallax_is_never_accepted(self):
        # target 0 is the exact copy but seen at 0.5 degrees of parallax;
        # target 1 is three bits away at 2 degrees
        rng = np.random.default_rng(17)
        base = Descriptor.random(rng)
        near = descriptors_at_distances(rng, base, [3])[0]
        q, t = pack_descriptors([base]), pack_descriptors([base, near])
        pairs = (np.array([0, 0]), np.array([0, 1]))
        parallax = np.radians([0.5, 2.0])
        for ordering in Ordering:
            policy = make_policy(ordering=ordering)
            got = match([4], q, [7, 8], t, policy, Site.TRIANGULATION,
                        pairs=pairs, parallax=parallax)
            assert got.tolist() == [[4, 8]]
            # the accepted pair is target row 1: three bits away, 2 degrees
            assert hamming_pairs(q, t[[1]]).tolist() == [3]
            assert parallax[1] >= MIN_PARALLAX
            # without the parallax clause the exact copy would win
            got = match([4], q, [7, 8], t, policy, Site.TRIANGULATION, pairs=pairs)
            assert got.tolist() == [[4, 7]]
            assert hamming_pairs(q, t[[0]]).tolist() == [0]

    def test_accepted_pairs_clear_min_parallax(self):
        rng = np.random.default_rng(18)
        base = rng.integers(0, 256, 32, dtype=np.uint8)
        q, t = near_copies(rng, base, 30, 0.03), near_copies(rng, base, 30, 0.03)
        pairs = np.nonzero(np.ones((30, 30), dtype=bool))
        parallax = rng.uniform(0.0, 2 * MIN_PARALLAX, pairs[0].size)
        got = match(range(30), q, range(30), t, make_policy(), Site.TRIANGULATION,
                    pairs=pairs, parallax=parallax)
        assert len(got) > 0
        # ids are rows here: each accepted pair's own parallax, looked up
        # in the row-major pair list
        qr, tr = got.T
        assert (parallax[30 * qr + tr] >= MIN_PARALLAX).all()

    def test_parallax_needs_pairs(self):
        q = np.zeros((2, 32), dtype=np.uint8)
        with pytest.raises(ValueError):
            match(range(2), q, range(2), q, make_policy(), Site.TRIANGULATION,
                  parallax=np.zeros((2, 2)))
