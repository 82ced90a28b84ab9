import statistics

import numpy as np
import pytest

from symvo.errors import DescriptorMismatchError
from symvo.features import (
    DELTA_L,
    PYRAMID_SCALE,
    DepthInterval,
    depth_invariance_interval,
    hamming_matrix,
    hamming_pairs,
    octave_for_depth,
    select_reference_appearance_index,
    sigma2_at,
)

from oracles import Descriptor, hamming, pack_descriptors


def descriptor_with_distance(base: Descriptor, dist: int) -> Descriptor:
    """Flip exactly `dist` leading bits of `base`."""
    arr = bytearray(base.bits)
    for bit in range(dist):
        arr[bit // 8] ^= 0x80 >> (bit % 8)
    return Descriptor(bytes(arr))


class TestHamming:
    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        left = [Descriptor.random(rng) for _ in range(7)]
        right = [Descriptor.random(rng) for _ in range(9)]
        mat = hamming_matrix(pack_descriptors(left), pack_descriptors(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                assert mat[i, j] == hamming(a, b)


def scalar_hamming_matrix(left, right):
    return np.array([[hamming(a, b) for b in right] for a in left],
                    dtype=np.int64).reshape(len(left), len(right))


class TestHammingMatrixOracle:
    """``hamming_matrix`` against the scalar ``hamming``."""

    @pytest.mark.parametrize("n_bytes", [1, 7, 8, 9, 32, 33])
    def test_every_width(self, n_bytes):
        rng = np.random.default_rng(100 + n_bytes)
        left = [Descriptor.random(rng, 8 * n_bytes) for _ in range(11)]
        right = [Descriptor.random(rng, 8 * n_bytes) for _ in range(6)]
        left.append(Descriptor(bytes(b ^ 0xFF for b in right[0].bits)))
        mat = hamming_matrix(pack_descriptors(left), pack_descriptors(right))
        assert mat.dtype == np.int32
        assert np.array_equal(mat, scalar_hamming_matrix(left, right))
        assert mat[-1, 0] == 8 * n_bytes

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_inputs(self, shape):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 256, (shape[0], 32), dtype=np.uint8)
        b = rng.integers(0, 256, (shape[1], 32), dtype=np.uint8)
        mat = hamming_matrix(a, b)
        assert mat.shape == shape
        assert mat.dtype == np.int32

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(13)
        descs = [Descriptor.random(rng) for _ in range(14)]
        packed = pack_descriptors(descs)
        assert not packed[::2].flags.c_contiguous
        mat = hamming_matrix(packed[::2], packed[1::3])
        assert np.array_equal(mat, scalar_hamming_matrix(descs[::2], descs[1::3]))
        cols = np.asfortranarray(packed)
        assert np.array_equal(hamming_matrix(cols, cols),
                              scalar_hamming_matrix(descs, descs))

    @pytest.mark.parametrize("widths", [(32, 33), (8, 7), (1, 9)])
    def test_width_mismatch_raises(self, widths):
        a = np.zeros((3, widths[0]), dtype=np.uint8)
        b = np.zeros((2, widths[1]), dtype=np.uint8)
        with pytest.raises(DescriptorMismatchError):
            hamming_matrix(a, b)
        with pytest.raises(DescriptorMismatchError):
            hamming_matrix(a[:0], b)


class TestHammingPairsOracle:
    """``hamming_pairs`` against the scalar ``hamming``, row by row."""

    @pytest.mark.parametrize("n_bytes", [1, 7, 8, 9, 32, 33])
    def test_every_width(self, n_bytes):
        rng = np.random.default_rng(200 + n_bytes)
        left = [Descriptor.random(rng, 8 * n_bytes) for _ in range(11)]
        right = [Descriptor.random(rng, 8 * n_bytes) for _ in range(10)]
        right.append(Descriptor(bytes(b ^ 0xFF for b in left[-1].bits)))
        got = hamming_pairs(pack_descriptors(left), pack_descriptors(right))
        assert got.dtype == np.int32 and got.shape == (11,)
        assert got.tolist() == [hamming(a, b) for a, b in zip(left, right)]
        assert got[-1] == 8 * n_bytes

    def test_agrees_with_the_matrix_on_gathered_pairs(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 256, (40, 32), dtype=np.uint8)
        b = rng.integers(0, 256, (30, 32), dtype=np.uint8)
        qi, ti = np.nonzero(rng.random((40, 30)) < 0.2)
        assert np.array_equal(hamming_pairs(a[qi], b[ti]),
                              hamming_matrix(a, b)[qi, ti])

    def test_empty_input(self):
        got = hamming_pairs(np.zeros((0, 32), np.uint8), np.zeros((0, 32), np.uint8))
        assert got.shape == (0,) and got.dtype == np.int32

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(15)
        descs = [Descriptor.random(rng) for _ in range(14)]
        packed = pack_descriptors(descs)
        assert not packed[::2].flags.c_contiguous
        got = hamming_pairs(packed[::2], packed[1::2])
        assert got.tolist() == [hamming(a, b) for a, b in zip(descs[::2], descs[1::2])]
        cols = np.asfortranarray(packed)
        assert not cols.flags.c_contiguous
        assert hamming_pairs(cols, cols[::-1]).tolist() == \
            [hamming(a, b) for a, b in zip(descs, descs[::-1])]

    @pytest.mark.parametrize("widths", [(32, 33), (8, 7), (1, 9)])
    def test_width_mismatch_raises(self, widths):
        a = np.zeros((3, widths[0]), dtype=np.uint8)
        b = np.zeros((3, widths[1]), dtype=np.uint8)
        with pytest.raises(DescriptorMismatchError):
            hamming_pairs(a, b)
        with pytest.raises(DescriptorMismatchError):
            hamming_pairs(a[:0], b[:0])

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming_pairs(np.zeros((3, 32), np.uint8), np.zeros((2, 32), np.uint8))


def appearance_index_loop(descriptors):
    """The per-row ``statistics.median`` rule, first minimum wins."""
    best_idx, best_med = 0, None
    for i, d in enumerate(descriptors):
        med = statistics.median(
            hamming(d, o) for j, o in enumerate(descriptors) if j != i
        )
        if best_med is None or med < best_med:
            best_idx, best_med = i, med
    return best_idx


def appearance_index(descriptors) -> int:
    """The appearance rule on one group."""
    (row,) = select_reference_appearance_index(pack_descriptors(descriptors), [0])
    return int(row)


def interval(depth):
    """The depth-invariance interval of one depth, as two floats."""
    iv = depth_invariance_interval([depth])
    return DepthInterval(float(iv.z_min[0]), float(iv.z_max[0]))


class TestReferenceAppearance:
    def test_singleton(self):
        d = Descriptor.random(np.random.default_rng(4))
        assert appearance_index([d]) == 0

    def test_duplicated_descriptor_wins(self):
        rng = np.random.default_rng(5)
        twin = Descriptor.random(rng)
        pool = [
            Descriptor.random(rng),
            twin,
            Descriptor(twin.bits),
            Descriptor.random(rng),
            Descriptor(twin.bits),
        ]
        # brute-force all-pairs median oracle
        best, best_med = None, None
        for i, d in enumerate(pool):
            med = statistics.median(
                hamming(d, o) for j, o in enumerate(pool) if j != i
            )
            if best_med is None or med < best_med:
                best, best_med = i, med
        assert appearance_index(pool) == best
        # two zero-distances among four beat the unduplicated outsiders
        assert best == 1

    def test_hand_enumerated_tie_break(self):
        base = Descriptor(bytes(32))
        d1 = base
        d2 = descriptor_with_distance(base, 2)
        # 10 flips chosen disjoint from d2's two leading flips
        arr = bytearray(base.bits)
        for bit in range(16, 26):
            arr[bit // 8] ^= 0x80 >> (bit % 8)
        d3 = Descriptor(bytes(arr))
        assert hamming(d1, d2) == 2
        assert hamming(d1, d3) == 10
        assert hamming(d2, d3) == 12
        # medians: d1 -> 6, d2 -> 7, d3 -> 11; d1 wins outright here, so
        # also check the pure tie case with two copies of the same set
        assert appearance_index([d1, d2, d3]) == 0
        assert appearance_index([d1, Descriptor(d1.bits)]) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            appearance_index([])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17])
    def test_matches_median_loop(self, n):
        rng = np.random.default_rng(200 + n)
        for trial in range(30):
            # few bits and repeated members force equal medians
            n_bits = 8 if trial % 2 else 16
            pool = [Descriptor.random(rng, n_bits) for _ in range(n)]
            if trial % 3 == 0:
                pool[-1] = Descriptor(pool[0].bits)
            assert appearance_index(pool) == \
                appearance_index_loop(pool)

    def test_tie_goes_to_lowest_index(self):
        rng = np.random.default_rng(14)
        d = Descriptor.random(rng)
        pool = [d, Descriptor(d.bits), descriptor_with_distance(d, 3),
                Descriptor(d.bits)]
        # three holders share median 0; the first one wins
        assert appearance_index_loop(pool) == 0
        assert appearance_index(pool) == 0
        assert appearance_index(pool[2:]) == 0

    def test_permutation_invariant_up_to_tie_break(self):
        rng = np.random.default_rng(6)
        pool = [Descriptor.random(rng) for _ in range(9)]
        ref = pool[appearance_index(pool)]
        for _ in range(10):
            perm = list(rng.permutation(len(pool)))
            shuffled = [pool[i] for i in perm]
            got = appearance_index(shuffled)
            assert shuffled[got].bits == ref.bits

    def test_groups_in_one_call_match_the_loop_per_group(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            sizes = rng.integers(1, 8, size=rng.integers(1, 6))
            groups = [[Descriptor.random(rng, 16) for _ in range(m)] for m in sizes]
            for group in groups[::2]:
                group[-1] = Descriptor(group[0].bits)  # ties among equal medians
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            got = select_reference_appearance_index(
                pack_descriptors([d for g in groups for d in g]), starts)
            # a singleton wins by definition; the loop needs two members
            assert (got - starts).tolist() == \
                [appearance_index_loop(g) if len(g) > 1 else 0 for g in groups]

    @pytest.mark.parametrize("starts", [[1], [0, 0], [0, 5], []])
    def test_groups_must_be_nonempty_runs(self, starts):
        rng = np.random.default_rng(8)
        packed = pack_descriptors([Descriptor.random(rng) for _ in range(4)])
        with pytest.raises(ValueError):
            select_reference_appearance_index(packed, starts)


class TestDepthInterval:
    def test_single_observation_delta_one(self):
        iv = interval(2.0)
        assert iv.z_min == pytest.approx(2.0 * 1.2**-1.5, abs=1e-9)
        assert iv.z_max == pytest.approx(2.0 * 1.2**1.5, abs=1e-9)
        assert iv.z_min == pytest.approx(1.5214, abs=1e-3)
        assert iv.z_max == pytest.approx(2.6290, abs=1e-3)

    def test_band_scales_with_the_depth(self):
        rng = np.random.default_rng(11)
        for z in rng.uniform(1.0, 30.0, size=20):
            iv, unit = interval(z), interval(1.0)
            assert iv.z_min == pytest.approx(z * unit.z_min, rel=1e-12)
            assert iv.z_max == pytest.approx(z * unit.z_max, rel=1e-12)
            assert iv.z_max / iv.z_min == pytest.approx(PYRAMID_SCALE ** (2 * DELTA_L + 1))

    def test_nonpositive_depth_gives_the_empty_interval(self):
        # a point behind its reference camera is never matched
        assert interval(-1.0) == (1.0, 0.0)
        assert interval(0.0) == (1.0, 0.0)

    def test_each_depth_gets_its_own_band(self):
        rng = np.random.default_rng(13)
        depths = rng.uniform(1.0, 30.0, size=30)
        depths[rng.integers(0, depths.size, 3)] *= -1
        got = depth_invariance_interval(depths)
        assert list(zip(got.z_min.tolist(), got.z_max.tolist())) == \
            [interval(z) for z in depths]
        empty = depth_invariance_interval(np.zeros(0))
        assert empty.z_min.shape == empty.z_max.shape == (0,)


class TestDepthFilter:
    def test_example_interval_membership(self):
        iv = interval(2.0)
        assert iv.contains(2.0)

    def test_empty_interval_rejects_everything(self):
        iv = DepthInterval(np.array([4.0]), np.array([2.0]))
        for z in (0.5, 2.0, 3.0, 4.0, 100.0):
            assert not iv.contains(z).any()

    def test_boundary_is_closed(self):
        iv = interval(2.0)
        assert iv.contains(iv.z_min)
        assert iv.contains(iv.z_max)

    def test_elementwise_over_points(self):
        iv = DepthInterval(np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.5, 3.0]))
        assert iv.contains(np.array([2.0, 3.0, 3.5])).tolist() == [True, False, False]

    def test_octave_simulation_oracle(self):
        # a query depth passes iff its implied octave shift relative to the
        # reference observation is at most DELTA_L
        rng = np.random.default_rng(12)
        s = PYRAMID_SCALE
        for depth in rng.uniform(1.5, 20.0, size=50):
            iv = interval(depth)
            for z_q in np.geomspace(0.5, 50.0, 100):
                shift = np.log(depth / z_q) / np.log(s)
                assert iv.contains(z_q) == (abs(np.rint(shift)) <= DELTA_L)


class TestPyramid:
    def test_sigma_grows_with_octave(self):
        s2 = sigma2_at(np.arange(8))
        assert np.all(np.diff(s2) > 0)
        assert s2[0] == pytest.approx(1.0)
        assert s2[3] == pytest.approx(1.2**6)

    def test_octave_for_depth_monotone(self):
        z = np.geomspace(1.0, 60.0, 50)
        octs = octave_for_depth(z, z_far=60.0)
        assert np.all(np.diff(octs) <= 0)
        assert octs[-1] == 0
