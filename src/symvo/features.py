"""Binary descriptors, pyramid bookkeeping, and reference-point policies.

Descriptors are fixed-length bit vectors compared by Hamming distance;
the program keeps them packed, one (N, n_bytes) uint8 row per keypoint,
and ``Descriptor``/``hamming`` are the scalar reference forms.  Map points
summarize their descriptor sets by a single reference descriptor chosen
either by appearance (least median distance to the rest) or by geometry
(held by the keyframe closest to the query).  The depth-invariance
interval bounds the query depths at which a point's appearance stays
within a given octave shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DescriptorMismatchError, InvalidDepthError

DESCRIPTOR_BITS = 256


@dataclass(frozen=True)
class Descriptor:
    """A packed binary descriptor (8 bits per byte, MSB first)."""

    bits: bytes

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("descriptor must not be empty")

    @property
    def n_bits(self) -> int:
        return 8 * len(self.bits)

    @classmethod
    def random(cls, rng: np.random.Generator, n_bits: int = DESCRIPTOR_BITS) -> "Descriptor":
        if n_bits % 8 != 0:
            raise ValueError("n_bits must be a multiple of 8")
        return cls(rng.integers(0, 256, n_bits // 8, dtype=np.uint8).tobytes())

    def flipped(self, rng: np.random.Generator, rate: float) -> "Descriptor":
        """Copy with each bit independently flipped with probability rate."""
        if rate <= 0:
            return self
        arr = np.frombuffer(self.bits, dtype=np.uint8)
        flips = rng.random(self.n_bits) < rate
        mask = np.packbits(flips)
        return Descriptor(np.bitwise_xor(arr, mask).tobytes())

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.bits, dtype=np.uint8)


def hamming(a: Descriptor, b: Descriptor) -> int:
    """Number of differing bits between two equal-length descriptors."""
    if len(a.bits) != len(b.bits):
        raise DescriptorMismatchError(
            f"descriptor lengths differ: {a.n_bits} vs {b.n_bits} bits"
        )
    return (int.from_bytes(a.bits, "big") ^ int.from_bytes(b.bits, "big")).bit_count()


def pack_descriptors(descriptors) -> np.ndarray:
    """Stack descriptors into a (N, n_bytes) uint8 matrix."""
    if len(descriptors) == 0:
        return np.zeros((0, DESCRIPTOR_BITS // 8), dtype=np.uint8)
    return np.stack([d.as_array() for d in descriptors])


def _as_words(packed: np.ndarray) -> np.ndarray:
    """(N, n_bytes) uint8 stack as (N, ceil(n_bytes / 8)) uint64 words.

    The byte width is zero-padded, which leaves every distance unchanged
    because 0 XOR 0 = 0.
    """
    n, width = packed.shape
    words = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    words[:, :width] = packed
    return words.view(np.uint64)


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between two packed descriptor stacks.

    Returns an (Na, Nb) int32 matrix, accumulated one uint64 word at a
    time with a native popcount.
    """
    if a.shape[-1] != b.shape[-1]:
        raise DescriptorMismatchError("packed descriptor widths differ")
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.int32)
    wa, wb = _as_words(a), _as_words(b)
    dist = np.zeros((wa.shape[0], wb.shape[0]), dtype=np.int32)
    for w in range(wa.shape[1]):
        dist += np.bitwise_count(wa[:, w, None] ^ wb[None, :, w])
    return dist


@dataclass(frozen=True)
class PyramidConfig:
    """Image-pyramid geometry: per-octave scale and octave count."""

    scale: float = 1.2
    n_octaves: int = 8

    def __post_init__(self):
        if self.scale <= 1.0:
            raise ValueError("pyramid scale must be greater than 1")
        if self.n_octaves < 1:
            raise ValueError("pyramid needs at least one octave")

    def sigma2_at(self, octave) -> np.ndarray:
        """Keypoint variance at a given octave (vectorized); 1 px^2 at octave 0."""
        return self.scale ** (2.0 * np.asarray(octave))

    def octave_for_depth(self, z, z_far: float) -> np.ndarray:
        """Detection octave implied by depth: closer points sit higher."""
        z = np.asarray(z, dtype=np.float64)
        raw = np.log(z_far / z) / math.log(self.scale)
        return np.clip(np.rint(raw), 0, self.n_octaves - 1).astype(np.int64)


@dataclass(frozen=True)
class DepthInterval:
    """Closed depth interval; empty (z_min > z_max) is a valid state."""

    z_min: float
    z_max: float

    @property
    def is_empty(self) -> bool:
        return self.z_min > self.z_max

    def contains(self, z: float) -> bool:
        return self.z_min <= z <= self.z_max


def select_reference_appearance_index(packed: np.ndarray) -> int:
    """Row of an (n, n_bytes) packed stack with least median distance to the others.

    Ties break to the lowest index.  A singleton wins by definition.
    """
    n = len(packed)
    if n == 0:
        raise ValueError("cannot select a reference from an empty set")
    if n == 1:
        return 0
    # each sorted row starts with the zero self-distance, so the median of
    # the other n - 1 distances is the mean of these two columns; their
    # integer sum ranks rows exactly, and argmin keeps the first minimum
    rows = np.sort(hamming_matrix(packed, packed), axis=1)
    return int(np.argmin(rows[:, n // 2] + rows[:, (n + 1) // 2]))


def select_reference_geometric_index(holders, query_translation) -> int:
    """Index of the holder whose keyframe translation is nearest the query.

    ``holders`` is a sequence of (keyframe_id, translation) pairs;
    ties break to the lowest keyframe id.
    """
    if len(holders) == 0:
        raise ValueError("cannot select a reference from an empty holder list")
    q = np.asarray(query_translation, dtype=np.float64)
    best_idx, best_key = 0, None
    for idx, holder in enumerate(holders):
        d = holder[1] - q
        key = (float(d @ d), holder[0])
        if best_key is None or key < best_key:
            best_idx, best_key = idx, key
    return best_idx


def depth_invariance_interval(observed_depths, pyramid: PyramidConfig,
                              delta_l: int) -> DepthInterval:
    """Depth range over which appearance stays within delta_l octaves.

    Intersects per-observation bands [z_k * s^(-dl-0.5), z_k * s^(dl+0.5)];
    the result may be empty when observations disagree.
    """
    depths = np.asarray(list(observed_depths), dtype=np.float64)
    if depths.size == 0:
        raise ValueError("depth interval needs at least one observation")
    if np.any(depths <= 0):
        raise InvalidDepthError("observed depths must be positive")
    if delta_l < 0:
        raise ValueError("delta_l must be non-negative")
    s = pyramid.scale
    lo = float(np.max(depths * s ** (-delta_l - 0.5)))
    hi = float(np.min(depths * s ** (delta_l + 0.5)))
    return DepthInterval(lo, hi)

