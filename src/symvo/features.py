"""Binary descriptors, the image pyramid, and reference-point policies.

Descriptors are fixed-length bit vectors compared by Hamming distance,
kept packed, one (N, n_bytes) uint8 row per keypoint.  ``hamming_matrix``
scores every pair of two stacks, ``hamming_pairs`` only row-paired ones.
Both take any byte width, so a caller can score a prefix of the bytes
first: ``association.match`` runs ``hamming_matrix`` over 16-byte
prefixes, whose distance bounds the full one from below, and
``hamming_pairs`` over the other bytes of only the pairs that bound keeps.
``hamming_matrix`` returns int32 distances; a caller scoring block after
block hands it one set of buffers instead, and a 128-bit prefix distance
then adds up in uint8, which moves a quarter of the int32 bytes.  The
pyramid is fixed: ``PYRAMID_OCTAVES`` octaves, each ``PYRAMID_SCALE``
coarser than the last, so a keypoint's variance (``sigma2_at``) follows
from its octave alone; it and the per-octave scale are read from tables
of Python float powers, so neither depends on numpy's SIMD dispatch.  Map
points summarize their descriptor sets by a single reference descriptor,
chosen by a ``ReferenceRule`` from the point's current holders at every
read: by appearance (least median distance to the rest, whatever the
query) or by geometry (held by the keyframe closest to each query; the
map reads that one from its binding table).  The depth-invariance
interval bounds the query depths at which a point's appearance stays
within ``DELTA_L`` octaves of its reference observation, so it follows
from that one depth.

The appearance rule is a per-point rule over the keyframes that observe a
point; it takes a point's holders as one run of rows, the runs beginning
at ``starts``, so many points cost one call.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import DescriptorMismatchError

DESCRIPTOR_BITS = 256
_PAST_ANY_DISTANCE = 1 << 30  # pads distance tables past any real distance

# the image pyramid keypoints are detected on: per-octave scale, octave count
PYRAMID_SCALE = 1.2
PYRAMID_OCTAVES = 8
DELTA_L = 1  # octave shift a point's depth-invariance interval allows
# per-octave scale s^o and variance s^(2o), built with Python's float power:
# numpy's vectorized power rounds 1.2 ** 4.0 one ulp apart on its AVX-512
# loop, so computed per call they would depend on the host's SIMD dispatch
OCTAVE_SCALE = np.array([PYRAMID_SCALE ** o for o in range(PYRAMID_OCTAVES)])
_OCTAVE_SIGMA2 = np.array([PYRAMID_SCALE ** (2.0 * o) for o in range(PYRAMID_OCTAVES)])


class ReferenceRule(enum.Enum):
    """How a map point picks the one descriptor that represents it."""

    GEOMETRIC = "geometric"  # the holder keyframe nearest the query
    APPEARANCE = "appearance"  # least median distance to the other holders


def as_words(packed: np.ndarray) -> np.ndarray:
    """(N, n_bytes) uint8 stack as (N, ceil(n_bytes / 8)) uint64 words; a
    uint64 stack already is its words and comes back as it is.

    The byte width is zero-padded, which leaves every distance unchanged
    because 0 XOR 0 = 0.
    """
    if packed.dtype == np.uint64:
        return packed
    n, width = packed.shape
    words = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    words[:, :width] = packed
    return words.view(np.uint64)


def hamming_matrix(a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """All-pairs Hamming distances between two packed descriptor stacks.

    Returns an (Na, Nb) int32 matrix, accumulated one uint64 word at a
    time with a native popcount.  Either stack may come as its words
    (``as_words``), its width then counted in words; the words of ``b`` are
    read word-major, so a caller that scores many blocks against one ``b``
    packs it once, as the transpose of a C-contiguous (n_words, Nb) array,
    which is read without a copy.  A caller that scores many blocks of one
    shape can hand in the block's buffers: ``out``, an (Na, Nb) integer
    matrix that the distances add up in and that is returned, and
    ``scratch``, an (Na, Nb) uint64 matrix for each word's XOR and an
    (Na, Nb) uint8 one for its popcount.  ``out`` may be as narrow as the
    widest distance allows: a uint8 one holds up to 31 bytes (248 bits).
    """
    if a.shape[-1] != b.shape[-1]:
        raise DescriptorMismatchError("packed descriptor widths differ")
    if out is None:
        out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int32)
    elif np.iinfo(out.dtype).max < 8 * a.shape[-1] * a.itemsize:
        raise ValueError(f"{out.dtype} cannot hold a {8 * a.shape[-1] * a.itemsize}-bit "
                         "distance")
    else:
        out[...] = 0
    xor, count = (None, None) if scratch is None else scratch
    # word-major: each word of ``b`` is one contiguous row
    wa, wb = as_words(a).T, np.ascontiguousarray(as_words(b).T)
    for w in range(len(wa)):
        # one expression, so that a temporary XOR is freed before the next
        out += np.bitwise_count(np.bitwise_xor(wa[w, :, None], wb[w, None, :], out=xor),
                                out=count)
    return out


def hamming_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-paired Hamming distances: an (N,) int32 array of ``a[i]`` vs ``b[i]``.

    The per-pair form of ``hamming_matrix``, for callers that score only
    the pairs they admit.
    """
    if a.shape[-1] != b.shape[-1]:
        raise DescriptorMismatchError("packed descriptor widths differ")
    if a.shape[0] != b.shape[0]:
        raise ValueError("row-paired stacks need equal row counts")
    return np.bitwise_count(as_words(a) ^ as_words(b)).sum(axis=1, dtype=np.int32)


def sigma2_at(octave) -> np.ndarray:
    """Keypoint variance at integer octaves in [0, ``PYRAMID_OCTAVES``),
    read from the per-octave table; 1 px^2 at octave 0."""
    return _OCTAVE_SIGMA2[np.asarray(octave)]


def octave_for_depth(z, z_far: float) -> np.ndarray:
    """Detection octave implied by depth: closer points sit higher."""
    z = np.asarray(z, dtype=np.float64)
    raw = np.log(z_far / z) / math.log(PYRAMID_SCALE)
    return np.clip(np.rint(raw), 0, PYRAMID_OCTAVES - 1).astype(np.int64)


class DepthInterval(NamedTuple):
    """Closed depth intervals, one per point; z_min > z_max is empty."""

    z_min: np.ndarray
    z_max: np.ndarray

    def contains(self, z) -> np.ndarray:
        return (self.z_min <= z) & (z <= self.z_max)


def _group_starts(n_rows: int, starts) -> np.ndarray:
    """``starts`` as an index array, checked to split ``n_rows`` rows into
    non-empty consecutive groups."""
    starts = np.asarray(starts, dtype=np.intp)
    bounds = np.append(starts, n_rows)
    if bounds[0] != 0 or np.any(np.diff(bounds) <= 0):
        raise ValueError("groups must be non-empty consecutive runs of rows")
    return starts


def select_reference_appearance_index(packed: np.ndarray, starts) -> np.ndarray:
    """Per group of rows of an (n, n_bytes) packed stack, the row with least
    median distance to the group's other rows.

    A group is a run of rows beginning at one of ``starts``.  Ties break to
    the lowest row; a singleton wins by definition.  One popcount gives the
    distances of every row to every member of its group.
    """
    n = len(packed)
    starts = _group_starts(n, starts)
    sizes = np.diff(starts, append=n)
    size, first = np.repeat(sizes, sizes), np.repeat(starts, sizes)  # per row
    width = int(sizes.max(initial=1))
    member = np.arange(width + 1)  # a spare column: a singleton's second median
    words = as_words(packed)
    mates = words[np.minimum(first[:, None] + member, n - 1)]
    dist = np.bitwise_count(words[:, None, :] ^ mates)
    dist = np.where(member < size[:, None], dist.sum(axis=-1, dtype=np.int64),
                    _PAST_ANY_DISTANCE)
    dist.sort(axis=1)
    # each sorted row starts with the zero self-distance, so the median of
    # the other size - 1 distances is the mean of these two columns; their
    # integer sum ranks rows exactly, and the row offset breaks ties low
    every = np.arange(n)
    score = dist[every, size // 2] + dist[every, (size + 1) // 2]
    best = np.minimum.reduceat(score * width + (every - first), starts)
    return starts + best % width


def depth_invariance_interval(depths) -> DepthInterval:
    """Per observed depth z, the depth range over which appearance stays
    within ``DELTA_L`` octaves: [z * s^(-DELTA_L-0.5), z * s^(DELTA_L+0.5)],
    s = ``PYRAMID_SCALE``.  A depth that is not positive gives the empty
    (1, 0): a point behind its reference camera is never matched.
    """
    depths = np.asarray(depths, dtype=np.float64)
    s = PYRAMID_SCALE
    behind = depths <= 0
    return DepthInterval(np.where(behind, 1.0, depths * s ** (-DELTA_L - 0.5)),
                         np.where(behind, 0.0, depths * s ** (DELTA_L + 0.5)))
