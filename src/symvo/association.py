"""Data association between keypoints, keyframes, and map points.

Two axes are selectable independently:

- ordering: ``HAMMING_ORDERED`` accepts the admissible pairs globally by
  ascending descriptor distance, which makes the result independent of
  input ordering.  ``SEQUENTIAL`` walks the queries in the order given and
  greedily grabs the best remaining target, which is order-sensitive by
  design (the bias witness).
- constraint mode: ``SYMMETRIC`` applies the one shared descriptor
  threshold ``DESCRIPTOR_THRESHOLD`` and one shared gate set at every call
  site; ``HETEROGENEOUS`` applies the fixed per-site table
  ``HETEROGENEOUS_THRESHOLDS``, mimicking pipelines whose matching stages
  were tuned independently.

Every site filters its pairs through ``gate_mask``, the one gate predicate
(descriptor threshold, depth filter, and the ``MIN_PARALLAX`` floor).
``AssociationPolicy`` carries only the three toggles a run varies; both
thresholds are module constants.  Call sites add only
geometric admissibility of their own: image bounds and positive depth for
projection searches, the epipolar band for triangulation.
``triangulate_rays`` is the one midpoint triangulation, used here for new
points and by the pipeline's two-view initialization.

``match`` scores only pairs that can still pass the gates.  A query that
the site's mask or the depth filter drops gets no descriptor distance at
all.  The projection searches, fuse and the two-view initialization admit
every target of a live query.  Their live rows are scored in blocks of
``BLOCK_PAIRS`` pairs: ``hamming_matrix`` over the first ``PREFIX_BYTES``
bytes, whose distance bounds the full one from below, then
``hamming_pairs`` over the remaining bytes of the pairs that the prefix
keeps within the site threshold.  Triangulation hands over the
epipolar-band pairs as index arrays, with one parallax per pair, and they
are scored by ``hamming_pairs``.  Either way the scored pairs become flat
(query row, target row, distance[, parallax]) arrays that one
``gate_mask`` call filters.  One acceptance walk then takes the
gated pairs in a sort order that ``Ordering`` picks and accepts each pair
whose query and target are both still free.

Every search returns its matches as an (n, 2) int64 array of id rows,
with an empty result of shape (0, 2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DescriptorMismatchError
from .features import DepthInterval, hamming_matrix, hamming_pairs
from .geometry import CameraIntrinsics, Pose, parallax_angles, pinhole, unit_ray


class Ordering(enum.Enum):
    SEQUENTIAL = "sequential"
    HAMMING_ORDERED = "hamming_ordered"


class ConstraintMode(enum.Enum):
    HETEROGENEOUS = "heterogeneous"
    SYMMETRIC = "symmetric"


class Site(enum.Enum):
    """The four association call sites of the tracking/mapping loop."""

    PROJECTION_TRACK = "projection_track"      # c1: motion-model tracking
    PROJECTION_LOCAL = "projection_local"      # c2: local-map tracking
    TRIANGULATION = "triangulation"            # c3: new-point creation
    FUSE = "fuse"                              # c4: duplicate merging


# Descriptor threshold of the symmetric mode, shared by every site, and the
# least parallax a triangulated pair needs
DESCRIPTOR_THRESHOLD = 50
MIN_PARALLAX = math.radians(1.0)

# Descriptor thresholds of the heterogeneous mode: each stage tuned on its
# own, as in ORB-SLAM2 (Mur-Artal & Tardos, IEEE T-RO 2017).
HETEROGENEOUS_THRESHOLDS = {
    Site.PROJECTION_TRACK: 22,
    Site.PROJECTION_LOCAL: 14,
    Site.TRIANGULATION: 16,
    Site.FUSE: 12,
}

# Half-width of the triangulation epipolar band, in keypoint deviations
EPIPOLAR_SIGMA_FACTOR = 2.0

# Descriptor bytes of the first scoring stage.  A pair's distance over a
# prefix bounds its full distance from below (the substring bound of
# multi-index hashing; Norouzi, Punjani & Fleet, CVPR 2012).  16 bytes are
# two uint64 words, and the 128-bit prefixes of unrelated descriptors sit
# 64 +- 5.7 bits apart, so about 1% of them pass a threshold of 50 into
# the second stage.
PREFIX_BYTES = 16
# Pairs scored per block of query rows.  While there are at most this many
# targets, it bounds the distance block and its uint64 XOR temporary to
# under 1 MB, where the whole (queries, targets) block of a corridor frame
# takes about 18 MB; past it, a block is one row by all targets.  On a
# corridor-size match (1,000 x 1,500, 4 MiB-L2 Xeon) 2^16 scores as fast
# as 2^17 in half the memory; 2^15 and 2^18 are slower.
BLOCK_PAIRS = 1 << 16

_NO_MATCHES = np.zeros((0, 2), dtype=np.int64)


@dataclass(frozen=True)
class AssociationPolicy:
    """The association toggles of a run, shared by all association sites."""

    use_depth_filter: bool = True
    ordering: Ordering = Ordering.HAMMING_ORDERED
    constraint_mode: ConstraintMode = ConstraintMode.SYMMETRIC

    def threshold_for(self, site: Site) -> int:
        if self.constraint_mode is ConstraintMode.SYMMETRIC:
            return DESCRIPTOR_THRESHOLD
        return HETEROGENEOUS_THRESHOLDS[site]


def gate_mask(hamming, policy: AssociationPolicy, site: Site,
              depth_ok=None, parallax=None):
    """The one gate predicate shared by every association site.

    Elementwise over broadcastable ``hamming``, ``depth_ok`` and
    ``parallax`` arrays.  A clause whose input is None (parallax for an
    already-triangulated point, the depth filter where no interval exists)
    is vacuous at every site alike.
    """
    ok = np.asarray(hamming) <= policy.threshold_for(site)
    if policy.use_depth_filter and depth_ok is not None:
        ok = ok & np.asarray(depth_ok, dtype=bool)
    if parallax is not None:
        ok = ok & (np.asarray(parallax) >= MIN_PARALLAX)
    return ok


def _pairs_within(queries, targets, threshold):
    """Every (query row, target row, distance) of two packed stacks at most
    ``threshold`` bits apart, in row-major order as ``np.nonzero`` gives them.

    Rows are scored in blocks of about ``BLOCK_PAIRS`` pairs, each in two
    stages: ``hamming_matrix`` over the first ``PREFIX_BYTES`` bytes, then
    ``hamming_pairs`` over the remaining bytes of only the pairs whose
    prefix distance is within the threshold.  The prefix distance never
    exceeds the full one, so no pair within the threshold is lost.
    """
    # the prefix slices would hide a width mismatch from hamming_matrix
    if queries.shape[-1] != targets.shape[-1]:
        raise DescriptorMismatchError("packed descriptor widths differ")
    head, tail = targets[:, :PREFIX_BYTES], targets[:, PREFIX_BYTES:]
    step = max(1, BLOCK_PAIRS // len(targets))
    found = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
              np.zeros(0, dtype=np.int32))]
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        prefix = hamming_matrix(block[:, :PREFIX_BYTES], head)
        # np.nonzero's row-major pairs, from flat indices: several times
        # faster than np.nonzero on these mostly-False blocks
        qi, ti = np.divmod(np.flatnonzero(prefix <= threshold), len(targets))
        dist = prefix[qi, ti]
        if tail.shape[1]:
            dist += hamming_pairs(block[qi, PREFIX_BYTES:], tail[ti])
            keep = dist <= threshold
            qi, ti, dist = qi[keep], ti[keep], dist[keep]
        found.append((qi + start, ti, dist))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def match(query_ids, query_descriptors, target_ids, target_descriptors,
          policy: AssociationPolicy, site: Site,
          pairs=None, query_mask=None, parallax=None, depth_ok=None):
    """One-to-one matching between two descriptor stacks.

    Per query, (Nq,): ``query_mask`` drops queries outright and
    ``depth_ok`` is the depth-filter verdict.  Per pair: ``pairs`` is a
    ``(qi, ti)`` pair of row-index arrays, in row-major order as
    ``np.nonzero`` gives them, holding the pairs the call site admits
    geometrically; ``parallax`` is one angle per pair where triangulation
    applies.  Without ``pairs`` every target is admissible.

    Distances are computed only for queries that ``query_mask`` and an
    applied depth filter keep.  Without ``pairs``, their rows are scored by
    ``_pairs_within``: a block of rows at a time, over the first
    ``PREFIX_BYTES`` bytes and then, for only the pairs that bound keeps
    within the site threshold, over the rest.  With ``pairs``, their pairs
    are scored by ``hamming_pairs``.

    One walk accepts the pairs that pass ``gate_mask``: it takes them in
    sort order and accepts a pair when neither its query row nor its
    target row is taken yet.  ``Ordering`` picks only the sort key:
    ``HAMMING_ORDERED`` sorts by distance, then query id, then target id;
    ``SEQUENTIAL`` by query row, then distance, then target row, which
    gives each query in turn its nearest free target, the lowest target
    row on a tie.  Returns the accepted (query id, target id) rows as an
    (n, 2) int64 array, in acceptance order.
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if query_ids.size == 0 or target_ids.size == 0:
        return _NO_MATCHES
    live = np.ones(query_ids.size, dtype=bool)
    if query_mask is not None:
        live &= np.asarray(query_mask, dtype=bool)
    if policy.use_depth_filter and depth_ok is not None:
        live &= np.asarray(depth_ok, dtype=bool)
    if pairs is None:
        if parallax is not None:
            raise ValueError("parallax is given per pair, so it needs pairs")
        rows = np.flatnonzero(live)
        qi, ti, dist = _pairs_within(query_descriptors[rows], target_descriptors,
                                     policy.threshold_for(site))
        qi = rows[qi]
    else:
        qi, ti = (np.asarray(a, dtype=np.intp) for a in pairs)
        keep = live[qi]
        qi, ti = qi[keep], ti[keep]
        if parallax is not None:
            parallax = np.asarray(parallax)[keep]
        dist = hamming_pairs(query_descriptors[qi], target_descriptors[ti])
    ok = np.flatnonzero(gate_mask(
        dist, policy, site,
        depth_ok=None if depth_ok is None else np.asarray(depth_ok)[qi],
        parallax=parallax,
    ))
    qi, ti, dist = qi[ok], ti[ok], dist[ok]
    if policy.ordering is Ordering.HAMMING_ORDERED:
        order = np.lexsort((target_ids[ti], query_ids[qi], dist))
    else:
        order = np.lexsort((ti, dist, qi))
    qi, ti = qi[order], ti[order]
    taken_q, taken_t = set(), set()
    accepted = []
    for k, (q, t) in enumerate(zip(qi.tolist(), ti.tolist())):
        if q in taken_q or t in taken_t:
            continue
        taken_q.add(q)
        taken_t.add(t)
        accepted.append(k)
    return np.stack([query_ids[qi[accepted]], target_ids[ti[accepted]]], axis=1)


class PointBatch(NamedTuple):
    """Map points as the projection searches read them, one row each; built
    by ``WorldMap.point_batch`` from each point's reference observation."""

    ids: np.ndarray  # (n,) point ids
    positions: np.ndarray  # (n, 3) world positions
    descriptors: np.ndarray  # (n, n_bytes) packed reference descriptors
    depth: DepthInterval  # (n,) depth-invariance intervals


def search_by_projection(frame, points: PointBatch, predicted_pose_wc: Pose,
                         policy: AssociationPolicy, cam: CameraIntrinsics,
                         site: Site = Site.PROJECTION_TRACK):
    """Match map points against a frame's keypoints under a predicted pose.

    ``frame`` needs only ``n_keypoints`` and ``descriptors``, so a
    ``Keyframe`` and a pipeline ``FrameInput`` both serve.  ``points`` is a
    ``PointBatch``; its row order is the query order that
    ``Ordering.SEQUENTIAL`` walks.  Candidate gating: in front of the
    camera (``pinhole``), projection inside the image, the depth-invariance
    filter, then the descriptor threshold.  Returns ``match``'s (n, 2) rows
    of (point id, keypoint index), in acceptance order.
    """
    if points.ids.size == 0 or frame.n_keypoints == 0:
        return _NO_MATCHES
    in_cam = predicted_pose_wc.inverse().apply(points.positions)
    uv, in_front = pinhole(in_cam, cam)
    visible = in_front & cam.contains(uv)
    if not np.any(visible):
        return _NO_MATCHES
    return match(
        query_ids=points.ids,
        query_descriptors=points.descriptors,
        target_ids=np.arange(frame.n_keypoints),
        target_descriptors=frame.descriptors,
        policy=policy,
        site=site,
        query_mask=visible,
        depth_ok=visible & points.depth.contains(in_cam[:, 2]),
    )


def _epipolar_distances(uv_from, uv_to, fundamental):
    """Point-to-epipolar-line distances of ``uv_to`` w.r.t. lines from
    ``uv_from``, an (N_from, N_to) matrix computed in one buffer."""
    ones = np.ones((uv_from.shape[0], 1))
    x1 = np.hstack([uv_from, ones])
    lines = x1 @ fundamental.T  # (N_from, 3) lines in the target image
    x2 = np.hstack([uv_to, np.ones((uv_to.shape[0], 1))])
    # one product of the whole stack: row blocks of it round differently
    num = lines @ x2.T
    np.abs(num, out=num)
    den = np.sqrt(lines[:, 0] ** 2 + lines[:, 1] ** 2)[:, None]
    den = np.where(den < 1e-12, 1e-12, den)
    num /= den
    return num


def fundamental_from_relative(rel: Pose, cam: CameraIntrinsics) -> np.ndarray:
    """Fundamental matrix for x2' F x1 = 0 given the 1->2 relative pose."""
    t = rel.translation
    tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]])
    E = tx @ rel.rotation
    K_inv = np.linalg.inv(cam.matrix)
    return K_inv.T @ E @ K_inv


def triangulate_rays(c1, d1, c2, d2):
    """Midpoints of the closest approach of paired world-frame rays.

    ``d1``/``d2`` are (N, 3) ray directions from the centers ``c1``/``c2``.
    Returns the (N, 3) midpoints and an (N,) mask that is False where the
    rays are numerically parallel (those rows hold no usable point).
    """
    b = np.asarray(c2) - np.asarray(c1)
    a11 = np.einsum("ij,ij->i", d1, d1)
    a12 = -np.einsum("ij,ij->i", d1, d2)
    a22 = np.einsum("ij,ij->i", d2, d2)
    r1 = d1 @ b
    r2 = -(d2 @ b)
    det = a11 * a22 - a12 * a12
    ok = np.abs(det) > 1e-14 * np.maximum(a11 * a22, 1e-300)
    det_safe = np.where(ok, det, 1.0)
    s1 = (a22 * r1 - a12 * r2) / det_safe
    s2 = (a11 * r2 - a12 * r1) / det_safe
    p1 = np.asarray(c1) + s1[:, None] * d1
    p2 = np.asarray(c2) + s2[:, None] * d2
    return (p1 + p2) / 2.0, ok


def search_for_triangulation(kf_a, kf_b, owners_a, owners_b,
                             policy: AssociationPolicy, cam: CameraIntrinsics):
    """Epipolar-gated matching plus midpoint triangulation of a keyframe pair.

    ``owners_a`` and ``owners_b`` are the keyframes' (N,) owner columns
    (``WorldMap.owners``): the point each keypoint observes, or -1.  Only
    free keypoints, those whose owner is -1, take part.  The epipolar band
    is the one dense test; descriptor distances and parallax are computed
    only for the pairs inside it.  Returns ``(pairs, positions)``:
    ``pairs`` holds ``match``'s (n, 2) rows of (``kf_a`` keypoint, ``kf_b``
    keypoint), in acceptance order, without the rows whose rays do not
    meet in front of both keyframes; ``positions`` holds their (n, 3)
    triangulated world points.  Keyframes with (numerically) no baseline
    between them triangulate nothing: both arrays are then empty.
    """
    idx_a = np.flatnonzero(owners_a < 0)
    idx_b = np.flatnonzero(owners_b < 0)
    baseline = kf_b.pose.translation - kf_a.pose.translation
    if idx_a.size == 0 or idx_b.size == 0 or np.linalg.norm(baseline) < 1e-6:
        return _NO_MATCHES, np.zeros((0, 3))
    uv_a = kf_a.keypoints[idx_a]
    uv_b = kf_b.keypoints[idx_b]

    rel_ab = kf_b.pose.inverse().compose(kf_a.pose)  # frame a -> frame b
    F_ab = fundamental_from_relative(rel_ab, cam)
    F_ba = fundamental_from_relative(rel_ab.inverse(), cam)
    # each band is tested on its distances as computed; the b -> a verdict
    # is read only at the pairs inside the a -> b band
    in_b = _epipolar_distances(uv_a, uv_b, F_ab) <= (
        EPIPOLAR_SIGMA_FACTOR * np.sqrt(kf_b.noise_sigma2[idx_b]))
    in_a = _epipolar_distances(uv_b, uv_a, F_ba) <= (
        EPIPOLAR_SIGMA_FACTOR * np.sqrt(kf_a.noise_sigma2[idx_a]))
    qi, ti = np.nonzero(in_b)
    both = in_a[ti, qi]
    qi, ti = qi[both], ti[both]

    rays_a = unit_ray(uv_a, cam) @ kf_a.pose.rotation.T
    rays_b = unit_ray(uv_b, cam) @ kf_b.pose.rotation.T

    found = match(
        query_ids=idx_a,
        query_descriptors=kf_a.descriptors[idx_a],
        target_ids=idx_b,
        target_descriptors=kf_b.descriptors[idx_b],
        policy=policy,
        site=Site.TRIANGULATION,
        pairs=(qi, ti),
        parallax=parallax_angles(rays_a[qi], rays_b[ti]),
    )
    pts, ok = triangulate_rays(
        kf_a.pose.translation, rays_a[np.searchsorted(idx_a, found[:, 0])],
        kf_b.pose.translation, rays_b[np.searchsorted(idx_b, found[:, 1])])
    keep = ok & (kf_a.pose.depth_of(pts) > 0) & (kf_b.pose.depth_of(pts) > 0)
    return found[keep], pts[keep]


def fuse(points: PointBatch, keyframe, policy: AssociationPolicy,
         cam: CameraIntrinsics) -> np.ndarray:
    """Project points into a keyframe to attach or merge them.

    ``points`` (a ``PointBatch``) are projected at the keyframe's pose; they
    must hold no point that the keyframe holds, so no row can land on its
    point's own keypoint.  Returns the (n, 2) rows of (point id, keypoint
    index) that ``search_by_projection`` accepts, sorted by point id (a
    point has at most one row).  The caller reads each landing keypoint's
    owner (``WorldMap.owners``): a free keypoint (-1) takes a new
    observation, one bound to another point is a duplicate to merge.
    Nothing is read from the map and nothing is mutated.
    """
    found = search_by_projection(
        keyframe, points, keyframe.pose, policy, cam, site=Site.FUSE
    )
    return found[np.argsort(found[:, 0], kind="stable")]
