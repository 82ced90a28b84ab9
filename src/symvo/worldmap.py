"""Keyframes, map points, the one table that binds them, and retention.

One binding invariant: each keyframe's per-keypoint ``point_ids`` column
(-1 = free), with its parallel ``inlier`` column, is the only record of
which point a keypoint observes.  Per point the map stores a position and
a live flag, nothing more: a point's holders (the keyframes that observe
it), its reference observation, depth-invariance interval and reference
descriptor are gathered from the columns when read, never cached.  A
reference is a read under both rules: ``reselect_references`` takes the
holder nearest each query (geometric rule) or the holder descriptor with
least median distance to the others (appearance rule), so no read depends
on the edits or reads that ran before it.

Every edit takes id arrays, and an edit group makes one call per edit
kind, which writes each keyframe's columns once.  A batch that edits one
at a time would refuse raises before anything changes.  Merge pairs must
share no point: only then does one batch equal merging pair by pair.

``check_integrity`` asserts what the columns leave open: every live point
has at least one holder, no keyframe binds a point to two keypoints, and
no column names a dead point.  The map is owned by a single pipeline;
every traversal runs in ascending id order, so identical inputs replay
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .association import PointBatch
from .errors import WorldIntegrityError
from .features import (
    ReferenceRule,
    depth_invariance_interval,
    select_reference_appearance_index,
    select_reference_geometric_index,
    sigma2_at,
)
from .geometry import Pose

RETENTION_MOD = 5  # every RETENTION_MOD-th keyframe id is retained ...
RETENTION_LATEST = 5  # ... plus the RETENTION_LATEST most recent keyframes


@dataclass
class Keyframe:
    """A retained frame: pose estimate plus parallel keypoint arrays."""

    kf_id: int
    timestamp: float
    pose: Pose  # world-from-camera
    keypoints: np.ndarray  # (N, 2) octave-0 pixel coordinates
    octaves: np.ndarray  # (N,)
    descriptors: np.ndarray  # (N, n_bytes) packed
    noise_sigma2: np.ndarray  # (N,)
    point_ids: np.ndarray = field(init=False)  # (N,) observed point; -1 = free
    inlier: np.ndarray = field(init=False)  # (N,) inlier flag of that binding

    def __post_init__(self):
        n = self.keypoints.shape[0]
        if not (self.octaves.shape[0] == self.descriptors.shape[0]
                == self.noise_sigma2.shape[0] == n):
            raise ValueError("keyframe keypoint arrays must have equal length")
        self.point_ids = np.full(n, -1, dtype=np.int64)
        self.inlier = np.zeros(n, dtype=bool)

    @property
    def n_keypoints(self) -> int:
        return self.keypoints.shape[0]


def keyframe_retention(new_frame_id: int, retained) -> set:
    """Ids kept after admitting ``new_frame_id``: every ``RETENTION_MOD``-th
    plus the ``RETENTION_LATEST`` most recent."""
    ids = sorted(set(retained) | {new_frame_id})
    recent = set(ids[-RETENTION_LATEST:])
    return {k for k in ids if k % RETENTION_MOD == 0} | recent


def _runs(point: np.ndarray) -> np.ndarray:
    """First row of each point's run in point-sorted binding rows."""
    return np.flatnonzero(np.diff(point, prepend=-1))


def _refuse(kf: Keyframe, point_ids: list, keypoints: list):
    """Raise the WorldIntegrityError of the first binding that one-at-a-time
    binding of ``point_ids`` to ``keypoints`` would refuse."""
    column = kf.point_ids.tolist()
    held = set(column)
    for pid, kp in zip(point_ids, keypoints):
        if pid in held:
            raise WorldIntegrityError(
                f"point {pid} already observes keyframe {kf.kf_id}")
        if column[kp] >= 0:
            raise WorldIntegrityError(
                f"keypoint {kp} of keyframe {kf.kf_id} already bound to point "
                f"{column[kp]}")
        column[kp] = pid
        held.add(pid)


class WorldMap:
    """The observation graph plus its maintenance policies."""

    def __init__(self, descriptor_selection: ReferenceRule = ReferenceRule.GEOMETRIC):
        self.descriptor_selection = descriptor_selection
        self.keyframes: dict[int, Keyframe] = {}
        # indexed by point id and doubled when full; id 0 is never handed out
        self.positions = np.zeros((1, 3))
        self.live = np.zeros(1, dtype=bool)
        self._next_kf_id = 1
        self._next_point_id = 1

    @property
    def points(self) -> np.ndarray:
        """Ids of the live points, ascending."""
        return np.flatnonzero(self.live)

    # ------------------------------------------------------------------
    # keyframes

    def add_keyframe(self, timestamp, pose, keypoints, octaves, descriptors) -> Keyframe:
        kf = Keyframe(
            kf_id=self._next_kf_id,
            timestamp=float(timestamp),
            pose=pose,
            keypoints=np.asarray(keypoints, dtype=np.float64),
            octaves=np.asarray(octaves, dtype=np.int64),
            descriptors=np.asarray(descriptors, dtype=np.uint8),
            noise_sigma2=sigma2_at(octaves),
        )
        self.keyframes[kf.kf_id] = kf
        self._next_kf_id += 1
        return kf

    def keyframe_ids(self) -> list:
        return sorted(self.keyframes)

    def latest_keyframe_ids(self) -> list:
        return self.keyframe_ids()[-RETENTION_LATEST:]

    # ------------------------------------------------------------------
    # points and bindings

    def create_point(self, positions, observations) -> np.ndarray:
        """New points at the (n, 3) ``positions``, point i bound to
        ``keypoints[i]`` of each (kf_id, keypoints) pair in ``observations``;
        returns their (n,) ids, ascending."""
        ids = np.arange(self._next_point_id, self._next_point_id + len(positions))
        self._next_point_id += ids.size
        while self._next_point_id > self.live.size:
            self.positions, self.live = (np.concatenate([a, np.zeros_like(a)])
                                         for a in (self.positions, self.live))
        self.positions[ids] = positions
        self.live[ids] = True
        for kf_id, keypoints in observations:
            self.add_observation(ids, kf_id, keypoints)
        return ids

    def add_observation(self, point_ids, kf_id: int, keypoints):
        """Bind ``point_ids[i]`` to ``keypoints[i]`` of one keyframe.  An id
        never handed out, a point that would observe the keyframe twice or a
        keypoint that is bound already raises WorldIntegrityError, as the
        first such binding of the batch would one at a time, and nothing is
        bound."""
        kf = self.keyframes[kf_id]
        pids = np.asarray(point_ids, dtype=np.int64).reshape(-1)
        kps = np.asarray(keypoints, dtype=np.int64).reshape(-1)
        self._refuse_unknown(pids)
        if (np.isin(pids, kf.point_ids).any() or (kf.point_ids[kps] >= 0).any()
                or np.unique(pids).size < pids.size or np.unique(kps).size < kps.size):
            _refuse(kf, pids.tolist(), kps.tolist())
        kf.point_ids[kps] = pids
        kf.inlier[kps] = True

    def remove_observation(self, point_ids, kf_ids):
        """Unbind ``point_ids[i]`` from keyframe ``kf_ids[i]``; a point left
        with no holder dies.  A pair that is not bound, or that repeats an
        earlier one, raises WorldIntegrityError, as its removal one at a
        time would, and nothing is unbound."""
        pids, kf_ids = (np.asarray(a, np.int64).reshape(-1) for a in (point_ids, kf_ids))
        point, kf, kp = self.bindings(pids)
        # bindings come sorted by point, then keyframe: so do their keys
        held = np.append(point * self._next_kf_id + kf, -1)
        want = pids * self._next_kf_id + kf_ids
        at = np.searchsorted(held[:-1], want)
        repeat = ~np.isin(np.arange(want.size), np.unique(want, return_index=True)[1])
        bad = (held[at] != want) | repeat
        if bad.any():
            i = int(np.argmax(bad))
            raise WorldIntegrityError(
                f"point {pids[i]} does not observe keyframe {kf_ids[i]}")
        self._set(kf_ids, kp[at], np.full(at.size, -1))
        self.live[np.setdiff1d(pids, np.delete(point, at))] = False

    def merge_points(self, dst_ids, src_ids):
        """Absorb each ``src_ids[i]`` into ``dst_ids[i]``: src's bindings move
        to dst, except in a keyframe that binds both, where dst's wins and
        src's is freed; src dies.  Merged one pair at a time, pairs that
        share a point would depend on the order, so they raise
        WorldIntegrityError and nothing changes."""
        dst, src = (np.asarray(a, np.int64).reshape(-1) for a in (dst_ids, src_ids))
        both = np.concatenate([dst, src])
        if np.unique(both).size < both.size:
            raise WorldIntegrityError("merge pairs share a point")
        point, kf, kp = self.bindings(both)
        to = np.arange(self.live.size)
        to[src] = dst
        key = to[point] * self._next_kf_id + kf  # (merged point, keyframe)
        is_src = np.isin(point, src)
        self._set(kf[is_src], kp[is_src],
                  np.where(np.isin(key[is_src], key[~is_src]), -1, to[point[is_src]]))
        self.live[src] = False

    def _set(self, kf_ids, keypoints, point_ids):
        """Bind ``keypoints[i]`` of keyframe ``kf_ids[i]`` to ``point_ids[i]``;
        a keypoint set to -1 is freed and loses its inlier flag."""
        for k in np.unique(kf_ids).tolist():
            kf, mine = self.keyframes[k], kf_ids == k
            kf.point_ids[keypoints[mine]] = point_ids[mine]
            kf.inlier[keypoints[mine]] &= point_ids[mine] >= 0

    def set_inlier(self, kf_ids, keypoints, flags):
        """Set the inlier flag of ``keypoints[i]`` of keyframe ``kf_ids[i]``
        to ``flags[i]``."""
        for k in np.unique(kf_ids).tolist():
            mine = kf_ids == k
            self.keyframes[k].inlier[keypoints[mine]] = flags[mine]

    def _refuse_unknown(self, point_ids):
        """Raise WorldIntegrityError on the first id never handed out."""
        unknown = (point_ids < 1) | (point_ids >= self._next_point_id)
        if unknown.any():
            raise WorldIntegrityError(f"no point {point_ids[unknown][0]}")

    def _drop(self, point_ids):
        """Free every keypoint bound to the given points and kill them."""
        self.remove_observation(*self.bindings(point_ids)[:2])
        self.live[point_ids] = False

    def bindings(self, point_ids=None) -> tuple:
        """(point, kf, keypoint) arrays of every binding, sorted by point id
        then keyframe id; only the bindings of ``point_ids`` when given.  An
        id never handed out raises WorldIntegrityError."""
        kf_ids, first, point = self._stacked("point_ids")
        row = np.flatnonzero(point >= 0)
        if point_ids is not None:
            point_ids = np.asarray(point_ids, dtype=np.int64)
            self._refuse_unknown(point_ids)
            wanted = np.zeros(self.live.size, dtype=bool)
            wanted[point_ids] = True
            row = row[wanted[point[row]]]
        # the columns are stacked in keyframe order, which a stable sort by
        # point keeps within each point
        row = row[np.argsort(point[row], kind="stable")]
        holder = np.searchsorted(first, row, side="right") - 1
        return point[row], kf_ids[holder], row - first[holder]

    def _stacked(self, name: str) -> tuple:
        """(keyframe ids ascending, each one's first row, their per-keypoint
        ``name`` arrays end to end)."""
        kfs = [self.keyframes[k] for k in self.keyframe_ids()]
        columns = [getattr(kf, name) for kf in kfs] or [np.zeros(0, np.int64)]
        return (np.array([kf.kf_id for kf in kfs], dtype=np.int64),
                np.cumsum([0] + [kf.n_keypoints for kf in kfs]), np.concatenate(columns))

    def gather(self, kf_ids, keypoints, name: str) -> np.ndarray:
        """``keyframes[kf_ids[i]].<name>[keypoints[i]]`` for every i, where
        ``name`` is a per-keypoint array such as ``descriptors``."""
        ids, first, table = self._stacked(name)
        return table[first[np.searchsorted(ids, kf_ids)] + keypoints]

    def _pose_rows(self, kf_ids, value) -> np.ndarray:
        """The 3-vector ``value(pose)`` of each keyframe in ``kf_ids``."""
        ids, at = np.unique(kf_ids, return_inverse=True)
        return np.array([value(self.keyframes[k].pose) for k in ids.tolist()],
                        dtype=np.float64).reshape(-1, 3)[at]

    def point_batch(self, point_ids, query_translation) -> PointBatch:
        """The given points, in the order given, as a camera at
        ``query_translation`` reads them: positions, and the descriptor and
        depth-invariance interval of each point's reference observation
        (``reselect_references``), the interval at that keyframe's pose."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        ref_kf, ref_kp = self.reselect_references(point_ids, query_translation)
        positions = self.positions[point_ids]
        # the depth (p - t) . R[:, 2]; a (1, 3) @ (3, 1) matmul per row
        # rounds exactly as ``Pose.depth_of`` does, einsum would not
        offset = positions - self._pose_rows(ref_kf, lambda p: p.translation)
        axis = self._pose_rows(ref_kf, lambda p: p.rotation[:, 2])
        depths = (offset[:, None, :] @ axis[:, :, None])[:, 0, 0]
        return PointBatch(
            ids=point_ids,
            positions=positions,
            descriptors=self.gather(ref_kf, ref_kp, "descriptors"),
            depth=depth_invariance_interval(depths),
        )

    def refresh_points(self, point, kf, kp) -> np.ndarray:
        """The appearance rule over binding rows sorted by point, then
        keyframe (``bindings``): per point, the index of the row whose
        descriptor has least median distance to its other holders'.  Writes
        nothing.  The name is fixed by the benchmark tracer, which looks the
        method up by it."""
        return select_reference_appearance_index(self.gather(kf, kp, "descriptors"),
                                                 _runs(point))

    def reselect_references(self, point_ids, query_translation) -> tuple:
        """(reference keyframe id, its keypoint) of each point, in the order
        given, chosen from its current holders at every read: the holder
        nearest ``query_translation``, ties to the lower id (geometric rule),
        or the ``refresh_points`` choice, whatever the query (appearance
        rule).  Writes nothing; an id without a holder raises
        WorldIntegrityError."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        point, kf, kp = self.bindings(point_ids)
        if self.descriptor_selection is ReferenceRule.GEOMETRIC:
            t = self._pose_rows(kf, lambda p: p.translation)
            rows = select_reference_geometric_index(kf, t, query_translation,
                                                    _runs(point))
        else:
            rows = self.refresh_points(point, kf, kp)
        held = np.append(point[rows], -1)  # ascending; -1 ends the search
        at = np.searchsorted(held[:-1], point_ids)
        if (held[at] != point_ids).any():
            raise WorldIntegrityError(f"point {point_ids[held[at] != point_ids][0]} "
                                      "has no reference holder")
        return kf[rows][at], kp[rows][at]

    # ------------------------------------------------------------------
    # maintenance

    def cull_points(self) -> list:
        """Remove points with fewer than two holders; returns culled ids."""
        point, _, _ = self.bindings()
        holders = np.bincount(point, minlength=self.live.size)
        culled = np.flatnonzero(self.live & (holders < 2))
        self._drop(culled)
        return culled.tolist()

    def apply_retention(self, new_kf_id: int) -> list:
        """Cull keyframes outside the retention set, and the points they
        leave below two holders; returns culled keyframe ids."""
        retained = keyframe_retention(new_kf_id, self.keyframes.keys())
        culled = [k for k in self.keyframe_ids() if k not in retained]
        if not culled:
            return culled
        held = np.concatenate([self.keyframes.pop(k).point_ids for k in culled])
        touched = np.unique(held[held >= 0])
        point, _, _ = self.bindings(touched)
        holders = np.bincount(point, minlength=self.live.size)[touched]
        # orphaned points: below the two-holder survival threshold
        self._drop(touched[holders < 2])
        return culled

    # ------------------------------------------------------------------
    # statistics and checks

    def local_keyframe_ids(self) -> list:
        """Latest keyframes plus retained ones sharing at least one point."""
        latest = self.latest_keyframe_ids()
        point, kf, _ = self.bindings()
        shared = np.isin(point, point[np.isin(kf, latest)])
        return sorted(set(latest) | set(kf[shared].tolist()))

    def graph_stats(self) -> "GraphStats":
        return GraphStats(
            n_map_points=len(self.points),
            n_local_keyframes=len(self.local_keyframe_ids()),
            n_observation_inliers=int(np.count_nonzero(
                self._stacked("inlier")[2] & (self._stacked("point_ids")[2] >= 0))),
        )

    def check_integrity(self):
        """Assert the binding invariants; raises on violation."""
        point, kf, _ = self.bindings()
        dead = np.flatnonzero(~np.isin(point, self.points))
        if dead.size:
            raise WorldIntegrityError(
                f"keyframe {kf[dead[0]]} binds dead point {point[dead[0]]}")
        twice = np.flatnonzero((np.diff(point) == 0) & (np.diff(kf) == 0))
        if twice.size:
            raise WorldIntegrityError(
                f"keyframe {kf[twice[0]]} binds point {point[twice[0]]} twice")
        held = np.bincount(point, minlength=self.live.size)
        bad = np.flatnonzero(self.live & (held == 0))
        if bad.size:
            raise WorldIntegrityError(f"point {bad[0]} has no holder")


class GraphStats(NamedTuple):
    """Bias-sensitive totals of the observation graph."""

    n_map_points: int
    n_local_keyframes: int
    n_observation_inliers: int
