"""Keyframes, map points, the table that binds them, and retention.

The map stores point positions and the binding table, nothing else:
``_held[point, slot]``, the keypoint that point observes in the slot's
keyframe or -1, and the same-shape ``_inlier`` flags.  The slots are the
keyframes in id order, as ``keyframes`` admits them.  Everything else is a
read: a point is live while its row holds a cell, and its holders,
reference observation, depth-invariance interval and reference descriptor
come from that row; ``owners`` is a keyframe's per-keypoint view, and
keypoint variances are read from the octaves.  ``reselect_references``
takes the holder nearest each query (geometric rule) or the holder
descriptor with least median distance to the others (appearance rule), so
no read depends on the edits or reads that ran before it.

Every edit takes id arrays, and an edit group makes one call per edit
kind, which writes the table's cells in one indexed write.  A batch that
edits one at a time would refuse raises before anything changes.  Merge
pairs must share no point: only then does one batch equal merging pair by
pair.

``check_integrity`` asserts what the table leaves open: it has a row per
point id and a slot per keyframe, no row that was never handed out holds
a cell, no inlier flag sits on an empty cell, and no keyframe binds one
keypoint twice or binds a keypoint it lacks.  The map is owned by a
single pipeline; every traversal runs in ascending id order, so identical
inputs replay identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .association import PointBatch
from .errors import WorldIntegrityError
from .features import (
    ReferenceRule,
    depth_invariance_interval,
    select_reference_appearance_index,
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

    def __post_init__(self):
        if not (self.octaves.shape[0] == self.descriptors.shape[0]
                == self.keypoints.shape[0]):
            raise ValueError("keyframe keypoint arrays must have equal length")

    @property
    def n_keypoints(self) -> int:
        return self.keypoints.shape[0]

    @property
    def noise_sigma2(self) -> np.ndarray:
        """(N,) keypoint variances, read from the whole octave array: numpy's
        SIMD power may round an array element apart from the same scalar."""
        return sigma2_at(self.octaves)


def keyframe_retention(new_frame_id: int, retained) -> set:
    """Ids kept after admitting ``new_frame_id``: every ``RETENTION_MOD``-th
    plus the ``RETENTION_LATEST`` most recent."""
    ids = sorted(set(retained) | {new_frame_id})
    recent = set(ids[-RETENTION_LATEST:])
    return {k for k in ids if k % RETENTION_MOD == 0} | recent


def _runs(point: np.ndarray) -> np.ndarray:
    """First row of each point's run in point-sorted binding rows."""
    return np.flatnonzero(np.diff(point, prepend=-1))


class WorldMap:
    """The observation graph plus its maintenance policies."""

    def __init__(self, descriptor_selection: ReferenceRule = ReferenceRule.GEOMETRIC):
        self.descriptor_selection = descriptor_selection
        self.keyframes: dict[int, Keyframe] = {}
        # indexed by point id and doubled when full; id 0 is never handed out
        self.positions = np.zeros((1, 3))
        # the binding table: a row per point id, a slot per keyframe
        self._held = np.full((1, 0), -1, dtype=np.int64)
        self._inlier = np.zeros((1, 0), dtype=bool)
        self._stacks: dict = {}  # ``_stack``'s arrays for this keyframe set
        self._next_kf_id = 1
        self._next_point_id = 1

    @property
    def points(self) -> np.ndarray:
        """Ids of the live points, those whose row holds a cell, ascending."""
        return np.flatnonzero((self._held >= 0).any(axis=1))

    @property
    def _slots(self) -> np.ndarray:
        """The keyframe id of each slot: ``keyframes`` in insertion order."""
        return np.fromiter(self.keyframes, dtype=np.int64, count=len(self.keyframes))

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
        )
        self.keyframes[kf.kf_id] = kf
        self._next_kf_id += 1
        self._held = np.pad(self._held, ((0, 0), (0, 1)), constant_values=-1)
        self._inlier = np.pad(self._inlier, ((0, 0), (0, 1)))
        self._stacks = {}
        return kf

    def keyframe_ids(self) -> list:
        return sorted(self.keyframes)

    def latest_keyframe_ids(self) -> list:
        return self.keyframe_ids()[-RETENTION_LATEST:]

    def _slot_of(self, kf_ids) -> tuple:
        """(slot of each keyframe id, whether the map holds that keyframe);
        an id it does not hold gets some other keyframe's slot, or none."""
        slot = np.searchsorted(self._slots, kf_ids)
        return slot, np.append(self._slots, -1)[slot] == kf_ids

    # ------------------------------------------------------------------
    # points and bindings

    def create_point(self, positions, observations) -> np.ndarray:
        """New points at the (n, 3) ``positions``, point i bound to
        ``keypoints[i]`` of each (kf_id, keypoints) pair in ``observations``;
        returns their (n,) ids, ascending.  What binding them one by one
        would refuse raises before anything is written or any id is used."""
        ids = np.arange(self._next_point_id, self._next_point_id + len(positions))
        rows = np.full((ids.size, len(self.keyframes)), -1, dtype=np.int64)
        for kf_id, keypoints in observations:
            slot, kps = self._check_binding(ids, kf_id, keypoints, rows)
            rows[:, slot] = kps
        self._next_point_id += ids.size
        while self._next_point_id > len(self.positions):
            self.positions = np.concatenate([self.positions, np.zeros_like(self.positions)])
            self._held = np.concatenate([self._held, np.full_like(self._held, -1)])
            self._inlier = np.concatenate([self._inlier, np.zeros_like(self._inlier)])
        self.positions[ids] = positions
        self._held[ids], self._inlier[ids] = rows, rows >= 0
        return ids

    def add_observation(self, point_ids, kf_id: int, keypoints):
        """Bind ``point_ids[i]`` to ``keypoints[i]`` of one keyframe.  An id
        never handed out, a dead point, a keyframe the map does not hold, a
        keypoint index outside it, a point that would observe it twice or a
        keypoint that is bound already raises WorldIntegrityError, as the
        first such binding of the batch would one at a time, and nothing is
        bound; so do keypoints that do not pair up with the ids."""
        pids = np.asarray(point_ids, dtype=np.int64).reshape(-1)
        self._refuse_unknown(pids)
        rows = self._held[pids]
        dead = (rows < 0).all(axis=1)
        if dead.any():
            raise WorldIntegrityError(f"point {pids[dead][0]} is dead")
        slot, kps = self._check_binding(pids, kf_id, keypoints, rows)
        self._held[pids, slot], self._inlier[pids, slot] = kps, True

    def _check_binding(self, pids, kf_id: int, keypoints, rows) -> tuple:
        """(slot of keyframe ``kf_id``, ``keypoints`` as ids) if binding
        ``pids[i]``, whose table row is ``rows[i]``, to ``keypoints[i]`` is
        allowed; else the WorldIntegrityError of the first binding that one
        at a time would refuse.  Writes nothing."""
        kps = np.asarray(keypoints, dtype=np.int64).reshape(-1)
        if kps.size != pids.size:
            raise WorldIntegrityError(f"{kps.size} keypoints for {pids.size} points")
        column = self.owners(kf_id)
        outside = (kps < 0) | (kps >= column.size)
        if outside.any():
            raise WorldIntegrityError(f"no keypoint {kps[outside][0]} in keyframe {kf_id}")
        slot = int(np.searchsorted(self._slots, kf_id))
        held = set(pids[rows[:, slot] >= 0].tolist())
        if (held or (column[kps] >= 0).any()
                or np.unique(pids).size < pids.size or np.unique(kps).size < kps.size):
            column = column.tolist()
            for pid, kp in zip(pids.tolist(), kps.tolist()):
                if pid in held:
                    raise WorldIntegrityError(
                        f"point {pid} already observes keyframe {kf_id}")
                if column[kp] >= 0:
                    raise WorldIntegrityError(f"keypoint {kp} of keyframe {kf_id} "
                                              f"already bound to point {column[kp]}")
                column[kp] = pid
                held.add(pid)
        return slot, kps

    def remove_observation(self, point_ids, kf_ids):
        """Unbind ``point_ids[i]`` from keyframe ``kf_ids[i]``; a point left
        with no holder dies.  A pair that is not bound, or that repeats an
        earlier one, raises WorldIntegrityError, as its removal one at a
        time would, and nothing is unbound."""
        pids, kf_ids = (np.asarray(a, np.int64).reshape(-1) for a in (point_ids, kf_ids))
        self._refuse_unknown(pids)
        slot, known = self._slot_of(kf_ids)
        kp = np.full(pids.size, -1)
        kp[known] = self._held[pids[known], slot[known]]
        key = pids * self._next_kf_id + kf_ids
        repeat = ~np.isin(np.arange(key.size), np.unique(key, return_index=True)[1])
        bad = (kp < 0) | repeat
        if bad.any():
            i = int(np.argmax(bad))
            raise WorldIntegrityError(
                f"point {pids[i]} does not observe keyframe {kf_ids[i]}")
        self._held[pids, slot] = -1
        self._inlier[pids, slot] = False

    def merge_points(self, dst_ids, src_ids):
        """Absorb each ``src_ids[i]`` into ``dst_ids[i]``: src's bindings move
        to dst with their inlier flags, except in a keyframe that binds
        both, where dst's wins and src's is freed; src dies.  Merged one
        pair at a time, pairs that share a point would depend on the order,
        so they raise WorldIntegrityError and nothing changes."""
        dst, src = (np.asarray(a, np.int64).reshape(-1) for a in (dst_ids, src_ids))
        both = np.concatenate([dst, src])
        if np.unique(both).size < both.size:
            raise WorldIntegrityError("merge pairs share a point")
        self._refuse_unknown(both)
        move = (self._held[src] >= 0) & (self._held[dst] < 0)
        for table, empty in ((self._held, -1), (self._inlier, False)):
            table[dst] = np.where(move, table[src], table[dst])
            table[src] = empty

    def set_inlier(self, point_ids, kf_ids, flags):
        """Set the inlier flag of the binding of ``point_ids[i]`` in keyframe
        ``kf_ids[i]`` to ``flags[i]``."""
        self._inlier[point_ids, np.searchsorted(self._slots, kf_ids)] = flags

    def _refuse_unknown(self, point_ids):
        """Raise WorldIntegrityError on the first id never handed out."""
        unknown = (point_ids < 1) | (point_ids >= self._next_point_id)
        if unknown.any():
            raise WorldIntegrityError(f"no point {point_ids[unknown][0]}")

    def owners(self, kf_id: int) -> np.ndarray:
        """The (N,) point each keypoint of keyframe ``kf_id`` observes, or -1.
        A keyframe the map does not hold raises WorldIntegrityError."""
        kf = self.keyframes.get(kf_id)
        if kf is None:
            raise WorldIntegrityError(f"no keyframe {kf_id}")
        held = self._held[:, np.searchsorted(self._slots, kf_id)]
        column = np.full(kf.n_keypoints + 1, -1, dtype=np.int64)
        column[held] = np.arange(held.size)  # the -1 entries land in the last cell
        return column[:-1]

    def bindings(self, point_ids=None) -> tuple:
        """(point, kf, keypoint) arrays of every binding, sorted by point id
        then keyframe id; only the bindings of ``point_ids`` when given.  An
        id never handed out raises WorldIntegrityError."""
        if point_ids is None:
            ids = np.arange(len(self._held))
        else:
            point_ids = np.asarray(point_ids, dtype=np.int64)
            self._refuse_unknown(point_ids)
            ids = np.unique(point_ids)
        held = self._held[ids]
        row, slot = np.nonzero(held >= 0)  # row-major: by point, then slot
        return ids[row], self._slots[slot], held[row, slot]

    def window_point_ids(self) -> np.ndarray:
        """Ids of the points the latest keyframes hold, ascending."""
        return np.flatnonzero((self._held[:, -RETENTION_LATEST:] >= 0).any(axis=1))

    def _stack(self, name: str) -> np.ndarray:
        """The keyframes' per-keypoint ``name`` arrays end to end, in slot
        order; ``"first"`` gives each slot's first row and, last, the row
        count.  Kept until the keyframe set changes, since a keyframe's
        keypoint arrays never do."""
        if name not in self._stacks:
            kfs = self.keyframes.values()
            self._stacks[name] = (
                np.cumsum([0] + [kf.n_keypoints for kf in kfs]) if name == "first"
                else np.concatenate([getattr(kf, name) for kf in kfs]
                                    or [np.zeros(0, np.int64)]))
        return self._stacks[name]

    def gather(self, kf_ids, keypoints, name: str) -> np.ndarray:
        """``keyframes[kf_ids[i]].<name>[keypoints[i]]`` for every i, where
        ``name`` is a per-keypoint array such as ``descriptors``.  A
        keyframe the map does not hold, or a keypoint index outside its
        keyframe, raises WorldIntegrityError before anything is read."""
        kf_ids, keypoints = (np.asarray(a, dtype=np.int64) for a in (kf_ids, keypoints))
        slot, known = self._slot_of(kf_ids)
        if not known.all():
            raise WorldIntegrityError(f"no keyframe {kf_ids[~known][0]}")
        first = self._stack("first")
        outside = (keypoints < 0) | (keypoints >= first[slot + 1] - first[slot])
        if outside.any():
            i = int(np.argmax(outside))
            raise WorldIntegrityError(
                f"no keypoint {keypoints[i]} in keyframe {kf_ids[i]}")
        return self._stack(name)[first[slot] + keypoints]

    def _slot_rows(self, value) -> np.ndarray:
        """The 3-vector ``value(pose)`` of each slot's keyframe, (slots, 3)."""
        return np.array([value(kf.pose) for kf in self.keyframes.values()],
                        dtype=np.float64).reshape(-1, 3)

    def point_batch(self, point_ids, query_translation) -> PointBatch:
        """The given points, in the order given, as a camera at
        ``query_translation`` reads them: positions, and the descriptor and
        depth-invariance interval of each point's reference observation
        (``reselect_references``), the interval at that keyframe's pose."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        ref_kf, ref_kp = self.reselect_references(point_ids, query_translation)
        slot, _ = self._slot_of(ref_kf)
        positions = self.positions[point_ids]
        # the depth (p - t) . R[:, 2]; a (1, 3) @ (3, 1) matmul per row
        # rounds exactly as ``Pose.depth_of`` does, einsum would not
        offset = positions - self._slot_rows(lambda p: p.translation)[slot]
        axis = self._slot_rows(lambda p: p.rotation[:, 2])[slot]
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
        self._refuse_unknown(point_ids)
        held = self._held[point_ids]
        holder = held >= 0
        lacking = ~holder.any(axis=1)
        if lacking.any():
            raise WorldIntegrityError(f"point {point_ids[lacking][0]} "
                                      "has no reference holder")
        if self.descriptor_selection is ReferenceRule.APPEARANCE:
            ids, at = np.unique(point_ids, return_inverse=True)
            point, kf, kp = self.bindings(ids)
            rows = self.refresh_points(point, kf, kp)[at]
            return kf[rows], kp[rows]
        d = self._slot_rows(lambda p: p.translation) - np.asarray(query_translation,
                                                                   dtype=np.float64)
        d2 = (d[:, None, :] @ d[:, :, None])[:, 0, 0]  # rounds as a 1-D d @ d
        # the first least distance of a row is its lowest keyframe id's
        slot = np.where(holder, d2, np.inf).argmin(axis=1)
        return self._slots[slot], held[np.arange(point_ids.size), slot]

    # ------------------------------------------------------------------
    # maintenance

    def cull_points(self) -> list:
        """Remove points with fewer than two holders; returns culled ids."""
        culled = np.flatnonzero(np.count_nonzero(self._held >= 0, axis=1) == 1)
        self._held[culled], self._inlier[culled] = -1, False
        return culled.tolist()

    def apply_retention(self, new_kf_id: int) -> list:
        """Cull keyframes outside the retention set, and the points they
        leave below two holders; returns culled keyframe ids."""
        retained = keyframe_retention(new_kf_id, self.keyframes.keys())
        culled = [k for k in self.keyframe_ids() if k not in retained]
        if not culled:
            return culled
        gone = np.isin(self._slots, culled)
        touched = np.flatnonzero((self._held[:, gone] >= 0).any(axis=1))
        for k in culled:
            del self.keyframes[k]
        self._stacks = {}
        self._held, self._inlier = self._held[:, ~gone], self._inlier[:, ~gone]
        holders = np.count_nonzero(self._held[touched] >= 0, axis=1)
        # orphaned points: below the two-holder survival threshold
        orphans = touched[holders < 2]
        self._held[orphans], self._inlier[orphans] = -1, False
        return culled

    # ------------------------------------------------------------------
    # statistics and checks

    def local_keyframe_ids(self) -> list:
        """Latest keyframes plus retained ones sharing at least one point."""
        shared = (self._held[self.window_point_ids()] >= 0).any(axis=0)
        return sorted(set(self.latest_keyframe_ids()) | set(self._slots[shared].tolist()))

    def graph_stats(self) -> "GraphStats":
        return GraphStats(
            n_map_points=len(self.points),
            n_local_keyframes=len(self.local_keyframe_ids()),
            n_observation_inliers=int(np.count_nonzero(self._inlier)),
        )

    def check_integrity(self):
        """Assert the invariants the binding table leaves open; raises on
        violation."""
        shape = (len(self.positions), len(self.keyframes))
        if not self._held.shape == self._inlier.shape == shape:
            raise WorldIntegrityError("binding table has the wrong shape")
        bound = self._held >= 0
        stray = np.argwhere(self._inlier & ~bound)
        if stray.size:
            p, s = stray[0]
            raise WorldIntegrityError(
                f"keyframe {self._slots[s]} flags an inlier of point {p} it does not bind")
        unissued = np.r_[0, self._next_point_id:shape[0]]
        stray = unissued[bound[unissued].any(axis=1)]
        if stray.size:
            s = int(np.argmax(bound[stray[0]]))
            raise WorldIntegrityError(
                f"keyframe {self._slots[s]} binds point {stray[0]}, never handed out")
        # each binding as a keypoint of the keyframes' stacked keypoints
        first = self._stack("first")
        point, slot = np.nonzero(bound)
        kp = self._held[point, slot]
        outside = np.flatnonzero(kp >= np.diff(first)[slot])
        if outside.size:
            i = outside[0]
            raise WorldIntegrityError(
                f"keyframe {self._slots[slot[i]]} binds keypoint {kp[i]} it lacks")
        twice = np.flatnonzero(np.bincount(first[slot] + kp, minlength=first[-1]) > 1)
        if twice.size:
            s = int(np.searchsorted(first, twice[0], side="right")) - 1
            raise WorldIntegrityError(
                f"keyframe {self._slots[s]} binds keypoint {twice[0] - first[s]} twice")


class GraphStats(NamedTuple):
    """Bias-sensitive totals of the observation graph."""

    n_map_points: int
    n_local_keyframes: int
    n_observation_inliers: int
