"""Keyframes, map points, the observation graph, and retention policy.

The map is owned and mutated by a single pipeline; every traversal runs
in ascending id order so that identical inputs replay identically.  An
observation binds one alive keyframe to one alive map point through the
keyframe's claim table, and carries an inlier flag maintained by the
optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import WorldIntegrityError
from .features import (
    DepthInterval,
    PyramidConfig,
    depth_invariance_interval,
    select_reference_appearance_index,
    select_reference_geometric_index,
)
from .geometry import Pose

DELTA_L = 1  # octave shift a point's depth-invariance interval allows
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
    claims: dict = field(default_factory=dict)  # keypoint index -> point id

    def __post_init__(self):
        n = self.keypoints.shape[0]
        if not (self.octaves.shape[0] == self.descriptors.shape[0]
                == self.noise_sigma2.shape[0] == n):
            raise ValueError("keyframe keypoint arrays must have equal length")

    @property
    def n_keypoints(self) -> int:
        return self.keypoints.shape[0]

    def free_keypoints(self) -> np.ndarray:
        mask = np.ones(self.n_keypoints, dtype=bool)
        for idx in self.claims:
            mask[idx] = False
        return np.nonzero(mask)[0]


@dataclass
class MapPoint:
    """An estimated 3D landmark and its keyframe observations."""

    point_id: int
    position: np.ndarray
    observations: dict = field(default_factory=dict)  # kf_id -> keypoint index
    inlier: dict = field(default_factory=dict)  # kf_id -> bool
    reference_kf_id: int = -1
    reference_descriptor: np.ndarray | None = None  # row of the reference's descriptors
    depth_interval: DepthInterval = DepthInterval(0.0, float("inf"))

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    def observation_items(self):
        return sorted(self.observations.items())


def keyframe_retention(new_frame_id: int, retained) -> set:
    """Ids kept after admitting ``new_frame_id``: every ``RETENTION_MOD``-th
    plus the ``RETENTION_LATEST`` most recent."""
    ids = sorted(set(retained) | {new_frame_id})
    recent = set(ids[-RETENTION_LATEST:])
    return {k for k in ids if k % RETENTION_MOD == 0} | recent


class WorldMap:
    """The observation graph plus its maintenance policies."""

    def __init__(self, pyramid: PyramidConfig,
                 descriptor_selection: str = "geometric"):
        if descriptor_selection not in ("geometric", "appearance"):
            raise ValueError(f"unknown descriptor selection {descriptor_selection!r}")
        self.pyramid = pyramid
        self.descriptor_selection = descriptor_selection
        self.keyframes: dict[int, Keyframe] = {}
        self.points: dict[int, MapPoint] = {}
        self._next_kf_id = 1
        self._next_point_id = 1

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
            noise_sigma2=np.asarray(
                self.pyramid.sigma2_at(np.asarray(octaves)), dtype=np.float64
            ),
        )
        self.keyframes[kf.kf_id] = kf
        self._next_kf_id += 1
        return kf

    def keyframe_ids(self) -> list:
        return sorted(self.keyframes)

    def latest_keyframe_ids(self) -> list:
        return self.keyframe_ids()[-RETENTION_LATEST:]

    # ------------------------------------------------------------------
    # points and observations

    def create_point(self, position, observations) -> MapPoint:
        """New point from (kf_id, keypoint_index) pairs; claims the keypoints."""
        point = MapPoint(point_id=self._next_point_id,
                         position=np.asarray(position, dtype=np.float64))
        self._next_point_id += 1
        self.points[point.point_id] = point
        for kf_id, kp_index in observations:
            self.add_observation(point, kf_id, kp_index, refresh=False)
        self._refresh_point(point)
        return point

    def add_observation(self, point: MapPoint, kf_id: int, kp_index: int,
                        refresh: bool = True):
        if kf_id in point.observations:
            raise WorldIntegrityError(
                f"point {point.point_id} already observes keyframe {kf_id}"
            )
        kf = self.keyframes[kf_id]
        kp_index = int(kp_index)
        owner = kf.claims.get(kp_index)
        if owner is not None:
            raise WorldIntegrityError(
                f"keypoint {kp_index} of keyframe {kf_id} already bound to point {owner}"
            )
        kf.claims[kp_index] = point.point_id
        point.observations[kf_id] = kp_index
        point.inlier[kf_id] = True
        if refresh:
            self._refresh_point(point)

    def refresh_points(self, point_ids):
        """Batch recomputation after a group of observation edits."""
        for pid in sorted(set(point_ids)):
            point = self.points.get(pid)
            if point is not None:
                self._refresh_point(point)

    def remove_observation(self, point: MapPoint, kf_id: int):
        kp_index = point.observations.pop(kf_id)
        point.inlier.pop(kf_id, None)
        kf = self.keyframes.get(kf_id)
        if kf is not None and kf.claims.get(kp_index) == point.point_id:
            del kf.claims[kp_index]
        if not point.observations:
            self._drop_point(point)
        else:
            self._refresh_point(point)

    def merge_points(self, dst_id: int, src_id: int):
        """Absorb ``src`` into ``dst``; on keyframe conflicts dst wins."""
        if dst_id == src_id:
            return
        dst, src = self.points[dst_id], self.points[src_id]
        for kf_id, kp_index in src.observation_items():
            kf = self.keyframes[kf_id]
            if kf_id in dst.observations:
                if kf.claims.get(kp_index) == src_id:
                    del kf.claims[kp_index]
                continue
            kf.claims[kp_index] = dst_id
            dst.observations[kf_id] = kp_index
            dst.inlier[kf_id] = src.inlier.get(kf_id, True)
        del self.points[src_id]
        self._refresh_point(dst)

    def _refresh_point(self, point: MapPoint):
        """Recompute the depth interval and re-select the reference."""
        items = point.observation_items()
        depths = [
            float(self.keyframes[kf_id].pose.depth_of(point.position))
            for kf_id, _ in items
        ]
        if min(depths) <= 0:
            # behind-camera geometry yields an unmatchable (empty) interval
            point.depth_interval = DepthInterval(1.0, 0.0)
        else:
            point.depth_interval = depth_invariance_interval(
                depths, self.pyramid, DELTA_L
            )
        if self.descriptor_selection == "appearance":
            ref = select_reference_appearance_index(np.stack(
                [self.keyframes[kf_id].descriptors[kp] for kf_id, kp in items]))
        else:
            # geometric default: closest holder to the newest keyframe
            query_t = self.keyframes[items[-1][0]].pose.translation
            ref = select_reference_geometric_index(self._holders(items), query_t)
        kf_id, kp = items[ref]
        point.reference_kf_id = kf_id
        point.reference_descriptor = self.keyframes[kf_id].descriptors[kp]

    def _holders(self, items) -> list:
        """(kf_id, translation) of each observing keyframe, for
        ``select_reference_geometric_index``."""
        return [(kf_id, self.keyframes[kf_id].pose.translation)
                for kf_id, _kp in items]

    def reselect_references(self, points, query_translation):
        """Per-query geometric re-selection (no-op under appearance policy)."""
        if self.descriptor_selection != "geometric":
            return
        for point in points:
            items = point.observation_items()
            ref = select_reference_geometric_index(
                self._holders(items), query_translation
            )
            kf_id, kp = items[ref]
            if kf_id != point.reference_kf_id:
                point.reference_kf_id = kf_id
                point.reference_descriptor = self.keyframes[kf_id].descriptors[kp]

    # ------------------------------------------------------------------
    # maintenance

    def cull_points(self) -> list:
        """Remove points with fewer than two observations; returns culled ids."""
        culled = []
        for pid in sorted(self.points):
            point = self.points[pid]
            if point.n_observations < 2:
                self._drop_point(point)
                culled.append(pid)
        return culled

    def _drop_point(self, point: MapPoint):
        """Release the point's keypoint claims and delete it."""
        for kf_id, kp_index in point.observation_items():
            kf = self.keyframes.get(kf_id)
            if kf is not None and kf.claims.get(kp_index) == point.point_id:
                del kf.claims[kp_index]
        del self.points[point.point_id]

    def apply_retention(self, new_kf_id: int) -> list:
        """Cull keyframes outside the retention set; returns culled ids."""
        retained = keyframe_retention(new_kf_id, self.keyframes.keys())
        culled = [k for k in self.keyframe_ids() if k not in retained]
        touched = set()
        for kf_id in culled:
            kf = self.keyframes[kf_id]
            for kp_index in sorted(kf.claims):
                pid = kf.claims[kp_index]
                point = self.points.get(pid)
                if point is not None and kf_id in point.observations:
                    point.observations.pop(kf_id)
                    point.inlier.pop(kf_id, None)
                    touched.add(pid)
            del self.keyframes[kf_id]
        # orphaned points: below the two-observation survival threshold
        for pid in sorted(touched):
            point = self.points[pid]
            if point.n_observations < 2:
                self._drop_point(point)
            else:
                self._refresh_point(point)
        return culled

    # ------------------------------------------------------------------
    # statistics and checks

    def local_keyframe_ids(self) -> list:
        """Latest keyframes plus retained ones sharing at least one point."""
        latest = set(self.latest_keyframe_ids())
        shared = set()
        for pid in sorted(self.points):
            obs_kfs = set(self.points[pid].observations)
            if obs_kfs & latest:
                shared |= obs_kfs
        return sorted(latest | shared)

    def graph_stats(self) -> "GraphStats":
        return GraphStats(
            n_map_points=len(self.points),
            n_local_keyframes=len(self.local_keyframe_ids()),
            n_observation_inliers=sum(
                sum(point.inlier.values()) for point in self.points.values()
            ),
        )

    def check_integrity(self):
        """Assert the bipartite no-dangling invariants; raises on violation."""
        for pid, point in self.points.items():
            if point.n_observations < 1:
                raise WorldIntegrityError(f"point {pid} has no observations")
            if point.inlier.keys() != point.observations.keys():
                raise WorldIntegrityError(
                    f"point {pid} inlier flags and observations name other keyframes"
                )
            for kf_id, kp_index in point.observations.items():
                kf = self.keyframes.get(kf_id)
                if kf is None:
                    raise WorldIntegrityError(
                        f"point {pid} observes dead keyframe {kf_id}"
                    )
                if kf.claims.get(kp_index) != pid:
                    raise WorldIntegrityError(
                        f"claim mismatch at keyframe {kf_id} keypoint {kp_index}"
                    )
            if point.reference_kf_id not in point.observations:
                raise WorldIntegrityError(
                    f"point {pid} reference keyframe is not observed"
                )
        for kf_id, kf in self.keyframes.items():
            for kp_index, pid in kf.claims.items():
                point = self.points.get(pid)
                if point is None or point.observations.get(kf_id) != kp_index:
                    raise WorldIntegrityError(
                        f"dangling claim at keyframe {kf_id} keypoint {kp_index}"
                    )


class GraphStats(NamedTuple):
    """Bias-sensitive totals of the observation graph."""

    n_map_points: int
    n_local_keyframes: int
    n_observation_inliers: int
