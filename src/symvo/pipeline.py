"""Sequential deterministic tracking and mapping.

Every frame is processed to completion before the next one starts:
initialization (seeded RANSAC on an essential matrix, its hypotheses
solved and scored in batches), constant-velocity tracking with two
projection-search stages, keyframe creation, point creation and fusion,
local bundle adjustment, and keyframe retention.
The only random draws in a run come from the generator seeded with
``RNG_SEED``; all container traversal is id-ordered, so identical inputs
reproduce bit-identical outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .association import (
    MIN_PARALLAX,
    AssociationPolicy,
    ConstraintMode,
    FrameScores,
    Ordering,
    Site,
    fuse,
    match,
    search_by_projection,
    search_for_triangulation,
    triangulate_rays,
)
from .errors import ConfigError, DegenerateProblemError, SymvoError
from .features import ReferenceRule, sigma2_at
from .geometry import CameraIntrinsics, Pose, parallax_angles, unit_ray
from .optimizer import (
    OBSERVATION,
    CovarianceModel,
    OptimizationProblem,
    OutlierMode,
    local_bundle_adjustment,
    optimize_pose,
)
from .trajectory import Trajectory
from .worldmap import GraphStats, WorldMap

_FRAME_SENTINEL = 0  # pseudo keyframe id of the frame being tracked

MIN_INIT_MATCHES = 50  # correspondences two-view initialization needs
RNG_SEED = 13  # seed of the one generator a run draws from
RANSAC_ITERATIONS = 200  # fixed draw count of two-view initialization
RANSAC_THRESHOLD_PX = 1.5  # epipolar inlier cut, in keypoint deviations
RANSAC_SCORE_CHUNK = 32  # hypotheses scored at once: bounds (H, 3, n) temporaries


@dataclass(frozen=True)
class FrameInput:
    """Extracted features of one frame; coordinates at octave-0 scale."""

    timestamp: float
    keypoints: np.ndarray  # (N, 2)
    octaves: np.ndarray  # (N,)
    descriptors: np.ndarray  # (N, n_bytes) packed

    @property
    def n_keypoints(self) -> int:
        return self.keypoints.shape[0]


def reverse(frames) -> list:
    """Frames in reverse order on the forward timestamp grid: the i-th
    reversed frame takes the i-th forward timestamp, so the origin and the
    gaps are kept and reversing twice gives the frames back exactly."""
    frames = list(frames)
    return [replace(f, timestamp=t.timestamp)
            for f, t in zip(reversed(frames), frames)]


@dataclass(frozen=True)
class PipelineConfig:
    """The six bias toggles; the defaults are the paper's choices.

    ``evaluation.ABLATION_AXES`` flips them one at a time.  The string
    toggles name values of the enums they select (``ReferenceRule``,
    ``Ordering``, ``ConstraintMode``, ``CovarianceModel``,
    ``OutlierMode``), and construction raises ``ConfigError`` on an
    unknown one.  Every numeric setting is a module constant of the module
    that uses it, such as ``association.DESCRIPTOR_THRESHOLD``,
    ``optimizer.CHI2_THRESHOLD``, ``worldmap.RETENTION_LATEST``,
    ``features.PYRAMID_SCALE`` or ``RANSAC_ITERATIONS`` here; nothing sets
    them per run.  The world map's invariants are checked after every
    mapping step, whatever the config.
    """

    descriptor_selection: str = "geometric"  # geometric | appearance
    use_depth_filter: bool = True
    association_ordering: str = "hamming_ordered"  # hamming_ordered | sequential
    constraint_mode: str = "symmetric"  # symmetric | heterogeneous
    covariance_model: str = "symmetric"  # symmetric | standard
    outlier_policy: str = "keep_all"  # keep_all | early_removal

    def __post_init__(self):
        for name, enum_type in (
            ("descriptor_selection", ReferenceRule),
            ("association_ordering", Ordering),
            ("constraint_mode", ConstraintMode),
            ("covariance_model", CovarianceModel),
            ("outlier_policy", OutlierMode),
        ):
            try:
                enum_type(getattr(self, name))
            except ValueError:
                raise ConfigError(
                    f"unknown {name} {getattr(self, name)!r}"
                ) from None

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class FrameRecord:
    index: int
    timestamp: float
    n_matches_track: int
    n_matches_local: int
    n_dropped: int


@dataclass
class RunReport:
    """Everything a run leaves behind apart from the trajectory."""

    health: str  # ok | tracking_lost | init_failed
    n_frames: int
    n_tracked: int
    lost_at_frame: int | None
    graph_stats: GraphStats
    digest: str
    frame_records: list = field(default_factory=list)
    n_observations_removed: int = 0
    config_snapshot: dict = field(default_factory=dict)
    init_attempts: int = 0  # initialization tries made against a reference
    init_frame: int | None = None  # 1-based frame that initialized, if any

    def to_dict(self) -> dict:
        return {
            "health": self.health,
            "n_frames": self.n_frames,
            "n_tracked": self.n_tracked,
            "lost_at_frame": self.lost_at_frame,
            "graph_stats": self.graph_stats._asdict(),
            "digest": self.digest,
            "n_observations_removed": self.n_observations_removed,
            "config": self.config_snapshot,
            "init_attempts": self.init_attempts,
            "init_frame": self.init_frame,
        }


def poses_digest(timestamps, poses) -> str:
    """sha256 over the raw bytes of every estimated pose, in order."""
    h = hashlib.sha256()
    for t, pose in zip(timestamps, poses):
        h.update(np.float64(t).tobytes())
        h.update(np.ascontiguousarray(pose.rotation).tobytes())
        h.update(np.ascontiguousarray(pose.translation).tobytes())
    return h.hexdigest()


def _observation_rows(world: WorldMap, point, kf, uv, sigma2, query_translation):
    """``OBSERVATION`` rows of map-point observations, each with its point's
    reference view for a camera at ``query_translation``; every keypoint
    variance enters twice over.

    The reference view is attached under every covariance model: its pose
    is the fixed gauge, and only the optimizer decides whether the backward
    term enters the cost.
    """
    ref_kf, ref_kp = world.reselect_references(point, query_translation)
    rows = np.zeros(len(point), dtype=OBSERVATION)
    rows["point"], rows["kf"], rows["uv"], rows["sigma2"] = point, kf, uv, 2.0 * sigma2
    rows["ref_kf"] = ref_kf
    rows["ref_uv"] = world.gather(ref_kf, ref_kp, "keypoints")
    rows["ref_sigma2"] = 2.0 * world.gather(ref_kf, ref_kp, "noise_sigma2")
    return rows


# ----------------------------------------------------------------------
# two-view initialization


def _eight_point(x1, x2):
    """Essential matrices of a stack of correspondence sets: (H, m, 2)
    normalized coordinates each, m >= 8, give (H, 3, 3).

    Each set is solved as on its own, one LAPACK SVD per matrix.  Only
    ``Vt`` is read, so the SVD of ``A`` is thin, except for sets of fewer
    than nine rows: their null vector is a row of the full ``Vt`` only.
    """
    a, b = x1[..., 0], x1[..., 1]
    c, d = x2[..., 0], x2[..., 1]
    A = np.stack([c * a, c * b, c, d * a, d * b, d, a, b, np.ones(a.shape)],
                 axis=-1)
    _, _, Vt = np.linalg.svd(A, full_matrices=A.shape[-2] < A.shape[-1])
    U, s, Vt = np.linalg.svd(Vt[:, -1].reshape(-1, 3, 3))
    D = np.zeros_like(U)
    D[:, 0, 0] = D[:, 1, 1] = (s[:, 0] + s[:, 1]) / 2.0
    return U @ D @ Vt


def _pixel_rows(x, cam):
    """(3, n) homogeneous pixel coordinates of (n, 2) normalized ones."""
    K = cam.matrix
    return np.hstack([x @ K[:2, :2].T + K[:2, 2], np.ones((len(x), 1))]).T.copy()


def _epipolar_residuals_px(E, u1, u2, K_inv):
    """Symmetric point-to-epipolar-line distances in pixels of (H, 3, 3)
    essential matrices over (3, n) homogeneous pixels: (H, n).

    Each dot product sums its three terms as ``(p0 + p1) + p2``.
    """
    F = K_inv.T @ E @ K_inv
    l2 = F @ u1
    l1 = F.transpose(0, 2, 1) @ u2
    d2 = np.abs((l2[:, 0] * u2[0] + l2[:, 1] * u2[1]) + l2[:, 2] * u2[2]) \
        / np.hypot(l2[:, 0], l2[:, 1])
    d1 = np.abs((l1[:, 0] * u1[0] + l1[:, 1] * u1[1]) + l1[:, 2] * u1[2]) \
        / np.hypot(l1[:, 0], l1[:, 1])
    return np.maximum(d1, d2)


def _solve_hypotheses(x1, x2):
    """``_eight_point`` of every (H, 8, 2) sample set, without the sets whose
    SVD raises ``LinAlgError``; a batch that raises is solved set by set."""
    try:
        return _eight_point(x1, x2)
    except np.linalg.LinAlgError:
        pass
    solved = []
    for a, b in zip(x1, x2):
        try:
            solved.append(_eight_point(a[None], b[None]))
        except np.linalg.LinAlgError:
            continue
    return np.concatenate(solved) if solved else np.zeros((0, 3, 3))


def _decompose_essential(E):
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R1 = U @ W @ Vt
    R2 = U @ W.T @ Vt
    t = U[:, 2]
    return [(R1, t), (R1, -t), (R2, t), (R2, -t)]


def initialize_two_view(uv1, uv2, cam: CameraIntrinsics, rng, sigma):
    """Seeded-RANSAC relative pose and triangulation of two views.

    Returns (rel_pose, points, inlier_mask, parallax) or None when no
    usable model exists.  No adaptive early exit: ``RANSAC_ITERATIONS`` is
    fixed so the draw sequence never depends on the data.  ``sigma`` is
    the per-pair keypoint deviation; ``RANSAC_THRESHOLD_PX`` scales with
    it so coarse-octave matches are gated fairly.

    Determinism contract: the hypotheses are drawn first, each with its own
    ``rng.choice(n, 8, replace=False)`` call in draw order, so the
    generator ends where a draw-solve-score loop leaves it.  They are then
    solved in one batch and scored ``RANSAC_SCORE_CHUNK`` at a time, each
    residual's dot products summed as ``(p0 + p1) + p2``.  A hypothesis
    whose SVD raises ``LinAlgError`` is skipped.  The winner is the first
    hypothesis, in draw order, with the highest inlier count, and that
    count must be positive; its inliers are refitted as a batch of one.
    """
    n = len(uv1)
    if n < 8:
        return None
    rays1, rays2 = unit_ray(uv1, cam), unit_ray(uv2, cam)
    x1, x2 = rays1[:, :2], rays2[:, :2]
    cutoff = RANSAC_THRESHOLD_PX * np.asarray(sigma)
    samples = np.stack([rng.choice(n, size=8, replace=False)
                        for _ in range(RANSAC_ITERATIONS)])
    hypotheses = _solve_hypotheses(x1[samples], x2[samples])
    u1, u2 = _pixel_rows(x1, cam), _pixel_rows(x2, cam)
    K_inv = np.linalg.inv(cam.matrix)
    best_count, best_mask, best_E = 0, None, None
    for lo in range(0, len(hypotheses), RANSAC_SCORE_CHUNK):
        E = hypotheses[lo:lo + RANSAC_SCORE_CHUNK]
        mask = _epipolar_residuals_px(E, u1, u2, K_inv) <= cutoff
        counts = np.count_nonzero(mask, axis=1)
        h = int(np.argmax(counts))
        if counts[h] > best_count:
            best_count, best_mask, best_E = int(counts[h]), mask[h], E[h]
    if best_count < 8:
        return None
    # refit on the consensus set
    E = _eight_point(x1[best_mask][None], x2[best_mask][None])
    mask = _epipolar_residuals_px(E, u1, u2, K_inv)[0] <= cutoff
    if np.count_nonzero(mask) >= 8:
        best_E, best_mask = E[0], mask

    idx = np.nonzero(best_mask)[0]
    d1, d2 = rays1[idx], rays2[idx]
    best = None
    for R, t in _decompose_essential(best_E):
        rel = Pose(R, t)
        cam2_wc = rel.inverse()  # pose of view 2 in view-1 coordinates
        d2_world = d2 @ cam2_wc.rotation.T
        pts, ok = triangulate_rays(
            np.zeros(3), d1, cam2_wc.translation, d2_world
        )
        z1 = pts[:, 2]
        z2 = (rel.apply(pts))[:, 2]
        good = ok & (z1 > 0) & (z2 > 0)
        count = int(np.count_nonzero(good))
        if best is None or count > best[0]:
            best = (count, rel, pts, good)
    count, rel, pts, good = best
    if count < 8:
        return None
    keep = idx[good]
    pts = pts[good]
    return rel, pts, keep, parallax_angles(
        rays1[keep], rays2[keep] @ rel.inverse().rotation.T)


# ----------------------------------------------------------------------


class Pipeline:
    """Owns the world model and processes frames strictly in sequence."""

    def __init__(self, cam: CameraIntrinsics, config: PipelineConfig):
        self.cam = cam
        self.config = config
        self.policy = AssociationPolicy(
            use_depth_filter=config.use_depth_filter,
            ordering=Ordering(config.association_ordering),
            constraint_mode=ConstraintMode(config.constraint_mode),
        )
        self.covariance_model = CovarianceModel(config.covariance_model)
        self.outlier_mode = OutlierMode(config.outlier_policy)
        self.world = WorldMap(ReferenceRule(config.descriptor_selection))
        self.rng = np.random.default_rng(RNG_SEED)
        self.init_ref: FrameInput | None = None
        self.init_attempts = 0
        self.init_frame: int | None = None
        self.prev_pose_cw: Pose | None = None
        self.velocity_cw = Pose.identity()
        self.traj_timestamps: list = []
        self.traj_poses: list = []
        self.frame_records: list = []
        self.n_removed = 0
        self._frame_index = 0

    @property
    def initialized(self) -> bool:
        return self.init_frame is not None

    # ------------------------------------------------------------------

    def _try_initialize(self, frame: FrameInput) -> bool:
        if self.init_ref is None:
            self.init_ref = frame
            self._init_failures = 0
            return False
        ref = self.init_ref
        self.init_attempts += 1

        def give_up():
            # a stale reference view blocks initialization forever; move on
            self._init_failures += 1
            if self._init_failures >= 10:
                self.init_ref = frame
                self._init_failures = 0
            return False

        # descriptor-only one-to-one matching of the two views
        pairs = match(np.arange(ref.n_keypoints), ref.descriptors,
                      np.arange(frame.n_keypoints), frame.descriptors,
                      self.policy, Site.TRIANGULATION)
        if len(pairs) < MIN_INIT_MATCHES:
            return give_up()
        uv1 = ref.keypoints[pairs[:, 0]]
        uv2 = frame.keypoints[pairs[:, 1]]
        sigma = np.sqrt(np.maximum(sigma2_at(ref.octaves[pairs[:, 0]]),
                                   sigma2_at(frame.octaves[pairs[:, 1]])))
        got = initialize_two_view(uv1, uv2, self.cam, self.rng, sigma)
        if got is None:
            return give_up()
        rel, pts, keep, parallax = got
        if np.median(parallax) < MIN_PARALLAX:
            return give_up()
        # the triangulation-site parallax gate applies to each created
        # point; ill-conditioned depths would poison the first adjustment
        solid = parallax >= MIN_PARALLAX
        if int(np.count_nonzero(solid)) < MIN_INIT_MATCHES:
            return give_up()
        keep = keep[solid]
        pts = pts[solid]
        # monocular scale gauge: unit median depth in the first view
        scale = 1.0 / float(np.median(pts[:, 2]))
        pts = pts * scale
        rel = Pose(rel.rotation, rel.translation * scale)

        world = self.world
        kf1 = world.add_keyframe(
            ref.timestamp, Pose.identity(), ref.keypoints, ref.octaves,
            ref.descriptors,
        )
        kf2 = world.add_keyframe(
            frame.timestamp, rel.inverse(), frame.keypoints, frame.octaves,
            frame.descriptors,
        )
        i1, i2 = pairs[keep].T
        world.create_point(pts, [(kf1.kf_id, i1), (kf2.kf_id, i2)])
        self.init_frame = self._frame_index
        self.prev_pose_cw = Pose.identity()  # kf1 camera-from-world
        pose2_cw = kf2.pose.inverse()
        self.velocity_cw = pose2_cw.compose(self.prev_pose_cw.inverse())
        self.prev_pose_cw = pose2_cw
        self._mapping_step(kf2)
        # both initial poses enter the trajectory after the mapping step
        self._record_pose(ref.timestamp, kf1.pose)
        self._record_pose(frame.timestamp, kf2.pose)
        return True

    # ------------------------------------------------------------------

    def _record_pose(self, timestamp, pose_wc):
        self.traj_timestamps.append(float(timestamp))
        self.traj_poses.append(pose_wc)

    def _candidate_points(self, kf_ids) -> np.ndarray:
        """Ids of the points the keyframes hold, in order of first appearance
        (keyframes in the order given, keypoints ascending)."""
        held = np.concatenate([self.world.owners(k) for k in kf_ids])
        held = held[held >= 0]
        _, first = np.unique(held, return_index=True)
        return held[np.sort(first)]

    def _pose_problem(self, frame, pose_wc, matches):
        """The frame's pose problem at ``pose_wc``; row i observes ``matches[i]``."""
        point, kp = matches.T
        world = self.world
        rows = _observation_rows(world, point, _FRAME_SENTINEL, frame.keypoints[kp],
                                 sigma2_at(frame.octaves[kp]), pose_wc.translation)
        poses = {k: world.keyframes[k].pose for k in np.unique(rows["ref_kf"]).tolist()}
        return OptimizationProblem(
            cam=self.cam, poses={**poses, _FRAME_SENTINEL: pose_wc},
            points=dict(zip(point.tolist(), world.positions[point])),
            observations=rows, model=self.covariance_model,
            variable_pose_ids=(_FRAME_SENTINEL,),
        )

    def _search(self, frame, kf_ids, pose_wc, site, scores):
        """Projection search at ``pose_wc`` of the points the keyframes hold,
        sharing the frame's ``scores`` with its other search."""
        batch = self.world.point_batch(self._candidate_points(kf_ids),
                                       pose_wc.translation)
        return search_by_projection(frame, batch, pose_wc, self.policy, self.cam,
                                    site=site, scores=scores)

    def _track(self, frame: FrameInput):
        """Two-stage projection search plus pose refinement.

        Returns (pose_wc, matches), ``matches`` being (point id, keypoint)
        rows, or None when tracking is lost.  Either way the frame gets its
        ``FrameRecord``.
        """
        pred_cw = self.velocity_cw.compose(self.prev_pose_cw)
        pose_wc = pred_cw.inverse()

        last_kf_id = self.world.keyframe_ids()[-1]
        # the local search reuses the pairs this search scores
        scores = FrameScores(frame.descriptors)
        matches = self._search(frame, [last_kf_id], pose_wc, Site.PROJECTION_TRACK,
                               scores)
        n_track = len(matches)
        if n_track >= 6:
            try:
                result = optimize_pose(
                    self._pose_problem(frame, pose_wc, matches))
                pose_wc = result.pose
            except DegenerateProblemError:
                pass

        matches = self._search(frame, self.world.local_keyframe_ids(), pose_wc,
                               Site.PROJECTION_LOCAL, scores)
        record = FrameRecord(self._frame_index, frame.timestamp, n_track,
                             len(matches), n_dropped=0)
        self.frame_records.append(record)
        if len(matches) < 6:
            return None
        result = optimize_pose(self._pose_problem(frame, pose_wc, matches))
        pose_wc = result.pose
        if self.outlier_mode is OutlierMode.EARLY_REMOVAL:
            kept = matches[result.inlier]
            if len(kept) >= 6:
                record.n_dropped = len(matches) - len(kept)
                matches = kept
        return pose_wc, matches

    # ------------------------------------------------------------------

    def _local_ba(self, kf_new):
        """Local BA with every window point variable (``cull_points`` ran first,
        so each has two holders), references read at ``kf_new``'s pose."""
        world = self.world
        window = world.latest_keyframe_ids()
        # points observed from the window, with every observing keyframe
        point_ids = world.window_point_ids()
        if point_ids.size == 0:
            return
        point, kf, kp = world.bindings(point_ids)
        included_kfs = set(kf.tolist())
        fixed = sorted(included_kfs - set(window))
        variable = list(window)
        while len(fixed) < 2 and len(variable) > 1:
            fixed.append(variable.pop(0))
        if not fixed:
            fixed.append(variable.pop(0))

        poses = {k: world.keyframes[k].pose for k in sorted(included_kfs | set(window))}
        problem = OptimizationProblem(
            cam=self.cam, poses=poses,
            points=dict(zip(point_ids.tolist(), world.positions[point_ids])),
            observations=_observation_rows(
                world, point, kf, world.gather(kf, kp, "keypoints"),
                world.gather(kf, kp, "noise_sigma2"), kf_new.pose.translation),
            model=self.covariance_model,
            variable_pose_ids=tuple(sorted(variable)),
            variable_point_ids=point_ids,
        )
        result = local_bundle_adjustment(problem, self.outlier_mode)
        for kf_id in variable:
            world.keyframes[kf_id].pose = result.poses[kf_id]
        world.positions[point_ids] = result.points
        world.set_inlier(point, kf, result.inlier)  # the problem's rows are the bindings
        world.remove_observation(point[result.removed], kf[result.removed])
        self.n_removed += len(result.removed)

    def _mapping_step(self, kf_new):
        world = self.world
        world.cull_points()

        # triangulate new points against the recent keyframes
        neighbors = [k for k in world.latest_keyframe_ids() if k != kf_new.kf_id]
        new_point_ids = [np.zeros(0, dtype=np.int64)]
        for kf_prev_id in neighbors:
            pairs, positions = search_for_triangulation(
                world.keyframes[kf_prev_id], kf_new, world.owners(kf_prev_id),
                world.owners(kf_new.kf_id), self.policy, self.cam)
            new_point_ids.append(world.create_point(
                positions, [(kf_prev_id, pairs[:, 0]), (kf_new.kf_id, pairs[:, 1])]))
        new_point_ids = np.concatenate(new_point_ids)  # ascending

        # fuse the new points into the other local keyframes
        local_ids = [
            k for k in world.local_keyframe_ids() if k != kf_new.kf_id
        ]
        for kf_id in local_ids:
            self._apply_fuse(new_point_ids, world.keyframes[kf_id])

        self._local_ba(kf_new)
        world.apply_retention(kf_new.kf_id)
        world.check_integrity()

    def _apply_fuse(self, point_ids, kf):
        """Fuse the live points that ``kf`` does not hold yet into it."""
        world = self.world
        owner = world.owners(kf.kf_id)
        point_ids = point_ids[np.isin(point_ids, world.points) & ~np.isin(point_ids, owner)]
        if point_ids.size == 0:
            return
        batch = world.point_batch(point_ids, kf.pose.translation)
        pid, kp = fuse(batch, kf, self.policy, self.cam).T
        # ``point_ids`` holds no point the keyframe holds, and ``match`` gives
        # one row per point and one per keypoint: each merge pairs a row's
        # point with its keypoint's owner, no two edits share a point, and
        # the edits commute, so each kind is made in one batch
        owner = owner[kp]
        attach = owner < 0
        world.add_observation(pid[attach], kf.kf_id, kp[attach])
        survivor = np.minimum(owner, pid)[~attach]
        world.merge_points(survivor, np.maximum(owner, pid)[~attach])

    # ------------------------------------------------------------------

    def process_frame(self, frame: FrameInput) -> bool:
        """Advance the pipeline by one frame; False once tracking is lost."""
        self._frame_index += 1
        if not self.initialized:
            self._try_initialize(frame)
            return True
        tracked = self._track(frame)
        if tracked is None:
            return False
        pose_wc, matches = tracked
        kf = self.world.add_keyframe(
            frame.timestamp, pose_wc, frame.keypoints, frame.octaves,
            frame.descriptors,
        )
        self.world.add_observation(matches[:, 0], kf.kf_id, matches[:, 1])
        self._mapping_step(kf)
        self.velocity_cw = kf.pose.inverse().compose(self.prev_pose_cw.inverse())
        self.prev_pose_cw = kf.pose.inverse()
        self._record_pose(frame.timestamp, kf.pose)
        return True

    def run(self, frames) -> tuple:
        """Process a frame stream; returns (Trajectory, RunReport)."""
        frames = list(frames)
        if len(frames) < 2:
            raise SymvoError("a run needs at least two frames")
        health = "ok"
        lost_at = None
        for frame in frames:
            if not self.process_frame(frame):
                health = "tracking_lost"
                lost_at = self._frame_index
                break
        if not self.initialized:
            health = "init_failed"
        trajectory = Trajectory(self.traj_timestamps, self.traj_poses)
        report = RunReport(
            health=health,
            n_frames=len(frames),
            n_tracked=len(self.traj_poses),
            lost_at_frame=lost_at,
            graph_stats=self.world.graph_stats(),
            digest=poses_digest(self.traj_timestamps, self.traj_poses),
            frame_records=self.frame_records,
            n_observations_removed=self.n_removed,
            config_snapshot=self.config.snapshot(),
            init_attempts=self.init_attempts,
            init_frame=self.init_frame,
        )
        return trajectory, report
