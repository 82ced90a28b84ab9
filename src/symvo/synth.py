"""Ground-truth scene generator for pipeline oracles.

Landmark fields, camera trajectories, projected keypoints with
octave-aware noise, per-landmark descriptor signatures with controlled
bit flips, and decoy outlier keypoints.  A ``SceneSpec`` holds what a
scene varies by: its size, trajectory kind, path length, pixel noise,
decoy rate and seed.  The camera (``DEFAULT_CAMERA``), frame rate, depth
range, visibility floor, orbit cloud size and descriptor flip rate are
module constants.  Everything is a pure function of the spec, so
generated sequences are byte-identical across runs.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SceneSpecError
from .features import (
    DESCRIPTOR_BITS,
    OCTAVE_SCALE,
    PYRAMID_OCTAVES,
    PYRAMID_SCALE,
    octave_for_depth,
)
from .geometry import CameraIntrinsics, Pose, pinhole, so3_exp
from .pipeline import FrameInput
from .trajectory import Trajectory, load_trajectory, save_trajectory

TRAJECTORY_KINDS = ("forward-corridor", "lateral", "orbit", "random-walk")

DEFAULT_CAMERA = CameraIntrinsics(
    fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480
)
FPS = 20.0
Z_NEAR, Z_FAR = 2.0, 60.0  # depths at which a landmark is visible
MIN_VISIBLE = 50  # landmarks every frame must observe
ORBIT_CLOUD_SCALE = 0.3  # landmark cloud radius / orbit radius
DESCRIPTOR_FLIP_RATE = 0.02  # per-bit flip probability of an observation


@dataclass(frozen=True)
class SceneSpec:
    """What one synthetic sequence varies by; the rest are module constants."""

    n_landmarks: int = 2000
    n_frames: int = 200
    trajectory: str = "forward-corridor"
    path_length: float = 50.0
    noise_px: float = 0.0
    outlier_rate: float = 0.0
    seed: int = 7

    def __post_init__(self):
        if self.trajectory not in TRAJECTORY_KINDS:
            raise SceneSpecError(f"unknown trajectory kind {self.trajectory!r}")
        if not (0 <= self.outlier_rate < 1):
            raise SceneSpecError("outlier_rate must lie in [0, 1)")
        if not self.noise_px >= 0:
            raise SceneSpecError("noise_px must be non-negative")
        if self.n_frames < 2 or self.n_landmarks < MIN_VISIBLE:
            raise SceneSpecError("scene is too small to be observable")


@dataclass
class SyntheticSequence:
    """Frames plus the ground truth they were rendered from."""

    spec: SceneSpec
    frames: list  # of FrameInput
    ground_truth: Trajectory
    frame_landmark_ids: list  # per frame: (n_keypoints,) landmark id or -1
    cam = DEFAULT_CAMERA  # not a field: every scene is seen through it


def _look_at_rotation(forward) -> np.ndarray:
    """World-from-camera rotation with the camera +z along ``forward`` and
    its +y as near world -y as ``forward`` allows."""
    f = np.asarray(forward, dtype=np.float64)
    f = f / np.linalg.norm(f)
    r = np.cross((0.0, -1.0, 0.0), f)
    norm = np.linalg.norm(r)
    if norm < 1e-12:
        r = np.cross((0.0, 0.0, 1.0), f)
        norm = np.linalg.norm(r)
    r = r / norm
    d = np.cross(f, r)
    return np.stack([r, d, f], axis=1)


def _trajectory_poses(spec: SceneSpec, rng) -> list:
    n, L = spec.n_frames, spec.path_length
    s = np.linspace(0.0, 1.0, n)
    if spec.trajectory == "forward-corridor":
        # gentle lateral sway keeps the path non-collinear for alignment
        x = 0.6 * np.sin(2.0 * math.pi * 1.5 * s)
        y = 0.25 * np.sin(2.0 * math.pi * 0.9 * s + 1.0)
        centers = np.stack([x, y, L * s], axis=1)
        poses = [Pose(np.eye(3), c) for c in centers]
    elif spec.trajectory == "lateral":
        x = L * s
        y = 0.3 * np.sin(2.0 * math.pi * 1.2 * s)
        z = 0.4 * np.sin(2.0 * math.pi * 0.7 * s + 0.5)
        centers = np.stack([x, y, z], axis=1)
        poses = [Pose(np.eye(3), c) for c in centers]
    elif spec.trajectory == "orbit":
        radius = max(L / (2.0 * math.pi), 6.0)
        angle = 2.0 * math.pi * 0.9 * s
        centers = np.stack([
            radius * np.sin(angle),
            0.5 * np.sin(2.0 * math.pi * 0.8 * s),
            -radius * np.cos(angle),
        ], axis=1)
        poses = [
            Pose(_look_at_rotation(-c / np.linalg.norm(c)), c) for c in centers
        ]
    else:  # random-walk
        step = L / n
        heading = np.zeros(3)
        centers = [np.zeros(3)]
        direction = np.array([0.0, 0.0, 1.0])
        for _ in range(n - 1):
            heading = 0.9 * heading + rng.normal(scale=0.02, size=3)
            direction = so3_exp(heading) @ np.array([0.0, 0.0, 1.0])
            centers.append(centers[-1] + step * direction)
        centers = np.stack(centers)
        poses = []
        for k in range(n):
            ahead = centers[min(k + 1, n - 1)] - centers[max(k - 1, 0)]
            poses.append(Pose(_look_at_rotation(ahead), centers[k]))
    return poses


def _landmark_field(spec: SceneSpec, poses, rng) -> np.ndarray:
    centers = np.stack([p.translation for p in poses])
    lo = centers.min(axis=0)
    hi = centers.max(axis=0)
    if spec.trajectory == "orbit":
        # a central cloud small enough to stay fully inside the field of
        # view from everywhere on the orbit
        orbit_radius = 0.5 * float(max(hi[0] - lo[0], hi[2] - lo[2]))
        radius = ORBIT_CLOUD_SCALE * orbit_radius
        pts = rng.uniform(-1.0, 1.0, size=(spec.n_landmarks, 3))
        return pts * np.array([radius, 0.55 * radius, radius])
    margin_side = 7.0
    box_lo = lo - margin_side
    box_hi = hi + margin_side
    if spec.trajectory == "forward-corridor":
        box_lo[2] = lo[2] + Z_NEAR
        box_hi[2] = hi[2] + 0.6 * Z_FAR
    elif spec.trajectory == "lateral":
        box_lo[2] = hi[2] + Z_NEAR + 2.0
        box_hi[2] = hi[2] + 0.75 * Z_FAR
    else:  # random-walk: like the corridor's, the box reaches ahead of every pose
        ahead = centers + 0.6 * Z_FAR * np.stack([p.rotation[:, 2] for p in poses])
        box_lo = np.minimum(box_lo, ahead.min(axis=0))
        box_hi = np.maximum(box_hi, ahead.max(axis=0))
    return rng.uniform(box_lo, box_hi, size=(spec.n_landmarks, 3))


_FLIP_ROWS = 256  # keypoints per block of descriptor-flip draws


def generate(spec: SceneSpec) -> SyntheticSequence:
    """Render a full sequence; raises SceneSpecError on starved frames."""
    rng = np.random.default_rng(spec.seed)
    poses = _trajectory_poses(spec, rng)
    landmarks = _landmark_field(spec, poses, rng)
    n_bytes = DESCRIPTOR_BITS // 8
    signatures = rng.integers(0, 256, size=(spec.n_landmarks, n_bytes),
                              dtype=np.uint8)
    cam = DEFAULT_CAMERA
    timestamps = np.arange(spec.n_frames, dtype=np.float64) / FPS

    # visibility prepass; the deepest visible depth anchors octave 0 so
    # the octave range is exercised regardless of the scene's depth span
    per_frame = []
    z_ref = 0.0
    for k, pose in enumerate(poses):
        rel = pose.inverse().apply(landmarks)
        z = rel[:, 2]
        uv, in_front = pinhole(rel, cam)
        u, v = uv[:, 0], uv[:, 1]
        visible = (
            in_front & (z > Z_NEAR) & (z < Z_FAR)
            & (u >= 1.0) & (u <= cam.width - 2.0)
            & (v >= 1.0) & (v <= cam.height - 2.0)
        )
        ids = np.nonzero(visible)[0]
        if ids.size < MIN_VISIBLE:
            raise SceneSpecError(
                f"frame {k} observes only {ids.size} landmarks "
                f"(minimum {MIN_VISIBLE})"
            )
        per_frame.append((ids, uv[ids], z[ids]))
        z_ref = max(z_ref, float(z[ids].max()))

    # descriptor flips are drawn into one small buffer, block by block: a
    # fresh (n, 256) float array per frame, megabytes in size, faults its
    # pages in again whenever the allocator has trimmed the heap between
    # frames.  ``rng.random`` fills the rows in order, so the draws are
    # those of one call per frame.
    draws = np.empty((_FLIP_ROWS, DESCRIPTOR_BITS))
    frames = []
    frame_landmark_ids = []
    for k in range(spec.n_frames):
        ids, uv_exact, z_vis = per_frame[k]
        octaves = octave_for_depth(z_vis, z_far=z_ref)
        uv = uv_exact.copy()
        if spec.noise_px > 0:
            sigma = spec.noise_px * OCTAVE_SCALE[octaves]
            uv = uv + rng.normal(size=uv.shape) * sigma[:, None]
            uv[:, 0] = np.clip(uv[:, 0], 0.0, cam.width - 1.0)
            uv[:, 1] = np.clip(uv[:, 1], 0.0, cam.height - 1.0)
        descs = signatures[ids].copy()
        for lo in range(0, ids.size, _FLIP_ROWS):
            rows = draws[:min(_FLIP_ROWS, ids.size - lo)]
            rng.random(out=rows)
            descs[lo:lo + rows.shape[0]] ^= np.packbits(
                rows < DESCRIPTOR_FLIP_RATE, axis=1)
        landmark_ids = ids.astype(np.int64)

        n_out = int(round(spec.outlier_rate * ids.size))
        if n_out:
            out_uv = np.stack([
                rng.uniform(1.0, cam.width - 2.0, size=n_out),
                rng.uniform(1.0, cam.height - 2.0, size=n_out),
            ], axis=1)
            out_oct = rng.integers(0, PYRAMID_OCTAVES, size=n_out)
            out_desc = rng.integers(0, 256, size=(n_out, n_bytes), dtype=np.uint8)
            uv = np.vstack([uv, out_uv])
            octaves = np.concatenate([octaves, out_oct])
            descs = np.vstack([descs, out_desc])
            landmark_ids = np.concatenate(
                [landmark_ids, np.full(n_out, -1, dtype=np.int64)]
            )

        # detection-like ordering: coarse-to-fine octave, then scanline
        order = np.lexsort((uv[:, 0], uv[:, 1], octaves))
        frames.append(FrameInput(
            timestamp=float(timestamps[k]),
            keypoints=np.ascontiguousarray(uv[order]),
            octaves=np.ascontiguousarray(octaves[order]),
            descriptors=np.ascontiguousarray(descs[order]),
        ))
        frame_landmark_ids.append(np.ascontiguousarray(landmark_ids[order]))

    return SyntheticSequence(
        spec=spec,
        frames=frames,
        ground_truth=Trajectory(timestamps, tuple(poses)),
        frame_landmark_ids=frame_landmark_ids,
    )


# ----------------------------------------------------------------------
# on-disk layout


def export(seq: SyntheticSequence, out_dir):
    """Write a sequence as the directory that ``load_frames`` and
    ``load_ground_truth`` read back:

    - ``intrinsics.txt``: ``camera.*`` keys, one ``key = value`` a line
    - ``times.txt``: one frame timestamp a line, strictly increasing
    - ``frames/frame_NNNNNN.csv``: a frame's keypoints, one
      ``u,v,octave,descriptor_hex`` row each
    - ``groundtruth.txt``: the ground-truth poses in TUM format
    """
    os.makedirs(out_dir, exist_ok=True)
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    cam = seq.cam
    with open(os.path.join(out_dir, "intrinsics.txt"), "w") as f:
        f.write(f"camera.fx = {cam.fx:.17g}\n")
        f.write(f"camera.fy = {cam.fy:.17g}\n")
        f.write(f"camera.cx = {cam.cx:.17g}\n")
        f.write(f"camera.cy = {cam.cy:.17g}\n")
        f.write(f"camera.width = {cam.width}\n")
        f.write(f"camera.height = {cam.height}\n")
    with open(os.path.join(out_dir, "times.txt"), "w") as f:
        for frame in seq.frames:
            f.write(f"{frame.timestamp:.9f}\n")
    for k, frame in enumerate(seq.frames):
        path = os.path.join(frames_dir, f"frame_{k:06d}.csv")
        with open(path, "w") as f:
            f.write("u,v,octave,descriptor_hex\n")
            for i in range(frame.n_keypoints):
                f.write(
                    f"{frame.keypoints[i, 0]:.17g},{frame.keypoints[i, 1]:.17g},"
                    f"{int(frame.octaves[i])},"
                    f"{frame.descriptors[i].tobytes().hex()}\n"
                )
    save_trajectory(os.path.join(out_dir, "groundtruth.txt"), seq.ground_truth)


def load_intrinsics(path) -> CameraIntrinsics:
    """The camera of an intrinsics file.  The pipeline runs one pyramid
    (``PYRAMID_SCALE``, ``PYRAMID_OCTAVES``), so ``pyramid.*`` keys naming
    another raise."""
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            m = re.match(r"^([A-Za-z0-9_.]+)\s*=\s*(.+)$", text)
            if not m:
                raise ParseError(path, lineno, f"malformed line {text!r}")
            values[m.group(1)] = m.group(2)
    try:
        cam = CameraIntrinsics(
            fx=float(values["camera.fx"]), fy=float(values["camera.fy"]),
            cx=float(values["camera.cx"]), cy=float(values["camera.cy"]),
            width=int(values["camera.width"]),
            height=int(values["camera.height"]),
        )
        pyramid = (float(values.get("pyramid.scale", PYRAMID_SCALE)),
                   int(values.get("pyramid.octaves", PYRAMID_OCTAVES)))
    except KeyError as exc:
        raise ParseError(path, 0, f"missing key {exc}") from exc
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc
    if pyramid != (PYRAMID_SCALE, PYRAMID_OCTAVES):
        raise ParseError(path, 0, f"pyramid (scale, octaves) {pyramid} is not the "
                                  "default pyramid, the only one the pipeline runs")
    return cam


def load_frames(seq_dir) -> tuple:
    """(frames, cam) from an exported sequence directory."""
    cam = load_intrinsics(os.path.join(seq_dir, "intrinsics.txt"))
    times_path = os.path.join(seq_dir, "times.txt")
    timestamps = []
    with open(times_path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                t = float(line)
            except ValueError as exc:
                raise ParseError(times_path, lineno, str(exc)) from exc
            if not math.isfinite(t) or (timestamps and t <= timestamps[-1]):
                raise ParseError(times_path, lineno,
                                 f"timestamp {t!r} is not a finite time after "
                                 "the previous line's")
            timestamps.append(t)
    frames_dir = os.path.join(seq_dir, "frames")
    names = sorted(os.listdir(frames_dir))
    if len(names) != len(timestamps):
        raise ParseError(times_path, 0,
                         f"{len(timestamps)} timestamps for {len(names)} frames")
    frames = []
    for k, name in enumerate(names):
        path = os.path.join(frames_dir, name)
        uv, octs, descs = [], [], []
        with open(path) as f:
            header = f.readline().strip()
            if header != "u,v,octave,descriptor_hex":
                raise ParseError(path, 1, f"unexpected header {header!r}")
            for lineno, line in enumerate(f, start=2):
                text = line.strip()
                if not text:
                    continue
                parts = text.split(",")
                if len(parts) != 4:
                    raise ParseError(path, lineno, "expected 4 columns")
                try:
                    uv.append((float(parts[0]), float(parts[1])))
                    octs.append(int(parts[2]))
                    descs.append(np.frombuffer(bytes.fromhex(parts[3]),
                                               dtype=np.uint8))
                except ValueError as exc:
                    raise ParseError(path, lineno, str(exc)) from exc
                if descs[-1].size != descs[0].size:
                    raise ParseError(path, lineno,
                                     f"{descs[-1].size}-byte descriptor after "
                                     f"{descs[0].size}-byte ones")
                if not (np.isfinite(uv[-1]).all() and 0 <= octs[-1] < PYRAMID_OCTAVES):
                    raise ParseError(path, lineno, f"keypoint {uv[-1]} at octave "
                                     f"{octs[-1]} is not a finite point of the pyramid")
        frames.append(FrameInput(
            timestamp=timestamps[k],
            keypoints=np.array(uv, dtype=np.float64).reshape(len(uv), 2),
            octaves=np.array(octs, dtype=np.int64),
            descriptors=(np.stack(descs) if descs
                         else np.zeros((0, DESCRIPTOR_BITS // 8), np.uint8)),
        ))
    return frames, cam


def load_ground_truth(seq_dir) -> Trajectory:
    return load_trajectory(os.path.join(seq_dir, "groundtruth.txt"))
