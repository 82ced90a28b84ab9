"""Timestamped pose sequences and their one on-disk format.

A trajectory file is TUM format: ``timestamp tx ty tz qx qy qz qw`` per
line, the world-from-camera pose as a translation and a unit quaternion,
timestamps strictly increasing.  Blank lines and ``#`` comments are
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SymvoError
from .geometry import Pose, quaternion_to_rotation, rotation_to_quaternion


@dataclass(frozen=True)
class Trajectory:
    """Strictly time-ordered world-from-camera poses."""

    timestamps: np.ndarray  # (n,)
    poses: tuple  # of Pose

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        if ts.ndim != 1 or len(self.poses) != ts.size:
            raise ValueError("timestamps and poses must be parallel")
        if ts.size >= 2 and np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", tuple(self.poses))

    def __len__(self):
        return len(self.poses)

    def positions(self) -> np.ndarray:
        if not self.poses:
            return np.zeros((0, 3))
        return np.stack([p.translation for p in self.poses])

    def transformed(self, scale: float, rotation, translation) -> "Trajectory":
        """Apply a similarity transform to every pose."""
        R = np.asarray(rotation, dtype=np.float64)
        t = np.asarray(translation, dtype=np.float64)
        new_poses = [
            Pose(R @ p.rotation, scale * (R @ p.translation) + t)
            for p in self.poses
        ]
        return Trajectory(self.timestamps.copy(), tuple(new_poses))

    def reversed(self) -> "Trajectory":
        """Poses in reverse order on the same timestamps, as
        ``pipeline.reverse`` times reversed frames."""
        return Trajectory(self.timestamps.copy(), tuple(reversed(self.poses)))


def load_trajectory(path) -> Trajectory:
    """The TUM-format trajectory in ``path``; a line that is not eight
    finite numbers with a unit quaternion, or whose timestamp does not
    follow the previous one's, raises ``ParseError``."""
    timestamps, poses = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != 8:
                raise ParseError(path, lineno, f"expected 8 fields, got {len(fields)}")
            try:
                values = [float(x) for x in fields]
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from exc
            if not np.all(np.isfinite(values)):
                raise ParseError(path, lineno, "non-finite value")
            t, tx, ty, tz, qx, qy, qz, qw = values
            if timestamps and t <= timestamps[-1]:
                raise ParseError(path, lineno,
                                 f"timestamp {t!r} does not follow {timestamps[-1]!r}")
            norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
            if abs(norm - 1.0) > 1e-3:
                raise ParseError(path, lineno, f"quaternion norm {norm:.6f} is not 1")
            timestamps.append(t)
            poses.append(Pose(quaternion_to_rotation((qx, qy, qz, qw)), (tx, ty, tz)))
    if not poses:
        raise SymvoError(f"{path}: trajectory file holds no poses")
    return Trajectory(np.array(timestamps), tuple(poses))


def save_trajectory(path, trajectory: Trajectory):
    """Write ``trajectory`` in TUM format, which ``load_trajectory`` reads."""
    with open(path, "w") as f:
        for t, pose in zip(trajectory.timestamps, trajectory.poses):
            q = rotation_to_quaternion(pose.rotation)
            tx, ty, tz = pose.translation
            f.write(
                f"{t:.9f} {tx:.17g} {ty:.17g} {tz:.17g} "
                f"{q[0]:.17g} {q[1]:.17g} {q[2]:.17g} {q[3]:.17g}\n"
            )
