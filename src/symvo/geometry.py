"""Pinhole camera model, rigid transforms, and two-view geometry helpers.

Conventions used throughout the package:

- image coordinates follow OpenCV: u right, v down, origin at the top-left
  corner; the camera looks along +z in its own frame.
- a ``Pose`` is the rigid map ``y = R x + t``.  Keyframes store the
  world-from-camera pose, so the camera center in world coordinates is the
  translation component.
- keypoint coordinates are always expressed at octave-0 resolution.

``pinhole`` is the one projection of camera-frame points to pixels, used
by the projection searches, the optimizer's residuals and the scene
generator alike; ``unit_ray`` is its inverse up to depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

IN_FRONT_DEPTH = 1e-9  # a camera-frame point is in front when its depth exceeds this
_ORTHO_TOL = 1e-9


def _as_float_array(value, shape, name):
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with the octave-0 image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def contains(self, uv):
        """Vectorized test that pixel coordinates lie inside the image."""
        uv = np.asarray(uv, dtype=np.float64)
        u, v = uv[..., 0], uv[..., 1]
        return (
            (u >= 0)
            & (u <= self.width - 1)
            & (v >= 0)
            & (v <= self.height - 1)
        )


def so3_hat(w) -> np.ndarray:
    """Skew-symmetric matrix such that so3_hat(w) @ v == cross(w, v)."""
    w = np.asarray(w, dtype=np.float64)
    return np.array(
        [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
    )


def so3_exp(w) -> np.ndarray:
    """Rodrigues formula: rotation matrix from an axis-angle vector."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.linalg.norm(w)
    K = so3_hat(w)
    if theta < 1e-10:
        # second-order series keeps exp/log round trips accurate near zero
        return np.eye(3) + K + 0.5 * (K @ K)
    K = K / theta
    s, c = math.sin(theta), math.cos(theta)
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def orthonormalize_rotation(R) -> np.ndarray:
    """Project a near-rotation matrix back onto SO(3) via SVD."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=np.float64))
    D = np.eye(3)
    D[2, 2] = np.sign(np.linalg.det(U @ Vt))
    return U @ D @ Vt


@dataclass(frozen=True)
class Pose:
    """Rigid transform ``y = rotation @ x + translation``."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        R = _as_float_array(self.rotation, (3, 3), "rotation")
        t = _as_float_array(self.translation, (3,), "translation")
        gram = R.T @ R
        gram[0, 0] -= 1.0
        gram[1, 1] -= 1.0
        gram[2, 2] -= 1.0
        if float(np.max(np.abs(gram))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_axis_angle(cls, w, t=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(so3_exp(w), np.asarray(t, dtype=np.float64))

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or a stack (..., 3) of points."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: apply ``other`` first, then ``self``."""
        return Pose(
            orthonormalize_rotation(self.rotation @ other.rotation),
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(Rt, -Rt @ self.translation)

    def almost_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        return bool(
            np.allclose(self.rotation, other.rotation, atol=tol)
            and np.allclose(self.translation, other.translation, atol=tol)
        )

    def depth_of(self, points) -> np.ndarray:
        """Camera-frame depth of world point(s) under this world-from-camera
        pose, without building the inverse transform."""
        p = np.asarray(points, dtype=np.float64)
        return (p - self.translation) @ self.rotation[:, 2]


def rotation_to_quaternion(R) -> np.ndarray:
    """Unit quaternion (qx, qy, qz, qw) of a rotation matrix."""
    R = np.asarray(R, dtype=np.float64)
    t = np.trace(R)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2.0
        qw = 0.25 * s
        qx = (R[2, 1] - R[1, 2]) / s
        qy = (R[0, 2] - R[2, 0]) / s
        qz = (R[1, 0] - R[0, 1]) / s
    else:
        i = int(np.argmax(np.diagonal(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2.0
        q = np.zeros(4)
        q[i] = 0.25 * s
        q[3] = (R[k, j] - R[j, k]) / s
        q[j] = (R[j, i] + R[i, j]) / s
        q[k] = (R[k, i] + R[i, k]) / s
        qx, qy, qz, qw = q
    q = np.array([qx, qy, qz, qw])
    if qw < 0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a quaternion given as (qx, qy, qz, qw)."""
    x, y, z, w = np.asarray(q, dtype=np.float64)
    n = math.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / n, y / n, z / n, w / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def pinhole(q, cam: CameraIntrinsics) -> tuple:
    """Pixel coordinates of camera-frame point(s) ``q`` (..., 3), and
    whether each point is in front of the camera.

    A point is in front when its depth exceeds ``IN_FRONT_DEPTH``.  The
    others are divided by a depth of 1.0 instead, which raises no
    floating-point warning; their pixel means nothing.
    """
    q = np.asarray(q, dtype=np.float64)
    in_front = q[..., 2] > IN_FRONT_DEPTH
    z = np.where(in_front, q[..., 2], 1.0)
    uv = np.empty(q.shape[:-1] + (2,))
    uv[..., 0] = cam.fx * q[..., 0] / z + cam.cx
    uv[..., 1] = cam.fy * q[..., 1] / z + cam.cy
    return uv, in_front


def unit_ray(uv, cam: CameraIntrinsics) -> np.ndarray:
    """Camera-frame ray direction ((u-cx)/fx, (v-cy)/fy, 1) for pixel(s)."""
    uv = np.asarray(uv, dtype=np.float64)
    d = np.empty(uv.shape[:-1] + (3,))
    d[..., 0] = (uv[..., 0] - cam.cx) / cam.fx
    d[..., 1] = (uv[..., 1] - cam.cy) / cam.fy
    d[..., 2] = 1.0
    return d


def parallax_angles(rays_i, rays_j) -> np.ndarray:
    """Vectorized parallax between row-paired stacks of rays."""
    a = np.asarray(rays_i, dtype=np.float64)
    b = np.asarray(rays_j, dtype=np.float64)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    cosang = np.einsum("...k,...k->...", a, b) / (na * nb)
    return np.arccos(np.clip(cosang, -1.0, 1.0))

