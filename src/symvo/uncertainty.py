"""Residual covariance models for reprojection errors.

Two weighting regimes are supported: the standard single-view
approximation (residual variance 2*sigma2 of the observing view) and the
symmetric two-view cost, which evaluates the reprojection error in both
views and normalizes each by its own keypoint covariance.  The alpha
ratios quantify how far either approximation is from the linearized
variance under an isotropic perspective scaling eps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError
from .geometry import CameraIntrinsics, Pose, reproject


class CovarianceModel(enum.Enum):
    STANDARD = "standard"
    SYMMETRIC = "symmetric"


# Huber threshold of every robust cost: the 95% quantile of the chi
# distribution with 2 degrees of freedom, sqrt(5.991)
HUBER_DELTA = 2.447


@dataclass(frozen=True)
class KeypointNoise:
    """Pixel variance of a keypoint at its detection octave."""

    sigma2: float
    octave: int = 0

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("keypoint variance must be positive")


@dataclass(frozen=True)
class ResidualTerm:
    """A reprojection residual with per-view variances.

    r_backward is all-zero under the standard model.
    """

    r_forward: np.ndarray
    r_backward: np.ndarray
    sigma2_i: float
    sigma2_j: float

    def __post_init__(self):
        if self.sigma2_i <= 0 or self.sigma2_j <= 0:
            raise ValueError("residual variances must be positive")

    @property
    def mahalanobis2_forward(self) -> float:
        return float(np.dot(self.r_forward, self.r_forward)) / self.sigma2_i

    @property
    def mahalanobis2_backward(self) -> float:
        return float(np.dot(self.r_backward, self.r_backward)) / self.sigma2_j

    @property
    def total_cost(self) -> float:
        return self.mahalanobis2_forward + self.mahalanobis2_backward


def residual_standard(u_i, u, z, rel: Pose, cam: CameraIntrinsics,
                      noise_i: KeypointNoise) -> ResidualTerm:
    """Single-view residual u_i - phi(u) with variance 2*sigma2_i."""
    u_i = np.asarray(u_i, dtype=np.float64)
    r = u_i - reproject(u, z, rel, cam)
    s2 = 2.0 * noise_i.sigma2
    return ResidualTerm(r, np.zeros(2), s2, s2)


def residual_symmetric(u_i, u, z_j, z_i, rel: Pose, cam: CameraIntrinsics,
                       noise_i: KeypointNoise, noise_j: KeypointNoise) -> ResidualTerm:
    """Two-view residual pair, each normalized by its own view's covariance.

    z_j is the point depth in the reference view, z_i its depth in the
    observing view; both are held constant for the evaluation.
    """
    u_i = np.asarray(u_i, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    try:
        r_fwd = u_i - reproject(u, z_j, rel, cam)
    except BehindCameraError:
        raise BehindCameraError(direction="forward")
    try:
        r_bwd = u - reproject(u_i, z_i, rel.inverse(), cam)
    except BehindCameraError:
        raise BehindCameraError(direction="backward")
    return ResidualTerm(r_fwd, r_bwd, 2.0 * noise_i.sigma2, 2.0 * noise_j.sigma2)


def alpha_standard(eps: float) -> float:
    """Ratio of the approximated to the linearized residual variance.

    Values above 1 over-estimate the covariance, below 1 under-estimate.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 2.0 / (1.0 + eps * eps)


def alpha_symmetric(eps_ij: float, eps_ji: float,
                    sigma2_i: float = 1.0, sigma2_j: float = 1.0) -> float:
    """Covariance ratio of the symmetric two-view cost."""
    if min(eps_ij, eps_ji, sigma2_i, sigma2_j) <= 0:
        raise ValueError("all inputs must be positive")
    num = 2.0 * sigma2_i + 2.0 * sigma2_j
    den = (1.0 + eps_ij**2) * sigma2_j + (1.0 + eps_ji**2) * sigma2_i
    return num / den


def huber_weight(mahalanobis2, delta: float):
    """IRLS weight of the Huber kernel: 1 inside, delta/|r| outside."""
    m2 = np.asarray(mahalanobis2, dtype=np.float64)
    if np.any(m2 < 0):
        raise ValueError("squared residual must be non-negative")
    m = np.sqrt(m2)
    w = np.where(m <= delta, 1.0, delta / np.where(m > 0, m, 1.0))
    if np.ndim(mahalanobis2) == 0:
        return float(w)
    return w


def huber_rho(mahalanobis2, delta: float):
    """Huber cost of a squared Mahalanobis residual.

    Quadratic inside the kernel, linear in sqrt(m2) outside; continuously
    differentiable at the boundary.
    """
    m2 = np.asarray(mahalanobis2, dtype=np.float64)
    m = np.sqrt(m2)
    rho = np.where(m <= delta, m2, 2.0 * delta * m - delta * delta)
    if np.ndim(mahalanobis2) == 0:
        return float(rho)
    return rho


def alpha_curves(eps_range=(0.1, 10.0), resolution: int = 201) -> np.ndarray:
    """Tabulate alpha_standard and alpha_symmetric over an eps sweep.

    The reverse-direction scaling is modeled as eps_ji = 1/eps_ij.  Rows
    are (eps, alpha_standard, alpha_symmetric); sampling is geometric so a
    symmetric range around 1 contains eps = 1 exactly for odd resolutions.
    """
    lo, hi = eps_range
    if not (0 < lo < hi):
        raise ValueError("eps_range must satisfy 0 < lo < hi")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    eps = np.geomspace(lo, hi, resolution)
    # snap the midpoint to exactly 1 when the range is reciprocal
    if math.isclose(lo * hi, 1.0, rel_tol=1e-12) and resolution % 2 == 1:
        eps[resolution // 2] = 1.0
    table = np.empty((resolution, 3))
    for k, e in enumerate(eps):
        table[k, 0] = e
        table[k, 1] = alpha_standard(e)
        table[k, 2] = alpha_symmetric(e, 1.0 / e)
    return table


def write_alpha_curves(path, eps_range=(0.1, 10.0), resolution: int = 201):
    """Emit the alpha sweep as a headered CSV."""
    table = alpha_curves(eps_range, resolution)
    with open(path, "w") as f:
        f.write("eps,alpha_standard,alpha_symmetric\n")
        for eps, a_std, a_sym in table:
            f.write(f"{eps:.17g},{a_std:.17g},{a_sym:.17g}\n")
    return table
