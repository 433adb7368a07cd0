"""Core 3D geometry: point clouds, rigid transforms, resolution
estimation, and local reference frames.

All types are immutable after construction and all operations are pure
functions, so shared instances are safe to use from multiple threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree


class DegenerateSampleError(ValueError):
    """The point sample does not constrain a unique rigid transform."""


class InsufficientSupportError(ValueError):
    """Too few points inside a local-frame support region."""


class AmbiguousFrameError(ValueError):
    """Support covariance eigenvalues too close to define stable axes."""


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def _as_vec3(v) -> np.ndarray:
    vec = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.isfinite(vec).all():
        raise ValueError("vector components must be finite")
    return vec


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered set of 3D points.

    ``resolution`` lazily caches the mean nearest-neighbor distance, the
    length unit ("pr") used by every distance threshold in this package.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def resolution(self) -> float:
        return compute_resolution(self)

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


def compute_resolution(cloud, *, max_points: int | None = None, seed: int = 0) -> float:
    """Mean distance from each point to its nearest distinct neighbor.

    Exact by default. If ``max_points`` is given and the cloud is larger,
    the estimate runs on a uniform random subsample of that size and a
    warning flags the result as approximate.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else _as_points(cloud)
    if len(pts) < 2:
        raise ValueError("insufficient points for resolution")
    if max_points is not None and len(pts) > max_points:
        warnings.warn(
            f"resolution estimated on a {max_points}-point subsample",
            stacklevel=2,
        )
        keep = np.random.default_rng(seed).choice(len(pts), size=max_points, replace=False)
        pts = pts[np.sort(keep)]
    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(dists[:, 1].mean())


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Proper rigid motion ``p_out = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3).copy()
        tra = _as_vec3(self.translation).copy()
        if not np.isfinite(rot).all():
            raise ValueError("rotation entries must be finite")
        if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValueError("rotation matrix must have determinant +1")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (n, 3) array of points."""
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -(self.rotation.T @ self.translation))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying ``other`` then self."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Apply a rigid transform to every point of a cloud."""
    return PointCloud(transform.apply(cloud.points))


def estimate_rigid_transform(source_points, target_points) -> RigidTransform:
    """Least-squares rigid fit mapping source points onto target points.

    Uses the SVD (Kabsch) solution over centered coordinates with the
    determinant correction, so the result is always a proper rotation.
    Raises :class:`DegenerateSampleError` when the source points are
    (near-)collinear: the rotation about the line is unconstrained.
    """
    src = _as_points(source_points)
    tgt = _as_points(target_points)
    if src.shape != tgt.shape:
        raise ValueError("source and target point counts differ")
    if len(src) < 3:
        raise ValueError("need at least 3 point pairs")

    src_mean = src.mean(axis=0)
    tgt_mean = tgt.mean(axis=0)
    src_c = src - src_mean
    tgt_c = tgt - tgt_mean

    # Collinearity check on the second singular value; the third is ~0 for
    # any planar sample (e.g. every 3-point sample), which is fine.
    sv = np.linalg.svd(src_c, compute_uv=False)
    if sv[0] <= 0.0 or sv[1] < 1e-9 * sv[0]:
        raise DegenerateSampleError("degenerate sample")

    u, _, vt = np.linalg.svd(src_c.T @ tgt_c)
    v = vt.T
    rot = v @ u.T
    if np.linalg.det(rot) < 0:
        v = v.copy()
        v[:, -1] *= -1.0
        rot = v @ u.T
    return RigidTransform(rot, tgt_mean - rot @ src_mean)


@dataclass(frozen=True, eq=False)
class LocalReferenceFrame:
    """Orthonormal right-handed frame; rows are the x/y/z unit axes."""

    axes: np.ndarray

    def __post_init__(self):
        axes = np.asarray(self.axes, dtype=np.float64).reshape(3, 3).copy()
        if not np.isfinite(axes).all():
            raise ValueError("frame axes must be finite")
        if np.abs(axes @ axes.T - np.eye(3)).max() > 1e-9:
            raise ValueError("frame rows are not orthonormal")
        if abs(np.linalg.det(axes) - 1.0) > 1e-9:
            raise ValueError("frame must be right-handed")
        axes.setflags(write=False)
        object.__setattr__(self, "axes", axes)

    def rotated(self, rotation: np.ndarray) -> "LocalReferenceFrame":
        """Frame after rotating the underlying geometry by ``rotation``."""
        return LocalReferenceFrame(self.axes @ np.asarray(rotation, dtype=np.float64).T)


def estimate_lrf(cloud: PointCloud, center, support_radius: float) -> LocalReferenceFrame:
    """Repeatable local reference frame from a weighted support covariance.

    Support points within ``support_radius`` of ``center`` are weighted by
    ``support_radius - distance`` and their covariance about the center is
    eigen-decomposed. The x axis takes the largest-eigenvalue direction and
    the z axis the smallest (the local normal); both signs are chosen so
    that the majority of support offsets have a non-negative projection,
    and y = z x x completes a right-handed frame.
    """
    ctr = _as_vec3(center)
    if support_radius <= 0:
        raise ValueError("support_radius must be positive")
    d = np.linalg.norm(cloud.points - ctr, axis=1)
    mask = d <= support_radius
    if int(mask.sum()) < 5:
        raise InsufficientSupportError("insufficient support")

    offsets = cloud.points[mask] - ctr
    weights = support_radius - d[mask]
    total = weights.sum()
    if total <= 0.0:
        raise AmbiguousFrameError("ambiguous frame")
    cov = np.einsum("n,ni,nj->ij", weights, offsets, offsets) / total

    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0.0 else 1.0

    if ratio(evals[0], evals[1]) > 0.99 or ratio(evals[1], evals[2]) > 0.99:
        raise AmbiguousFrameError("ambiguous frame")

    x = evecs[:, 2]
    z = evecs[:, 0]
    if np.count_nonzero(offsets @ x >= 0) < np.count_nonzero(offsets @ x < 0):
        x = -x
    if np.count_nonzero(offsets @ z >= 0) < np.count_nonzero(offsets @ z < 0):
        z = -z
    y = np.cross(z, x)
    return LocalReferenceFrame(np.vstack([x, y, z]))
