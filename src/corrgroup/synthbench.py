"""Synthetic scenes and correspondence sets with exact ground truth.

Scenes are rigidly transformed copies of a model cloud with optional
per-axis Gaussian noise (sigma in resolution units) and exact-count random
downsampling. Correspondence sets carry a controlled inlier ratio: inlier
targets sit within a jitter ball of the ground-truth position, outlier
targets are pushed at least a minimum offset away in a random direction,
and similarity/ratio channels are drawn from separate inlier and outlier
ranges so score-based algorithms have signal. Everything is a pure
function of its recipe, seeds included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corr_model import CorrespondenceSet
from .geom3d import (
    LRF_FAULT,
    LRF_OK,
    LocalReferenceFrame,
    PointCloud,
    RigidTransform,
    estimate_lrf,  # noqa: F401 -- perfbench's traced run wraps synthbench.estimate_lrf by name
    estimate_lrf_stack,
)

MODEL_KINDS = ("sphere", "torus", "plane-with-bumps")

# Support radius used when estimating keypoint frames, in resolution units.
DEFAULT_LRF_SUPPORT_PR = 15.0

# Default judging tolerance, in resolutions; the outlier offset warning is stated against it.
DEFAULT_EPSILON_PR = 4.0


@dataclass(frozen=True)
class SceneRecipe:
    """Pose, noise, and density knobs for scene generation."""

    rotation_seed: int = 0
    noise_sigma_pr: float = 0.0
    downsample_ratio: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 <= self.noise_sigma_pr < math.inf):
            raise ValueError("noise_sigma_pr must be finite and >= 0")
        if not (0.0 < self.downsample_ratio <= 1.0):
            raise ValueError("downsample_ratio must be in (0, 1]")


@dataclass(frozen=True)
class SimilarityModel:
    """Uniform similarity ranges for inliers and outliers."""

    inlier_low: float = 0.7
    inlier_high: float = 0.98
    outlier_low: float = 0.05
    outlier_high: float = 0.6

    def __post_init__(self):
        for name in ("inlier_low", "inlier_high", "outlier_low", "outlier_high"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.inlier_low > self.inlier_high or self.outlier_low > self.outlier_high:
            raise ValueError("similarity range low bound exceeds high bound")


@dataclass(frozen=True)
class CorrespondenceRecipe:
    """Size, inlier ratio, displacement, and score knobs for generation."""

    n_total: int = 1000
    inlier_ratio: float = 0.5
    inlier_jitter_pr: float = 0.5
    outlier_min_offset_pr: float = 10.0
    lrf_noise_deg: float = 0.0
    similarity_model: SimilarityModel = field(default_factory=SimilarityModel)
    rng_seed: int = 0

    def __post_init__(self):
        if type(self.n_total) is not int or self.n_total < 1:
            raise ValueError(f"n_total must be positive and an integer, got {self.n_total!r}")
        if not (0.0 <= self.inlier_ratio <= 1.0):
            raise ValueError("inlier_ratio must be in [0, 1]")
        if not (0 <= self.inlier_jitter_pr < math.inf):
            raise ValueError("inlier_jitter_pr must be finite and >= 0")
        if not (0 < self.outlier_min_offset_pr < math.inf):
            raise ValueError("outlier_min_offset_pr must be finite and positive")
        if not (0 <= self.lrf_noise_deg < math.inf):
            raise ValueError("lrf_noise_deg must be finite and >= 0")
        if self.outlier_min_offset_pr <= 2.0 * DEFAULT_EPSILON_PR:
            warnings.warn(
                "outlier_min_offset_pr <= twice the default judging tolerance; "
                "outliers may be judged as inliers",
                stacklevel=2,
            )

    @property
    def n_inliers(self) -> int:
        """The number of inliers planted: inlier_ratio * n_total, rounded half up."""
        return int(math.floor(self.inlier_ratio * self.n_total + 0.5))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation matrix drawn uniformly over SO(3) (quaternion method)."""
    return _random_rotations(rng, 1)[0]


def _random_rotations(rng: np.random.Generator, k: int) -> np.ndarray:
    """(k, 3, 3) rotations drawn uniformly over SO(3) from one ``rng.random((k, 3))``
    draw: the stream and the bits of k calls of :func:`random_rotation`."""
    u1, u2, u3 = rng.random((k, 3)).T
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    qx = a * np.sin(2.0 * np.pi * u2)
    qy = a * np.cos(2.0 * np.pi * u2)
    qz = b * np.sin(2.0 * np.pi * u3)
    qw = b * np.cos(2.0 * np.pi * u3)
    return np.ascontiguousarray(np.array([
        [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
        [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
        [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
    ]).transpose(2, 0, 1))


def _axis_rotations(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(k, 3, 3) Rodrigues rotations about a (k, 3) stack of (not necessarily
    unit) axes by (k,) angles; a zero axis gives the identity.

    Each row has the bits of the one-axis form: the norm is the square root
    of the row's dot product, as ``np.linalg.norm`` takes it (an einsum or an
    elementwise sum rounds differently), and ``skew @ skew`` is a stack of
    contiguous 3 x 3 products.
    """
    norm = np.sqrt((axes[:, None, :] @ axes[:, :, None])[:, 0, 0])
    zero = norm == 0.0
    x, y, z = (axes / np.where(zero, 1.0, norm)[:, None]).T
    o = np.zeros(len(axes))
    skew = np.ascontiguousarray(np.array([[o, -z, y], [z, o, -x], [-y, x, o]]).transpose(2, 0, 1))
    rot = np.eye(3) + np.sin(angles)[:, None, None] * skew + (1.0 - np.cos(angles))[:, None, None] * (skew @ skew)
    rot[zero] = np.eye(3)
    return rot


def _check_model(kind: str, n_points: int) -> None:
    """The test model rules: raise ``ValueError`` unless ``kind`` is known
    and the model has at least 100 points."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if n_points < 100:
        raise ValueError("n_points must be >= 100")


def _check_set_size(n_total: int, n_points: int) -> None:
    """Raise ``ValueError`` unless ``n_total`` correspondences, one keypoint
    per model point, fit on a model of ``n_points`` points."""
    if n_total > n_points:
        raise ValueError("n_total exceeds the number of model points")


def _kept_count(ratio: float, n_points: int) -> int:
    """ratio * n_points rounded half up, the points a downsampled scene keeps; raise ``ValueError`` below 2."""
    keep_count = int(math.floor(ratio * n_points + 0.5))
    if keep_count < 2:
        raise ValueError("downsampling would leave fewer than 2 points")
    return keep_count


def make_test_model(kind: str, n_points: int, seed: int) -> PointCloud:
    """Deterministic procedural model cloud: sphere, torus, or bumpy plane."""
    _check_model(kind, n_points)
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        return PointCloud(_unit_vectors(rng, n_points))
    if kind == "torus":
        major, minor = 1.0, 0.3
        u = rng.uniform(0.0, 2.0 * math.pi, n_points)
        # Rejection sampling weights the tube angle by surface area.
        v = np.empty(n_points)
        filled = 0
        while filled < n_points:
            cand = rng.uniform(0.0, 2.0 * math.pi, n_points)
            accept = rng.random(n_points) < (major + minor * np.cos(cand)) / (major + minor)
            take = cand[accept][: n_points - filled]
            v[filled:filled + take.size] = take
            filled += take.size
        ring = major + minor * np.cos(v)
        return PointCloud(np.column_stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)]))
    # plane-with-bumps: rectangular footprint so in-plane axes are distinct.
    x = rng.uniform(0.0, 2.0, n_points)
    y = rng.uniform(0.0, 1.0, n_points)
    z = 0.06 * np.sin(4.0 * x) * np.sin(5.0 * y)
    return PointCloud(np.column_stack([x, y, z]))


def generate_scene(model: PointCloud, recipe: SceneRecipe) -> tuple[PointCloud, RigidTransform]:
    """Rigidly transformed, noised, and downsampled copy of a model.

    Noise is iid per-axis Gaussian added after the transform, with sigma
    expressed in model-resolution units. Downsampling retains exactly
    round(ratio * n) points chosen uniformly at random.
    """
    if len(model) < 2:
        raise ValueError("model must have at least 2 points")
    resolution = model.resolution

    pose_rng = np.random.default_rng(recipe.rotation_seed)
    rotation = random_rotation(pose_rng)
    extent = float(np.linalg.norm(np.ptp(model.points, axis=0)))
    translation = pose_rng.uniform(-0.5, 0.5, 3) * extent
    ground_truth = RigidTransform(rotation, translation)

    points = ground_truth.apply(model.points)
    rng = np.random.default_rng(recipe.rng_seed)
    points = points + rng.normal(0.0, recipe.noise_sigma_pr * resolution, size=points.shape)

    keep_count = _kept_count(recipe.downsample_ratio, len(points))
    if keep_count < len(points):
        keep = np.sort(rng.choice(len(points), size=keep_count, replace=False))
        points = points[keep]
    return PointCloud(points), ground_truth


def _unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    vecs = rng.normal(size=(count, 3))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / np.maximum(norms, 1e-300)


def generate_correspondences(
    model: PointCloud,
    scene: PointCloud,
    ground_truth: RigidTransform,
    recipe: CorrespondenceRecipe,
) -> CorrespondenceSet:
    """Correspondence set with exact inlier/outlier construction.

    Keypoints are distinct model points whose local frame estimation
    succeeds; locally symmetric neighborhoods (ambiguous frames) are
    skipped and another point is drawn. The first ``recipe.n_inliers``
    sampled keypoints become inliers. ``scene`` is accepted for signature symmetry
    with :func:`generate_scene`; targets are built from the ground truth.
    """
    del scene
    n_total = recipe.n_total
    _check_set_size(n_total, len(model))
    resolution = model.resolution
    rng = np.random.default_rng(recipe.rng_seed)

    support = DEFAULT_LRF_SUPPORT_PR * resolution
    walk = rng.permutation(len(model))
    chosen: list[np.ndarray] = []
    frames: list[np.ndarray] = []
    found = 0
    # Frames come in fixed-size chunks of the candidate walk. A candidate
    # counts only if the one-at-a-time walk would have reached it, that is,
    # while fewer than n_total frames had passed before it.
    chunk = n_total + n_total // 16 + 16
    for head in range(0, len(walk), chunk):
        candidates = walk[head:head + chunk]
        axes, verdict = estimate_lrf_stack(model, model.points[candidates], support)
        ok = verdict == LRF_OK
        reached = np.cumsum(ok) - ok < n_total - found
        faulty = np.flatnonzero(reached & (verdict == LRF_FAULT))
        if faulty.size:
            LocalReferenceFrame(axes[faulty[0]])  # raises the frame rule's ValueError
        chosen.append(candidates[reached & ok])
        frames.append(axes[reached & ok])
        found += len(chosen[-1])
        if found == n_total:
            break
    if found < n_total:
        raise ValueError(
            f"only {found} of {n_total} keypoints have stable local frames"
        )

    n_inliers = recipe.n_inliers
    n_outliers = n_total - n_inliers
    source = model.points[np.concatenate(chosen)]
    mapped = ground_truth.apply(source)

    jitter_dirs = _unit_vectors(rng, n_inliers)
    jitter_mags = recipe.inlier_jitter_pr * resolution * rng.random(n_inliers) ** (1.0 / 3.0)
    offset_dirs = _unit_vectors(rng, n_outliers)
    offset_mags = recipe.outlier_min_offset_pr * resolution * (1.0 + rng.random(n_outliers))
    targets = mapped.copy()
    targets[:n_inliers] += jitter_dirs * jitter_mags[:, None]
    targets[n_inliers:] += offset_dirs * offset_mags[:, None]

    sim = recipe.similarity_model
    sims = np.concatenate([
        rng.uniform(sim.inlier_low, sim.inlier_high, n_inliers),
        rng.uniform(sim.outlier_low, sim.outlier_high, n_outliers),
    ])
    ratio_draws = np.concatenate([
        rng.uniform(sim.inlier_low, sim.inlier_high, n_inliers),
        rng.uniform(sim.outlier_low, sim.outlier_high, n_outliers),
    ])
    nn = 1.0 - sims
    second_nn = nn / np.maximum(1.0 - ratio_draws, 0.05)

    max_angle = math.radians(recipe.lrf_noise_deg)
    perturb_axes = _unit_vectors(rng, n_inliers)
    perturb_angles = max_angle * rng.random(n_inliers)
    source_frames = np.concatenate(frames)
    target_frames = source_frames @ ground_truth.rotation.T
    wobble = _axis_rotations(perturb_axes, perturb_angles)
    target_frames[:n_inliers] = target_frames[:n_inliers] @ wobble.transpose(0, 2, 1)
    target_frames[n_inliers:] = _random_rotations(rng, n_outliers)

    order = rng.permutation(n_total)
    return CorrespondenceSet.from_arrays(
        source[order], targets[order], sims[order], nn[order], second_nn[order], resolution,
        source_frames=source_frames[order], target_frames=target_frames[order],
        ground_truth=ground_truth,
    )
