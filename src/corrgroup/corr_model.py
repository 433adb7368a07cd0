"""Correspondence records, correspondence sets, pairwise geometric
constraints, and the text file formats for correspondence data.

A correspondence pairs a source keypoint with a target keypoint and
carries a feature similarity score plus the nearest / second-nearest
feature distances that back ratio tests. Correspondence sets keep stable
indices: every grouping algorithm reports its result as a subset of the
input indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .geom3d import LocalReferenceFrame, RigidTransform, _as_vec3


class CorrespondenceFormatError(ValueError):
    """Malformed correspondence or ground-truth file content."""


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A hypothesized match between a source point and a target point."""

    source_point: np.ndarray
    target_point: np.ndarray
    similarity: float
    nn_distance: float
    second_nn_distance: float
    source_lrf: LocalReferenceFrame | None = None
    target_lrf: LocalReferenceFrame | None = None

    def __post_init__(self):
        src = _as_vec3(self.source_point).copy()
        tgt = _as_vec3(self.target_point).copy()
        src.setflags(write=False)
        tgt.setflags(write=False)
        object.__setattr__(self, "source_point", src)
        object.__setattr__(self, "target_point", tgt)
        object.__setattr__(self, "similarity", float(self.similarity))
        object.__setattr__(self, "nn_distance", float(self.nn_distance))
        object.__setattr__(self, "second_nn_distance", float(self.second_nn_distance))
        if not np.isfinite(self.similarity):
            raise ValueError("similarity must be finite")
        if self.nn_distance < 0 or self.second_nn_distance < 0:
            raise ValueError("feature distances must be non-negative")
        if self.nn_distance > self.second_nn_distance:
            raise ValueError("nn_distance exceeds second_nn_distance")

    @property
    def has_lrfs(self) -> bool:
        return self.source_lrf is not None and self.target_lrf is not None


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """An indexed collection of correspondences plus shared context.

    ``source_resolution_pr`` is the source cloud's resolution, the unit in
    which every distance threshold of the grouping algorithms is stated.
    """

    items: tuple[Correspondence, ...]
    source_resolution_pr: float
    ground_truth: RigidTransform | None = None

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "source_resolution_pr", float(self.source_resolution_pr))
        if not (self.source_resolution_pr > 0):
            raise ValueError("source_resolution_pr must be positive")

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def source_points(self) -> np.ndarray:
        return np.array([c.source_point for c in self.items], dtype=np.float64).reshape(-1, 3)

    @cached_property
    def target_points(self) -> np.ndarray:
        return np.array([c.target_point for c in self.items], dtype=np.float64).reshape(-1, 3)

    @cached_property
    def similarities(self) -> np.ndarray:
        return np.array([c.similarity for c in self.items], dtype=np.float64)

    @cached_property
    def nn_distances(self) -> np.ndarray:
        return np.array([c.nn_distance for c in self.items], dtype=np.float64)

    @cached_property
    def second_nn_distances(self) -> np.ndarray:
        return np.array([c.second_nn_distance for c in self.items], dtype=np.float64)

    @property
    def has_lrfs(self) -> bool:
        return all(c.has_lrfs for c in self.items)

    @cached_property
    def source_frames(self) -> np.ndarray | None:
        """(n, 3, 3) stack of source frame axes, or None if any is missing."""
        if not self.items or any(c.source_lrf is None for c in self.items):
            return None
        return np.stack([c.source_lrf.axes for c in self.items])

    @cached_property
    def target_frames(self) -> np.ndarray | None:
        if not self.items or any(c.target_lrf is None for c in self.items):
            return None
        return np.stack([c.target_lrf.axes for c in self.items])

    def with_ground_truth(self, transform: RigidTransform | None) -> "CorrespondenceSet":
        return replace(self, ground_truth=transform)


def strip_lrfs(cset: CorrespondenceSet) -> CorrespondenceSet:
    """Copy of the set with all local reference frames removed."""
    items = tuple(replace(c, source_lrf=None, target_lrf=None) for c in cset.items)
    return replace(cset, items=items)


# ---------------------------------------------------------------------------
# Pairwise geometric constraints
# ---------------------------------------------------------------------------

def rigidity_score(c1: Correspondence, c2: Correspondence) -> float:
    """Length-ratio compatibility of two correspondences, in [0, 1].

    With d_s and d_t the source- and target-side segment lengths, the score
    is min(d_s/d_t, d_t/d_s). Any zero length (duplicate keypoints) scores
    0 so that duplicated correspondences cannot reinforce each other.
    """
    d_s = float(np.linalg.norm(c1.source_point - c2.source_point))
    d_t = float(np.linalg.norm(c1.target_point - c2.target_point))
    if d_s == 0.0 or d_t == 0.0:
        return 0.0
    return min(d_s / d_t, d_t / d_s)


def distance_compatibility(c1: Correspondence, c2: Correspondence, t_gc: float) -> tuple[float, bool]:
    """(residual, compatible) for the segment-length difference test.

    residual = | d_s - d_t |; the pair is compatible iff residual < t_gc
    (strict).
    """
    if t_gc <= 0:
        raise ValueError("t_gc must be positive")
    d_s = float(np.linalg.norm(c1.source_point - c2.source_point))
    d_t = float(np.linalg.norm(c1.target_point - c2.target_point))
    residual = abs(d_s - d_t)
    return residual, residual < t_gc


def pairwise_lengths(source_points: np.ndarray, target_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_s, d_t): source- and target-side segment lengths of every
    correspondence pair, the one n x n length computation behind the
    pairwise constraints of st, gc and si."""
    return cdist(source_points, source_points), cdist(target_points, target_points)


def _rigidity_from_lengths(d_s: np.ndarray, d_t: np.ndarray) -> np.ndarray:
    """min(d_s/d_t, d_t/d_s) per pair, 0 where either length is 0.

    Built in a single output array so the peak stays at four n x n
    matrices: d_s, d_t, the output and one quotient.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = d_s / d_t
        np.minimum(scores, d_t / d_s, out=scores)
    scores[(d_s == 0.0) | (d_t == 0.0)] = 0.0
    return scores


def pairwise_rigidity(source_points: np.ndarray, target_points: np.ndarray) -> np.ndarray:
    """Matrix of rigidity scores for all correspondence pairs."""
    return _rigidity_from_lengths(*pairwise_lengths(source_points, target_points))


def pairwise_distance_residuals(source_points: np.ndarray, target_points: np.ndarray) -> np.ndarray:
    """Matrix of |d_s - d_t| residuals for all correspondence pairs."""
    d_s, d_t = pairwise_lengths(source_points, target_points)
    np.subtract(d_s, d_t, out=d_s)
    return np.abs(d_s, out=d_s)


# ---------------------------------------------------------------------------
# Text file formats
# ---------------------------------------------------------------------------
#
# Correspondence file, one record per line:
#   px py pz qx qy qz similarity nn d2nn [9 source-frame reals 9 target-frame reals]
# preceded by the header line
#   #corrgroup v1 n=<count> pr=<value>
# The 18-value frame block is optional but must be present on either all
# records or none. The ground-truth transform lives in a separate sidecar
# of 12 numbers: the rotation rows, then the translation.

_HEADER_RE = re.compile(r"^#corrgroup v1 n=(\d+) pr=([^ ]+)$")


def _fmt(x: float) -> str:
    return "%.17g" % x


def save_correspondences(cset: CorrespondenceSet, path) -> None:
    """Write a correspondence set in the v1 text format."""
    with_frames = [c.has_lrfs for c in cset.items]
    if any(with_frames) and not all(with_frames):
        raise ValueError("cannot save a set where only some records carry frames")
    include_frames = bool(with_frames) and all(with_frames)

    lines = [f"#corrgroup v1 n={len(cset)} pr={_fmt(cset.source_resolution_pr)}"]
    for c in cset.items:
        fields = [
            *c.source_point, *c.target_point,
            c.similarity, c.nn_distance, c.second_nn_distance,
        ]
        if include_frames:
            fields.extend(c.source_lrf.axes.ravel())
            fields.extend(c.target_lrf.axes.ravel())
        lines.append(" ".join(_fmt(f) for f in fields))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def load_correspondences(path) -> CorrespondenceSet:
    """Read a v1 correspondence file; ground truth is not part of it."""
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    lines = text.splitlines()
    if not lines:
        raise CorrespondenceFormatError("empty file")
    match = _HEADER_RE.match(lines[0].strip())
    if match is None:
        raise CorrespondenceFormatError("line 1: missing '#corrgroup v1' header")
    declared = int(match.group(1))
    try:
        resolution = float(match.group(2))
    except ValueError:
        raise CorrespondenceFormatError("line 1: malformed pr value") from None

    items: list[Correspondence] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) not in (9, 27):
            raise CorrespondenceFormatError(
                f"line {lineno}: expected 9 or 27 fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise CorrespondenceFormatError(f"line {lineno}: non-numeric field") from None
        source_lrf = target_lrf = None
        if len(values) == 27:
            try:
                source_lrf = LocalReferenceFrame(np.array(values[9:18]).reshape(3, 3))
                target_lrf = LocalReferenceFrame(np.array(values[18:27]).reshape(3, 3))
            except ValueError as exc:
                raise CorrespondenceFormatError(f"line {lineno}: {exc}") from None
        try:
            items.append(Correspondence(
                source_point=values[0:3],
                target_point=values[3:6],
                similarity=values[6],
                nn_distance=values[7],
                second_nn_distance=values[8],
                source_lrf=source_lrf,
                target_lrf=target_lrf,
            ))
        except ValueError as exc:
            raise CorrespondenceFormatError(f"line {lineno}: {exc}") from None

    if len(items) != declared:
        raise CorrespondenceFormatError(
            f"header declares n={declared} but file has {len(items)} records"
        )
    return CorrespondenceSet(tuple(items), source_resolution_pr=resolution)


def save_ground_truth(transform: RigidTransform, path) -> None:
    """Write a transform sidecar: three rotation rows, then the translation."""
    rows = [" ".join(_fmt(v) for v in row) for row in transform.rotation]
    rows.append(" ".join(_fmt(v) for v in transform.translation))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(rows) + "\n")


def load_ground_truth(path) -> RigidTransform:
    """Read a 12-number transform sidecar (rotation rows, then translation)."""
    with open(path, "r", encoding="ascii") as handle:
        tokens = handle.read().split()
    if len(tokens) != 12:
        raise CorrespondenceFormatError(
            f"ground-truth sidecar must hold exactly 12 numbers, got {len(tokens)}"
        )
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError:
        raise CorrespondenceFormatError("ground-truth sidecar has a non-numeric field") from None
    try:
        return RigidTransform(values[:9].reshape(3, 3), values[9:])
    except ValueError as exc:
        raise CorrespondenceFormatError(str(exc)) from None
