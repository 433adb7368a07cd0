"""Correspondence records, correspondence sets, pairwise geometric
constraints, and the text file formats for correspondence data.

A correspondence pairs a source keypoint with a target keypoint and
carries a feature similarity score plus the nearest / second-nearest
feature distances that back ratio tests. A correspondence set stores them
as columns, one row per correspondence, and keeps stable indices: every
grouping algorithm reports its result as a subset of the row indices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .geom3d import LocalReferenceFrame, RigidTransform, frame_faults


class CorrespondenceFormatError(ValueError):
    """Malformed correspondence or ground-truth file content."""


class _ColumnError(ValueError):
    """A set value that fails validation; ``row`` is None for the resolution."""

    def __init__(self, row: int | None, reason: str):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.row = row
        self.reason = reason


def _validate_rows(source_points, target_points, similarities, nn_distances,
                   second_nn_distances, source_frames=None, target_frames=None) -> None:
    """Raise :class:`_ColumnError` naming the first row that fails a check,
    with the first listed reason that row fails."""
    checks = [
        (~np.isfinite(np.hstack([source_points, target_points])).all(axis=1), "points must be finite"),
        (~np.isfinite(similarities), "similarity must be finite"),
        (~(np.isfinite(second_nn_distances) & (nn_distances >= 0) & (second_nn_distances >= 0)),
         "feature distances must be finite and non-negative"),
        (nn_distances > second_nn_distances, "nn_distance exceeds second_nn_distance"),
    ]
    if source_frames is not None:
        checks += [(bad, "source " + reason) for bad, reason in frame_faults(source_frames)]
        checks += [(bad, "target " + reason) for bad, reason in frame_faults(target_frames)]
    first = None
    for bad, reason in checks:
        rows = np.flatnonzero(bad)
        if rows.size and (first is None or rows[0] < first[0]):
            first = (int(rows[0]), reason)
    if first is not None:
        raise _ColumnError(*first)


def _adopted_frame(axes: np.ndarray) -> LocalReferenceFrame:
    """The frame on a row of a set's read-only frame column, which passed the
    frame rule in :meth:`CorrespondenceSet.from_arrays`, without checking it
    again."""
    frame = object.__new__(LocalReferenceFrame)
    object.__setattr__(frame, "axes", axes)
    return frame


@dataclass(frozen=True, eq=False)
class Correspondence:
    """One correspondence as a record: a hypothesized match between a
    source point and a target point."""

    source_point: np.ndarray
    target_point: np.ndarray
    similarity: float
    nn_distance: float
    second_nn_distance: float
    source_lrf: LocalReferenceFrame | None = None
    target_lrf: LocalReferenceFrame | None = None

    def __post_init__(self):
        for name in ("source_point", "target_point"):
            point = np.array(getattr(self, name), dtype=np.float64).reshape(3)
            point.setflags(write=False)
            object.__setattr__(self, name, point)
        for name in ("similarity", "nn_distance", "second_nn_distance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        try:
            _validate_rows(self.source_point[None], self.target_point[None], np.array([self.similarity]),
                           np.array([self.nn_distance]), np.array([self.second_nn_distance]))
        except _ColumnError as exc:
            raise ValueError(exc.reason) from None


# Per-row shape of each column of a correspondence set.
_COLUMN_SHAPES = {"source_points": (3,), "target_points": (3,), "similarities": (), "nn_distances": (),
                  "second_nn_distances": (), "source_frames": (3, 3), "target_frames": (3, 3)}


@dataclass(frozen=True, eq=False, init=False)
class CorrespondenceSet:
    """An indexed correspondence set, stored as read-only columns.

    Row i of every column is correspondence i: ``source_points`` and
    ``target_points`` are (n, 3); ``similarities``, ``nn_distances`` and
    ``second_nn_distances`` are (n,); ``source_frames`` and
    ``target_frames`` are (n, 3, 3) stacks of frame axes on every row, or
    None. ``source_resolution_pr`` is the source cloud's resolution, the
    unit of every distance threshold of the grouping algorithms.

    :meth:`from_arrays` builds a set from columns; the constructor stacks
    :class:`Correspondence` records.
    """

    source_points: np.ndarray
    target_points: np.ndarray
    similarities: np.ndarray
    nn_distances: np.ndarray
    second_nn_distances: np.ndarray
    source_resolution_pr: float
    source_frames: np.ndarray | None
    target_frames: np.ndarray | None
    ground_truth: RigidTransform | None

    def __init__(self, items, source_resolution_pr: float, ground_truth: RigidTransform | None = None):
        items = tuple(items)
        lrfs = {(c.source_lrf is not None, c.target_lrf is not None) for c in items}
        if not (lrfs <= {(True, True)} or lrfs <= {(False, False)}):
            raise ValueError("only some records carry frames")
        frames = (True, True) in lrfs
        stacked = CorrespondenceSet.from_arrays(
            np.reshape([c.source_point for c in items], (-1, 3)),
            np.reshape([c.target_point for c in items], (-1, 3)),
            [c.similarity for c in items], [c.nn_distance for c in items],
            [c.second_nn_distance for c in items], source_resolution_pr,
            source_frames=[c.source_lrf.axes for c in items] if frames else None,
            target_frames=[c.target_lrf.axes for c in items] if frames else None,
            ground_truth=ground_truth,
        )
        self.__dict__.update(vars(stacked))  # adopt its columns; the set is frozen

    @classmethod
    def from_arrays(cls, source_points, target_points, similarities, nn_distances,
                    second_nn_distances, source_resolution_pr, *, source_frames=None,
                    target_frames=None, ground_truth=None) -> "CorrespondenceSet":
        """A set from copies of its columns. Frames are given for every row
        or for none; an empty set has none."""
        resolution = float(source_resolution_pr)
        if not (math.isfinite(resolution) and resolution > 0):
            raise _ColumnError(None, "source_resolution_pr must be finite and positive")
        if (source_frames is None) != (target_frames is None):
            raise ValueError("only some records carry frames")
        n = len(similarities)
        if n == 0:
            source_frames = target_frames = None
        cset = object.__new__(cls)
        values = (source_points, target_points, similarities, nn_distances, second_nn_distances,
                  source_frames, target_frames)
        for (name, shape), value in zip(_COLUMN_SHAPES.items(), values):
            if value is not None:
                value = np.array(value, dtype=np.float64, order="C")
                if value.shape != (n, *shape):
                    raise ValueError(f"{name} must have shape {(n, *shape)}, got {value.shape}")
                value.setflags(write=False)
            object.__setattr__(cset, name, value)
        object.__setattr__(cset, "source_resolution_pr", resolution)
        object.__setattr__(cset, "ground_truth", ground_truth)
        _validate_rows(*(getattr(cset, name) for name in _COLUMN_SHAPES))
        return cset

    def _replace(self, **changes) -> "CorrespondenceSet":
        """The set with some fields changed, on the same read-only columns,
        without the cached ``items``. Only changes that keep every row valid
        are made: the ground truth, and both frame stacks set to None."""
        cset = object.__new__(CorrespondenceSet)
        for f in fields(self):
            object.__setattr__(cset, f.name, changes.get(f.name, getattr(self, f.name)))
        return cset

    def __len__(self) -> int:
        return len(self.similarities)

    @property
    def has_lrfs(self) -> bool:
        return self.source_frames is not None

    @cached_property
    def items(self) -> tuple[Correspondence, ...]:
        """The rows as :class:`Correspondence` records, built on first use."""
        if self.has_lrfs:
            lrfs = [(_adopted_frame(s), _adopted_frame(t)) for s, t in zip(self.source_frames, self.target_frames)]
        else:
            lrfs = [(None, None)] * len(self)
        rows = zip(self.source_points, self.target_points, self.similarities,
                   self.nn_distances, self.second_nn_distances, lrfs)
        return tuple(Correspondence(s, t, sim, nn, d2, *pair) for s, t, sim, nn, d2, pair in rows)

    def with_ground_truth(self, transform: RigidTransform | None) -> "CorrespondenceSet":
        return self._replace(ground_truth=transform)


def strip_lrfs(cset: CorrespondenceSet) -> CorrespondenceSet:
    """Copy of the set with all local reference frames removed."""
    return cset._replace(source_frames=None, target_frames=None)


# ---------------------------------------------------------------------------
# Pairwise geometric constraints
# ---------------------------------------------------------------------------

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


def pairwise_lengths(source_points: np.ndarray, target_points: np.ndarray,
                     rows: slice = slice(None), cols: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(d_s, d_t): source- and target-side segment lengths from the
    correspondences in ``rows`` to those in ``cols``, the one length
    computation behind the pairwise constraints of st, gc and si.

    cdist computes each pair on its own, and u - v is exactly -(v - u), so
    any (rows, cols) block has the bits of those entries of the full n x n
    matrices, and the full matrices are bitwise symmetric.
    """
    return (cdist(source_points[rows], source_points[cols]),
            cdist(target_points[rows], target_points[cols]))


def _rigidity_from_lengths(d_s: np.ndarray, d_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """min(d_s/d_t, d_t/d_s) per pair, 0 where either length is 0.

    Computed as min(d_s, d_t) / max(d_s, d_t) with the same bits: a
    correctly rounded a/b is at most 1 when a <= b and at least 1 when
    a >= b. A zero min gives 0 already, so only a zero max needs fixing.
    Each entry depends on its own pair alone, so a row block of lengths
    gives that block of the matrix; the peak is four arrays of the input's
    shape (d_s, d_t, the max and the output, or ``out`` when given) and
    the mask of zero maxima.
    """
    longer = np.maximum(d_s, d_t)
    scores = np.minimum(d_s, d_t, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(scores, longer, out=scores)
    scores[longer == 0.0] = 0.0
    return scores


def _residuals_from_lengths(d_s: np.ndarray, d_t: np.ndarray) -> np.ndarray:
    """|d_s - d_t| per pair, written over ``d_s``."""
    np.subtract(d_s, d_t, out=d_s)
    return np.abs(d_s, out=d_s)


def pairwise_rigidity(source_points: np.ndarray, target_points: np.ndarray) -> np.ndarray:
    """Matrix of rigidity scores for all correspondence pairs."""
    return _rigidity_from_lengths(*pairwise_lengths(source_points, target_points))


def pairwise_distance_residuals(source_points: np.ndarray, target_points: np.ndarray) -> np.ndarray:
    """Matrix of |d_s - d_t| residuals for all correspondence pairs."""
    return _residuals_from_lengths(*pairwise_lengths(source_points, target_points))


# ---------------------------------------------------------------------------
# Text file formats
# ---------------------------------------------------------------------------
#
# Correspondence file, one record per line:
#   px py pz qx qy qz similarity nn d2nn [9 source-frame reals 9 target-frame reals]
# preceded by the header line
#   #corrgroup v1 n=<count> pr=<value>
# A record is one row of each column of the set in _COLUMN_SHAPES order,
# flattened. The frame block, the last two columns, is optional but must be
# present on either all records or none, and pr must be finite and positive.
# The ground-truth transform lives in a separate sidecar of 12 numbers: the
# rotation rows, then the translation.

_HEADER_RE = re.compile(r"^#corrgroup v1 n=(\d+) pr=([^ ]+)$")
# The field after the last of each column.
_V1_ENDS = np.cumsum([math.prod(shape) for shape in _COLUMN_SHAPES.values()])
_V1_WIDTHS = (int(_V1_ENDS[-3]), int(_V1_ENDS[-1]))  # without, with frames


def _fmt(x: float) -> str:
    return "%.17g" % x


def save_correspondences(cset: CorrespondenceSet, path) -> None:
    """Write a correspondence set in the v1 text format."""
    table = np.hstack([getattr(cset, name).reshape(len(cset), math.prod(shape))
                       for name, shape in _COLUMN_SHAPES.items() if getattr(cset, name) is not None])
    record = " ".join(["%.17g"] * table.shape[1])
    lines = [f"#corrgroup v1 n={len(cset)} pr={_fmt(cset.source_resolution_pr)}"]
    lines += [record % tuple(row) for row in table.tolist()]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def load_correspondences(path) -> CorrespondenceSet:
    """Read a v1 correspondence file; ground truth is not part of it.

    Records are parsed into columns. A fault names the first line that has
    one: line 1 for the header and its pr value, blank lines counted.
    """
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        lines = handle.read().splitlines()
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

    # Parsing stops at the first malformed line; the rows before it are
    # validated first, since a fault there comes earlier in the file.
    linenos, records, fault = [], [], None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) not in _V1_WIDTHS:
            fault = f"line {lineno}: expected {_V1_WIDTHS[0]} or {_V1_WIDTHS[1]} fields, got {len(tokens)}"
        elif records and len(tokens) != len(records[0]):
            fault = f"line {lineno}: only some records carry frames"
        else:
            try:
                records.append([float(t) for t in tokens])
            except ValueError:
                fault = f"line {lineno}: non-numeric field"
        if fault:
            break
        linenos.append(lineno)
    table = np.array(records, dtype=np.float64).reshape(len(records), -1 if records else _V1_WIDTHS[0])
    parts = np.split(table, _V1_ENDS[:-1], axis=1)
    columns = {name: part.reshape(len(table), *shape)
               for (name, shape), part in zip(_COLUMN_SHAPES.items(), parts) if part.shape[1]}
    try:
        cset = CorrespondenceSet.from_arrays(source_resolution_pr=resolution, **columns)
    except _ColumnError as exc:
        line = 1 if exc.row is None else linenos[exc.row]
        raise CorrespondenceFormatError(f"line {line}: {exc.reason}") from None
    if fault:
        raise CorrespondenceFormatError(fault)
    if len(cset) != declared:
        raise CorrespondenceFormatError(
            f"header declares n={declared} but file has {len(cset)} records"
        )
    return cset


def save_ground_truth(transform: RigidTransform, path) -> None:
    """Write a transform sidecar: three rotation rows, then the translation."""
    rows = [" ".join(_fmt(v) for v in row) for row in transform.rotation]
    rows.append(" ".join(_fmt(v) for v in transform.translation))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(rows) + "\n")


def load_ground_truth(path) -> RigidTransform:
    """Read a 12-number transform sidecar (rotation rows, then translation)."""
    with open(path, "r", encoding="ascii", errors="replace") as handle:
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
