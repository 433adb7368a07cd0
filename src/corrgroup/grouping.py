"""The seven correspondence grouping algorithms and their numeric helpers.

Every algorithm consumes a :class:`~corrgroup.corr_model.CorrespondenceSet`
and an :class:`AlgorithmParams` and returns a :class:`GroupingResult` whose
``inlier_indices`` are a sorted subset of the input indices. All algorithms
are deterministic given the inputs and ``rng_seed``; randomness (RANSAC
sampling) is confined to an explicit seeded generator.

Distance thresholds carrying a ``_pr`` suffix are expressed in multiples of
the source cloud resolution stored on the correspondence set.

Algorithms:

* ``ss``     similarity-score thresholding (fixed or adaptive cutoff)
* ``nnsr``   Lowe nearest/second-nearest ratio test
* ``ransac`` random 3-sample consensus with least-squares refit
* ``st``     spectral matching on the rigidity compatibility matrix
* ``gc``     geometric-consistency clustering (largest compatible cluster)
* ``3dhv``   Hough voting with local-reference-frame-aligned vote vectors
* ``si``     combined local/global voting with an adaptive score cutoff
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .corr_model import (
    CorrespondenceSet,
    _rigidity_from_lengths,
    pairwise_distance_residuals,
    pairwise_lengths,
    pairwise_rigidity,
)
from .geom3d import DegenerateSampleError, PointCloud, RigidTransform, estimate_rigid_transform


class NonConvergenceError(ArithmeticError):
    """Power iteration hit its iteration cap without converging."""


@dataclass(frozen=True)
class AlgorithmParams:
    """Tuning knobs for all seven algorithms.

    ``t_ss=None`` selects the adaptive similarity cutoff. The JSON form is
    a flat object with exactly these field names.
    """

    t_ss: float | None = None
    t_nnsr: float = 0.8
    n_ransac: int = 10000
    d_ransac_pr: float = 5.0
    t_st: float = 0.6
    t_gc_pr: float = 3.0
    hough_bin_pr: float = 5.0
    si_kappa: int = 250
    si_sigma: float = 0.9
    si_delta_pr: float = 5.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.t_ss is not None and not (0.0 < self.t_ss <= 1.0):
            raise ValueError("t_ss must be in (0, 1] or None for adaptive")
        for name in ("t_nnsr", "t_st", "si_sigma"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("d_ransac_pr", "t_gc_pr", "hough_bin_pr", "si_delta_pr"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        for name in ("n_ransac", "si_kappa"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not isinstance(self.rng_seed, int) or not (0 <= self.rng_seed < 2**64):
            raise ValueError("rng_seed must be an unsigned 64-bit integer")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "AlgorithmParams":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "AlgorithmParams":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("parameters JSON must be a flat object")
        return cls.from_dict(data)


@dataclass(frozen=True, eq=False)
class GroupingResult:
    """Sorted inlier indices, optional per-index scores, optional transform."""

    inlier_indices: tuple[int, ...]
    scores: dict[int, float] | None = None
    transform: RigidTransform | None = None

    def __post_init__(self):
        idx = tuple(int(i) for i in self.inlier_indices)
        if any(i < 0 for i in idx):
            raise ValueError("indices must be non-negative")
        if len(set(idx)) != len(idx):
            raise ValueError("indices must be unique")
        if idx != tuple(sorted(idx)):
            raise ValueError("indices must be sorted")
        object.__setattr__(self, "inlier_indices", idx)
        if self.scores is not None:
            scores = {int(k): float(v) for k, v in self.scores.items()}
            if set(scores) != set(idx):
                raise ValueError("scores must cover exactly the inlier indices")
            object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.inlier_indices)


def _empty_result() -> GroupingResult:
    return GroupingResult(())


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

class OtsuResult(NamedTuple):
    threshold: float
    degenerate: bool


def otsu_threshold(values) -> OtsuResult:
    """Histogram threshold maximizing the inter-class variance.

    Candidate thresholds are the 255 interior edges of a 256-bin histogram
    over [min, max]; class statistics use the exact sample sums on each
    side of a candidate edge, and ties pick the lowest edge. A constant
    input is reported as degenerate with the constant as the threshold.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("otsu_threshold requires at least one value")
    if not np.isfinite(vals).all():
        raise ValueError("values must be finite")
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return OtsuResult(lo, True)

    edges = np.linspace(lo, hi, 257)
    ordered = np.sort(vals)
    prefix = np.concatenate(([0.0], np.cumsum(ordered)))
    # c0[t] = #values strictly below edges[t+1], matching bin membership.
    c0 = np.searchsorted(ordered, edges[1:256], side="left")
    s0 = prefix[c0]
    n = vals.size
    total = prefix[-1]
    c1 = n - c0
    s1 = total - s0
    valid = (c0 > 0) & (c1 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_diff = s0 / c0 - s1 / c1
        variance = np.where(valid, c0 * c1 * mean_diff * mean_diff, -np.inf)
    best = int(np.argmax(variance))
    return OtsuResult(float(edges[1 + best]), False)


def _power_iterate(matrix: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float, bool]:
    """Power iteration from the uniform vector; L2-normalized iterates."""
    n = matrix.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        w = matrix @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # v is an exact eigenvector of the zero map.
            return v, 0.0, True
        w /= norm
        if float(np.abs(w - v).max()) < tol:
            return w, float(w @ (matrix @ w)), True
        v = w
    return v, float(v @ (matrix @ v)), False


def principal_eigenvector(matrix, *, tol: float = 1e-10, max_iter: int = 10000) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of a symmetric non-negative matrix.

    Power iteration starting from the uniform vector; converged when
    successive normalized iterates differ by less than ``tol`` in max-norm.
    The returned vector is entrywise non-negative with unit L2 norm.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if m.size and float(np.abs(m - m.T).max()) > 1e-9:
        raise ValueError("matrix must be symmetric")
    if (m < 0).any():
        raise ValueError("matrix entries must be non-negative")
    vector, value, converged = _power_iterate(m, tol, max_iter)
    if not converged:
        raise NonConvergenceError("eigen non-convergence")
    return vector, value


class HoughAccumulator:
    """Sparse 3D voting grid; bin of a vote v is floor(v / bin_side) per axis."""

    def __init__(self, bin_side: float):
        if bin_side <= 0:
            raise ValueError("bin_side must be positive")
        self.bin_side = float(bin_side)
        self.bins: dict[tuple[int, int, int], list[int]] = {}

    def cast(self, index: int, vote) -> tuple[int, int, int]:
        coord = tuple(int(c) for c in np.floor(np.asarray(vote, dtype=np.float64) / self.bin_side))
        self.bins.setdefault(coord, []).append(int(index))
        return coord

    def peak(self) -> tuple[tuple[int, int, int], list[int]] | None:
        """Highest-count bin; ties pick the lexicographically smallest coordinate."""
        if not self.bins:
            return None
        coord = min(self.bins, key=lambda c: (-len(self.bins[c]), c))
        return coord, sorted(self.bins[coord])


# ---------------------------------------------------------------------------
# Feature-score algorithms
# ---------------------------------------------------------------------------

def group_ss(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Keep correspondences whose similarity clears a cutoff.

    With ``t_ss=None`` the cutoff adapts via :func:`otsu_threshold`; if the
    similarities are all equal the split is degenerate and everything is
    kept.
    """
    if len(cset) == 0:
        return _empty_result()
    sims = cset.similarities
    if params.t_ss is not None:
        cutoff = params.t_ss
    else:
        cutoff, degenerate = otsu_threshold(sims)
        if degenerate:
            idx = tuple(range(len(cset)))
            return GroupingResult(idx, scores={i: float(sims[i]) for i in idx})
    keep = np.flatnonzero(sims >= cutoff)
    return GroupingResult(tuple(int(i) for i in keep),
                          scores={int(i): float(sims[i]) for i in keep})


def _lowe_scores(cset: CorrespondenceSet) -> np.ndarray:
    """1 - nn/second_nn per correspondence; 0 when second_nn is zero."""
    d2 = cset.second_nn_distances
    safe = np.where(d2 > 0.0, d2, 1.0)
    return np.where(d2 > 0.0, 1.0 - cset.nn_distances / safe, 0.0)


def group_nnsr(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Lowe ratio test: keep when 1 - nn/second_nn >= t_nnsr.

    A zero second-nearest distance means the two best features are
    indistinguishable, so the correspondence is rejected.
    """
    if len(cset) == 0:
        return _empty_result()
    scores = _lowe_scores(cset)
    keep = np.flatnonzero((cset.second_nn_distances > 0.0) & (scores >= params.t_nnsr))
    return GroupingResult(tuple(int(i) for i in keep),
                          scores={int(i): float(scores[i]) for i in keep})


# ---------------------------------------------------------------------------
# RANSAC
# ---------------------------------------------------------------------------

def group_ransac(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Random 3-sample consensus over the correspondence set.

    Each iteration samples three distinct correspondences, fits a rigid
    transform (skipping degenerate samples), and counts correspondences
    with residual below ``d_ransac_pr`` resolutions. The best sample by
    inlier count (earliest iteration wins ties) is refit by least squares
    on its consensus set; the refit transform's consensus is returned.
    """
    n = len(cset)
    if n < 3:
        raise ValueError("too few correspondences")
    src = cset.source_points
    tgt = cset.target_points
    threshold = params.d_ransac_pr * cset.source_resolution_pr
    rng = np.random.default_rng(params.rng_seed)

    best_count = 0
    best: RigidTransform | None = None
    for _ in range(params.n_ransac):
        sample = rng.choice(n, size=3, replace=False)
        try:
            fit = estimate_rigid_transform(src[sample], tgt[sample])
        except DegenerateSampleError:
            continue
        residuals = np.linalg.norm(fit.apply(src) - tgt, axis=1)
        count = int((residuals < threshold).sum())
        if count > best_count:
            best_count = count
            best = fit

    if best is None:
        return _empty_result()

    consensus = np.linalg.norm(best.apply(src) - tgt, axis=1) < threshold
    if consensus.sum() >= 3:
        try:
            best = estimate_rigid_transform(src[consensus], tgt[consensus])
        except DegenerateSampleError:
            pass
    final = np.flatnonzero(np.linalg.norm(best.apply(src) - tgt, axis=1) < threshold)
    return GroupingResult(tuple(int(i) for i in final), transform=best)


# ---------------------------------------------------------------------------
# Spectral matching
# ---------------------------------------------------------------------------

def group_st(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Greedy spectral matching on the thresholded rigidity matrix.

    M holds pairwise rigidity scores that clear ``t_st`` (zero diagonal);
    its principal eigenvector ranks each correspondence's association with
    the main consistent cluster. The greedy loop accepts the highest-ranked
    survivor and removes every correspondence sharing its source or target
    keypoint (the one-to-one mapping constraint), stopping when the top
    surviving entry is zero within 1e-12 or nothing remains.

    The eigenvector is computed once on the full matrix, not per round: a
    per-round recomputation would strand the last member of every clique
    (its surviving submatrix is all zero) and lets smaller clusters win
    after the main one is exhausted.
    """
    n = len(cset)
    if n == 0:
        return _empty_result()
    if n == 1:
        return GroupingResult((0,), scores={0: 1.0})

    src = cset.source_points
    tgt = cset.target_points
    matrix = pairwise_rigidity(src, tgt)
    matrix[matrix < params.t_st] = 0.0
    np.fill_diagonal(matrix, 0.0)
    if not matrix.any():
        return _empty_result()

    # The public helper raises at the iteration cap; here the capped
    # iterate is still a usable ranking, and this algorithm's contract is
    # to never fail on valid input.
    vector, _, _ = _power_iterate(matrix, tol=1e-10, max_iter=10000)

    remaining = np.arange(n)
    accepted: list[int] = []
    accepted_scores: dict[int, float] = {}
    while remaining.size:
        local = int(np.argmax(vector[remaining]))
        top = float(vector[remaining][local])
        if top <= 1e-12:
            break
        chosen = int(remaining[local])
        accepted.append(chosen)
        accepted_scores[chosen] = top
        conflict = (
            (src[remaining] == src[chosen]).all(axis=1)
            | (tgt[remaining] == tgt[chosen]).all(axis=1)
        )
        conflict[local] = True
        remaining = remaining[~conflict]

    accepted.sort()
    return GroupingResult(tuple(accepted), scores=accepted_scores or None)


# ---------------------------------------------------------------------------
# Geometric consistency
# ---------------------------------------------------------------------------

def group_gc(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Largest distance-compatible cluster over all seed correspondences.

    The cluster of a seed c is every correspondence whose segment-length
    residual against c stays below ``t_gc_pr`` resolutions, plus c itself.
    The biggest cluster wins; ties go to the lowest seed index.
    """
    n = len(cset)
    if n == 0:
        return _empty_result()
    threshold = params.t_gc_pr * cset.source_resolution_pr
    residuals = pairwise_distance_residuals(cset.source_points, cset.target_points)
    compatible = residuals < threshold  # diagonal residual is 0, so seeds self-include
    sizes = compatible.sum(axis=1)
    seed = int(np.argmax(sizes))
    members = np.flatnonzero(compatible[seed])
    return GroupingResult(tuple(int(i) for i in members))


# ---------------------------------------------------------------------------
# Hough voting
# ---------------------------------------------------------------------------

def _require_frames(cset: CorrespondenceSet, message: str) -> tuple[np.ndarray, np.ndarray]:
    frames_s = cset.source_frames
    frames_t = cset.target_frames
    if frames_s is None or frames_t is None:
        raise ValueError(message)
    return frames_s, frames_t


def hough_votes(cset: CorrespondenceSet, source_cloud: PointCloud) -> np.ndarray:
    """Per-correspondence vote points in target-space global coordinates.

    The source-centroid offset of each keypoint is expressed in that
    keypoint's local frame and re-expressed through the target keypoint's
    frame, so votes of correct matches coincide at the transformed
    centroid regardless of the pose.
    """
    frames_s, frames_t = _require_frames(cset, "LRF required for 3DHV")
    centroid = source_cloud.centroid()
    global_src = centroid - cset.source_points
    local = np.einsum("nij,nj->ni", frames_s, global_src)
    return np.einsum("nji,nj->ni", frames_t, local) + cset.target_points


def group_3dhv(cset: CorrespondenceSet, params: AlgorithmParams,
               source_cloud: PointCloud) -> GroupingResult:
    """Hough voting: quantize vote points and return the peak bin.

    Bin side is ``hough_bin_pr`` resolutions; the peak is a single bin with
    ties broken by the lexicographically smallest bin coordinate.
    """
    if len(cset) == 0:
        return _empty_result()
    if len(source_cloud) == 0:
        raise ValueError("source cloud must be non-empty")
    votes = hough_votes(cset, source_cloud)
    accumulator = HoughAccumulator(params.hough_bin_pr * cset.source_resolution_pr)
    for index, vote in enumerate(votes):
        accumulator.cast(index, vote)
    peak = accumulator.peak()
    if peak is None:
        return _empty_result()
    return GroupingResult(tuple(peak[1]))


# ---------------------------------------------------------------------------
# Search of inliers
# ---------------------------------------------------------------------------

def _frame_motions(frames_s: np.ndarray, frames_t: np.ndarray) -> np.ndarray:
    """Per-correspondence rotation carrying the source frame onto the target frame."""
    return np.einsum("nji,njk->nik", frames_t, frames_s)


def group_si(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Local plus global voting with an adaptive cutoff on the vote score.

    Local voters for c are the ratio-test survivors among its kappa nearest
    correspondences (by source-point distance); a local vote needs rigidity
    above ``si_sigma``. Global voters are the kappa best ratio scores; a
    global vote additionally needs the frame-induced motion of c to map the
    voter's source point within ``si_delta_pr`` resolutions of the voter's
    target point. The combined score is thresholded by Otsu's rule, keeping
    everything when the split is degenerate.
    """
    n = len(cset)
    if n == 0:
        return _empty_result()
    frames_s, frames_t = _require_frames(cset, "LRF required for SI")
    if n == 1:
        return GroupingResult((0,), scores={0: 0.0})

    kappa = min(params.si_kappa, n - 1)
    lowe = _lowe_scores(cset)
    ratio_pass = (cset.second_nn_distances > 0.0) & (lowe >= params.t_nnsr)

    src = cset.source_points
    tgt = cset.target_points
    source_dist, target_dist = pairwise_lengths(src, tgt)
    rigidity = _rigidity_from_lengths(source_dist, target_dist)
    del target_dist

    # kappa nearest neighbors per row by source-point distance (self excluded);
    # stable sort makes distance ties resolve by index.
    np.fill_diagonal(source_dist, np.inf)
    neighbors = np.argsort(source_dist, axis=1, kind="stable")[:, :kappa]
    del source_dist

    neighbor_pass = ratio_pass[neighbors]
    local_voters = neighbor_pass.sum(axis=1)
    neighbor_rigidity = np.take_along_axis(rigidity, neighbors, axis=1)
    local_votes = (neighbor_pass & (neighbor_rigidity > params.si_sigma)).sum(axis=1)

    # Global voters: top-kappa ratio scores (stable sort, so ties by index).
    global_voters = np.argsort(-lowe, kind="stable")[:kappa]
    motions = _frame_motions(frames_s, frames_t)
    voter_src = src[global_voters]
    voter_tgt = tgt[global_voters]
    mapped = np.einsum("nik,ngk->ngi", motions, voter_src[None, :, :] - src[:, None, :]) + tgt[:, None, :]
    residual = np.linalg.norm(mapped - voter_tgt[None, :, :], axis=2)
    delta = params.si_delta_pr * cset.source_resolution_pr
    global_rigidity = rigidity[:, global_voters]
    vote_mask = (global_rigidity > params.si_sigma) & (residual < delta)
    # A candidate in the voter pool trivially agrees with its own induced
    # motion; without the self-vote the zero self-rigidity (duplicate-pair
    # rule) would cap perfect candidates below score 1.
    vote_mask |= global_voters[None, :] == np.arange(n)[:, None]
    global_votes = vote_mask.sum(axis=1)

    denominator = local_voters + kappa
    scores = (local_votes + global_votes) / denominator

    cutoff, degenerate = otsu_threshold(scores)
    if degenerate:
        keep = np.arange(n)
    else:
        keep = np.flatnonzero(scores >= cutoff)
    return GroupingResult(tuple(int(i) for i in keep),
                          scores={int(i): float(scores[i]) for i in keep})


# The one dispatch table; its order is the algorithm order of sweeps and reports.
ALGORITHMS = {
    "ss": group_ss,
    "nnsr": group_nnsr,
    "ransac": group_ransac,
    "st": group_st,
    "gc": group_gc,
    "3dhv": group_3dhv,
    "si": group_si,
}
ALGORITHM_NAMES = tuple(ALGORITHMS)
