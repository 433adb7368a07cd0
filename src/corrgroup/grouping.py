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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corr_model import (
    CorrespondenceSet,
    _residuals_from_lengths,
    _rigidity_from_lengths,
    pairwise_length_blocks,
    pairwise_lengths,
)
# The dense kernels, bound here so that perfbench's tracer can wrap these
# names; st, gc and si work on row blocks instead.
from .corr_model import pairwise_distance_residuals, pairwise_rigidity  # noqa: F401
from .geom3d import (
    DegenerateSampleError,
    PointCloud,
    RigidTransform,
    _check_rigid_stack,
    _fit_rigid_stack,
    estimate_rigid_transform,
)


class NonConvergenceError(ArithmeticError):
    """Power iteration hit its iteration cap without converging."""


@dataclass(frozen=True)
class AlgorithmParams:
    """Tuning knobs for all seven algorithms.

    ``t_ss=None`` selects the adaptive similarity cutoff.
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
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        # type(), not isinstance(): a bool is an int, and JSON true is no count.
        for name in ("n_ransac", "si_kappa"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if type(self.rng_seed) is not int or not (0 <= self.rng_seed < 2**64):
            raise ValueError("rng_seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class GroupingResult:
    """Sorted inlier indices (a 1-D integer sequence or array, stored as a
    tuple of ints), optional per-index scores, optional transform."""

    inlier_indices: tuple[int, ...]
    scores: dict[int, float] | None = None
    transform: RigidTransform | None = None

    def __post_init__(self):
        idx = np.asarray(self.inlier_indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError("indices must be a 1-D integer sequence")
        if idx.size and idx.min() < 0:
            raise ValueError("indices must be non-negative")
        if not (idx[1:] > idx[:-1]).all():
            raise ValueError("indices must be " + ("unique" if len(np.unique(idx)) < len(idx) else "sorted"))
        object.__setattr__(self, "inlier_indices", tuple(idx.tolist()))
        if self.scores is not None:
            # Keyed by the stored index objects, so a result holds each index once.
            own = dict(zip(self.inlier_indices, self.inlier_indices))
            scores = {own.get(k): float(v) for k, v in self.scores.items()}
            if None in scores or len(scores) != len(own):
                raise ValueError("scores must cover exactly the inlier indices")
            object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.inlier_indices)


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


def _check_span(cset: CorrespondenceSet, algorithm: str) -> None:
    """Raise ValueError when the set's lengths overflow float64 once squared.

    Every segment length and residual that st, gc, si and ransac square is
    at most twice the diagonal of the box around all source and target
    points, so this O(n) check on the box stands for the n x n ones.
    """
    # One row per axis: numpy reduces a contiguous row much faster than a column.
    axes = np.vstack([cset.source_points, cset.target_points]).T.copy()
    with np.errstate(over="ignore"):
        extent = np.ptp(axes, axis=1)
        if np.isfinite(np.square(2.0 * extent).sum()):
            return
    raise ValueError(f"{algorithm}: point coordinates span {extent.max():g}, so squared "
                     f"pairwise lengths overflow float64")


POWER_TOL = 1e-10
POWER_MAX_ITER = 10000


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


def principal_eigenvector(matrix) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of a symmetric non-negative matrix.

    Power iteration starting from the uniform vector; converged when
    successive normalized iterates differ by less than ``POWER_TOL`` in max-norm.
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
    vector, value, converged = _power_iterate(m, POWER_TOL, POWER_MAX_ITER)
    if not converged:
        raise NonConvergenceError("eigen non-convergence")
    return vector, value


# ---------------------------------------------------------------------------
# Feature-score algorithms
# ---------------------------------------------------------------------------

def group_ss(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Keep correspondences whose similarity clears a cutoff.

    With ``t_ss=None`` the cutoff adapts via :func:`otsu_threshold`; if the
    similarities are all equal the split is degenerate, its threshold is
    that value, and everything is kept.
    """
    if len(cset) == 0:
        return GroupingResult(())
    sims = cset.similarities
    cutoff = otsu_threshold(sims).threshold if params.t_ss is None else params.t_ss
    keep = np.flatnonzero(sims >= cutoff)
    return GroupingResult(keep, scores=dict(zip(keep.tolist(), sims[keep].tolist())))


def _lowe_scores(cset: CorrespondenceSet) -> np.ndarray:
    """1 - nn/second_nn per correspondence; 0 when second_nn is zero."""
    d2 = cset.second_nn_distances
    safe = np.where(d2 > 0.0, d2, 1.0)
    return np.where(d2 > 0.0, 1.0 - cset.nn_distances / safe, 0.0)


def _ratio_test(cset: CorrespondenceSet, t_nnsr: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowe scores, and the mask of correspondences that pass the ratio
    test: a positive second_nn and a score of at least ``t_nnsr``."""
    scores = _lowe_scores(cset)
    return scores, (cset.second_nn_distances > 0.0) & (scores >= t_nnsr)


def group_nnsr(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Lowe ratio test: keep when 1 - nn/second_nn >= t_nnsr.

    A zero second-nearest distance means the two best features are
    indistinguishable, so the correspondence is rejected.
    """
    if len(cset) == 0:
        return GroupingResult(())
    scores, passed = _ratio_test(cset, params.t_nnsr)
    keep = np.flatnonzero(passed)
    return GroupingResult(keep, scores=dict(zip(keep.tolist(), scores[keep].tolist())))


# ---------------------------------------------------------------------------
# RANSAC
# ---------------------------------------------------------------------------

# Bytes of one block's (B, 3, n) float64 residual array; B >= 1.
RANSAC_BLOCK_BYTES = 3 * 2**19


def _draw_samples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` calls of ``rng.choice(n, size=3, replace=False)`` as one
    (count, 3) int64 array, leaving ``rng`` exactly where the calls would.

    Each call of numpy 2.x's ``Generator.choice`` makes five bounded draws:
    Floyd's algorithm on [0, n-3], [0, n-2] and [0, n-1] (a repeat is
    replaced by the bound), then a shuffle on [0, 2] and [0, 1]. Each draw is
    Lemire's method on one 32-bit half of a PCG64 word, low half first, with
    the unused high half kept in the bit generator's ``has_uint32`` and
    ``uinteger``; the draw on [0, 0] (n = 3) takes no half. So the samples are
    computed here from ``random_raw`` words. When any draw would be rejected
    by Lemire's method, or n - 1 exceeds 32 bits (numpy then draws 64-bit
    words), the state is restored and the calls are made one by one.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    if n <= 2**32:
        low = np.uint64(0xFFFFFFFF)
        bounds = np.array([n - 2, n - 1, n, 3, 2][int(n == 3):], dtype=np.uint64)
        need = bounds.size * count
        carry = saved["has_uint32"]
        words = bitgen.random_raw((need - carry + 1) // 2)
        halves = np.empty(carry + 2 * words.size, dtype=np.uint64)
        halves[:carry] = saved["uinteger"]
        halves[carry::2] = words & low
        halves[carry + 1::2] = words >> np.uint64(32)
        # Lemire: a draw is the high 32 bits of half * bound, rejected when
        # the low 32 bits fall below (2**32 - bound) % bound.
        scaled = halves[:need].reshape(count, -1) * bounds
        if not ((scaled & low) < (np.uint64(2**32) - bounds) % bounds).any():
            draws = (scaled >> np.uint64(32)).astype(np.int64)
            if n == 3:  # the draw on [0, 0] is 0
                draws = np.hstack([np.zeros((count, 1), dtype=np.int64), draws])
            samples = draws[:, :3].copy()
            first, second, third = samples.T  # views: Floyd's repeats become the bound
            second[second == first] = n - 2
            third[(third == first) | (third == second)] = n - 1
            rows = np.arange(count)
            # The shuffle swaps position 2 with j on [0, 2], then 1 with j on [0, 1].
            for i, j in ((2, draws[:, 3]), (1, draws[:, 4])):
                swapped = samples[rows, j]
                samples[rows, j] = samples[:, i]
                samples[:, i] = swapped
            state = bitgen.state
            state["has_uint32"] = halves.size - need
            if state["has_uint32"]:
                state["uinteger"] = int(halves[-1])
            bitgen.state = state
            return samples
        bitgen.state = saved
    return np.array([rng.choice(n, size=3, replace=False) for _ in range(count)])


def group_ransac(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Random 3-sample consensus over the correspondence set.

    Each iteration samples three distinct correspondences, fits a rigid
    transform (skipping degenerate samples), and counts correspondences
    with residual below ``d_ransac_pr`` resolutions. The best sample by
    inlier count (earliest iteration wins ties) is refit by least squares
    on its consensus set; the refit transform's consensus is returned.

    Iterations run in blocks drawn from the one sample stream: a block's
    samples are fitted together and their consensus counted exactly, with
    the block sized so its residuals take at most ``RANSAC_BLOCK_BYTES``.
    """
    n = len(cset)
    if n < 3:
        raise ValueError("too few correspondences")
    _check_span(cset, "RANSAC")
    src = cset.source_points
    tgt = cset.target_points
    threshold = params.d_ransac_pr * cset.source_resolution_pr
    rng = np.random.default_rng(params.rng_seed)
    block = max(1, RANSAC_BLOCK_BYTES // src.nbytes)
    # Coordinate-major points: each residual coordinate is a contiguous row.
    src_t = src.T.copy()
    tgt_t = tgt.T.copy()

    best_count = 0
    for start in range(0, params.n_ransac, block):
        samples = _draw_samples(rng, n, min(block, params.n_ransac - start))
        rot, tra, _ = _fit_rigid_stack(src[samples], tgt[samples])
        _check_rigid_stack(rot, tra)
        residual = np.matmul(rot, src_t)
        residual += tra[:, :, None]
        residual -= tgt_t
        residual *= residual
        # (x + y) + z: the order in which ``sum(axis=-1)`` adds a length-3 axis.
        dist = residual[:, 0] + residual[:, 1]
        dist += residual[:, 2]
        del residual  # freed before the next block allocates its residuals
        inliers = np.sqrt(dist, out=dist) < threshold
        counts = np.count_nonzero(inliers, axis=1)
        if counts.max(initial=0) > best_count:
            k = int(np.argmax(counts))
            best_count, best_fit, consensus = int(counts[k]), (rot[k], tra[k]), inliers[k]

    if best_count == 0:
        return GroupingResult(())

    best = RigidTransform(*best_fit)
    if best_count >= 3:
        try:
            best = estimate_rigid_transform(src[consensus], tgt[consensus])
        except DegenerateSampleError:
            pass
    final = np.flatnonzero(np.linalg.norm(best.apply(src) - tgt, axis=1) < threshold)
    return GroupingResult(final, transform=best)


# ---------------------------------------------------------------------------
# Pairwise stages: st, gc and si
# ---------------------------------------------------------------------------

# Bytes of one block's (rows, n) float64 lengths in st and gc; rows >= 1.
PAIRWISE_BLOCK_BYTES = 2**19

# Bytes of st's n x n float64 matrix above which st raises before
# allocating it (n <= 16 384).
ST_MATRIX_BYTES = 2**31


def _block_rows(n: int) -> int:
    return max(1, PAIRWISE_BLOCK_BYTES // (8 * n))


# ---------------------------------------------------------------------------
# Spectral matching
# ---------------------------------------------------------------------------

def group_st(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Greedy spectral matching on the thresholded rigidity matrix.

    M holds pairwise rigidity scores that clear ``t_st`` (zero diagonal);
    its principal eigenvector ranks each correspondence's association with
    the main consistent cluster. Correspondences are accepted greedily in
    descending rank (equal entries in index order), skipping any whose
    source or target keypoint equals that of an accepted one (the
    one-to-one mapping constraint), until an entry is zero within 1e-12.

    The eigenvector is computed once on the full matrix, not per round: a
    per-round recomputation would strand the last member of every clique
    (its surviving submatrix is all zero) and lets smaller clusters win
    after the main one is exhausted.

    M is the one n x n matrix held, filled from row blocks of lengths. A
    matrix above ``ST_MATRIX_BYTES`` raises ValueError before allocation.
    """
    n = len(cset)
    if n == 0:
        return GroupingResult(())
    if n == 1:
        return GroupingResult((0,), scores={0: 1.0})
    _check_span(cset, "ST")

    matrix_bytes = 8 * n * n
    if matrix_bytes > ST_MATRIX_BYTES:
        raise ValueError(f"ST: its {n} x {n} rigidity matrix needs {matrix_bytes} bytes, "
                         f"above the limit of {ST_MATRIX_BYTES} bytes")

    src = cset.source_points
    tgt = cset.target_points
    matrix = np.empty((n, n))
    for rows, d_s, d_t in pairwise_length_blocks(src, tgt, _block_rows(n)):
        block = _rigidity_from_lengths(d_s, d_t, out=matrix[rows])
        block[block < params.t_st] = 0.0
    np.fill_diagonal(matrix, 0.0)
    if not matrix.any():
        return GroupingResult(())

    # The public helper raises at the iteration cap; here the capped
    # iterate is still a usable ranking, and this algorithm's contract is
    # to never fail on valid input.
    vector, _, _ = _power_iterate(matrix, POWER_TOL, POWER_MAX_ITER)

    order = np.argsort(-vector, kind="stable")
    # Coordinate tuples compare like the arrays (-0.0 == 0.0; columns are finite).
    used_src, used_tgt = set(), set()
    accepted: dict[int, float] = {}
    for i, entry, s, t in zip(order.tolist(), vector[order].tolist(),
                              map(tuple, src[order].tolist()), map(tuple, tgt[order].tolist())):
        if entry <= 1e-12:
            break
        if s not in used_src and t not in used_tgt:
            used_src.add(s)
            used_tgt.add(t)
            accepted[i] = entry
    return GroupingResult(sorted(accepted), scores=accepted or None)


# ---------------------------------------------------------------------------
# Geometric consistency
# ---------------------------------------------------------------------------

def group_gc(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Largest distance-compatible cluster over all seed correspondences.

    The cluster of a seed c is every correspondence whose segment-length
    residual against c stays below ``t_gc_pr`` resolutions, plus c itself.
    The biggest cluster wins; ties go to the lowest seed index.

    Cluster sizes are counted in row blocks of residuals, and only the
    winning seed's row is computed again for its members.
    """
    n = len(cset)
    if n == 0:
        return GroupingResult(())
    _check_span(cset, "GC")
    threshold = params.t_gc_pr * cset.source_resolution_pr
    src = cset.source_points
    tgt = cset.target_points
    # The diagonal residual is 0, so every seed counts itself.
    sizes = np.empty(n, dtype=np.int64)
    for rows, d_s, d_t in pairwise_length_blocks(src, tgt, _block_rows(n)):
        sizes[rows] = np.count_nonzero(_residuals_from_lengths(d_s, d_t) < threshold, axis=1)
    seed = int(np.argmax(sizes))  # the first maximum
    residuals = _residuals_from_lengths(*pairwise_lengths(src, tgt, slice(seed, seed + 1)))
    return GroupingResult(np.flatnonzero(residuals[0] < threshold))


# ---------------------------------------------------------------------------
# Hough voting
# ---------------------------------------------------------------------------

def hough_votes(cset: CorrespondenceSet, source_cloud: PointCloud) -> np.ndarray:
    """Per-correspondence vote points in target-space global coordinates.

    The source-centroid offset of each keypoint is expressed in that
    keypoint's local frame and re-expressed through the target keypoint's
    frame, so votes of correct matches coincide at the transformed
    centroid regardless of the pose.
    """
    if not cset.has_lrfs:
        raise ValueError("LRF required for 3DHV")
    centroid = source_cloud.centroid()
    global_src = centroid - cset.source_points
    local = np.einsum("nij,nj->ni", cset.source_frames, global_src)
    return np.einsum("nji,nj->ni", cset.target_frames, local) + cset.target_points


def group_3dhv(cset: CorrespondenceSet, params: AlgorithmParams,
               source_cloud: PointCloud) -> GroupingResult:
    """Hough voting: quantize vote points and return the peak bin.

    Bin side is ``hough_bin_pr`` resolutions and the bin of a vote v is
    floor(v / bin side) per axis; the peak is a single bin with ties broken
    by the lexicographically smallest bin coordinate.
    """
    if len(cset) == 0:
        return GroupingResult(())
    if len(source_cloud) == 0:
        raise ValueError("source cloud must be non-empty")
    bin_side = params.hough_bin_pr * cset.source_resolution_pr
    with np.errstate(over="ignore"):
        bins = np.floor(hough_votes(cset, source_cloud) / bin_side)
    if not np.isfinite(bins).all():
        raise ValueError(f"3DHV bin coordinates are not finite: votes divided by "
                         f"the bin side {bin_side:g} overflow float64")
    # Unique rows come back in lexicographic order, so argmax picks the
    # smallest coordinate among the peak bins.
    _, labels, counts = np.unique(bins, axis=0, return_inverse=True, return_counts=True)
    return GroupingResult(np.flatnonzero(labels.reshape(-1) == np.argmax(counts)))


# ---------------------------------------------------------------------------
# Search of inliers
# ---------------------------------------------------------------------------

def _frame_motions(frames_s: np.ndarray, frames_t: np.ndarray) -> np.ndarray:
    """Per-correspondence rotation carrying the source frame onto the target frame."""
    return np.einsum("nji,njk->nik", frames_t, frames_s)


# Bytes of one row block of si's float64 working arrays: a (rows, n) array of
# lengths and a (rows, kappa, 3) array of mapped voters; rows >= 1.
SI_BLOCK_BYTES = 3 * 2**19


def group_si(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Local plus global voting with an adaptive cutoff on the vote score.

    Local voters for c are the ratio-test survivors among its kappa nearest
    correspondences (by source-point distance, ties to the lower index); a
    local vote needs rigidity above ``si_sigma``. Global voters are the
    kappa best ratio scores; a global vote additionally needs the
    frame-induced motion of c to map the voter's source point within
    ``si_delta_pr`` resolutions of the voter's target point. The combined
    score is thresholded by Otsu's rule, which keeps everything when all
    scores are equal.

    Candidates are scored in row blocks of at most ``SI_BLOCK_BYTES``: every
    step up to the cutoff works on one candidate's row alone, so the blocks
    keep the bits of the whole matrices.
    """
    n = len(cset)
    if n == 0:
        return GroupingResult(())
    if not cset.has_lrfs:
        raise ValueError("LRF required for SI")
    if n == 1:
        return GroupingResult((0,), scores={0: 0.0})
    _check_span(cset, "SI")

    kappa = min(params.si_kappa, n - 1)
    lowe, ratio_pass = _ratio_test(cset, params.t_nnsr)

    src = cset.source_points
    tgt = cset.target_points
    # Global voters: top-kappa ratio scores (stable sort, so ties by index).
    global_voters = np.argsort(-lowe, kind="stable")[:kappa]
    motions = _frame_motions(cset.source_frames, cset.target_frames)
    voter_src = src[global_voters]
    voter_tgt = tgt[global_voters]
    delta = params.si_delta_pr * cset.source_resolution_pr

    local_voters = np.empty(n, dtype=np.int64)
    local_votes = np.empty(n, dtype=np.int64)
    vote_mask = np.empty((n, kappa), dtype=bool)
    block_rows = max(1, SI_BLOCK_BYTES // (8 * (n + 3 * kappa)))
    for rows, source_dist, target_dist in pairwise_length_blocks(src, tgt, block_rows):
        rigid = _rigidity_from_lengths(source_dist, target_dist) > params.si_sigma

        # kappa nearest neighbours per row by source-point distance (self
        # excluded): every distance below the kappa-th smallest, then the ties
        # at it in index order until kappa are taken.
        diagonal = np.arange(len(source_dist))
        source_dist[diagonal, diagonal + rows.start] = np.inf
        kth = np.partition(source_dist, kappa - 1, axis=1)[:, [kappa - 1]]
        near = source_dist < kth
        ties = source_dist == kth
        near |= ties & (np.cumsum(ties, axis=1, dtype=np.int32)
                        <= kappa - near.sum(axis=1, keepdims=True, dtype=np.int32))
        near &= ratio_pass
        local_voters[rows] = near.sum(axis=1)
        local_votes[rows] = (near & rigid).sum(axis=1)

        # The einsum reduces over k only, so its rows keep their bits in blocks.
        mapped = np.einsum("nik,ngk->ngi", motions[rows], voter_src[None, :, :] - src[rows, None, :])
        mapped += tgt[rows, None, :]
        mapped -= voter_tgt[None, :, :]
        vote_mask[rows] = rigid[:, global_voters] & (np.linalg.norm(mapped, axis=2) < delta)
    # A candidate in the voter pool trivially agrees with its own induced
    # motion; without the self-vote the zero self-rigidity (duplicate-pair
    # rule) would cap perfect candidates below score 1.
    vote_mask[global_voters, np.arange(kappa)] = True
    global_votes = vote_mask.sum(axis=1)

    denominator = local_voters + kappa
    scores = (local_votes + global_votes) / denominator

    keep = np.flatnonzero(scores >= otsu_threshold(scores).threshold)
    return GroupingResult(keep, scores=dict(zip(keep.tolist(), scores[keep].tolist())))


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
