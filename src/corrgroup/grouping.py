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
    _dot3,
    _fit_rigid_stack,
    _rotation_faults,
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

    The edges, class sums and variances are taken on the values times
    2**-e, with e the binary exponent of the largest magnitude, so every
    scaled value lies in (-1, 1): no sum or variance overflows near the
    float64 limit, and the variances of tiny values do not flush to zero.
    A power-of-two scale is exact, so the edge, scaled back by 2**e, is
    the one unscaled arithmetic picks wherever neither overflows or
    underflows. Class membership is decided on the values themselves.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("otsu_threshold requires at least one value")
    if not np.isfinite(vals).all():
        raise ValueError("values must be finite")
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return OtsuResult(lo, True)

    ordered = np.sort(vals)
    exponent = math.frexp(max(-lo, hi))[1]
    edges = np.ldexp(np.linspace(math.ldexp(lo, -exponent), math.ldexp(hi, -exponent), 257), exponent)
    # c0[t] = #values strictly below edges[t+1], matching bin membership.
    c0 = np.searchsorted(ordered, edges[1:256], side="left")
    c1 = ordered.size - c0
    prefix = np.concatenate(([0.0], np.cumsum(np.ldexp(ordered, -exponent))))
    s0 = prefix[c0]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_diff = s0 / c0 - (prefix[-1] - s0) / c1
    variance = np.where((c0 > 0) & (c1 > 0), c0 * c1 * mean_diff * mean_diff, -np.inf)
    return OtsuResult(float(edges[1 + int(np.argmax(variance))]), False)


# Bytes of the widest array of one block of rows (RANSAC hypotheses or
# st, gc and si candidates); a block holds a few arrays of this size.
BLOCK_BYTES = 2**19


def _row_blocks(count: int, row_bytes: int):
    """Yield consecutive slices covering ``range(count)`` in order, each of
    ``max(1, BLOCK_BYTES // row_bytes)`` rows except perhaps the last."""
    step = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


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


def _power_iterate(matrix: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Power iteration from the uniform vector; L2-normalized iterates."""
    n = matrix.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(POWER_MAX_ITER):
        w = matrix @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # v is an exact eigenvector of the zero map.
            return v, 0.0, True
        w /= norm
        if float(np.abs(w - v).max()) < POWER_TOL:
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
    if m.size == 0:
        raise ValueError("matrix is empty (0 x 0): it has no eigenvector")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if float(np.abs(m - m.T).max()) > 1e-9:
        raise ValueError("matrix must be symmetric")
    if (m < 0).any():
        raise ValueError("matrix entries must be non-negative")
    vector, value, converged = _power_iterate(m)
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

# Hypotheses drawn, fitted and checked together.
RANSAC_FIT_STACK = 1024


def _squared_limit(threshold: float) -> float:
    """The largest double d with ``sqrt(d) < threshold``; -inf when there
    is none (threshold <= 0 or NaN).

    sqrt is correctly rounded, so monotone: for every d >= 0 (-0.0 and inf
    included) and NaN, ``d <= limit`` is ``sqrt(d) < threshold``.
    """
    if not threshold > 0.0:
        return -math.inf
    limit = threshold * threshold
    while not math.sqrt(limit) < threshold:
        limit = math.nextafter(limit, -math.inf)
    while math.sqrt(up := math.nextafter(limit, math.inf)) < threshold:
        limit = up
    return limit


def _draw_samples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` ordered triples of distinct indices in [0, n), as a
    (count, 3) int64 array.

    Each row is one draw of ``rng.integers(0, (n, n - 1, n - 2))``: the
    second index skips the first, and the third skips both in ascending
    order. The map from draws to triples is one-to-one, so every ordered
    triple is equally likely. With array bounds ``integers`` keeps an unused
    32-bit half for the next call, so blocks of any size give the stream of
    one call of their sum.
    """
    samples = rng.integers(0, (n, n - 1, n - 2), size=(count, 3))
    a, b, c = samples.T  # views
    b += b >= a
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return samples


def _exact_consensus(rot: np.ndarray, tra: np.ndarray, src: np.ndarray, tgt: np.ndarray,
                     limit: float) -> np.ndarray:
    """(k, n) inlier masks of k hypotheses, by the arithmetic that defines
    RANSAC's counts: coordinate-major residuals ``R p + t - q``, squared and
    added as (x + y) + z, compared with ``limit``."""
    # Coordinate-major points: each residual coordinate is a contiguous row.
    residual = np.matmul(rot, src.T.copy())
    residual += tra[:, :, None]
    residual -= tgt.T.copy()
    residual *= residual
    # (x + y) + z: the order in which ``sum(axis=-1)`` adds a length-3 axis.
    dist = residual[:, 0] + residual[:, 1]
    dist += residual[:, 2]
    del residual  # freed before the mask is allocated
    return dist <= limit


class _Screen(NamedTuple):
    """What RANSAC's consensus screen fixes per call (:func:`_consensus_screen`)."""

    src_mean: np.ndarray        # (3,) c_s
    tgt_mean: np.ndarray        # (3,) c_t
    src_spread: float           # P: the largest norm of a centred source point
    spread: float               # P + Q, Q the same for the target points
    offsets: float              # 2 (P + Q + |c_s| + |c_t|)
    threshold: float
    limit: float


# u = EPS / 2 is the unit roundoff; a product that underflows is off by at
# most ETA / 2, ETA the smallest subnormal.
EPS = float(np.finfo(np.float64).eps)
ETA = math.ulp(0.0)
# Rows of the screen's table (:func:`_screen_table`).
SCREEN_ROWS = 17


def _consensus_screen(src: np.ndarray, tgt: np.ndarray, threshold: float, limit: float) -> _Screen:
    """The centres and the per-call magnitudes of the consensus screen, over
    the points ``src`` and ``tgt`` of every pair a hypothesis may meet.

    It has two callers. RANSAC's :func:`_consensus_counts` screens its
    fitted hypotheses against the whole set. si's :func:`_si_screened_vote`
    takes candidate r as the hypothesis (M_r, q_r - M_r p_r) and its global
    voters as the pairs; its screen spans the whole set, because si's
    arithmetic also rounds the candidate's own points, which can lie
    outside the voters' spread.

    With the points centred on their means, p' = p - c_s and q' = q - c_t,
    and a hypothesis (R, t) moved to t' = R c_s + t - c_t, the squared
    residual is

        |R p' + t' - q'|^2 = |R p'|^2 + |q'|^2 + |t'|^2
                             + 2 (R^T t').p' - 2 t'.q' - 2 vec(R).vec(q' p'^T),

    a product of one row per hypothesis (:func:`_screen_rows`) with a table
    of 17 rows per pair (:func:`_screen_table`), with |p'|^2 in place of
    |R p'|^2. Centring keeps the table's entries, and so the screen's
    rounding, at the size of the set rather than of its distance from the
    origin.
    """
    src_mean = src.mean(axis=0)
    tgt_mean = tgt.mean(axis=0)
    p = src - src_mean
    q = tgt - tgt_mean
    src_spread = math.sqrt(np.einsum("ij,ij->i", p, p).max())
    spread = src_spread + math.sqrt(np.einsum("ij,ij->i", q, q).max())
    offsets = 2.0 * (spread + math.hypot(*src_mean) + math.hypot(*tgt_mean))
    return _Screen(src_mean, tgt_mean, src_spread, spread, offsets, threshold, limit)


def _screen_table(screen: _Screen, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """The (17, m) table of m pairs: p' (3 rows), q' (3), the nine products
    q'_i p'_j (row 6 + 3 i + j), |p'|^2 + |q'|^2, and ones."""
    table = np.empty((SCREEN_ROWS, len(src)))
    np.subtract(src.T, screen.src_mean[:, None], out=table[0:3])
    np.subtract(tgt.T, screen.tgt_mean[:, None], out=table[3:6])
    np.multiply(table[3:6, None], table[None, 0:3], out=table[6:15].reshape(3, 3, -1))
    np.einsum("ij,ij->j", table[0:6], table[0:6], out=table[15])
    table[16] = 1.0
    return table


def _screen_rows(screen: _Screen, rot: np.ndarray, tra: np.ndarray,
                 gram_error: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 17) screen rows [2 R^T t', -2 t', -2 vec(R), 1, |t'|^2 - limit]
    of k hypotheses, and each one's margin m, given the (k,) largest
    |entry| e of R^T R - I. RANSAC (:func:`_consensus_counts`) takes e from
    ``geom3d._check_rigid_stack``; si (:func:`group_si`) from
    ``geom3d._rotation_faults`` on M^T, which does not raise where a motion
    built from two valid frames is a little past that check's 1e-9.

    A row times the table is z, a pair's screened squared residual less
    ``limit``. Let ρ = R p' + t' - q' in exact arithmetic on the stored p',
    q' and t', and D the squared residual of the caller's exact count,
    :func:`_exact_consensus` or :func:`_si_global_vote`. The margin makes
    z < -m prove D <= limit and z > m prove D > limit, for either caller. It
    is built from the bounds of Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3 (u = EPS / 2, γ_k = k u / (1 - k u)), with P, Q and T
    the largest norms of p', q' and t':

    * z is |ρ|^2 - limit within E = γ_27 Σ|c||x| + e P^2. The 17-term
      product adds γ_17 to coefficients and entries each rounded by at most
      γ_6 and γ_4; Σ|c||x| <= 2 K with K = (P + Q + T)^2 + limit; and e,
      three times that largest entry plus its rounding, bounds
      the gap between |R p'|^2 and |p'|^2.
    * The exact residual of the raw points is ρ plus the rounding of the
      centring and of t'. The residual vector of :func:`_exact_consensus`
      is within γ_5 (|R||p| + |t| + |q|) of the exact one. Together they
      move |ρ| by at most ε = 8 EPS (2 (P + Q + |c_s| + |c_t|) + |t|).
    * si's hypothesis has R = M and t = q_r - M p_r, rounded within
      γ_4 (|M||p_r| + |q_r|). Its vote rounds o = p_g - p_r, then
      (M_0 o_0 + M_2 o_2) + M_1 o_1 + q_r - q_g per coordinate, within
      γ_6 (|M||o| + |q_r| + |q_g|) of the exact M p_g + t - q_g. The
      screen spans candidates and voters, so |o| <= 2 P,
      |p_r| <= P + |c_s|, |q| <= Q + |c_t|, and |M| scales a norm by at
      most √3 (1 + e). With the centring and t', in units of u, the two
      callers' errors are at most (1 + 16√3) P + 17 Q + 9√3 |c_s|
      + 21 |c_t| + 5 |t| (si) and (1 + 5√3) P + 6 Q + 10√3 |c_s|
      + 10 |c_t| + 10 |t| (RANSAC), within ε's 32 (P + Q + |c_s| + |c_t|)
      + 16 |t| while e < 0.1; both callers' e are near 1e-9.
    * D is that vector's squared norm within a factor 1 ± γ_3: both add
      the squares as (x + y) + z.

    So m = 32 EPS K + e P^2 + 4 ε (τ + ε) + 8 EPS (τ + ε)^2, τ the
    threshold, decides every pair when m < limit: then ε < √limit, and
    an outlier at the edge has |ρ|^2 below 2 limit. Underflow adds at most
    ETA / 2 per product, which 64 ETA (1 + P + Q + T)^2 in m and 16 ETA in ε
    cover: ε takes at most nine products per coordinate (si's residual, t
    and t'), √3 · 9 ETA / 2 in all. Every partial sum of z is below
    2.1 K, so z is finite when 4 K is. A margin that is not finite and
    below ``limit`` becomes inf: then the screen decides none of the
    hypothesis's pairs.

    Layout: the rows are built on coordinate-major planes, one contiguous
    (k,) row per entry of the hypotheses' R (a (3, 3, k) copy) and per
    coordinate of t', R^T t' and t, then written into the columns of the
    (k, 17) output, which the block products take as it is. Each 3-term sum
    runs as (x0 + x1) + x2: per coordinate, t' takes three products and four
    additions (R c_s, then + t - c_t), R^T t' three products and two
    additions on the rounded t', and |t'|^2 and |t|^2 three squares and two
    additions. Those are the counts of the matrix and dot products the
    bounds above were made for, which hold in any order; the factors 2 and
    -2 are exact.
    """
    k = len(rot)
    # r[i, j] is entry (i, j) of every rotation; t', R^T t' and t are (3, k).
    r = rot.transpose(1, 2, 0).copy()
    tra_t = tra.T
    coef = np.empty((k, SCREEN_ROWS))
    with np.errstate(over="ignore", invalid="ignore"):
        moved = r[:, 0] * screen.src_mean[0]
        moved += r[:, 1] * screen.src_mean[1]
        moved += r[:, 2] * screen.src_mean[2]
        moved += tra_t
        moved -= screen.tgt_mean[:, None]
        turned = r[0] * moved[0]
        turned += r[1] * moved[1]
        turned += r[2] * moved[2]
        np.multiply(turned, 2.0, out=coef[:, 0:3].T)
        moved_sq = _dot3(moved, moved)
        np.multiply(moved, -2.0, out=coef[:, 3:6].T)
        np.multiply(rot.reshape(k, 9), -2.0, out=coef[:, 6:15])
        coef[:, 15] = 1.0
        np.subtract(moved_sq, screen.limit, out=coef[:, 16])
        del r, moved, turned  # freed before the margin allocates its own

        reach = screen.spread + np.sqrt(moved_sq)
        big = reach * reach + screen.limit  # K
        slack = 8 * EPS * (screen.offsets + np.sqrt(_dot3(tra_t, tra_t))) + 16 * ETA
        edge = screen.threshold + slack
        margin = (32 * EPS * big + 3 * (gram_error + 4 * EPS) * screen.src_spread ** 2
                  + 4 * slack * edge + 8 * EPS * edge * edge + 64 * ETA * (1 + reach) ** 2)
        margin[~(4 * big < np.inf) | ~(margin < screen.limit)] = np.inf
    return coef, margin


def _consensus_counts(screen: _Screen, rot: np.ndarray, tra: np.ndarray, gram_error: np.ndarray,
                      src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Consensus counts of a stack of hypotheses: those of
    :func:`_exact_consensus`, read off the screen where its margin decides
    every pair of a hypothesis, and recounted by that function where a pair
    lies within the margin or its screened value is not finite.

    The table is built in column blocks of at most half of ``BLOCK_BYTES``
    and the hypotheses taken in the row blocks of the recount
    (:func:`_row_blocks`), whose (rows, 3, n) residuals are at most
    ``BLOCK_BYTES``, so a block's (rows, columns) screened values are at
    most a third of it. A block compares with the largest margin of its
    rows, which holds for each of them; the blocks' margins are taken once
    per stack. A row's count in a block adds its mask's bytes in the
    smallest unsigned type that holds the block's width (uint16 for the
    1927 columns of a full block), so it is exact. The recount starts once
    the table is freed.
    """
    n = len(src)
    coef, margin = _screen_rows(screen, rot, tra, gram_error)
    counts = np.zeros(len(rot), dtype=np.intp)
    recount = np.zeros(len(rot), dtype=bool)
    bounds = np.maximum.reduceat(margin, [rows.start for rows in _row_blocks(len(rot), src.nbytes)])
    # A product that overflows gives inf or NaN, which the recount takes.
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in _row_blocks(n, 2 * 8 * SCREEN_ROWS):
            table = _screen_table(screen, src[cols], tgt[cols])
            width = np.min_scalar_type(table.shape[1])
            for rows, bound in zip(_row_blocks(len(rot), src.nbytes), bounds):
                screened = coef[rows] @ table
                inside = screened < -bound
                outside = screened > bound
                del screened  # freed before the next block allocates its own
                counts[rows] += np.add.reduce(inside.view(np.uint8), axis=1, dtype=width)
                # NaN is neither inside nor outside, and an infinite bound decides nothing.
                if np.count_nonzero(inside) + np.count_nonzero(outside) < inside.size:
                    recount[rows] |= ~(inside | outside).all(axis=1)
            del table
    redo = np.flatnonzero(recount)
    for rows in _row_blocks(len(redo), src.nbytes):
        counts[redo[rows]] = np.count_nonzero(
            _exact_consensus(rot[redo[rows]], tra[redo[rows]], src, tgt, screen.limit), axis=1)
    return counts


def group_ransac(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Random 3-sample consensus over the correspondence set.

    Each iteration samples three distinct correspondences, fits a rigid
    transform (skipping degenerate samples), and counts correspondences
    with residual below ``d_ransac_pr`` resolutions. The best sample by
    inlier count (earliest iteration wins ties) is refit by least squares
    on its consensus set; the refit transform's consensus is returned. When
    no hypothesis has an inlier, as when every sample is degenerate
    (coincident source keypoints), nothing is kept.

    Iterations run in fit stacks of ``RANSAC_FIT_STACK`` from the one
    sample stream: a stack's samples are drawn, fitted and checked together.
    The fits are those of ``geom3d._fit_rigid_stack``: the triangles'
    closed form, with the SVD for the samples it does not certify and for
    the refit. Every consensus is that of :func:`_exact_consensus`, which
    compares squared residuals with ``_squared_limit(threshold)``: that
    gives the verdict of each square root against the threshold without
    taking it. The stacks' counts are read off a screen, one small matrix
    product per block of hypotheses (:func:`_consensus_counts`), and
    recounted where the screen's proven margin does not decide a pair.
    """
    n = len(cset)
    if n < 3:
        raise ValueError("too few correspondences")
    _check_span(cset, "RANSAC")
    src = cset.source_points
    tgt = cset.target_points
    threshold = params.d_ransac_pr * cset.source_resolution_pr
    limit = _squared_limit(threshold)
    rng = np.random.default_rng(params.rng_seed)
    screen = _consensus_screen(src, tgt, threshold, limit)

    best_count = 0
    for start in range(0, params.n_ransac, RANSAC_FIT_STACK):
        samples = _draw_samples(rng, n, min(RANSAC_FIT_STACK, params.n_ransac - start))
        rot, tra, _ = _fit_rigid_stack(src[samples], tgt[samples])
        del samples  # freed before the consensus blocks allocate theirs
        counts = _consensus_counts(screen, rot, tra, _check_rigid_stack(rot, tra), src, tgt)
        if counts.max(initial=0) > best_count:
            k = int(np.argmax(counts))
            best_count, best = int(counts[k]), RigidTransform(rot[k], tra[k])  # copies
        del rot, tra  # freed before the next stack is fitted

    if best_count == 0:
        return GroupingResult(())

    consensus = _exact_consensus(best.rotation[None], best.translation[None], src, tgt, limit)[0]
    if best_count >= 3:
        try:
            best = estimate_rigid_transform(src[consensus], tgt[consensus])
        except DegenerateSampleError:
            pass
    final = np.flatnonzero(_exact_consensus(best.rotation[None], best.translation[None], src, tgt, limit)[0])
    return GroupingResult(final, transform=best)


# ---------------------------------------------------------------------------
# Pairwise stages: st, gc and si
# ---------------------------------------------------------------------------

# Bytes of st's n x n float64 matrix above which st raises before
# allocating it (n <= 16 384).
ST_MATRIX_BYTES = 2**31


# ---------------------------------------------------------------------------
# Spectral matching
# ---------------------------------------------------------------------------

def group_st(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Greedy spectral matching on the thresholded rigidity matrix.

    M holds pairwise rigidity scores that clear ``t_st``. Its diagonal is
    zero as the blocks compute it: a correspondence paired with itself has
    zero lengths, which score 0 (:func:`_rigidity_from_lengths`). Its
    principal eigenvector ranks each correspondence's association with
    the main consistent cluster. Correspondences are accepted greedily in
    descending rank (equal entries in index order), skipping any whose
    source or target keypoint equals that of an accepted one (the
    one-to-one mapping constraint), until an entry is zero within 1e-12.
    When M has no nonzero entry, as when all keypoints coincide (zero
    lengths score 0), there is no cluster and nothing is kept.

    The eigenvector is computed once on the full matrix, not per round: a
    per-round recomputation would strand the last member of every clique
    (its surviving submatrix is all zero) and lets smaller clusters win
    after the main one is exhausted.

    M is the one n x n matrix held, filled from row blocks of lengths
    (:func:`_row_blocks`): a block holds a few (rows, n) float64 arrays of
    at most ``BLOCK_BYTES`` each. Only the upper triangle is computed; the
    lengths are bitwise symmetric (:func:`pairwise_lengths`), so each
    block's part right of its diagonal square is mirrored below it. A
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
    for rows in _row_blocks(n, 8 * n):
        upper = slice(rows.start, None)
        block = _rigidity_from_lengths(pairwise_lengths(src, rows, upper),
                                       pairwise_lengths(tgt, rows, upper), out=matrix[rows, rows.start:])
        block *= block >= params.t_st
        matrix[rows.stop:, rows] = block[:, rows.stop - rows.start:].T
    if not matrix.any():
        return GroupingResult(())

    # The public helper raises at the iteration cap; here the capped
    # iterate is still a usable ranking, and this algorithm's contract is
    # to never fail on valid input.
    vector, _, _ = _power_iterate(matrix)

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

    Cluster sizes are counted in row blocks of the upper triangle of
    residuals, each block twice: its rows count towards their own seeds and
    its columns right of the diagonal square towards theirs. Only the
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
    sizes = np.zeros(n, dtype=np.int64)
    for rows in _row_blocks(n, 8 * n):
        upper = slice(rows.start, None)
        residuals = _residuals_from_lengths(pairwise_lengths(src, rows, upper),
                                            pairwise_lengths(tgt, rows, upper))
        compatible = (residuals < threshold).view(np.uint8)
        sizes[rows] += compatible.sum(axis=1, dtype=np.uint32)
        sizes[rows.stop:] += compatible[:, rows.stop - rows.start:].sum(axis=0, dtype=np.uint32)
    seed = int(np.argmax(sizes))  # the first maximum
    row = slice(seed, seed + 1)
    residuals = _residuals_from_lengths(pairwise_lengths(src, row), pairwise_lengths(tgt, row))
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


def _si_global_vote(motions: np.ndarray, src: np.ndarray, tgt: np.ndarray,
                    voter_src_t: np.ndarray, voter_tgt_t: np.ndarray, limit: float) -> np.ndarray:
    """(rows, kappa) mask: candidate r's frame motion carries voter g's source
    point to within ``sqrt(limit)`` of g's target point (squared residual
    ``d <= limit``).

    ``motions``, ``src`` and ``tgt`` hold the block's rows; the voters come
    coordinate-major, (3, kappa). Each residual coordinate is one (rows,
    kappa) plane, summed as ``(M[i,0] X0 + M[i,2] X2) + M[i,1] X1`` with a
    separate multiply and add per term, then ``+ tgt`` and ``- voter_tgt``:
    the bits numpy's ``einsum("nik,ngk->ngi")`` gives, which
    ``tests/test_si_vote.py`` keeps as the oracle. The squares add as
    ``(x + y) + z``, the order of ``sum`` over a length-3 axis, so with
    ``limit = _squared_limit(delta)`` the mask is ``norm(...) < delta``.
    """
    offsets = [voter_src_t[k] - src[:, k, None] for k in range(3)]
    coord, term, dist = (np.empty_like(offsets[0]) for _ in range(3))
    for i in range(3):
        np.multiply(motions[:, i, 0, None], offsets[0], out=coord)
        coord += np.multiply(motions[:, i, 2, None], offsets[2], out=term)
        coord += np.multiply(motions[:, i, 1, None], offsets[1], out=term)
        coord += tgt[:, i, None]
        coord -= voter_tgt_t[i]
        if i == 0:
            np.multiply(coord, coord, out=dist)
        else:
            dist += np.multiply(coord, coord, out=term)
    return dist <= limit


def _si_screened_vote(table: np.ndarray, coef: np.ndarray, margin: np.ndarray, motions: np.ndarray,
                      src: np.ndarray, tgt: np.ndarray, voter_src_t: np.ndarray,
                      voter_tgt_t: np.ndarray, limit: float) -> np.ndarray:
    """The mask of :func:`_si_global_vote`, read off RANSAC's consensus screen.

    Candidate r is the hypothesis (M_r, q_r - M_r p_r) and the voters are
    its pairs: ``table`` is their :func:`_screen_table`, and ``coef`` and
    ``margin`` are the candidates' :func:`_screen_rows` on a screen that
    spans every candidate and voter. A row whose margin does not decide
    every voter is recounted by :func:`_si_global_vote`.
    """
    # A product that overflows gives inf or NaN, which the recount takes.
    with np.errstate(over="ignore", invalid="ignore"):
        screened = coef @ table
    bound = margin[:, None]
    inside = screened < -bound
    # NaN is neither inside nor outside, and an infinite margin decides nothing.
    redo = np.flatnonzero(~(inside | (screened > bound)).all(axis=1))
    if redo.size:
        inside[redo] = _si_global_vote(motions[redo], src[redo], tgt[redo],
                                       voter_src_t, voter_tgt_t, limit)
    return inside


def _kth_smallest(lengths: np.ndarray, kappa: int) -> np.ndarray:
    """The (rows, 1) column of each row's kappa-th smallest entry, selected
    on the entries' bit patterns read as int64.

    Every entry is a cdist length or the +inf si puts on the diagonal. The
    points are finite, :func:`_check_span` rules out overflow, and a
    length is the square root of a sum of squares, so it is +0.0 or
    positive and finite: never -0.0 or NaN. On non-negative doubles the
    int64 order of the bit patterns is the order of the values, and equal
    values have equal bits, so the selection is exact without the float
    path's NaN handling.
    """
    kth = np.partition(lengths.view(np.int64), kappa - 1, axis=1)[:, [kappa - 1]]
    return kth.view(np.float64)


def group_si(cset: CorrespondenceSet, params: AlgorithmParams) -> GroupingResult:
    """Local plus global voting with an adaptive cutoff on the vote score.

    Local voters for c are the ratio-test survivors among its kappa nearest
    correspondences (by source-point distance, ties to the lower index); a
    local vote needs rigidity above ``si_sigma``. Global voters are the
    kappa best ratio scores, ties to the lower index; a global vote
    additionally needs the frame-induced motion of c to map the voter's
    source point within ``si_delta_pr`` resolutions of the voter's target
    point. A global voter always votes for itself, which its own rigidity
    (of zero lengths, so 0) would otherwise forbid, and no other
    correspondence gets that vote: among identical correspondences, which
    give each other no vote, only the voters score. The score is the
    votes over (local voters + kappa), thresholded by Otsu's rule, which
    keeps everything when all scores are equal.

    Candidates are scored in row blocks (:func:`_row_blocks`): a block holds
    a few (rows, n) arrays of at most ``BLOCK_BYTES`` each, and every step up
    to the cutoff works on one candidate's row alone, so the blocks keep the
    bits of the whole matrices. A row reads rigidity only at the ratio-test
    survivors and the global voters, the same columns for every row, so a
    block computes it on those columns alone: its target lengths on them
    (:func:`pairwise_lengths` takes the column indices), its source lengths
    gathered from whole rows, which the kappa-nearest selection
    (:func:`_kth_smallest`) needs. The global vote is
    read off RANSAC's consensus screen (:func:`_si_screened_vote`): every
    candidate's screen row is built once per call, then one (rows, 17) by
    (17, kappa) product per block, with each row whose proven
    margin does not decide every voter recounted exactly on (rows, kappa)
    coordinate planes (:func:`_si_global_vote`), its squared
    residuals compared with ``_squared_limit(delta)`` in place of a norm.
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
    # The columns a row reads: the global voters first, then the other survivors.
    others = ratio_pass.copy()
    others[global_voters] = False
    read = np.concatenate([global_voters, np.flatnonzero(others)])
    motions = _frame_motions(cset.source_frames, cset.target_frames)
    # Coordinate-major voters: each coordinate is one contiguous row.
    voter_src_t = src[global_voters].T.copy()
    voter_tgt_t = tgt[global_voters].T.copy()
    delta = params.si_delta_pr * cset.source_resolution_pr
    screen = _consensus_screen(src, tgt, delta, _squared_limit(delta))
    table = _screen_table(screen, src[global_voters], tgt[global_voters])
    # Every candidate's screen row, built once: candidate r is (M_r, q_r - M_r p_r).
    coef, margin = _screen_rows(screen, motions, tgt - np.matmul(motions, src[:, :, None])[:, :, 0],
                                _rotation_faults(motions.transpose(0, 2, 1))[1])

    local_voters = np.empty(n, dtype=np.int64)
    local_votes = np.empty(n, dtype=np.int64)
    global_votes = np.empty(n, dtype=np.int64)
    for rows in _row_blocks(n, 8 * n):
        source_dist = pairwise_lengths(src, rows)
        target_dist = pairwise_lengths(tgt, rows, read)

        # kappa nearest neighbours per row by source-point distance (self
        # excluded): every distance up to the kappa-th smallest. When a row of
        # the block holds more than kappa of those, the block takes every
        # distance below it, then the ties at it in index order until kappa
        # are taken, which is the same set on every row without a surplus.
        diagonal = np.arange(len(source_dist))
        source_dist[diagonal, diagonal + rows.start] = np.inf
        kth = _kth_smallest(source_dist, kappa)
        near = source_dist <= kth
        if (near.view(np.uint8).sum(axis=1, dtype=np.uint32) > kappa).any():
            near = source_dist < kth
            ties = source_dist == kth
            near |= ties & (np.cumsum(ties, axis=1, dtype=np.int32)
                            <= kappa - near.view(np.uint8).sum(axis=1, keepdims=True, dtype=np.int32))
        near &= ratio_pass
        local_voters[rows] = near.view(np.uint8).sum(axis=1, dtype=np.uint32)

        # A row's own entry reads 0 with its inf length, as with its 0 one.
        source_dist = np.take(source_dist, read, axis=1)
        rigid = _rigidity_from_lengths(source_dist, target_dist, out=source_dist) > params.si_sigma
        del source_dist, target_dist  # freed before the vote allocates its planes
        local_votes[rows] = (np.take(near, read, axis=1) & rigid).view(np.uint8).sum(axis=1, dtype=np.uint32)

        global_votes[rows] = (rigid[:, :kappa] & _si_screened_vote(
            table, coef[rows], margin[rows], motions[rows], src[rows], tgt[rows],
            voter_src_t, voter_tgt_t, screen.limit)).view(np.uint8).sum(axis=1, dtype=np.uint32)
    # A candidate in the voter pool trivially agrees with its own induced
    # motion; without the self-vote the zero self-rigidity (duplicate-pair
    # rule) would cap perfect candidates below score 1. That zero keeps the
    # voter's own column out of its block's count, so the self-vote adds one.
    global_votes[global_voters] += 1

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
