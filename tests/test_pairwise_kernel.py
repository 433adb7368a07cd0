"""The n x n length kernel against the scalar oracles, and the peak memory
of the three algorithms built on it (st, gc, si)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgroup import (
    AlgorithmParams,
    Correspondence,
    CorrespondenceSet,
    LocalReferenceFrame,
    distance_compatibility,
    group_gc,
    group_si,
    group_st,
    rigidity_score,
)
from corrgroup.corr_model import pairwise_distance_residuals, pairwise_rigidity

REL = 1e-12  # cdist and the scalar norm round differently, by a few ulp


@st.composite
def keypoints(draw, n):
    """n keypoints: dyadic, integer-grid or collinear, with duplicates and
    an optional 1e6 offset."""
    kind = draw(st.sampled_from(["dyadic", "grid", "collinear"]))
    if kind == "dyadic":
        values = draw(st.lists(st.integers(-10**6, 10**6), min_size=3 * n, max_size=3 * n))
        points = np.array(values, dtype=np.float64).reshape(n, 3) / 1024.0
    elif kind == "grid":
        values = draw(st.lists(st.integers(-2, 2), min_size=3 * n, max_size=3 * n))
        points = np.array(values, dtype=np.float64).reshape(n, 3)
    else:
        base = np.array(draw(st.lists(st.integers(-100, 100), min_size=3, max_size=3)), float)
        direction = np.array(draw(st.lists(st.integers(-64, 64), min_size=3, max_size=3)), float) / 64.0
        steps = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), float)
        points = base + steps[:, None] * direction
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        points[dst] = points[src]
    return points + draw(st.sampled_from([0.0, 1e6]))


@st.composite
def point_pairs(draw):
    n = draw(st.integers(1, 8))
    src = draw(keypoints(n))
    tgt = src.copy() if draw(st.booleans()) else draw(keypoints(n))
    return src, tgt


@settings(max_examples=200, deadline=None)
@given(point_pairs(), st.floats(0.01, 10.0))
@example(  # a duplicate source keypoint (d_s = 0) and a duplicate target keypoint (d_t = 0)
    pair=(np.array([[0.0, 0, 0], [0.0, 0, 0], [3.0, 4, 0]]),
          np.array([[1.0, 1, 1], [2.0, 2, 2], [1.0, 1, 1]])),
    t_gc=1.0,
)
def test_kernel_matches_scalar_oracles_on_every_pair(pair, t_gc):
    src, tgt = pair
    items = [Correspondence(s, t, 0.9, 0.1, 0.5) for s, t in zip(src, tgt)]
    rigidity = pairwise_rigidity(src, tgt)
    residuals = pairwise_distance_residuals(src, tgt)
    for i, ci in enumerate(items):
        for j, cj in enumerate(items):
            expected = rigidity_score(ci, cj)
            if expected == 0.0:
                assert rigidity[i, j] == 0.0
            else:
                assert rigidity[i, j] == pytest.approx(expected, rel=REL, abs=0.0)
            residual, compatible = distance_compatibility(ci, cj, t_gc)
            scale = max(np.linalg.norm(ci.source_point - cj.source_point),
                        np.linalg.norm(ci.target_point - cj.target_point))
            tol = REL * scale
            assert residuals[i, j] == pytest.approx(residual, rel=REL, abs=tol)
            if abs(residual - t_gc) > tol:
                assert (residuals[i, j] < t_gc) == compatible


# ---------------------------------------------------------------------------
# Peak memory
# ---------------------------------------------------------------------------

N_MEMORY = 1000
MAX_SQUARE_MATRICES = 5.5


def memory_set(n=N_MEMORY, seed=0):
    """Half rigid inliers, half scattered outliers, identity frames."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.0, 100.0, size=(n, 3))
    tgt = src.copy()
    tgt[n // 2:] = rng.uniform(0.0, 100.0, size=(n - n // 2, 3))
    frame = LocalReferenceFrame(np.eye(3))
    nn = rng.uniform(0.1, 0.5, size=n)
    items = tuple(
        Correspondence(s, t, float(sim), float(a), 1.0, frame, frame)
        for s, t, sim, a in zip(src, tgt, rng.uniform(0.1, 1.0, size=n), nn)
    )
    cset = CorrespondenceSet(items, source_resolution_pr=1.0)
    for column in ("source_points", "target_points", "similarities", "nn_distances",
                   "second_nn_distances", "source_frames", "target_frames"):
        getattr(cset, column)  # cached columns are not the algorithm's working memory
    return cset


@pytest.mark.parametrize("algorithm", [group_st, group_gc, group_si], ids=["st", "gc", "si"])
def test_peak_memory_in_square_matrices(algorithm):
    cset = memory_set()
    params = AlgorithmParams()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = algorithm(cset, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) > 0
    matrices = (peak - before) / (8 * N_MEMORY * N_MEMORY)
    assert matrices <= MAX_SQUARE_MATRICES, f"peak of {matrices:.2f} n x n float64 matrices"
