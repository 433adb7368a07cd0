"""st, gc and si compute their pairwise lengths in row blocks. Here each is
held bit for bit to a dense computation over the whole n x n matrices, with
the block budget patched down to 1-3 rows, and their memory is bounded at
sizes where the dense matrices would not fit.

``st_loop_oracle`` and ``si_argsort_oracle`` build the dense matrices with
the package's own dense kernels; ``gc_dense_oracle`` below does the same
with :func:`pairwise_distance_residuals`.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgroup import AlgorithmParams, CorrespondenceSet, group_gc, group_si, group_st, grouping
from corrgroup.cli import main
from corrgroup.corr_model import pairwise_distance_residuals, pairwise_length_blocks, pairwise_lengths
from test_grouping_geometric import st_dense_oracle, two_group_set
from test_selection_oracles import QUARTER_TURNS, si_argsort_oracle, st_loop_oracle


def gc_dense_oracle(cset, params):
    """gc's indices from the whole residual matrix: the first largest row."""
    residuals = pairwise_distance_residuals(cset.source_points, cset.target_points)
    compatible = residuals < params.t_gc_pr * cset.source_resolution_pr
    seed = int(np.argmax(compatible.sum(axis=1)))
    return tuple(np.flatnonzero(compatible[seed]).tolist())


def pairwise_blocks(n, rows):
    """st's and gc's block budget for blocks of ``rows`` rows."""
    return mock.patch.object(grouping, "PAIRWISE_BLOCK_BYTES", 8 * n * rows)


def si_blocks(n, kappa, rows):
    """si's block budget for blocks of ``rows`` rows."""
    return mock.patch.object(grouping, "SI_BLOCK_BYTES", 8 * (n + 3 * kappa) * rows)


@st.composite
def grid_sets(draw):
    """1-14 correspondences on a 3x3x3 integer grid, so keypoints repeat and
    distances tie exactly; a drawn prefix maps through one quarter turn."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 14)))

    def ints(count, lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=count, max_size=count)),
                        dtype=np.float64)

    src = ints(3 * n, 0, 2).reshape(n, 3)
    tgt = ints(3 * n, 0, 2).reshape(n, 3)
    consistent = draw(st.integers(0, n))
    tgt[:consistent] = src[:consistent] @ QUARTER_TURNS[draw(st.integers(0, 3))].T + 5.0
    nn = ints(n, 0, 4) / 4.0
    return CorrespondenceSet.from_arrays(
        src, tgt, ints(n, 0, 4) / 4.0, nn, nn + ints(n, 0, 4) / 4.0, 1.0,
        source_frames=QUARTER_TURNS[ints(n, 0, 3).astype(int)],
        target_frames=QUARTER_TURNS[ints(n, 0, 3).astype(int)],
    )


@settings(max_examples=100, deadline=None)
@given(points=st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(-2, 2), min_size=6 * n, max_size=6 * n)), rows=st.integers(1, 4))
def test_length_blocks_are_the_rows_of_the_whole_matrices(points, rows):
    src, tgt = np.array(points, dtype=np.float64).reshape(2, -1, 3)
    d_s, d_t = pairwise_lengths(src, tgt)
    blocks = list(pairwise_length_blocks(src, tgt, rows))
    assert [part.start for part, _, _ in blocks] == list(range(0, len(src), rows))
    assert np.vstack([b[1] for b in blocks]).tobytes() == d_s.tobytes()
    assert np.vstack([b[2] for b in blocks]).tobytes() == d_t.tobytes()


@settings(max_examples=200, deadline=None)
@given(cset=grid_sets(), t_st=st.sampled_from([0.0, 0.6]), rows=st.integers(1, 3))
def test_st_blocks_match_dense_matrix(cset, t_st, rows):
    params = AlgorithmParams(t_st=t_st)
    with pairwise_blocks(len(cset), rows):
        result = group_st(cset, params)
    if len(cset) == 1:
        assert (result.inlier_indices, result.scores) == ((0,), {0: 1.0})
    else:
        assert (result.inlier_indices, result.scores) == st_loop_oracle(cset, params)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("n_major,n_minor,seed", [(6, 3, 0), (7, 4, 1), (9, 3, 4)])
def test_st_blocks_match_dense_eigensolver(n_major, n_minor, seed, rows):
    cset = two_group_set(n_major, n_minor, seed)
    with pairwise_blocks(len(cset), rows):
        result = group_st(cset, AlgorithmParams())
    assert result.inlier_indices == st_dense_oracle(cset, AlgorithmParams())


@settings(max_examples=200, deadline=None)
@given(cset=grid_sets(), t_gc_pr=st.sampled_from([0.5, 1.0, 3.0]), rows=st.integers(1, 3))
def test_gc_blocks_match_dense_residuals(cset, t_gc_pr, rows):
    params = AlgorithmParams(t_gc_pr=t_gc_pr)
    with pairwise_blocks(len(cset), rows):
        result = group_gc(cset, params)
    assert result.inlier_indices == gc_dense_oracle(cset, params)


def tied_clusters(first):
    """Two translated copies of one triangle, far apart and moved by
    different translations, so every seed's cluster at t_gc = 3 is its own
    triangle of 3. ``first`` lists the rows of the triangle that holds row 0."""
    triangle = np.array([[0.0, 0, 0], [10, 0, 0], [0, 20, 0]])
    src = np.vstack([triangle, triangle + [1000.0, 0, 0]])
    tgt = src + np.repeat([[0.0, 0, 0], [0, 0, 500]], 3, axis=0)
    rows = np.argsort(list(first) + [i for i in range(6) if i not in first])
    return CorrespondenceSet.from_arrays(src[rows], tgt[rows], np.full(6, 0.9), np.full(6, 0.1),
                                         np.ones(6), 1.0)


@pytest.mark.parametrize("rows", [1, 2, 3, 6])
@pytest.mark.parametrize("first", [(0, 1, 2), (0, 2, 4), (0, 3, 4)])
def test_gc_seed_tie_across_blocks_goes_to_lowest_seed(first, rows):
    cset = tied_clusters(first)
    params = AlgorithmParams()
    residuals = pairwise_distance_residuals(cset.source_points, cset.target_points)
    assert ((residuals < params.t_gc_pr).sum(axis=1) == 3).all()  # every seed ties
    with pairwise_blocks(6, rows):
        result = group_gc(cset, params)
    assert result.inlier_indices == first == gc_dense_oracle(cset, params)


@settings(max_examples=200, deadline=None)
@given(cset=grid_sets(), kappa=st.sampled_from(["1", "n-1", "250"]),
       t_nnsr=st.sampled_from([0.0, 0.5]), rows=st.integers(1, 3))
@example(  # five keypoints at one grid point: every neighbour distance ties, n - 1 of them at 0
    cset=CorrespondenceSet.from_arrays(
        np.zeros((5, 3)), np.arange(15.0).reshape(5, 3), np.full(5, 0.9), np.full(5, 0.1), np.ones(5), 1.0,
        source_frames=QUARTER_TURNS[[0, 1, 2, 3, 0]], target_frames=QUARTER_TURNS[[0, 0, 0, 0, 0]]),
    kappa="1", t_nnsr=0.0, rows=2)
def test_si_blocks_match_full_sort(cset, kappa, t_nnsr, rows):
    n = len(cset)
    params = AlgorithmParams(si_kappa={"1": 1, "n-1": max(1, n - 1), "250": 250}[kappa], t_nnsr=t_nnsr)
    with si_blocks(n, min(params.si_kappa, n - 1), rows):
        result = group_si(cset, params)
    if n == 1:
        assert (result.inlier_indices, result.scores) == ((0,), {0: 0.0})
    else:
        assert (result.inlier_indices, result.scores) == si_argsort_oracle(cset, params)


# ---------------------------------------------------------------------------
# Memory at large n
# ---------------------------------------------------------------------------

N_LARGE = 20_000
LARGE_PEAK_BYTES = 32 * 2**20  # one dense n x n float64 matrix at N_LARGE takes 3.2 GB


def random_set(n, seed=0):
    """Half rigid inliers, half scattered outliers, identity frames."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.0, 100.0, size=(n, 3))
    tgt = src.copy()
    tgt[n // 2:] = rng.uniform(0.0, 100.0, size=(n - n // 2, 3))
    frames = np.broadcast_to(np.eye(3), (n, 3, 3))
    nn = rng.uniform(0.1, 0.5, size=n)
    return CorrespondenceSet.from_arrays(src, tgt, rng.uniform(0.1, 1.0, size=n), nn, np.ones(n), 1.0,
                                         source_frames=frames, target_frames=frames)


def traced_peak(algorithm, cset):
    """(result, bytes allocated at the peak of the call beyond those before it)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = algorithm(cset, AlgorithmParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


@pytest.mark.parametrize("algorithm", [group_gc, group_si], ids=["gc", "si"])
def test_large_set_within_fixed_memory(algorithm):
    result, peak = traced_peak(algorithm, random_set(N_LARGE))
    assert len(result) >= N_LARGE // 2
    assert peak <= LARGE_PEAK_BYTES, f"peak of {peak / 2**20:.1f} MiB"


def test_st_holds_one_square_matrix():
    n = 2000
    result, peak = traced_peak(group_st, random_set(n))
    assert len(result) > 0
    blocks = 5 * grouping.PAIRWISE_BLOCK_BYTES
    assert peak <= 8 * n * n + blocks, f"peak of {(peak - 8 * n * n) / 2**20:.1f} MiB beyond the matrix"


def test_st_raises_above_its_matrix_limit_before_allocating():
    n = 1000
    cset = random_set(n)
    with mock.patch.object(grouping, "ST_MATRIX_BYTES", 8 * n * n - 1):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"needs {8 * n * n} bytes"):
                group_st(cset, AlgorithmParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < n * n  # an eighth of the matrix
    with mock.patch.object(grouping, "ST_MATRIX_BYTES", 8 * n * n):
        assert len(group_st(cset, AlgorithmParams())) > 0


def test_cli_reports_st_matrix_limit(tmp_path, capsys):
    assert main(["synth", "--model-points", "1200", "--n", "60", "--lrf-noise-deg", "3",
                 "--out-dir", str(tmp_path), "--prefix", "case"]) == 0
    capsys.readouterr()
    with mock.patch.object(grouping, "ST_MATRIX_BYTES", 8 * 59 * 59):
        code = main(["group", "--algo", "st", "--in", str(tmp_path / "case_corrs.txt")])
    assert code == 1
    assert f"needs {8 * 60 * 60} bytes" in capsys.readouterr().err
