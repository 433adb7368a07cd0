"""st, gc and si compute their pairwise lengths in row blocks. Here each is
held bit for bit to a dense computation over the whole n x n matrices, with
the block budget patched down to 1-3 rows, and their memory is bounded at
sizes where the dense matrices would not fit.

``st_loop_oracle`` and ``si_argsort_oracle`` build the dense matrices with
the package's own dense kernels; ``gc_dense_oracle`` below does the same
with :func:`pairwise_distance_residuals`.
"""

import inspect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgroup import AlgorithmParams, CorrespondenceSet, corr_model, group_gc, group_si, group_st, grouping
from corrgroup.cli import main
from corrgroup.corr_model import pairwise_distance_residuals, pairwise_lengths
from corrgroup.grouping import _row_blocks
from test_grouping_geometric import st_dense_oracle, two_group_set
from test_selection_oracles import QUARTER_TURNS, si_argsort_oracle, st_loop_oracle


def gc_dense_oracle(cset, params):
    """gc's indices from the whole residual matrix: the first largest row."""
    residuals = pairwise_distance_residuals(cset.source_points, cset.target_points)
    compatible = residuals < params.t_gc_pr * cset.source_resolution_pr
    seed = int(np.argmax(compatible.sum(axis=1)))
    return tuple(np.flatnonzero(compatible[seed]).tolist())


def pairwise_blocks(n, rows):
    """The block budget of st, gc and si for blocks of ``rows`` rows."""
    return mock.patch.object(grouping, "BLOCK_BYTES", 8 * n * rows)


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
    lambda n: st.lists(st.integers(-2, 2), min_size=6 * n, max_size=6 * n)),
    row_bytes=st.one_of(st.integers(grouping.BLOCK_BYTES // 4, 2 * grouping.BLOCK_BYTES),
                        st.sampled_from([8, grouping.BLOCK_BYTES + 1, 2**40])))
def test_length_blocks_are_the_rows_of_the_whole_matrices(points, row_bytes):
    src, tgt = np.array(points, dtype=np.float64).reshape(2, -1, 3)
    n = len(src)
    slices = list(_row_blocks(n, row_bytes))
    # Every row once, in order, in blocks of the budgeted size but the last;
    # a row wider than the budget is a block of its own.
    step = max(1, grouping.BLOCK_BYTES // row_bytes)
    assert [i for part in slices for i in range(n)[part]] == list(range(n))
    assert [part.stop - part.start for part in slices[:-1]] == [step] * (len(slices) - 1)
    assert 1 <= slices[-1].stop - slices[-1].start <= step
    for points in (src, tgt):
        whole = pairwise_lengths(points)
        assert np.vstack([pairwise_lengths(points, part) for part in slices]).tobytes() == whole.tobytes()


@st.composite
def length_inputs(draw):
    """(source, target) points of 1-12 rows: small integers, whose lengths
    tie exactly, or floats; each side moved by up to 1e6 and both scaled by
    one power of two."""
    n = draw(st.integers(1, 12))
    values = st.integers(-2, 2) if draw(st.booleans()) else st.floats(-10.0, 10.0)
    points = np.array(draw(st.lists(values, min_size=6 * n, max_size=6 * n)), dtype=np.float64)
    offsets = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)), min_size=6, max_size=6)))
    scale = 2.0 ** draw(st.integers(-30, 30))
    return (points.reshape(2, n, 3) + offsets.reshape(2, 1, 3)) * scale


@st.composite
def spans(draw, n):
    """A slice of range(n), possibly empty."""
    lo = draw(st.integers(0, n))
    return slice(lo, draw(st.integers(lo, n)))


def index_arrays(n):
    """An int64 array of indices into range(n), in any order, possibly empty."""
    return st.lists(st.integers(0, n - 1), max_size=2 * n).map(lambda cols: np.array(cols, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), points=length_inputs())
def test_length_blocks_are_any_entries_of_symmetric_matrices(data, points):
    # st and gc compute only the upper triangle in (rows, columns) blocks and
    # mirror it, and si takes its target lengths on gathered columns, which
    # keeps the bits only if these properties hold exactly. si's kappa-th
    # nearest on bit patterns needs every length non-negative: never -0.0.
    n = len(points[0])
    rows = data.draw(spans(n))
    cols = data.draw(st.one_of(spans(n), index_arrays(n)))
    for side in points:
        full = pairwise_lengths(side)
        block = pairwise_lengths(side, rows, cols)
        assert block.shape == full[rows][:, cols].shape
        assert block.tobytes() == full[rows][:, cols].tobytes()
        assert full.tobytes() == full.T.tobytes()
        assert not np.signbit(full).any()


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


def quarter_turn_set(source_points):
    """The given keypoints, their targets one quarter turn away, and frames
    on quarter turns."""
    src = np.array(source_points, dtype=np.float64)
    n = len(src)
    turns = np.arange(n) % 4
    return CorrespondenceSet.from_arrays(
        src, src @ QUARTER_TURNS[1].T + 5.0, np.full(n, 0.9), np.full(n, 0.1), np.ones(n), 1.0,
        source_frames=QUARTER_TURNS[turns], target_frames=QUARTER_TURNS[(turns + 1) % 4])


# Row 2's three nearest keypoints (rows 1, 3 and 4) all lie at distance 1, so
# with kappa = 1 three ties compete for one place; in blocks of 2 rows they
# sit in three different blocks.
SURPLUS_TIES = quarter_turn_set([[5, 5, 5], [0, 1, 0], [0, 0, 0], [0, 0, 1], [0, -1, 0]])
# No two lengths of a row are equal, so at any kappa a row holds exactly
# kappa distances at or below its kappa-th, and the tie rule never runs.
NO_TIES = quarter_turn_set([[0, 0, 0], [1, 0, 0], [0, 3, 0], [0, 0, 7], [2, 5, 0], [11, 1, 4]])


@settings(max_examples=200, deadline=None)
@given(cset=grid_sets(), kappa=st.sampled_from(["1", "n-1", "250"]),
       t_nnsr=st.sampled_from([0.0, 0.5]), rows=st.integers(1, 3))
@example(  # five keypoints at one grid point: every neighbour distance ties, n - 1 of them at 0
    cset=CorrespondenceSet.from_arrays(
        np.zeros((5, 3)), np.arange(15.0).reshape(5, 3), np.full(5, 0.9), np.full(5, 0.1), np.ones(5), 1.0,
        source_frames=QUARTER_TURNS[[0, 1, 2, 3, 0]], target_frames=QUARTER_TURNS[[0, 0, 0, 0, 0]]),
    kappa="1", t_nnsr=0.0, rows=2)
@example(cset=SURPLUS_TIES, kappa="1", t_nnsr=0.0, rows=2)
@example(cset=NO_TIES, kappa="1", t_nnsr=0.0, rows=2)
@example(cset=NO_TIES, kappa="n-1", t_nnsr=0.5, rows=3)
def test_si_blocks_match_full_sort(cset, kappa, t_nnsr, rows):
    n = len(cset)
    params = AlgorithmParams(si_kappa={"1": 1, "n-1": max(1, n - 1), "250": 250}[kappa], t_nnsr=t_nnsr)
    with pairwise_blocks(n, rows):
        result = group_si(cset, params)
    if n == 1:
        assert (result.inlier_indices, result.scores) == ((0,), {0: 0.0})
    else:
        assert (result.inlier_indices, result.scores) == si_argsort_oracle(cset, params)


@pytest.mark.parametrize("cset,surplus", [(SURPLUS_TIES, True), (NO_TIES, False)],
                         ids=["surplus-ties", "no-ties"])
def test_si_examples_hold_the_ties_they_name(cset, surplus):
    # si breaks ties at the kappa-th distance only where a row holds more than
    # kappa distances at or below it; these sets take that path or never do.
    source_dist = pairwise_lengths(cset.source_points)
    np.fill_diagonal(source_dist, np.inf)
    nearest = source_dist.min(axis=1, keepdims=True)  # the kappa-th distance at kappa = 1
    counts = (source_dist <= nearest).sum(axis=1)
    assert (counts > 1).any() == surplus
    if surplus:
        tied = np.flatnonzero(source_dist[2] == nearest[2])
        assert tied.tolist() == [1, 3, 4] and len(set(tied // 2)) == 3
    else:
        assert all(len(np.unique(row[np.isfinite(row)])) == len(cset) - 1 for row in source_dist)


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
    blocks = 5 * grouping.BLOCK_BYTES
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


# ---------------------------------------------------------------------------
# The one length hook
# ---------------------------------------------------------------------------

def si_read_columns(cset, params):
    """The columns si reads: its kappa global voters, then the other ratio-test survivors."""
    lowe, passed = grouping._ratio_test(cset, params.t_nnsr)
    voters = np.argsort(-lowe, kind="stable")[:min(params.si_kappa, len(cset) - 1)]
    return np.concatenate([voters, np.setdiff1d(np.flatnonzero(passed), voters)])


def calls_per_side(hook, cset):
    """The hook's calls on the source points, then those on the target points."""
    calls = hook.call_args_list
    sides = [[call for call in calls if call.args[0] is points] for points in (cset.source_points, cset.target_points)]
    assert sum(map(len, sides)) == len(calls)
    return sides


@pytest.mark.parametrize("algorithm", [group_st, group_gc, group_si], ids=["st", "gc", "si"])
def test_every_length_call_goes_through_one_hook(algorithm):
    # ``grouping.pairwise_lengths`` is the one name a tracer of the pairwise
    # stages wraps: every cdist of the call comes through it, one per call,
    # on each side in blocks of the package's size (gc then takes its seed's
    # row), and si takes its target side on the columns it reads.
    n = 1000
    cset, params = random_set(n), AlgorithmParams()
    step = max(1, grouping.BLOCK_BYTES // (8 * n))
    hook = mock.Mock(wraps=grouping.pairwise_lengths)
    with mock.patch.object(grouping, "pairwise_lengths", hook), \
            mock.patch.object(corr_model, "cdist", wraps=corr_model.cdist) as cdist:
        result = algorithm(cset, params)
    assert cdist.call_count == hook.call_count
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    source_calls, target_calls = calls_per_side(hook, cset)
    for calls in (source_calls, target_calls):
        rows = [call.args[1] for call in calls]
        if algorithm is group_gc:
            seed = rows.pop()
            assert seed.stop == seed.start + 1 and seed.start in result.inlier_indices
        assert rows == blocks
    if algorithm is group_si:
        read = si_read_columns(cset, params)
        assert 0 < len(read) < n
        assert all(len(call.args) == 2 for call in source_calls)
        assert all(np.array_equal(call.args[2], read) for call in target_calls)


def length_cells(call, n):
    """Pairs of one ``pairwise_lengths`` call: its rows times its columns."""
    bound = inspect.signature(corr_model.pairwise_lengths).bind(*call.args, **call.kwargs)
    bound.apply_defaults()
    cols = bound.arguments["cols"]
    return len(range(n)[bound.arguments["rows"]]) * len(range(n)[cols] if isinstance(cols, slice) else cols)


@pytest.mark.parametrize("algorithm", [group_st, group_gc, group_si], ids=["st", "gc", "si"])
def test_st_and_gc_compute_each_pair_once(algorithm):
    # On each side st and gc take each block's rows from its diagonal on, at
    # most n (n + step) / 2 pairs in all, plus gc's seed row; si needs whole
    # rows of source lengths and only the columns it reads of target ones.
    n = 1000
    cset, params = random_set(n), AlgorithmParams()
    step = max(1, grouping.BLOCK_BYTES // (8 * n))
    hook = mock.Mock(wraps=grouping.pairwise_lengths)
    with mock.patch.object(grouping, "pairwise_lengths", hook):
        algorithm(cset, params)
    source_cells, target_cells = ([length_cells(call, n) for call in calls]
                                  for calls in calls_per_side(hook, cset))
    if algorithm is group_si:
        assert sum(source_cells) == n * n
        assert sum(target_cells) == n * len(si_read_columns(cset, params))
        return
    for cells in (source_cells, target_cells):
        if algorithm is group_gc:
            assert cells.pop() == n  # the winning seed's row
        assert sum(cells) <= n * (n + step) // 2
