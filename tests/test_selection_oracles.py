"""st's ranked walk and si's kappa-nearest cutoff against the loops they
replace.

``st_loop_oracle`` is st's greedy loop (an argmax over the survivors each
round, then every survivor sharing a keypoint with the chosen one dropped),
fed the same power-iteration vector as :func:`group_st`. ``si_argsort_oracle``
is si with its neighbours from a stable full-row ``argsort``. Both must agree
with the package bit for bit on integer-grid keypoints, which produce
duplicate keypoints and exact distance ties. si's global vote, computed by
the package in row blocks, is also checked on float keypoints and rotated
frames against the oracle's one einsum over all rows. si's kappa-th
smallest length, selected on the lengths' bit patterns, must be numpy's
float selection bit for bit on every kind of non-negative double.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgroup import AlgorithmParams, CorrespondenceSet, group_si, group_st, grouping, otsu_threshold
from corrgroup.corr_model import _rigidity_from_lengths, pairwise_lengths, pairwise_rigidity
from corrgroup.grouping import _frame_motions, _lowe_scores, _power_iterate
from corrgroup.synthbench import random_rotation

# Exact rotations about z by 0, 90, 180 and 270 degrees.
QUARTER_TURNS = np.array([np.linalg.matrix_power([[0, -1, 0], [1, 0, 0], [0, 0, 1]], k)
                          for k in range(4)], dtype=np.float64)


def st_loop_oracle(cset, params):
    """Indices and scores of st's greedy acceptance as a survivor loop."""
    src = cset.source_points
    tgt = cset.target_points
    matrix = pairwise_rigidity(src, tgt)
    matrix[matrix < params.t_st] = 0.0
    np.fill_diagonal(matrix, 0.0)
    if not matrix.any():
        return (), None
    vector, _, _ = _power_iterate(matrix)
    remaining = np.arange(len(cset))
    scores = {}
    while remaining.size:
        local = int(np.argmax(vector[remaining]))
        top = float(vector[remaining][local])
        if top <= 1e-12:
            break
        chosen = int(remaining[local])
        scores[chosen] = top
        conflict = (
            (src[remaining] == src[chosen]).all(axis=1)
            | (tgt[remaining] == tgt[chosen]).all(axis=1)
        )
        conflict[local] = True
        remaining = remaining[~conflict]
    return tuple(sorted(scores)), scores or None


def si_argsort_oracle(cset, params):
    """Indices and scores of si with neighbours from a stable full-row sort."""
    n = len(cset)
    kappa = min(params.si_kappa, n - 1)
    lowe = _lowe_scores(cset)
    ratio_pass = (cset.second_nn_distances > 0.0) & (lowe >= params.t_nnsr)
    src = cset.source_points
    tgt = cset.target_points
    source_dist, target_dist = pairwise_lengths(src), pairwise_lengths(tgt)
    rigidity = _rigidity_from_lengths(source_dist, target_dist)

    np.fill_diagonal(source_dist, np.inf)
    neighbors = np.argsort(source_dist, axis=1, kind="stable")[:, :kappa]
    neighbor_pass = ratio_pass[neighbors]
    local_voters = neighbor_pass.sum(axis=1)
    neighbor_rigidity = np.take_along_axis(rigidity, neighbors, axis=1)
    local_votes = (neighbor_pass & (neighbor_rigidity > params.si_sigma)).sum(axis=1)

    global_voters = np.argsort(-lowe, kind="stable")[:kappa]
    motions = _frame_motions(cset.source_frames, cset.target_frames)
    voter_src = src[global_voters]
    voter_tgt = tgt[global_voters]
    mapped = np.einsum("nik,ngk->ngi", motions, voter_src[None, :, :] - src[:, None, :]) + tgt[:, None, :]
    residual = np.linalg.norm(mapped - voter_tgt[None, :, :], axis=2)
    delta = params.si_delta_pr * cset.source_resolution_pr
    vote_mask = (rigidity[:, global_voters] > params.si_sigma) & (residual < delta)
    vote_mask |= global_voters[None, :] == np.arange(n)[:, None]
    scores = (local_votes + vote_mask.sum(axis=1)) / (local_voters + kappa)

    keep = np.flatnonzero(scores >= otsu_threshold(scores).threshold)
    return tuple(int(i) for i in keep), {int(i): float(scores[i]) for i in keep}


@st.composite
def grid_sets(draw):
    """3-24 correspondences on a 3x3x3 integer grid; a drawn prefix maps
    through one exact quarter turn, the rest land anywhere on the grid.
    Feature distances and frames are on exact grids too."""
    n = draw(st.integers(3, 24))

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


@settings(max_examples=200, deadline=None)
@given(cset=grid_sets(), t_st=st.sampled_from([0.0, 0.6]))
def test_st_walk_matches_survivor_loop(cset, t_st):
    result = group_st(cset, AlgorithmParams(t_st=t_st))
    assert (result.inlier_indices, result.scores) == st_loop_oracle(cset, AlgorithmParams(t_st=t_st))


@settings(max_examples=200, deadline=None)
@given(cset=grid_sets(), kappa=st.sampled_from(["1", "2", "n-2", "n-1", "250"]),
       t_nnsr=st.sampled_from([0.0, 0.5, 0.8]))
def test_si_cutoff_matches_full_sort(cset, kappa, t_nnsr):
    n = len(cset)
    kappa = {"1": 1, "2": 2, "n-2": n - 2, "n-1": n - 1, "250": 250}[kappa]
    params = AlgorithmParams(si_kappa=kappa, t_nnsr=t_nnsr)
    result = group_si(cset, params)
    assert (result.inlier_indices, result.scores) == si_argsort_oracle(cset, params)


def float_set(seed, n, inlier_share):
    """Float keypoints; inliers follow one random rotation with unit noise on
    the target points, so some global-vote residuals fall near delta."""
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    src = rng.normal(size=(n, 3)) * 10.0
    tgt = src @ rot.T + rng.normal(size=3) * 50.0 + rng.normal(size=(n, 3))
    outliers = rng.random(n) >= inlier_share
    tgt[outliers] = rng.normal(size=(int(outliers.sum()), 3)) * 10.0
    source_frames = np.array([random_rotation(rng) for _ in range(n)])
    target_frames = np.where(outliers[:, None, None], np.array([random_rotation(rng) for _ in range(n)]),
                             source_frames @ rot.T)
    nn = rng.uniform(0.1, 0.5, size=n)
    return CorrespondenceSet.from_arrays(src, tgt, rng.uniform(0.1, 1.0, size=n), nn,
                                         nn + rng.uniform(0.0, 2.0, size=n), 1.0,
                                         source_frames=source_frames, target_frames=target_frames)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), inlier_share=st.sampled_from([0.3, 0.7]),
       kappa=st.sampled_from([1, 7, 250]), rows=st.integers(1, 3), si_delta_pr=st.sampled_from([0.5, 2.0]))
def test_si_row_blocks_match_one_einsum(seed, n, inlier_share, kappa, rows, si_delta_pr):
    cset = float_set(seed, n, inlier_share)
    params = AlgorithmParams(si_kappa=kappa, si_delta_pr=si_delta_pr, t_nnsr=0.5)
    # Blocks of `rows` rows: the budget is counted in (rows, n) float64 arrays.
    hook = mock.Mock(wraps=grouping.pairwise_lengths)
    with mock.patch.object(grouping, "BLOCK_BYTES", 8 * n * rows), \
            mock.patch.object(grouping, "pairwise_lengths", hook):
        result = group_si(cset, params)
    # One call per side and block: pairwise_lengths(points, rows[, cols]).
    blocks = [call.args[1] for call in hook.call_args_list]
    assert blocks[::2] == blocks[1::2]
    sizes = [block.stop - block.start for block in blocks[::2]]
    assert sizes == [rows] * (n // rows) + [n % rows] * (n % rows > 0)
    indices, scores = si_argsort_oracle(cset, params)
    assert result.inlier_indices == indices
    assert [f"{result.scores[i]:.17g}" for i in indices] == [f"{scores[i]:.17g}" for i in indices]


# Non-negative doubles: zero, the smallest and largest subnormals, the
# smallest normal, values near 1, the largest double and +inf. Drawn from a
# pool this small, the entries of a row often tie.
EDGE_LENGTHS = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0, math.nextafter(1.0, 2.0),
                1.7976931348623157e308, math.inf]


@st.composite
def length_rows(draw):
    """(lengths, kappa): a (1-4, 1-12) array of non-negative doubles and a
    kappa from 1 to its width."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    values = st.one_of(st.sampled_from(EDGE_LENGTHS), st.floats(min_value=0.0, allow_nan=False))
    lengths = np.array(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))
    return lengths.reshape(rows, cols), draw(st.integers(1, cols))


@settings(max_examples=300, deadline=None)
@given(case=length_rows())
@example(case=(np.array([[2.0, 0.0, 2.0, np.inf], [5e-324, 0.0, 0.0, 5e-324]]), 2))  # ties at the kappa-th
def test_kth_smallest_on_bit_patterns_is_the_float_selection(case):
    lengths, kappa = case
    assert not np.signbit(lengths).any()
    before = lengths.tobytes()
    kth = grouping._kth_smallest(lengths, kappa)
    assert lengths.tobytes() == before
    assert kth.dtype == np.float64 and kth.shape == (len(lengths), 1)
    assert kth.tobytes() == np.partition(lengths, kappa - 1, axis=1)[:, [kappa - 1]].tobytes()
