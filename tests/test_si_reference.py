"""si against its slow reference: rigidity on whole rows and the exact
global vote on every row.

``si_reference`` is :func:`group_si` as it was before it computed rigidity
on the columns a row reads and read the global vote off the consensus
screen. The package must give the same indices and bit-equal scores on
every kind of set below: generated sets; ``test_row_blocks.random_set``,
where every row passes the ratio test; constant scores; two to five
correspondences with kappa >= n - 1; duplicated rows; keypoints on a unit
grid, with zero lengths and ties at the kappa-th distance; sets 1e6 from
the origin; frames near the 1e-9 frame rule; and blocks of 1-3 rows.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgroup import AlgorithmParams, CorrespondenceSet, GroupingResult, group_si, grouping
from corrgroup.corr_model import _rigidity_from_lengths, pairwise_lengths
from corrgroup.grouping import (
    _check_span,
    _frame_motions,
    _ratio_test,
    _row_blocks,
    _si_global_vote,
    _squared_limit,
    otsu_threshold,
)
from corrgroup.synthbench import (
    CorrespondenceRecipe,
    SceneRecipe,
    generate_correspondences,
    generate_scene,
    make_test_model,
    random_rotation,
)
from test_row_blocks import pairwise_blocks, random_set
from test_selection_oracles import float_set


def si_reference(cset, params):
    """si with rigidity on whole rows and ``_si_global_vote`` on every row."""
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
    global_voters = np.argsort(-lowe, kind="stable")[:kappa]
    motions = _frame_motions(cset.source_frames, cset.target_frames)
    voter_src_t = src[global_voters].T.copy()
    voter_tgt_t = tgt[global_voters].T.copy()
    limit = _squared_limit(params.si_delta_pr * cset.source_resolution_pr)

    local_voters = np.empty(n, dtype=np.int64)
    local_votes = np.empty(n, dtype=np.int64)
    vote_mask = np.empty((n, kappa), dtype=bool)
    for rows in _row_blocks(n, 8 * n):
        source_dist, target_dist = pairwise_lengths(src, rows), pairwise_lengths(tgt, rows)
        rigid = _rigidity_from_lengths(source_dist, target_dist) > params.si_sigma

        diagonal = np.arange(len(source_dist))
        source_dist[diagonal, diagonal + rows.start] = np.inf
        kth = np.partition(source_dist, kappa - 1, axis=1)[:, [kappa - 1]]
        near = source_dist <= kth
        if (near.view(np.uint8).sum(axis=1, dtype=np.uint32) > kappa).any():
            near = source_dist < kth
            ties = source_dist == kth
            near |= ties & (np.cumsum(ties, axis=1, dtype=np.int32)
                            <= kappa - near.view(np.uint8).sum(axis=1, keepdims=True, dtype=np.int32))
        near &= ratio_pass
        local_voters[rows] = near.view(np.uint8).sum(axis=1, dtype=np.uint32)
        local_votes[rows] = (near & rigid).view(np.uint8).sum(axis=1, dtype=np.uint32)

        vote_mask[rows] = rigid[:, global_voters] & _si_global_vote(
            motions[rows], src[rows], tgt[rows], voter_src_t, voter_tgt_t, limit)
    vote_mask[global_voters, np.arange(kappa)] = True
    global_votes = vote_mask.view(np.uint8).sum(axis=1, dtype=np.uint32)

    scores = (local_votes + global_votes) / (local_voters + kappa)
    keep = np.flatnonzero(scores >= otsu_threshold(scores).threshold)
    return GroupingResult(keep, scores=dict(zip(keep.tolist(), scores[keep].tolist())))


def rebuilt(cset, rows=slice(None), *, offset=0.0, spread=1.0, frames=None):
    """The set's ``rows`` with every coordinate times ``spread`` plus
    ``offset`` (the resolution times ``spread``), and optionally new frames."""
    source_frames, target_frames = frames if frames else (cset.source_frames[rows], cset.target_frames[rows])
    return CorrespondenceSet.from_arrays(
        cset.source_points[rows] * spread + offset, cset.target_points[rows] * spread + offset,
        cset.similarities[rows], cset.nn_distances[rows], cset.second_nn_distances[rows],
        cset.source_resolution_pr * spread, source_frames=source_frames, target_frames=target_frames)


# A spread at which the rounding of coordinates near 1e6 (an ulp of about
# 1e-10) is near si's threshold: no margin is below the limit.
TIGHT = 2.0**-27


@lru_cache(maxsize=1)
def torus():
    return make_test_model("torus", 1500, seed=0)


def generated_set(seed, n, ratio):
    """A set of the generator's shape: 5-degree frame noise, planted outliers."""
    scene, truth = generate_scene(torus(), SceneRecipe(rotation_seed=seed, rng_seed=seed + 1))
    recipe = CorrespondenceRecipe(n_total=n, inlier_ratio=ratio, lrf_noise_deg=5.0, rng_seed=seed + 2)
    return generate_correspondences(torus(), scene, truth, recipe)


def near_bound_frames(frames):
    """``frames`` with the x axis stretched and the z axis shrunk by 4.9e-10,
    a Gram error of 9.8e-10 against the frame rule's 1e-9."""
    return frames * np.array([1.0 + 4.9e-10, 1.0, 1.0 - 4.9e-10])[:, None]


def consistent_set(seed, n):
    """Every correspondence follows one motion exactly, frames included, and
    every feature distance is the same: the ratio scores and si's scores
    are constant."""
    rng = np.random.default_rng(seed)
    rot = QUARTER_TURN_Z if seed % 2 else random_rotation(rng)
    src = rng.integers(-20, 20, size=(n, 3)).astype(np.float64)
    frames = np.array([random_rotation(rng) for _ in range(n)])
    return CorrespondenceSet.from_arrays(src, src @ rot.T + 5.0, np.full(n, 0.5), np.full(n, 0.1),
                                         np.ones(n), 1.0, source_frames=frames, target_frames=frames @ rot.T)


QUARTER_TURN_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def tied_set(seed, n, kappa):
    """Keypoints on the 2 x 2 x 2 unit grid, so every length is 0, 1, √2 or
    √3, and the first kappa + 2 source keypoints one point: its rows hold
    kappa + 1 zero lengths, more than kappa at the kappa-th distance. A
    drawn prefix follows one quarter turn exactly, frames included."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 2, size=(n, 3)).astype(np.float64)
    src[:kappa + 2] = src[0]
    tgt = rng.integers(0, 2, size=(n, 3)).astype(np.float64)
    frames = np.array([random_rotation(rng) for _ in range(2 * n)])
    source_frames, target_frames = frames[:n], frames[n:]
    consistent = rng.integers(0, n + 1)
    tgt[:consistent] = src[:consistent] @ QUARTER_TURN_Z.T + 5.0
    target_frames[:consistent] = source_frames[:consistent] @ QUARTER_TURN_Z.T
    nn = rng.integers(0, 5, size=n) / 4.0
    return CorrespondenceSet.from_arrays(src, tgt, rng.integers(0, 5, size=n) / 4.0, nn,
                                         nn + rng.integers(0, 5, size=n) / 4.0, 1.0,
                                         source_frames=source_frames, target_frames=target_frames)


@st.composite
def si_cases(draw):
    """(set, params): one kind of set from the module docstring."""
    kind = draw(st.sampled_from(["generated", "random_set", "constant", "tiny", "duplicated", "tied", "offset",
                                 "near_bound", "float"]))
    seed = draw(st.integers(0, 2**31))
    kappa = draw(st.sampled_from([1, 2, 7, 250]))
    params = dict(si_kappa=kappa, t_nnsr=draw(st.sampled_from([0.0, 0.5, 0.8])),
                  si_delta_pr=draw(st.sampled_from([0.5, 2.0, 5.0])))
    if kind == "generated":
        cset = generated_set(seed % 1000, draw(st.integers(10, 120)), draw(st.sampled_from([0.1, 0.3, 0.7])))
    elif kind == "random_set":
        cset = random_set(draw(st.integers(2, 120)), seed)
        params["t_nnsr"] = min(params["t_nnsr"], 0.5)  # every row passes
    elif kind == "constant":
        cset = consistent_set(seed, draw(st.integers(2, 40)))
    elif kind == "tied":
        params["si_kappa"] = draw(st.sampled_from([1, 2, 7]))
        cset = tied_set(seed, draw(st.integers(10, 40)), params["si_kappa"])
    elif kind == "tiny":
        n = draw(st.integers(2, 5))
        cset = float_set(seed, n, 0.7)
        params["si_kappa"] = draw(st.sampled_from([n - 1, n, 250]))
    else:
        cset = float_set(seed, draw(st.integers(3, 60)), draw(st.sampled_from([0.3, 0.7])))
        if kind == "duplicated":
            rows = np.sort(np.random.default_rng(seed).integers(0, len(cset), size=len(cset) + 5))
            cset = rebuilt(cset, rows)
        elif kind == "offset":
            cset = rebuilt(cset, offset=1e6, spread=draw(st.sampled_from([1.0, TIGHT])))
        elif kind == "near_bound":
            cset = rebuilt(cset, frames=(near_bound_frames(cset.source_frames),
                                         near_bound_frames(cset.target_frames)))
    return cset, AlgorithmParams(**params)


def assert_same(result, reference):
    assert result.inlier_indices == reference.inlier_indices
    assert [result.scores[i].hex() for i in result.inlier_indices] == \
        [reference.scores[i].hex() for i in reference.inlier_indices]


@settings(max_examples=200, deadline=None)
@given(case=si_cases(), rows=st.sampled_from([1, 2, 3, None]))
def test_si_matches_the_slow_reference(case, rows):
    cset, params = case
    if rows is None:
        result = group_si(cset, params)
    else:
        with pairwise_blocks(len(cset), rows):
            result = group_si(cset, params)
    assert_same(result, si_reference(cset, params))


def recounted_rows(cset, params):
    """(result, rows that ``_si_global_vote`` recounted)."""
    recount = mock.Mock(wraps=grouping._si_global_vote)
    with mock.patch.object(grouping, "_si_global_vote", recount):
        result = group_si(cset, params)
    return result, sum(len(call.args[0]) for call in recount.call_args_list)


def test_a_set_far_from_its_spread_is_recounted_in_full():
    cset = rebuilt(float_set(5, 40, 0.7), offset=1e6, spread=TIGHT)
    params = AlgorithmParams(t_nnsr=0.5, si_delta_pr=2.0)
    result, recounted = recounted_rows(cset, params)
    assert recounted == len(cset)
    assert_same(result, si_reference(cset, params))


def test_a_generated_set_is_screened_without_a_recount():
    cset = generated_set(3, 300, 0.3)
    result, recounted = recounted_rows(cset, AlgorithmParams())
    assert recounted == 0
    assert_same(result, si_reference(cset, AlgorithmParams()))


def test_motions_past_the_transform_rule_are_screened():
    # Frames within the 1e-9 rule whose motions are not: the screen takes
    # their Gram error rather than raising.
    base = float_set(9, 40, 0.7)
    cset = rebuilt(base, frames=(near_bound_frames(base.source_frames),
                                 near_bound_frames(base.target_frames)))
    motions = _frame_motions(cset.source_frames, cset.target_frames)
    assert np.abs(motions @ motions.transpose(0, 2, 1) - np.eye(3)).max() > 1e-9
    params = AlgorithmParams(t_nnsr=0.5)
    result, recounted = recounted_rows(cset, params)
    assert recounted < len(cset)
    assert_same(result, si_reference(cset, params))
