"""si's global vote on (rows, kappa) coordinate planes, and read off the
consensus screen, against the einsum and norm it replaces, at the vote's own
boundary, and si's memory.

``_si_global_vote`` compares squared residuals with
``grouping._squared_limit(delta)``; the reference maps the voters with one
einsum and keeps ``np.linalg.norm(...) < delta``. Each example sets delta to
one of its own residual norms and to that value's 1 and 2 ulp neighbours, so
the entries on the boundary decide the test. ``_si_screened_vote`` must give
the same mask, recounting with ``_si_global_vote`` each row its margin does
not decide.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgroup import AlgorithmParams, group_si, grouping
from corrgroup.synthbench import random_rotation
from test_row_blocks import random_set


def einsum_residuals(motions, src, tgt, voter_src, voter_tgt):
    """The residual norms as si computed them before: (rows, kappa, 3)
    mapped voters from one einsum, then ``norm``."""
    mapped = np.einsum("nik,ngk->ngi", motions, voter_src[None, :, :] - src[:, None, :])
    mapped += tgt[:, None, :]
    mapped -= voter_tgt[None, :, :]
    return np.linalg.norm(mapped, axis=2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 3), kappa=st.sampled_from([1, 2, 7, 250]),
       offset=st.one_of(st.just(0.0), st.floats(1.0, 1e6)), noise=st.sampled_from([1e-3, 1.0, 30.0]))
def test_vote_matches_einsum_and_norm_at_the_bound(seed, rows, kappa, offset, noise):
    rng = np.random.default_rng(seed)
    # Inlier-like voters: one motion carries the voters' source points near
    # their targets, so residuals spread from well below to above a few units.
    rot = random_rotation(rng)
    shift = rng.normal(size=3) * offset
    src = offset + rng.normal(size=(rows, 3)) * 10.0
    voter_src = offset + rng.normal(size=(kappa, 3)) * 10.0
    tgt = src @ rot.T + shift + rng.normal(size=(rows, 3)) * noise
    voter_tgt = voter_src @ rot.T + shift + rng.normal(size=(kappa, 3)) * noise
    motions = np.array([rot if rng.random() < 0.5 else random_rotation(rng) for _ in range(rows)])

    norms = einsum_residuals(motions, src, tgt, voter_src, voter_tgt)
    at = float(norms.flat[rng.integers(norms.size)])
    deltas = [at]
    for direction in (-np.inf, np.inf):
        step = at
        for _ in range(2):
            step = float(np.nextafter(step, direction))
            deltas.append(step)

    voter_src_t = voter_src.T.copy()
    voter_tgt_t = voter_tgt.T.copy()
    for delta in deltas:
        mask = grouping._si_global_vote(motions, src, tgt, voter_src_t, voter_tgt_t,
                                        grouping._squared_limit(delta))
        assert mask.shape == (rows, kappa)
        assert np.array_equal(mask, norms < delta), f"delta={delta!r}"
        assert np.array_equal(screened_vote(motions, src, tgt, voter_src, voter_tgt, delta)[0],
                              norms < delta), f"delta={delta!r}"


def screened_vote(motions, src, tgt, voter_src, voter_tgt, delta):
    """(mask of ``_si_screened_vote``, rows it recounted), with a screen that
    spans the candidates and the voters."""
    screen = grouping._consensus_screen(np.vstack([src, voter_src]), np.vstack([tgt, voter_tgt]),
                                        delta, grouping._squared_limit(delta))
    table = grouping._screen_table(screen, voter_src, voter_tgt)
    tra = tgt - np.matmul(motions, src[:, :, None])[:, :, 0]
    coef, margin = grouping._screen_rows(screen, motions, tra,
                                         grouping._rotation_faults(motions.transpose(0, 2, 1))[1])
    recount = mock.Mock(wraps=grouping._si_global_vote)
    with mock.patch.object(grouping, "_si_global_vote", recount):
        mask = grouping._si_screened_vote(table, coef, margin, motions, src, tgt,
                                          voter_src.T.copy(), voter_tgt.T.copy(), screen.limit)
    return mask, sum(len(call.args[0]) for call in recount.call_args_list)


def vote_case(offset, noise, rows=40, kappa=250):
    """Candidates and voters, half the candidates on the voters' motion."""
    rng = np.random.default_rng(11)
    rot = random_rotation(rng)
    src = offset + rng.normal(size=(rows, 3)) * 10.0
    voter_src = offset + rng.normal(size=(kappa, 3)) * 10.0
    tgt = src @ rot.T + rng.normal(size=(rows, 3)) * noise
    voter_tgt = voter_src @ rot.T + rng.normal(size=(kappa, 3)) * noise
    motions = np.array([rot if k % 2 else random_rotation(rng) for k in range(rows)])
    return motions, src, tgt, voter_src, voter_tgt


def test_screen_decides_every_row_of_a_set_near_the_origin():
    case = vote_case(0.0, 1.0)
    norms = einsum_residuals(*case)
    mask, recounted = screened_vote(*case, 2.0)
    assert recounted == 0
    assert 0 < np.count_nonzero(mask) < mask.size
    assert np.array_equal(mask, norms < 2.0)


def test_screen_decides_no_row_when_the_offsets_round_past_delta():
    # At 1e6 from the origin the rounding of the offsets is near 1e-8, so a
    # delta of 1e-8 leaves every margin at or above the limit.
    case = vote_case(1e6, 1e-8)
    norms = einsum_residuals(*case)
    mask, recounted = screened_vote(*case, 1e-8)
    assert recounted == len(case[0])
    assert np.array_equal(mask, norms < 1e-8)


def si_peak_bytes(n):
    cset = random_set(n)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = group_si(cset, AlgorithmParams())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(result) >= n // 2
    return peak


def test_si_memory_is_under_a_fixed_bound():
    # Measured at 1.73 MiB (n = 1000) and 3.14 MiB (n = 4000), with every
    # candidate's (n, 17) screen rows held through the blocks; the bounds
    # leave 0.3 MiB.
    for n, bound in ((1000, 2.04 * 2**20), (4000, 3.44 * 2**20)):
        peak = si_peak_bytes(n)
        assert peak < bound, f"n={n}: peak of {peak / 2**20:.2f} MiB"
