"""si's global vote on (rows, kappa) coordinate planes against the einsum and
norm it replaces, at the vote's own boundary, and si's memory.

``_si_global_vote`` compares squared residuals with
``grouping._squared_limit(delta)``; the reference maps the voters with one
einsum and keeps ``np.linalg.norm(...) < delta``. Each example sets delta to
one of its own residual norms and to that value's 1 and 2 ulp neighbours, so
the entries on the boundary decide the test.
"""

import tracemalloc

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
    # Measured at 2.59 MiB (n = 1000) and 3.57 MiB (n = 4000); the bounds
    # leave 0.3 MiB.
    for n, bound in ((1000, 2.9 * 2**20), (4000, 3.9 * 2**20)):
        peak = si_peak_bytes(n)
        assert peak < bound, f"n={n}: peak of {peak / 2**20:.2f} MiB"
