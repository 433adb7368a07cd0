"""Metamorphic properties of the seven algorithms, which hold for any correct
grouping method and so do not pin an implementation's rules: permuting the
rows permutes the indices, and scaling every coordinate and the resolution
by a power of two keeps them.

The sets have float keypoints, so no two segment lengths tie; a gc set
whose largest cluster is not unique is left out, as its winner then depends
on the seed order by rule. The pairwise stages run in blocks of 1-3 rows
or in one block. Only indices are compared. RANSAC draws its samples by
index, so only scaling applies to it. 3dhv gets a fixed source cloud,
scaled with the set: its default cloud, the source keypoints, has a
centroid whose bits change with the row order.
"""

import contextlib

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrgroup import (
    AlgorithmParams,
    CorrespondenceSet,
    PointCloud,
    group_3dhv,
    group_gc,
    group_nnsr,
    group_ransac,
    group_si,
    group_ss,
    group_st,
)
from corrgroup.corr_model import pairwise_distance_residuals
from test_row_blocks import pairwise_blocks
from test_selection_oracles import float_set

# A fixed source cloud for 3dhv, in the sets' coordinates.
CLOUD = np.random.default_rng(2024).normal(size=(50, 3)) * 10.0

ALGORITHMS = {"ss": group_ss, "nnsr": group_nnsr, "ransac": group_ransac, "st": group_st,
              "gc": group_gc, "3dhv": group_3dhv, "si": group_si}
PERMUTABLE = sorted(set(ALGORITHMS) - {"ransac"})


def transformed(cset, rows=slice(None), factor=1.0):
    """The set's ``rows``, in that order, with every coordinate and the
    resolution multiplied by ``factor``."""
    return CorrespondenceSet.from_arrays(
        cset.source_points[rows] * factor, cset.target_points[rows] * factor,
        cset.similarities[rows], cset.nn_distances[rows], cset.second_nn_distances[rows],
        cset.source_resolution_pr * factor,
        source_frames=cset.source_frames[rows], target_frames=cset.target_frames[rows])


def one_largest_gc_cluster(cset, params):
    """Every seed of the largest size has the same cluster."""
    residuals = pairwise_distance_residuals(cset.source_points, cset.target_points)
    compatible = residuals < params.t_gc_pr * cset.source_resolution_pr
    sizes = compatible.sum(axis=1)
    return len({compatible[seed].tobytes() for seed in np.flatnonzero(sizes == sizes.max())}) == 1


def sets(names):
    return dict(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
                inlier_share=st.sampled_from([0.3, 0.7]), name=st.sampled_from(names),
                kappa=st.sampled_from([1, 7, 250]), rows=st.sampled_from([1, 2, 3, None]))


def grouped(name, cset, params, rows, factor=1.0):
    """``name``'s indices on ``cset`` in blocks of ``rows`` rows, or the
    package's blocks; 3dhv's cloud is scaled by ``factor``."""
    cloud = (PointCloud(CLOUD * factor),) if name == "3dhv" else ()
    with contextlib.nullcontext() if rows is None else pairwise_blocks(len(cset), rows):
        return ALGORITHMS[name](cset, params, *cloud).inlier_indices


def parameters(kappa):
    # Few RANSAC iterations: the property holds for any count.
    return AlgorithmParams(si_kappa=kappa, n_ransac=200)


# About 20 examples per algorithm, as when the tests held three.
@settings(max_examples=20 * len(PERMUTABLE), deadline=None)
@given(**sets(PERMUTABLE))
def test_permuting_the_rows_permutes_the_indices(seed, n, inlier_share, name, kappa, rows):
    cset = float_set(seed, n, inlier_share)
    params = parameters(kappa)
    if name == "gc":
        assume(one_largest_gc_cluster(cset, params))
    order = np.random.default_rng(seed).permutation(n)
    permuted = grouped(name, transformed(cset, order), params, rows)
    assert tuple(sorted(order[list(permuted)].tolist())) == grouped(name, cset, params, rows)


@settings(max_examples=20 * len(ALGORITHMS), deadline=None)
@given(**sets(sorted(ALGORITHMS)), power=st.integers(-30, 30))
def test_power_of_two_scaling_keeps_the_indices(seed, n, inlier_share, name, kappa, rows, power):
    cset = float_set(seed, n, inlier_share)
    params = parameters(kappa)
    scaled = grouped(name, transformed(cset, factor=2.0**power), params, rows, 2.0**power)
    assert scaled == grouped(name, cset, params, rows)
