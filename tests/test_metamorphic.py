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

Two scalings reach the ends of the float64 range. ss's adaptive cutoff
keeps its indices when the similarities alone are scaled by 2^k for any
|k| <= 1000. A generated torus set keeps every algorithm's indices at
2^-520; at 2^-540 (coordinates near 1e-163) ransac, st, gc and si
square lengths and residuals that underflow, which the strict xfail
pins until that is mended.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from corrgroup.synthbench import (
    CorrespondenceRecipe,
    SceneRecipe,
    generate_correspondences,
    generate_scene,
    make_test_model,
)
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), power=st.integers(-1000, 1000))
@example(seed=0, n=60, power=-1000)
def test_power_of_two_scaling_of_the_similarities_keeps_ss_indices(seed, n, power):
    cset = float_set(seed, n, 0.5)
    scaled = CorrespondenceSet.from_arrays(
        cset.source_points, cset.target_points, cset.similarities * 2.0**power, cset.nn_distances,
        cset.second_nn_distances, cset.source_resolution_pr)
    params = AlgorithmParams()
    assert group_ss(scaled, params).inlier_indices == group_ss(cset, params).inlier_indices


def torus_set():
    """A fixed generated set: 100 keypoints of a 1000-point torus, 30 % inliers."""
    model = make_test_model("torus", 1000, 0)
    scene, truth = generate_scene(model, SceneRecipe(rotation_seed=1, rng_seed=2))
    return generate_correspondences(model, scene, truth, CorrespondenceRecipe(
        n_total=100, inlier_ratio=0.3, lrf_noise_deg=5.0, rng_seed=3))


def keeps_the_indices_at(name, power):
    cset, params, factor = torus_set(), parameters(250), 2.0**power
    return grouped(name, transformed(cset, factor=factor), params, None, factor) == \
        grouped(name, cset, params, None)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_tiny_coordinates_keep_the_indices(name):
    assert keeps_the_indices_at(name, -520)


@pytest.mark.parametrize("name", ["3dhv", "nnsr", "ss"])
def test_coordinates_near_1e_163_keep_the_indices(name):
    assert keeps_the_indices_at(name, -540)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="squared lengths and residuals underflow at coordinates near 1e-163 "
                          "(FOUND in CHANGES.md: the tiny-coordinate fault)")
@pytest.mark.parametrize("name", ["gc", "ransac", "si", "st"])
def test_coordinates_near_1e_163_keep_the_pairwise_indices(name):
    assert keeps_the_indices_at(name, -540)
