"""Block-batched RANSAC and the stacked rigid fit against the loops they
replace.

``rigid_fit_oracle`` is the scalar fit of one point sample: for three
points the closed-form rule (``triangle_oracle``, the two triangles' frames
and a 2-D Procrustes fit) in Python floats and in the kernel's order of
operations, with the SVD rule (``kabsch_rotation``) for the samples the
closed form does not certify and for every sample of another size.
``ransac_loop_oracle`` is RANSAC as one fit, one ``apply`` and one residual
norm per iteration. Both must agree with the package bit for bit: inlier
indices, ``rotation.tobytes()`` and ``translation.tobytes()``. Integer-grid
keypoints give duplicate keypoints, collinear (degenerate) samples and
exact consensus ties, so the earliest-iteration tie rule is exercised.
``kabsch_oracle``, the SVD fit of every sample, is the tolerance oracle of
the closed form.

``scalar_draw`` is one iteration's sample, drawn with a scalar
``Generator.integers`` call and the skip rule in Python ints.
``grouping._draw_samples`` must give the same samples in blocks of any size
and leave the generator in the same state, and its map from draws to
triples must be one-to-one.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgroup import (
    AlgorithmParams,
    CorrespondenceRecipe,
    CorrespondenceSet,
    RigidTransform,
    SceneRecipe,
    estimate_rigid_transform,
    generate_correspondences,
    generate_scene,
    geom3d,
    group_ransac,
    grouping,
    make_test_model,
)
from corrgroup.geom3d import DegenerateSampleError, _check_rigid_stack, _fit_rigid_stack

# Exact rotations about z by 0, 90, 180 and 270 degrees.
QUARTER_TURNS = np.array([np.linalg.matrix_power([[0, -1, 0], [1, 0, 0], [0, 0, 1]], k)
                          for k in range(4)], dtype=np.float64)
MIRROR = np.diag([1.0, 1.0, -1.0])


def kabsch_rotation(cross):
    """The SVD rule: the rotation maximising tr(R H), with the determinant fix."""
    u, _, vt = np.linalg.svd(cross)
    v = vt.T
    rot = v @ u.T
    if np.linalg.det(rot) < 0:
        v = v.copy()
        v[:, -1] *= -1.0
        rot = v @ u.T
    return rot


def dot3(x, y):
    return (x[0] * y[0] + x[1] * y[1]) + x[2] * y[2]


def cross3(x, y):
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]


def triangle_oracle(src, tgt):
    """The closed-form rotation of one three-point sample, in Python floats;
    None when the rule does not certify it."""
    certify = geom3d.TRIANGLE_CERTIFY
    frames, plane = [], []
    for points in (src, tgt):
        p0, p1, p2 = points.tolist()
        e1 = [p1[i] - p0[i] for i in range(3)]
        e2 = [p2[i] - p0[i] for i in range(3)]
        sq1, sq2, along = dot3(e1, e1), dot3(e2, e2), dot3(e1, e2)
        normal = cross3(e1, e2)
        area_sq = dot3(normal, normal)
        if not (area_sq >= certify * certify * sq1 * sq2 and all(1e-100 < sq < 1e100 for sq in (sq1, sq2))):
            return None
        length, area = math.sqrt(sq1), math.sqrt(area_sq)
        a = [v / length for v in e1]
        n = [v / area for v in normal]
        frames.append((a, cross3(n, a), n))
        plane.append((length, along / length, area / length))

    # The 2-D Procrustes fit: Z for a turn of the plane, Z' for a reflection.
    (u_s, v_s, w_s), (u_t, v_t, w_t) = plane
    skew_t = 2.0 * v_t - u_t
    real = u_s * (2.0 * u_t - v_t) + v_s * skew_t
    twist = 2.0 * w_s * w_t
    imag = (2.0 * v_s - u_s) * w_t
    swing = w_s * skew_t
    z_sq = (real + twist) * (real + twist) + (imag - swing) * (imag - swing)
    mirror_sq = (real - twist) * (real - twist) + (imag + swing) * (imag + swing)
    z, mirror_z = math.sqrt(z_sq), math.sqrt(mirror_sq)
    if not abs(z - mirror_z) >= certify * math.sqrt(0.5 * (z_sq + mirror_sq)):
        return None
    sign = -1.0 if mirror_sq > z_sq else 1.0
    top = max(z, mirror_z)
    c = (real + sign * twist) / top
    s = (sign * imag - swing) / top

    # R = F_t R2 F_s^T: the source axes turned, b and n negated for a mirror.
    (a_s, b_s, n_s), (a_t, b_t, n_t) = frames
    turned = [c * a_s[j] - s * b_s[j] for j in range(3)]
    turned_b = [(b_s[j] * c + s * a_s[j]) * sign for j in range(3)]
    turned_n = [n_s[j] * sign for j in range(3)]
    return np.array([[(a_t[i] * turned[j] + b_t[i] * turned_b[j]) + n_t[i] * turned_n[j] for j in range(3)]
                     for i in range(3)])


def centered_fit(src, tgt):
    """(means, cross-covariance) of a sample; None when the collinearity rule
    calls it degenerate."""
    src_mean = src.mean(axis=0)
    tgt_mean = tgt.mean(axis=0)
    src_c = src - src_mean
    tgt_c = tgt - tgt_mean
    sv = np.linalg.svd(src_c, compute_uv=False)
    if sv[0] <= 0.0 or sv[1] < 1e-9 * sv[0]:
        return None
    return src_mean, tgt_mean, src_c.T @ tgt_c


def rigid_fit_oracle(src, tgt):
    """(rotation, translation) of the scalar fit: the closed form where it
    certifies a three-point sample, the SVD rule otherwise; None when
    degenerate."""
    fit = centered_fit(src, tgt)
    if fit is None:
        return None
    src_mean, tgt_mean, cross = fit
    rot = triangle_oracle(src, tgt) if len(src) == 3 else None
    if rot is None:
        rot = kabsch_rotation(cross)
    return rot, tgt_mean - rot @ src_mean


def kabsch_oracle(src, tgt):
    """(rotation, translation) of the SVD fit; None when degenerate."""
    fit = centered_fit(src, tgt)
    if fit is None:
        return None
    src_mean, tgt_mean, cross = fit
    rot = kabsch_rotation(cross)
    return rot, tgt_mean - rot @ src_mean


def scalar_draw(rng, n):
    """One ordered triple of distinct indices in [0, n): the second index
    skips the first, the third skips both in ascending order."""
    a, b, c = (int(x) for x in rng.integers(0, (n, n - 1, n - 2)))
    b += b >= a
    c += c >= min(a, b)
    c += c >= max(a, b)
    return [a, b, c]


def ransac_loop_oracle(cset, params):
    """(indices, rotation, translation) of RANSAC as a per-iteration loop."""
    n = len(cset)
    src = cset.source_points
    tgt = cset.target_points
    threshold = params.d_ransac_pr * cset.source_resolution_pr
    rng = np.random.default_rng(params.rng_seed)

    def consensus(rot, tra):
        return np.linalg.norm(src @ rot.T + tra - tgt, axis=1) < threshold

    best_count, best = 0, None
    for _ in range(params.n_ransac):
        sample = scalar_draw(rng, n)
        fit = rigid_fit_oracle(src[sample], tgt[sample])
        if fit is None:
            continue
        inliers = consensus(*fit)
        if int(inliers.sum()) > best_count:
            best_count, best, best_inliers = int(inliers.sum()), fit, inliers
    if best is None:
        return (), None, None
    if best_count >= 3:
        best = rigid_fit_oracle(src[best_inliers], tgt[best_inliers]) or best
    return tuple(np.flatnonzero(consensus(*best)).tolist()), best[0], best[1]


def assert_same_result(result, oracle):
    indices, rot, tra = oracle
    assert result.inlier_indices == indices
    if rot is None:
        assert result.transform is None
    else:
        assert result.transform.rotation.tobytes() == rot.tobytes()
        assert result.transform.translation.tobytes() == tra.tobytes()


def grid_set(seed, n, inlier_share, offset, resolution=1.0):
    """Keypoints on a small integer grid; inlier targets are an exact
    quarter turn plus an integer shift, outliers are random grid points."""
    rng = np.random.default_rng(seed)
    src = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
    tgt = src @ QUARTER_TURNS[seed % 4].T + rng.integers(-5, 6, size=3)
    outliers = rng.random(n) >= inlier_share
    tgt[outliers] = rng.integers(-3, 4, size=(int(outliers.sum()), 3))
    ones = np.ones(n)
    return CorrespondenceSet.from_arrays(src + offset, tgt + offset, ones, ones, ones, resolution)


def block_size(n):
    return max(1, grouping.BLOCK_BYTES // (24 * n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       inlier_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       offset=st.sampled_from([0.0, 1e6]), d_ransac_pr=st.sampled_from([0.5, 1.0, 2.5]),
       block=st.integers(1, 9), runs=st.sampled_from(["one", "block-1", "block+1", "3block+7"]))
def test_ransac_matches_loop_across_block_edges(seed, n, inlier_share, offset, d_ransac_pr, block, runs):
    n_ransac = {"one": 1, "block-1": max(1, block - 1), "block+1": block + 1,
                "3block+7": 3 * block + 7}[runs]
    cset = grid_set(seed, n, inlier_share, offset)
    params = AlgorithmParams(n_ransac=n_ransac, d_ransac_pr=d_ransac_pr, rng_seed=seed)
    # Blocks of `block` samples: the budget is counted in (n, 3) float64 arrays.
    with mock.patch.object(grouping, "BLOCK_BYTES", 24 * n * block):
        assert block_size(n) == block
        result = group_ransac(cset, params)
    assert_same_result(result, ransac_loop_oracle(cset, params))


@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("extra", [-1, 1, "3B+7"])
def test_ransac_matches_loop_at_the_package_block_size(n, extra):
    block = block_size(n)
    n_ransac = 3 * block + 7 if extra == "3B+7" else block + extra
    cset = grid_set(n, n, 0.5, 1e6)
    params = AlgorithmParams(n_ransac=n_ransac, d_ransac_pr=1.0, rng_seed=n)
    assert_same_result(group_ransac(cset, params), ransac_loop_oracle(cset, params))


def kabsch_pair(seed, m, kind):
    rng = np.random.default_rng(seed)
    if kind == "grid":
        src = rng.integers(-2, 3, size=(m, 3)).astype(np.float64)
    elif kind == "collinear":
        src = rng.integers(-3, 4, size=(m, 1)) * np.array([1.0, -2.0, 3.0]) + 7.0
    else:
        src = rng.normal(size=(m, 3)) * 10.0
    if kind == "offset":
        src += 1e6
    if kind == "reflection":
        # A mirror image: the unconstrained fit is improper, so the
        # determinant fix runs.
        tgt = src @ MIRROR.T + rng.normal(size=3)
    else:
        tgt = src @ QUARTER_TURNS[seed % 4].T + rng.normal(size=(m, 3)) * rng.choice([0.0, 0.1, 10.0])
    return src, tgt


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.one_of(st.integers(3, 12), st.integers(13, 1000)),
       kind=st.sampled_from(["grid", "collinear", "normal", "offset", "reflection"]))
def test_rigid_fit_matches_scalar_kabsch(seed, m, kind):
    src, tgt = kabsch_pair(seed, m, kind)
    expected = rigid_fit_oracle(src, tgt)
    if expected is None:
        with pytest.raises(DegenerateSampleError):
            estimate_rigid_transform(src, tgt)
        return
    fit = estimate_rigid_transform(src, tgt)
    assert fit.rotation.tobytes() == expected[0].tobytes()
    assert fit.translation.tobytes() == expected[1].tobytes()


def test_reflections_and_degenerate_samples_are_covered():
    src, tgt = kabsch_pair(1, 10, "reflection")
    src_c = src - src.mean(axis=0)
    u, _, vt = np.linalg.svd(src_c.T @ (tgt - tgt.mean(axis=0)))
    assert np.linalg.det(vt.T @ u.T) < 0
    assert rigid_fit_oracle(*kabsch_pair(1, 10, "collinear")) is None


# ---------------------------------------------------------------------------
# The closed form against the SVD fit
# ---------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps
HARD_KINDS = ["turn", "half-turn", "mirror", "collinear", "coincident"]


def hard_sample(seed, m, kind, noise, scale):
    """A sample of m pairs: a random turn, a half turn, a mirror image,
    targets on a line or all at one point, each with Gaussian noise of
    ``noise``; both sides times ``scale`` and moved by 1e6 spreads."""
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(m, 3))
    turn = random_rotation(rng)
    if kind == "half-turn":
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        turn = 2.0 * np.outer(axis, axis) - np.eye(3)
    if kind == "mirror":
        turn = turn @ MIRROR
    tgt = {"collinear": rng.normal(size=(m, 1)) * rng.normal(size=3),
           "coincident": np.repeat(rng.normal(size=(1, 3)), m, axis=0)}.get(kind, src @ turn.T)
    tgt = tgt + rng.normal(size=(m, 3)) * noise
    return (src + 1e6) * scale, (tgt + 1e6) * scale


def exact_cross(src, tgt):
    """The cross-covariance of the exactly centred points, rounded once."""
    p, q = ([[Fraction(v) for v in row] for row in side.tolist()] for side in (src, tgt))
    p_mean, q_mean = ([sum(col) / len(side) for col in zip(*side)] for side in (p, q))
    return np.array([[float(sum((pi[i] - p_mean[i]) * (qi[j] - q_mean[j]) for pi, qi in zip(p, q)))
                      for j in range(3)] for i in range(3)])


def sine_at_first_point(points):
    e1, e2 = points[1] - points[0], points[2] - points[0]
    return np.linalg.norm(np.cross(e1, e2)) / (np.linalg.norm(e1) * np.linalg.norm(e2))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([3, 4, 10, 100]), kind=st.sampled_from(HARD_KINDS),
       noise=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1]), scale=st.sampled_from([1.0, 1e-160, 1e150]))
@example(seed=0, m=3, kind="half-turn", noise=0.0, scale=1.0)
@example(seed=0, m=3, kind="mirror", noise=0.0, scale=1.0)
@example(seed=0, m=10, kind="mirror", noise=0.0, scale=1e-160)
@example(seed=0, m=4, kind="collinear", noise=0.0, scale=1e150)
def test_certified_fits_reach_the_svd_fit(seed, m, kind, noise, scale):
    # Near 1e150 the products of H are near the overflow edge; near 1e-160
    # H is subnormal.
    src, tgt = hard_sample(seed, m, kind, noise, scale)
    expected = rigid_fit_oracle(src, tgt)
    rot, tra, fitted = _fit_rigid_stack(src[None], tgt[None])
    assert fitted.tolist() == [expected is not None]
    if expected is None:
        return
    assert rot[0].tobytes() == expected[0].tobytes() and tra[0].tobytes() == expected[1].tobytes()
    if m != 3 or triangle_oracle(src, tgt) is None:
        svd, svd_tra = kabsch_oracle(src, tgt)
        assert rot[0].tobytes() == svd.tobytes() and tra[0].tobytes() == svd_tra.tobytes()
        return
    # The reference is the SVD fit of the exactly centred points: the
    # rounded means, 1e6 eps off, move the rounded H by about 1e12 eps^2,
    # which is large next to the H of targets a few ulps apart.
    cross = exact_cross(src, tgt)
    svd = kabsch_rotation(cross)
    sigma = np.linalg.svd(cross, compute_uv=False)
    # The bound of geom3d._triangle_rotations: the frames' rounding, eps over
    # each triangle's sine, plus the fit's sensitivity, eps |H|_F / sigma_2.
    spread = 1.0 / sine_at_first_point(src) + 1.0 / sine_at_first_point(tgt) + np.linalg.norm(cross) / sigma[1]
    assert np.abs(rot[0] - svd).max() <= 4 * EPS * spread
    # The least-squares objective |P|^2 + |Q|^2 - 2 tr(R H): tr(R H) within
    # the rounding of R's entries.
    h = cross / np.linalg.norm(cross)
    assert np.trace(rot[0] @ h) >= np.trace(svd @ h) - 32 * EPS


def assert_stack_matches_scalar_fits(src, tgt):
    rot, tra, fitted = _fit_rigid_stack(src, tgt)
    expected = [rigid_fit_oracle(s, t) for s, t in zip(src, tgt)]
    assert fitted.tolist() == [e is not None for e in expected]
    kept = [e for e in expected if e is not None]
    assert rot.tobytes() == np.array([r for r, _ in kept]).reshape(-1, 3, 3).tobytes()
    assert tra.tobytes() == np.array([t for _, t in kept]).reshape(-1, 3).tobytes()


def test_closed_form_and_svd_rows_are_both_covered():
    # Three-point half turns and noisy mirrors are certified; targets on a
    # line or at one point have sigma_2(H) = 0, a zero gap, and take the SVD
    # rule.
    src, tgt = (np.array(side) for side in zip(*[
        hard_sample(seed, 3, kind, noise, 1.0) for seed in range(4)
        for kind, noise in (("half-turn", 0.0), ("mirror", 0.1), ("collinear", 0.0), ("coincident", 0.0))]))
    certified, proven = geom3d._triangle_rotations(src, tgt, np.empty((len(src), 3, 3)))
    assert certified.tolist() == [True, True, False, False] * 4
    assert proven.all()
    assert_stack_matches_scalar_fits(src, tgt)


def test_a_triple_top_eigenvalue_takes_the_svd_rule_with_its_determinant_fix():
    # A regular octahedron and its mirror image: H = 2 diag(1, 1, -1), whose
    # rotations R maximising tr(R H) are not unique. Six points take the SVD
    # rule by their number, and its determinant fix runs.
    src = np.vstack([np.eye(3), -np.eye(3)]) + 1.0
    tgt = src @ MIRROR.T
    cross = centered_fit(src, tgt)[2]
    u, _, vt = np.linalg.svd(cross)
    assert np.linalg.det(vt.T @ u.T) < 0
    rot, tra, _ = _fit_rigid_stack(src[None], tgt[None])
    assert rot[0].tobytes() == kabsch_oracle(src, tgt)[0].tobytes()
    assert tra[0].tobytes() == kabsch_oracle(src, tgt)[1].tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 40), offset=st.sampled_from([0.0, 1e6]))
def test_stacked_fits_match_scalar_fits(seed, k, offset):
    rng = np.random.default_rng(seed)
    src = rng.integers(-2, 3, size=(k, 3, 3)).astype(np.float64) + offset
    tgt = rng.integers(-2, 3, size=(k, 3, 3)).astype(np.float64) + offset
    assert_stack_matches_scalar_fits(src, tgt)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), spread=st.floats(-320.0, 10.0),
       offset=st.sampled_from([0.0, 1.0, 1e6, 1e15]))
def test_three_point_means_keep_the_bits_of_mean(seed, k, spread, offset):
    # Spreads from subnormal to 1e10, offsets up to 1e15 of the spread: the
    # translations, t = mean(q) - R mean(p), are those of numpy's mean.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** spread
    src, tgt = (rng.normal(size=(k, 3, 3)) * scale + rng.normal(size=(k, 1, 3)) * offset * scale
                for _ in range(2))
    rot, tra, fitted = _fit_rigid_stack(src, tgt)
    expected = tgt[fitted].mean(axis=1) - (rot @ src[fitted].mean(axis=1)[..., None])[..., 0]
    assert tra.tobytes() == expected.tobytes()


def test_stack_check_raises_the_first_faulty_pair_first_fault():
    rot = np.repeat(np.eye(3)[None], 5, axis=0)
    tra = np.zeros((5, 3))
    rot[4] = np.nan
    rot[2, 0, 0] = 2.0          # not orthonormal (its det is 2 as well)
    tra[3, 1] = np.inf
    with pytest.raises(ValueError, match="not orthonormal"):
        _check_rigid_stack(rot, tra)
    for k in range(5):
        try:
            RigidTransform(rot[k], tra[k])
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                _check_rigid_stack(rot[k:], tra[k:])
        else:
            _check_rigid_stack(rot[k:k + 1], tra[k:k + 1])
    with pytest.raises(ValueError, match="determinant"):
        _check_rigid_stack(MIRROR[None], tra[:1])


def noisy_set(seed, n, inlier_share, scale=1.0):
    """Random sources; inlier targets a random rigid motion of them plus
    noise of a tenth of the resolution, outliers random points. Coordinates
    and the resolution (1) are times ``scale``."""
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(n, 3)) * 10.0
    tgt = src @ random_rotation(rng).T + rng.normal(size=3) * 10.0 + rng.normal(size=(n, 3)) * 0.1
    outliers = rng.random(n) >= inlier_share
    tgt[outliers] = rng.normal(size=(int(outliers.sum()), 3)) * 10.0
    ones = np.ones(n)
    return CorrespondenceSet.from_arrays(src * scale, tgt * scale, ones, ones, ones, scale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), k=st.integers(-7, 9),
       inlier_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]), d_ransac_pr=st.sampled_from([0.5, 5.0]))
def test_ransac_inliers_do_not_depend_on_a_power_of_two_scale(seed, n, k, inlier_share, d_ransac_pr):
    # Scaling every coordinate and the resolution by 2^k is exact, and so is
    # every ratio the fits and the consensus compare.
    params = AlgorithmParams(n_ransac=200, d_ransac_pr=d_ransac_pr, rng_seed=seed)
    expected = group_ransac(noisy_set(seed, n, inlier_share), params).inlier_indices
    assert group_ransac(noisy_set(seed, n, inlier_share, 2.0 ** k), params).inlier_indices == expected


def test_all_collinear_keypoints_give_an_empty_result():
    t = np.arange(20.0)[:, None]
    src = t * np.array([1.0, 2.0, 3.0])
    ones = np.ones(20)
    cset = CorrespondenceSet.from_arrays(src, src + 4.0, ones, ones, ones, 1.0)
    result = group_ransac(cset, AlgorithmParams(n_ransac=300))
    assert result.inlier_indices == ()
    assert result.transform is None


def random_set(n, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(n, 3)) * 10.0
    tgt = src + 1.0
    tgt[n // 2:] = rng.normal(size=(n - n // 2, 3)) * 10.0
    ones = np.ones(n)
    return CorrespondenceSet.from_arrays(src, tgt, ones, ones, ones, 0.1)


def ransac_peak_bytes(cset, n_ransac=200):
    params = AlgorithmParams(n_ransac=n_ransac)
    tracemalloc.start()
    try:
        group_ransac(cset, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ransac_memory_is_bounded():
    peaks = {n: ransac_peak_bytes(random_set(n)) for n in (1000, 4000)}
    assert max(peaks.values()) < 8 * 2**20
    # Beyond the fixed block budget, the peak may grow only by a few (n, 3)
    # float64 columns.
    assert peaks[4000] - peaks[1000] < 4 * 24 * (4000 - 1000)


def test_ransac_memory_does_not_grow_with_iterations():
    # Samples are drawn per block, so 100 times the iterations add no memory.
    cset = random_set(1000)
    assert ransac_peak_bytes(cset, 20000) - ransac_peak_bytes(cset, 200) < 256 * 2**10


def all_draws(n):
    """Every draw on [0, n) x [0, n-1) x [0, n-2), once."""
    return np.array(list(itertools.product(range(n), range(n - 1), range(n - 2))), dtype=np.int64)


class ExhaustiveGenerator:
    """A generator stub whose ``integers`` returns every draw once."""

    def __init__(self, n):
        self.n = n

    def integers(self, low, high, size):
        n = self.n
        assert low == 0 and tuple(high) == (n, n - 1, n - 2) and size == (n * (n - 1) * (n - 2), 3)
        return all_draws(n)


def skip_in_wrong_order(rng, n, count):
    """``_draw_samples`` with the third index skipping the larger first."""
    samples = rng.integers(0, (n, n - 1, n - 2), size=(count, 3))
    a, b, c = samples.T
    b += b >= a
    c += c >= np.maximum(a, b)
    c += c >= np.minimum(a, b)
    return samples


def draws_are_one_to_one(draw, n):
    """Whether `draw` maps every draw onto a different ordered triple of
    distinct indices in [0, n)."""
    samples = draw(ExhaustiveGenerator(n), n, n * (n - 1) * (n - 2))
    assert samples.dtype == np.int64
    triples = set(map(tuple, samples.tolist()))
    return triples == set(itertools.permutations(range(n), 3)) and len(triples) == len(samples)


@pytest.mark.parametrize("n", range(3, 9))
def test_sample_draw_is_one_to_one(n):
    assert draws_are_one_to_one(grouping._draw_samples, n)
    # The check sees a wrong skip order.
    assert not draws_are_one_to_one(skip_in_wrong_order, n)


def assert_blocks_match(seed, n, blocks):
    """Draw `blocks` in turn from one generator: the samples and the final
    state must equal one call of their sum and the scalar draws."""
    split = np.random.default_rng(seed)
    whole = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    samples = np.vstack([grouping._draw_samples(split, n, count) for count in blocks])
    assert samples.dtype == np.int64
    assert samples.tolist() == grouping._draw_samples(whole, n, sum(blocks)).tolist()
    assert samples.tolist() == [scalar_draw(scalar, n) for _ in range(sum(blocks))]
    assert split.bit_generator.state == whole.bit_generator.state == scalar.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.one_of(st.integers(3, 12), st.integers(3, 10**5)),
       blocks=st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_sample_blocks_match_one_call_and_scalar_draws(seed, n, blocks):
    # Odd blocks leave a high half carried into the next block.
    assert_blocks_match(seed, n, blocks)


@pytest.mark.parametrize("n", [2**32 - 1, 2**32, 2**32 + 1, 2**40])
def test_sample_blocks_at_the_32_bit_edge(n):
    # Bounds up to 2**32 - 1 take 32-bit halves; past them numpy draws
    # 64-bit words.
    for seed in range(4):
        assert_blocks_match(seed, n, [1, 2, 5, 3, 7])


def test_sample_stream_is_pinned():
    # The golden files do not pin the stream, so a numpy release that
    # changes ``Generator.integers`` shows here.
    samples = grouping._draw_samples(np.random.default_rng(0), 1000, 4)
    assert samples.tolist() == [[850, 636, 510], [269, 308, 40], [75, 16, 176], [813, 648, 912]]


# ---------------------------------------------------------------------------
# Fit stacks, consensus chunks, the collinearity screen and the squared bound
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       inlier_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       offset=st.sampled_from([0.0, 1e6]), d_ransac_pr=st.sampled_from([0.5, 1.0, 2.5]),
       stack=st.integers(1, 9), rows=st.integers(1, 9),
       runs=st.sampled_from(["one", "stack-1", "stack+1", "3stack+7", "rows+1", "stack*rows+1"]))
def test_ransac_matches_loop_across_stack_and_chunk_edges(seed, n, inlier_share, offset, d_ransac_pr,
                                                          stack, rows, runs):
    n_ransac = {"one": 1, "stack-1": max(1, stack - 1), "stack+1": stack + 1, "3stack+7": 3 * stack + 7,
                "rows+1": rows + 1, "stack*rows+1": stack * rows + 1}[runs]
    cset = grid_set(seed, n, inlier_share, offset)
    params = AlgorithmParams(n_ransac=n_ransac, d_ransac_pr=d_ransac_pr, rng_seed=seed)
    # Fit stacks of `stack` samples, counted in chunks of `rows` hypotheses.
    with mock.patch.object(grouping, "RANSAC_FIT_STACK", stack), \
            mock.patch.object(grouping, "BLOCK_BYTES", 24 * n * rows):
        assert block_size(n) == rows
        result = group_ransac(cset, params)
    assert_same_result(result, ransac_loop_oracle(cset, params))


def near_collinear_stack(seed, m, spread, offset):
    """(k, m, 3) source samples along a random line, each pushed off it by a
    share of the spread (1e-3 down to 1e-15, and 0); then slivers, random
    samples whose p1 is moved towards p0 to the same shares of its distance
    (but 0); then one with a repeated point, one on the line with a repeated
    point and one with no spread at all; and random (k, m, 3) targets. Also
    returns the shares."""
    rng = np.random.default_rng(seed)
    line, normal = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
    shares = [10.0 ** -e for e in range(3, 16)] + [0.0]
    samples = []
    # Points spread over about [-1, 1] along the line, pushed off it to
    # alternate sides, so that no sample is collinear by chance.
    along = np.linspace(-1.0, 1.0, m)[:, None]
    sides = (-1.0) ** np.arange(m)[:, None]
    for share in shares:
        jitter = rng.uniform(-0.25, 0.25, size=(m, 1))
        off = sides * rng.uniform(0.5, 1.0, size=(m, 1)) * share
        samples.append(((along + jitter) * line + off * normal) * spread)
    for share in shares[:-1]:
        sliver = rng.normal(size=(m, 3))
        sliver[1] = sliver[0] + share * (sliver[1] - sliver[0])
        samples.append(sliver * spread)
    repeated = rng.normal(size=(m, 3)) * spread
    repeated[1] = repeated[0]
    samples.append(repeated)
    samples.append(np.vstack([along[:1], along[:-1]]) * line * spread)
    samples.append(np.zeros((m, 3)))
    src = np.array(samples) + offset
    return src, rng.normal(size=src.shape) * spread + offset, shares


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([3, 7, 200]),
       spread=st.sampled_from([1.0, 1e3, 1e-3, 1e-79]), offset=st.sampled_from([0.0, 1e6]))
def test_collinearity_screen_keeps_the_svd_verdicts(seed, m, spread, offset):
    src, tgt, _ = near_collinear_stack(seed, m, spread, offset)
    assert_stack_matches_scalar_fits(src, tgt)


@pytest.mark.parametrize("seed", range(5))
def test_collinearity_screen_passes_clear_samples_only(seed):
    # Offsets of 1e-3 of the spread are proven not collinear without an SVD;
    # at 1e-7 and below nothing is, and the SVD rule decides. Slivers at
    # 1e-10 and below are not proven either: the angle at p0 is that of the
    # random triangle, so it passes the rotation certificate's sine bound,
    # yet the SVD rule calls the sample degenerate.
    src, tgt, shares = near_collinear_stack(seed, 3, 1.0, 0.0)
    _, proven = geom3d._triangle_rotations(src, tgt, np.empty((len(src), 3, 3)))
    fitted = _fit_rigid_stack(src, tgt)[2]
    thin = len(shares) + np.flatnonzero(np.array(shares[:-1]) <= 1e-10)
    assert proven[0]
    assert not proven[:len(shares)][np.array(shares) <= 1e-7].any()
    assert not proven[thin].any() and not fitted[thin].any()
    assert all(sine_at_first_point(src[k]) >= geom3d.TRIANGLE_CERTIFY for k in thin)
    assert not proven[-1]


def test_a_tiny_triangle_far_from_the_origin_takes_the_svd_rule():
    # At x = a value whose mean of three copies rounds to its neighbour, a
    # right triangle of legs 1e-30 is centred with a shift of an ulp of x,
    # which the SVD rule sees: it calls the sample degenerate. The triangle
    # pass must not prove it; legs of 1e-11 it proves.
    x = next(v for v in np.linspace(1.5, 2.0, 1001) if np.mean([v, v, v]) != v)
    legs = np.array([1e-30, 1e-20, 1e-13, 1e-11, 1e-3])
    src = np.zeros((len(legs), 3, 3))
    src[:, :, 0] = x
    src[:, 1, 1] = src[:, 2, 2] = legs
    tgt = src[:, ::-1].copy()
    _, proven = geom3d._triangle_rotations(src, tgt, np.empty((len(src), 3, 3)))
    assert proven.tolist() == [False, False, False, True, True]
    assert not _fit_rigid_stack(src, tgt)[2][0]
    assert_stack_matches_scalar_fits(src, tgt)


def ulps_around(x, count):
    """x and the `count` doubles on either side of it."""
    out, lo, hi = [x], x, x
    with np.errstate(over="ignore"):
        for _ in range(count):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(min_value=5e-324, max_value=1e150))
@example(t=5e-324)
@example(t=1e-160)
@example(t=1.4916681462400413e-154)
@example(t=2.2250738585072014e-308)
@example(t=5.0)
@example(t=1e150)
@example(t=math.inf)
def test_squared_limit_gives_the_sqrt_verdict(t):
    limit = grouping._squared_limit(t)
    d = np.concatenate([ulps_around(t * t, 64), ulps_around(limit, 2), [0.0, -0.0, np.inf, np.nan]])
    # A squared residual is a sum of squares: never below -0.0.
    d = d[~(d < 0.0)]
    with np.errstate(invalid="ignore"):
        assert ((d <= limit) == (np.sqrt(d) < t)).all()


def test_squared_limit_is_minus_infinity_without_a_bound():
    for t in (0.0, -1.0, np.nan):
        assert grouping._squared_limit(t) == -math.inf


def test_ransac_memory_is_under_a_fixed_bound():
    # A full run: fit stacks of RANSAC_FIT_STACK and blocks of at most
    # BLOCK_BYTES of residuals.
    for n in (1000, 4000):
        assert ransac_peak_bytes(random_set(n), 10000) < 1.25 * 2**20


# ---------------------------------------------------------------------------
# The consensus screen: its margin, the recount and the float64 edges
# ---------------------------------------------------------------------------

def chunk_counts(rot, tra, src, tgt, limit):
    """Consensus counts by the chunk arithmetic: coordinate-major residuals,
    squared, added as (x + y) + z and compared with the squared bound."""
    residual = np.matmul(rot, src.T.copy())
    residual += tra[:, :, None]
    residual -= tgt.T.copy()
    residual *= residual
    dist = residual[:, 0] + residual[:, 1]
    dist += residual[:, 2]
    return np.count_nonzero(dist <= limit, axis=1)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def edge_set(seed, n, offset, d_ransac_pr):
    """Targets an exact rigid motion of the sources, half of them pushed off
    by a squared length within 8 ulps of the squared limit. Also returns the
    motion."""
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    tra = rng.normal(size=3) * 10.0
    src = rng.normal(size=(n, 3)) * 10.0 + offset
    tgt = src @ rot.T + tra
    limit = grouping._squared_limit(d_ransac_pr)
    squared = limit + rng.integers(-8, 9, size=n) * math.ulp(limit)
    push = rng.normal(size=(n, 3))
    push *= (np.sqrt(squared) / np.linalg.norm(push, axis=1))[:, None]
    edge = rng.random(n) < 0.5
    tgt[edge] += push[edge]
    ones = np.ones(n)
    return CorrespondenceSet.from_arrays(src, tgt, ones, ones, ones, 1.0), rot, tra


def recounted(cset, params):
    """The result of ``group_ransac``, and the number of hypotheses of each
    call to ``grouping._exact_consensus`` it made."""
    spy = mock.Mock(wraps=grouping._exact_consensus)
    with mock.patch.object(grouping, "_exact_consensus", spy):
        result = group_ransac(cset, params)
    return result, [len(call.args[0]) for call in spy.call_args_list]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), offset=st.sampled_from([0.0, 1e6]),
       d_ransac_pr=st.sampled_from([0.5, 1.0, 2.5, 5.0]), rows=st.integers(1, 9))
def test_screened_counts_match_the_chunk_arithmetic_at_the_limit(seed, n, offset, d_ransac_pr, rows):
    cset, rot, tra = edge_set(seed, n, offset, d_ransac_pr)
    src, tgt = cset.source_points, cset.target_points
    limit = grouping._squared_limit(d_ransac_pr)
    # The exact motion, the motion moved by an ulp, and fits of drawn samples.
    samples = grouping._draw_samples(np.random.default_rng(seed), n, 40)
    fit_rot, fit_tra, _ = _fit_rigid_stack(src[samples], tgt[samples])
    rots = np.concatenate([rot[None], rot[None], fit_rot])
    tras = np.concatenate([tra[None], np.nextafter(tra, np.inf)[None], fit_tra])
    screen = grouping._consensus_screen(src, tgt, d_ransac_pr, limit)
    with mock.patch.object(grouping, "BLOCK_BYTES", 24 * n * rows):
        counts = grouping._consensus_counts(screen, rots, tras, _check_rigid_stack(rots, tras), src, tgt)
    assert counts.tolist() == chunk_counts(rots, tras, src, tgt, limit).tolist()
    # The winner's mask, the refit and the transform.
    params = AlgorithmParams(n_ransac=30, d_ransac_pr=d_ransac_pr, rng_seed=seed)
    assert_same_result(group_ransac(cset, params), ransac_loop_oracle(cset, params))


def test_pairs_within_the_margin_are_recounted():
    # Fits of three pairs that were not pushed off put the pushed pairs within
    # a few ulps of the limit, inside the margin.
    cset, _, _ = edge_set(0, 40, 1e6, 1.0)
    params = AlgorithmParams(n_ransac=200, d_ransac_pr=1.0, rng_seed=0)
    result, sizes = recounted(cset, params)
    # The last two calls are the winner's mask and the returned one; the
    # others are recounts.
    assert sizes[-2:] == [1, 1] and sum(sizes[:-2]) > 0
    assert_same_result(result, ransac_loop_oracle(cset, params))


def test_a_screen_that_decides_every_pair_recounts_nothing():
    # Far from the limit the screen decides: only the winner's mask and the
    # returned one are computed.
    assert recounted(random_set(1000), AlgorithmParams(n_ransac=2000))[1] == [1, 1]


def scaled_set(seed, n, scale, resolution, axes=(1.0, 1.0, 1.0)):
    """Random sources in the box of half-sides ``scale * axes``; half the
    targets are a half turn (odd seeds) or the identity of them plus noise of
    a tenth of the resolution, the others random points of the same box. The
    box of sources and targets together is the sources' box."""
    rng = np.random.default_rng(seed)
    half_sides = scale * np.array(axes)
    src = rng.uniform(-1.0, 1.0, size=(n, 3)) * half_sides
    tgt = src @ QUARTER_TURNS[2 * (seed % 2)].T
    tgt += rng.normal(size=(n, 3)) * 0.1 * resolution
    tgt[n // 2:] = rng.uniform(-1.0, 1.0, size=(n - n // 2, 3)) * half_sides
    ones = np.ones(n)
    return CorrespondenceSet.from_arrays(src, tgt, ones, ones, ones, resolution)


@pytest.mark.parametrize("seed", range(4))
def test_ransac_matches_loop_near_the_overflow_edge(seed):
    # A span of about 5.8e153 along x, just inside the span check's edge of
    # 6.7e153: the squared residuals stay finite, but K = (P + Q + T)^2
    # overflows for many fits, and those hypotheses are recounted.
    cset = scaled_set(seed, 60, 2.9e153, 5.8e151, axes=(1.0, 0.1, 0.1))
    grouping._check_span(cset, "RANSAC")
    params = AlgorithmParams(n_ransac=300, rng_seed=seed)
    assert_same_result(group_ransac(cset, params), ransac_loop_oracle(cset, params))
    src, tgt = cset.source_points, cset.target_points
    threshold = params.d_ransac_pr * cset.source_resolution_pr
    samples = grouping._draw_samples(np.random.default_rng(seed), 60, 300)
    rot, tra, _ = _fit_rigid_stack(src[samples], tgt[samples])
    screen = grouping._consensus_screen(src, tgt, threshold, grouping._squared_limit(threshold))
    _, margin = grouping._screen_rows(screen, rot, tra, _check_rigid_stack(rot, tra))
    assert np.isinf(margin).any() and np.isfinite(margin).any()


@pytest.mark.parametrize("seed", range(3))
def test_screened_values_that_overflow_are_recounted(seed):
    # Beyond the span check, |p'|^2 + |q'|^2 and q'^T R p' overflow, so the
    # screened values are inf or NaN, while the residuals of the identity
    # motion are small: every inlier must still be counted.
    cset = scaled_set(0, 40, 1e154, 1e150)
    src, tgt = cset.source_points, cset.target_points
    limit = grouping._squared_limit(5e150)
    rot = np.repeat(np.eye(3)[None], 2, axis=0)
    tra = np.zeros((2, 3))
    tra[1, 0] = 1e150 * seed
    screen = grouping._consensus_screen(src, tgt, 5e150, limit)
    coef, _ = grouping._screen_rows(screen, rot, tra, _check_rigid_stack(rot, tra))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(coef @ grouping._screen_table(screen, src, tgt)).all()
    # The outliers' squared residuals overflow too, to inf: outside the limit.
    with np.errstate(over="ignore"):
        expected = chunk_counts(rot, tra, src, tgt, limit)
        counts = grouping._consensus_counts(screen, rot, tra, _check_rigid_stack(rot, tra), src, tgt)
    assert expected[0] >= 20
    assert counts.tolist() == expected.tolist()


@pytest.mark.parametrize("scale", [1e-154, 1e-158, 1e-159])
@pytest.mark.parametrize("seed", range(3))
def test_ransac_matches_loop_with_a_subnormal_limit(scale, seed):
    # Residuals of about a thousandth of the scale: their squares, and the
    # squared limit, are subnormal. At 1e-154 the screen decides every pair,
    # at 1e-158 it leaves some to the recount, and at 1e-159 its margin is
    # above the limit, so every hypothesis is recounted.
    cset = scaled_set(seed, 60, scale, scale / 1000)
    threshold = 5 * cset.source_resolution_pr
    assert 0.0 < grouping._squared_limit(threshold) < np.finfo(np.float64).tiny
    params = AlgorithmParams(n_ransac=300, rng_seed=seed)
    result = group_ransac(cset, params)
    assert len(result) > 0
    assert_same_result(result, ransac_loop_oracle(cset, params))


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_counts_across_column_blocks_match_the_exact_consensus(rows):
    # n > 1927 splits the table into two column blocks at the package's
    # BLOCK_BYTES; 1-row and 7-row blocks (103 hypotheses leave an uneven
    # last one) cut it into blocks of 185 and 1297 columns.
    model = make_test_model("torus", 3000, seed=1)
    scene, truth = generate_scene(model, SceneRecipe(rotation_seed=1, rng_seed=2))
    cset = generate_correspondences(model, scene, truth, CorrespondenceRecipe(
        n_total=2100, inlier_ratio=0.3, rng_seed=3))
    src, tgt = cset.source_points, cset.target_points
    threshold = 5 * cset.source_resolution_pr
    limit = grouping._squared_limit(threshold)
    samples = grouping._draw_samples(np.random.default_rng(0), len(cset), 102)
    rot, tra, _ = _fit_rigid_stack(src[samples], tgt[samples])
    rot = np.concatenate([truth.rotation[None], rot])
    tra = np.concatenate([truth.translation[None], tra])
    screen = grouping._consensus_screen(src, tgt, threshold, limit)
    budget = grouping.BLOCK_BYTES if rows is None else src.nbytes * rows
    with mock.patch.object(grouping, "BLOCK_BYTES", budget):
        counts = grouping._consensus_counts(screen, rot, tra, _check_rigid_stack(rot, tra), src, tgt)
    expected = np.count_nonzero(grouping._exact_consensus(rot, tra, src, tgt, limit), axis=1)
    assert counts.tolist() == expected.tolist()
    assert counts[0] > 255  # more than a uint8 holds


def test_a_block_compares_with_the_largest_margin_of_its_rows():
    # One block of seven hypotheses: six exact turns, whose margins are
    # about 4e-4, and a stretch diag(1 + 2e-10, 1, 1 - 2e-10), within the
    # 1e-9 rotation rule, whose Gram error makes its margin about 14. The
    # screen takes |p'|^2 for |R p'|^2, which for the stretch is 2e-10 x'^2
    # too small, up to 4 at the set's x' of 1e5. Each target is the
    # stretched source moved 0.5 to 2 past the squared limit: the screen
    # puts the stretch's pairs inside by more than the turns' margins, so
    # only the block's largest margin leaves them to the recount. The
    # largest |t'| cannot do this: a pair near the limit has |t'| at most
    # P + Q + threshold, so the margins it gives differ by a factor of 4 or
    # less, and the screen's rounding stays well inside the smallest.
    rng = np.random.default_rng(0)
    n, threshold = 200, 5.0
    limit = grouping._squared_limit(threshold)
    src = np.zeros((n, 3))
    src[:, 0] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5e5, 1e5, n)
    src[:, 1:] = rng.uniform(-10.0, 10.0, (n, 2))
    stretch = np.diag([1.0 + 2e-10, 1.0, 1.0 - 2e-10])
    tgt = src @ stretch.T
    tgt[:, 1] -= np.sqrt(limit + rng.uniform(0.5, 2.0, n))
    turns = QUARTER_TURNS[:3]
    rot = np.concatenate([turns, stretch[None], turns])
    tra = np.zeros((len(rot), 3))
    tra[4:] = rng.normal(size=(3, 3))
    assert len(list(grouping._row_blocks(len(rot), src.nbytes))) == 1
    error = _check_rigid_stack(rot, tra)
    screen = grouping._consensus_screen(src, tgt, threshold, limit)
    coef, margin = grouping._screen_rows(screen, rot, tra, error)
    screened = coef @ grouping._screen_table(screen, src, tgt)
    exact = grouping._exact_consensus(rot, tra, src, tgt, limit)
    smaller = np.delete(margin, 3).max()
    assert margin[3] > 1e4 * smaller
    # Pairs the smallest margins would decide, and decide wrongly.
    assert np.count_nonzero((screened[3] < -smaller) & ~exact[3]) > n // 2
    counts = grouping._consensus_counts(screen, rot, tra, error, src, tgt)
    assert counts.tolist() == np.count_nonzero(exact, axis=1).tolist()
