"""Block-batched RANSAC and the stacked rigid fit against the loops they
replace.

``rigid_fit_oracle`` is the scalar fit of one point sample: the closed-form
rule (``horn_oracle``, Horn's unit quaternion) in Python floats and in the
kernel's order of operations, with the SVD rule (``kabsch_rotation``) for
the samples the closed form does not certify. ``ransac_loop_oracle`` is
RANSAC as one fit, one ``apply`` and one residual norm per iteration. Both
must agree with the package bit for bit: inlier indices,
``rotation.tobytes()`` and ``translation.tobytes()``. Integer-grid keypoints
give duplicate keypoints, collinear (degenerate) samples and exact consensus
ties, so the earliest-iteration tie rule is exercised. ``kabsch_oracle``, the
SVD fit of every sample, is the tolerance oracle of the closed form.

``scalar_draw`` is one iteration's sample, drawn with a scalar
``Generator.integers`` call and the skip rule in Python ints.
``grouping._draw_samples`` must give the same samples in blocks of any size
and leave the generator in the same state, and its map from draws to
triples must be one-to-one.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgroup import (
    AlgorithmParams,
    CorrespondenceSet,
    RigidTransform,
    estimate_rigid_transform,
    geom3d,
    group_ransac,
    grouping,
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


def nan_sqrt(v):
    """``math.sqrt`` with numpy's NaN for negative and NaN arguments."""
    return math.sqrt(v) if v >= 0.0 else math.nan


def horn_oracle(cross):
    """The closed-form rotation of one cross-covariance H, in Python floats;
    None when the rule does not certify it."""
    entries = cross.ravel().tolist()
    if not all(map(math.isfinite, entries)) or not any(entries):
        return None
    scale = math.frexp(max(abs(v) for v in entries))[1]
    sxx, sxy, sxz, syx, syy, syz, szx, szy, szz = (math.ldexp(v, -scale) for v in entries)
    ss = sxx * sxx
    for v in (sxy, sxz, syx, syy, syz, szx, szy, szz):
        ss = ss + v * v
    det = sxx * (syy * szz - syz * szy) - sxy * (syx * szz - syz * szx) + sxz * (syx * szy - syy * szx)
    n01, n02, n03 = syz - szy, szx - sxz, sxy - syx
    n12, n13, n23 = sxy + syx, szx + sxz, syz + szy
    a = [[sxx + syy + szz, n01, n02, n03], [n01, sxx - syy - szz, n12, n13],
         [n02, n12, syy - sxx - szz, n23], [n03, n13, n23, szz - sxx - syy]]

    def minors(r0, r1):
        return {(i, j): a[r0][i] * a[r1][j] - a[r0][j] * a[r1][i] for i in range(4) for j in range(i + 1, 4)}

    top, low = minors(0, 1), minors(2, 3)
    c0 = (((((top[0, 1] * low[2, 3] - top[0, 2] * low[1, 3]) + top[0, 3] * low[1, 2])
            + top[1, 2] * low[0, 3]) - top[1, 3] * low[0, 2]) + top[2, 3] * low[0, 1])
    c2 = -2.0 * ss
    c1 = -8.0 * det
    floor = geom3d.HORN_CERTIFY * geom3d.HORN_CERTIFY * (ss * ss * ss)

    # The start: the biquadratic's root raised by 2^-20 where f, f' and f''
    # are positive there, sqrt(3) |H|_F otherwise.
    x = nan_sqrt(0.5 * (nan_sqrt(c2 * c2 - 4.0 * c0) - c2)) * (1.0 + 2.0 ** -20)
    t = x * x
    if not ((((t + c2) * x + c1) * x + c0 > 0.0) and ((4.0 * t + 2.0 * c2) * x + c1 > 0.0)
            and (12.0 * t + 2.0 * c2 > 0.0)):
        x = math.sqrt(3.0 * ss)
    # Newton: a step of at most 1e-10 x is followed by one more.
    final = False
    for _ in range(geom3d._HORN_MAX_STEPS):
        t = x * x
        slope = (4.0 * t + 2.0 * c2) * x + c1
        if slope * slope < floor:
            return None
        step = (((t + c2) * x + c1) * x + c0) / slope
        x = x - step
        if final:
            break
        final = not abs(step) > geom3d._HORN_STEP_TOL * x
    else:
        return None

    for i in range(4):
        a[i][i] = a[i][i] - x
    best = best_sq = None
    for pair, cols in (((2, 3), (0, 1)), ((0, 1), (2, 3))):
        minor = minors(*pair)
        for row in cols[::-1]:
            column = []
            for i in range(4):
                k0, k1, k2 = (c for c in range(4) if c != i)
                entry = a[row][k0] * minor[k1, k2] - a[row][k1] * minor[k0, k2] + a[row][k2] * minor[k0, k1]
                column.append(-entry if i % 2 else entry)
            sq = ((column[0] * column[0] + column[1] * column[1]) + column[2] * column[2]) + column[3] * column[3]
            if best is None or sq > best_sq:
                best, best_sq = column, sq
    if not floor <= best_sq < math.inf:
        return None

    w, x, y, z = best
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    norm = ((ww + xx) + yy) + zz
    two = 2.0 / norm
    return np.array([
        [((ww + xx) - (yy + zz)) / norm, (x * y - w * z) * two, (x * z + w * y) * two],
        [(x * y + w * z) * two, ((ww + yy) - (xx + zz)) / norm, (y * z - w * x) * two],
        [(x * z - w * y) * two, (y * z + w * x) * two, ((ww + zz) - (xx + yy)) / norm],
    ])


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
    certifies the sample, the SVD rule otherwise; None when degenerate."""
    fit = centered_fit(src, tgt)
    if fit is None:
        return None
    src_mean, tgt_mean, cross = fit
    rot = horn_oracle(cross)
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
HORN_KINDS = ["turn", "half-turn", "mirror", "collinear", "coincident"]


def horn_sample(seed, m, kind, noise, scale):
    """A sample of m pairs: a random turn, a half turn (quaternion w = 0), a
    mirror image, targets on a line or all at one point, each with Gaussian
    noise of ``noise``; both sides times ``scale`` and moved by 1e6 spreads."""
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


def horn_matrix(h):
    """Horn's 4 x 4 matrix of a 3 x 3 cross-covariance."""
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = h
    return np.array([[sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
                     [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
                     [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
                     [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy]])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([3, 4, 10, 100]), kind=st.sampled_from(HORN_KINDS),
       noise=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1]), scale=st.sampled_from([1.0, 1e-160, 1e150]))
@example(seed=0, m=3, kind="half-turn", noise=0.0, scale=1.0)
@example(seed=0, m=10, kind="mirror", noise=0.0, scale=1e-160)
@example(seed=0, m=4, kind="collinear", noise=0.0, scale=1e150)
def test_certified_fits_reach_the_svd_fit(seed, m, kind, noise, scale):
    # Near 1e150 the products of H are near the overflow edge; near 1e-160
    # H is subnormal.
    src, tgt = horn_sample(seed, m, kind, noise, scale)
    expected = rigid_fit_oracle(src, tgt)
    rot, tra, fitted = _fit_rigid_stack(src[None], tgt[None])
    assert fitted.tolist() == [expected is not None]
    if expected is None:
        return
    assert rot[0].tobytes() == expected[0].tobytes() and tra[0].tobytes() == expected[1].tobytes()
    cross = centered_fit(src, tgt)[2]
    svd, svd_tra = kabsch_oracle(src, tgt)
    if not geom3d._horn_rotations(cross[None])[1][0]:
        assert rot[0].tobytes() == svd.tobytes() and tra[0].tobytes() == svd_tra.tobytes()
        return
    # H at unit norm, exactly scaled first so that a subnormal H keeps its bits.
    h = np.ldexp(cross, -np.frexp(np.abs(cross).max())[1])
    h /= np.linalg.norm(h)
    lam = np.linalg.eigvalsh(horn_matrix(h))[::-1]
    gap = lam[0] - lam[1]
    product = gap * (lam[0] - lam[2]) * (lam[0] - lam[3])
    # The rotation: rounding of a few ulps, plus the error the root's
    # rounding puts into the eigenvector, eps / (gap (l1 - l2)(l1 - l3)(l1 - l4)).
    assert np.abs(rot[0] - svd).max() <= 128 * EPS * (1.0 + 1.0 / (gap * product))
    # The least-squares objective |P|^2 + |Q|^2 - 2 tr(R H): tr(R H) within
    # the rounding of R's entries.
    assert np.trace(rot[0] @ h) >= np.trace(svd @ h) - 32 * EPS


def assert_stack_matches_scalar_fits(src, tgt):
    rot, tra, fitted = _fit_rigid_stack(src, tgt)
    expected = [rigid_fit_oracle(s, t) for s, t in zip(src, tgt)]
    assert fitted.tolist() == [e is not None for e in expected]
    kept = [e for e in expected if e is not None]
    assert rot.tobytes() == np.array([r for r, _ in kept]).reshape(-1, 3, 3).tobytes()
    assert tra.tobytes() == np.array([t for _, t in kept]).reshape(-1, 3).tobytes()


def test_closed_form_and_svd_rows_are_both_covered():
    # Half turns and noisy mirrors are certified; targets on a line or at one
    # point are not, and take the SVD rule.
    src, tgt = (np.array(side) for side in zip(*[
        horn_sample(seed, 10, kind, noise, 1.0) for seed in range(4)
        for kind, noise in (("half-turn", 0.0), ("mirror", 0.1), ("collinear", 0.0), ("coincident", 0.0))]))
    cross = np.array([centered_fit(s, t)[2] for s, t in zip(src, tgt)])
    assert geom3d._horn_rotations(cross)[1].tolist() == [True, True, False, False] * 4
    assert_stack_matches_scalar_fits(src, tgt)


def test_a_triple_top_eigenvalue_takes_the_svd_rule_with_its_determinant_fix():
    # A regular octahedron and its mirror image: H = 2 diag(1, 1, -1), whose
    # Horn matrix has eigenvalues 2, 2, 2 and -6.
    src = np.vstack([np.eye(3), -np.eye(3)]) + 1.0
    tgt = src @ MIRROR.T
    cross = centered_fit(src, tgt)[2]
    assert not geom3d._horn_rotations(cross[None])[1][0]
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
    share of the spread (1e-3 down to 1e-15, and 0), then one with a repeated
    point, one on the line with a repeated point and one with no spread at
    all; and random (k, m, 3) targets. Also returns the shares."""
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
    # Offsets of 1e-3 of the spread pass the screen without an SVD; at 1e-7
    # and below the screen passes nothing, and the SVD rule decides.
    src, _, shares = near_collinear_stack(seed, 3, 1.0, 0.0)
    screened = geom3d._surely_not_collinear(src - src.mean(axis=1)[:, None, :])
    assert screened[0]
    assert not screened[[k for k, share in enumerate(shares) if share <= 1e-7]].any()
    assert not screened[-1]


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
        counts = grouping._consensus_counts(screen, rots, tras, src, tgt)
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
    # The last call is the winner's mask; the others are recounts.
    assert sizes[-1] == 1 and sum(sizes[:-1]) > 0
    assert_same_result(result, ransac_loop_oracle(cset, params))


def test_a_screen_that_decides_every_pair_recounts_nothing():
    # Far from the limit the screen decides: only the winner's mask is computed.
    assert recounted(random_set(1000), AlgorithmParams(n_ransac=2000))[1] == [1]


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
    _, margin = grouping._screen_rows(
        grouping._consensus_screen(src, tgt, threshold, grouping._squared_limit(threshold)), rot, tra)
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
    coef, _ = grouping._screen_rows(screen, rot, tra)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(coef @ grouping._screen_table(screen, src, tgt)).all()
    # The outliers' squared residuals overflow too, to inf: outside the limit.
    with np.errstate(over="ignore"):
        expected = chunk_counts(rot, tra, src, tgt, limit)
        counts = grouping._consensus_counts(screen, rot, tra, src, tgt)
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
