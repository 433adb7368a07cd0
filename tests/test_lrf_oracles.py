"""The stacked local-frame kernel and the batched keypoint walk against the
one-centre rule and the one-at-a-time loop they replace.

``lrf_oracle`` is the scalar frame estimate as it stood before the kernel:
one full scan of the cloud per centre. Every kernel row must agree with it
bit for bit (``axes.tobytes()``) and in its verdict. ``walk_oracle`` is the
generator's old keypoint loop over that oracle.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgroup import (
    AmbiguousFrameError,
    CorrespondenceRecipe,
    InsufficientSupportError,
    LocalReferenceFrame,
    PointCloud,
    RigidTransform,
    estimate_lrf,
    generate_correspondences,
    geom3d,
    make_test_model,
    synthbench,
)
from corrgroup.geom3d import (
    LRF_AMBIGUOUS,
    LRF_FAULT,
    LRF_INSUFFICIENT,
    LRF_OK,
    estimate_lrf_stack,
)


def lrf_oracle(cloud, center, support_radius):
    """The one-centre frame rule: a LocalReferenceFrame, or the error it raises."""
    ctr = np.asarray(center, dtype=np.float64).reshape(3)
    if support_radius <= 0:
        raise ValueError("support_radius must be positive")
    d = np.linalg.norm(cloud.points - ctr, axis=1)
    mask = d <= support_radius
    if int(mask.sum()) < 5:
        raise InsufficientSupportError("insufficient support")

    offsets = cloud.points[mask] - ctr
    weights = support_radius - d[mask]
    total = weights.sum()
    if total <= 0.0:
        raise AmbiguousFrameError("ambiguous frame")
    cov = np.einsum("n,ni,nj->ij", weights, offsets, offsets) / total

    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0.0 else 1.0

    if ratio(evals[0], evals[1]) > 0.99 or ratio(evals[1], evals[2]) > 0.99:
        raise AmbiguousFrameError("ambiguous frame")

    x = evecs[:, 2]
    z = evecs[:, 0]
    if np.count_nonzero(offsets @ x >= 0) < np.count_nonzero(offsets @ x < 0):
        x = -x
    if np.count_nonzero(offsets @ z >= 0) < np.count_nonzero(offsets @ z < 0):
        z = -z
    y = np.cross(z, x)
    return LocalReferenceFrame(np.vstack([x, y, z]))


def oracle_row(cloud, center, support_radius):
    """(verdict, axes bytes or None) of the oracle at one centre."""
    try:
        frame = lrf_oracle(cloud, center, support_radius)
    except InsufficientSupportError:
        return LRF_INSUFFICIENT, None
    except AmbiguousFrameError:
        return LRF_AMBIGUOUS, None
    except ValueError:
        return LRF_FAULT, None
    return LRF_OK, frame.axes.tobytes()


def walk_oracle(model, recipe):
    """(chosen indices, frames) of the generator's one-at-a-time keypoint loop."""
    rng = np.random.default_rng(recipe.rng_seed)
    support = synthbench.DEFAULT_LRF_SUPPORT_PR * model.resolution
    chosen, frames = [], []
    for candidate in rng.permutation(len(model)):
        try:
            frame = lrf_oracle(model, model.points[candidate], support)
        except (InsufficientSupportError, AmbiguousFrameError):
            continue
        chosen.append(int(candidate))
        frames.append(frame.axes)
        if len(chosen) == recipe.n_total:
            break
    return chosen, frames


def assert_rows_match(cloud, centers, radius):
    axes, verdict = estimate_lrf_stack(cloud, centers, radius)
    assert axes.shape == (len(centers), 3, 3) and verdict.shape == (len(centers),)
    for i, center in enumerate(centers):
        want, want_bytes = oracle_row(cloud, center, radius)
        assert verdict[i] == want, (i, verdict[i], want)
        if want == LRF_OK:
            assert axes[i].tobytes() == want_bytes, i
    return verdict


AXIS_SHELL = np.vstack([np.eye(3), -np.eye(3)])


def balanced_support(rng, radius):
    """Pairs mirrored through the origin, which split every sign vote evenly,
    and one point on a minor axis of their covariance, which adding it does
    not turn: its projection on the major axis is a rounding residue whose
    sign alone decides that axis's sign vote."""
    half = rng.normal(size=(rng.integers(3, 9), 3)) * [0.4, 0.2, 0.08] * radius
    pairs = np.vstack([half, -half])
    w = radius - np.linalg.norm(pairs, axis=1)
    minor = np.linalg.eigh(np.einsum("n,ni,nj->ij", w, pairs, pairs))[1][:, rng.integers(0, 2)]
    return np.vstack([pairs, 0.3 * radius * minor])


@st.composite
def lrf_cases(draw):
    """(cloud, centres, radius): grids with ties and duplicates, anisotropic
    blobs, exact planes, shells at exactly the radius, balanced supports,
    sparse clouds, optionally offset by 1e6, with centres on and off the
    cloud and radii one ulp either side of a support point's distance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "blob", "plane", "shell", "balanced", "sparse"]))
    n = draw(st.integers(1, 250))
    radius = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    if kind == "grid":
        pts = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
    elif kind == "blob":
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.2, 2.0, size=3)
    elif kind == "plane":
        pts = np.column_stack([rng.normal(size=(n, 2)) * [1.6, 1.0], np.zeros(n)])
    elif kind == "shell":
        pts = np.vstack([radius * AXIS_SHELL, rng.uniform(5.0, 9.0, size=(n % 7, 3))])
    elif kind == "balanced":
        pts = balanced_support(rng, radius)
    else:
        pts = rng.uniform(-6.0, 6.0, size=(min(n, 12), 3))
    offset = draw(st.sampled_from([0.0, 1e6]))
    pts = pts + offset
    k = draw(st.integers(1, 40))
    centers = np.vstack([
        pts[rng.integers(0, len(pts), size=k)],
        pts[rng.integers(0, len(pts), size=k % 3)] + rng.normal(scale=0.3, size=(k % 3, 3)),
    ])
    if kind in ("shell", "balanced"):
        centers[0] = offset
    edge = draw(st.sampled_from([None, "inside", "outside"]))
    if edge is not None and kind != "balanced":
        d = np.linalg.norm(pts - centers[0], axis=1)
        far = d[d > 0]
        if far.size:
            r = float(rng.choice(far))
            radius = r if edge == "inside" else float(np.nextafter(r, 0.0))
    return PointCloud(pts), centers, radius


@settings(max_examples=150, deadline=None)
@given(case=lrf_cases(), tiny_blocks=st.booleans())
def test_kernel_matches_scalar_rule_bitwise(case, tiny_blocks):
    cloud, centers, radius = case
    budget = geom3d._LRF_PAIR_BYTES * 7 if tiny_blocks else geom3d.LRF_BLOCK_BYTES
    with mock.patch.object(geom3d, "LRF_BLOCK_BYTES", budget):
        assert_rows_match(cloud, centers, radius)


@settings(max_examples=100, deadline=None)
@given(case=lrf_cases(), tiny_blocks=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_centres_permutes_every_row(case, tiny_blocks, seed):
    # Every row, ambiguous, insufficient and faulty ones included, whatever
    # the order in which the kernel takes the centres.
    cloud, centers, radius = case
    perm = np.random.default_rng(seed).permutation(len(centers))
    budget = geom3d._LRF_PAIR_BYTES * 7 if tiny_blocks else geom3d.LRF_BLOCK_BYTES
    with mock.patch.object(geom3d, "LRF_BLOCK_BYTES", budget):
        axes, verdict = estimate_lrf_stack(cloud, centers, radius)
        moved_axes, moved_verdict = estimate_lrf_stack(cloud, centers[perm], radius)
    assert moved_verdict.tobytes() == verdict[perm].tobytes()
    assert moved_axes.tobytes() == axes[perm].tobytes()


@settings(max_examples=60, deadline=None)
@given(case=lrf_cases())
def test_estimate_lrf_is_the_kernel_on_one_centre(case):
    cloud, centers, radius = case
    want, want_bytes = oracle_row(cloud, centers[0], radius)
    if want == LRF_OK:
        assert estimate_lrf(cloud, centers[0], radius).axes.tobytes() == want_bytes
    else:
        error = {LRF_INSUFFICIENT: InsufficientSupportError, LRF_AMBIGUOUS: AmbiguousFrameError}[want]
        with pytest.raises(error):
            estimate_lrf(cloud, centers[0], radius)


def test_sign_votes_decided_by_one_rounding_residue():
    for seed in range(200):
        cloud = PointCloud(balanced_support(np.random.default_rng(seed), 1.0))
        assert_rows_match(cloud, np.zeros((1, 3)), 1.0)


def test_support_all_at_radius_is_ambiguous():
    # Six points at exactly the radius: every weight is 0, so the total is.
    cloud = PointCloud(1e6 + 2.0 * AXIS_SHELL)
    verdict = assert_rows_match(cloud, np.full((1, 3), 1e6), 2.0)
    assert verdict[0] == LRF_AMBIGUOUS


def test_one_ulp_outside_is_not_support():
    # Five points, the fifth exactly at distance 3: one ulp less drops it.
    pts = np.array([[0.0, 0, 0], [1, 0.2, 0], [0, 1.1, 0.3], [0.2, 0.1, 1.4], [3, 0, 0]])
    cloud = PointCloud(pts)
    assert assert_rows_match(cloud, pts[:1], 3.0)[0] == LRF_OK
    assert assert_rows_match(cloud, pts[:1], float(np.nextafter(3.0, 0.0)))[0] == LRF_INSUFFICIENT


def test_many_support_sizes_in_one_stack():
    model = make_test_model("plane-with-bumps", 1500, 4)
    centers = model.points[::5]
    verdict = assert_rows_match(model, centers, 15.0 * model.resolution)
    assert (verdict == LRF_OK).mean() > 0.9


def test_kernel_rejects_bad_input():
    cloud = PointCloud(np.eye(3))
    with pytest.raises(ValueError, match="support_radius must be positive"):
        estimate_lrf_stack(cloud, np.zeros((1, 3)), 0.0)
    with pytest.raises(ValueError, match="finite"):
        estimate_lrf_stack(cloud, np.full((1, 3), np.nan), 1.0)
    axes, verdict = estimate_lrf_stack(cloud, np.zeros((0, 3)), 1.0)
    assert axes.shape == (0, 3, 3) and verdict.shape == (0,)


def line_and_blob(n_line=300, n_blob=150, seed=0):
    """Collinear points, whose frames are all ambiguous, beside a random blob."""
    rng = np.random.default_rng(seed)
    line = np.column_stack([np.arange(n_line, dtype=np.float64), np.zeros(n_line), np.zeros(n_line)])
    blob = rng.uniform(0.0, 5.0, size=(n_blob, 3)) + [0.0, 1000.0, 0.0]
    return PointCloud(np.vstack([line, blob]))


def test_shortfall_reports_the_frames_the_loop_found():
    model = line_and_blob()
    support = synthbench.DEFAULT_LRF_SUPPORT_PR * model.resolution
    found = sum(oracle_row(model, p, support)[0] == LRF_OK for p in model.points)
    assert 0 < found < len(model)
    with pytest.raises(ValueError, match=f"^only {found} of {len(model)} keypoints have stable local frames$"):
        generate_correspondences(model, model, RigidTransform.identity(),
                                 CorrespondenceRecipe(n_total=len(model), rng_seed=3))


@pytest.mark.parametrize("model, n_total", [
    (line_and_blob(seed=1), 60),
    (make_test_model("torus", 1200, 2), 300),
])
def test_walk_keeps_the_keypoints_the_loop_kept(model, n_total):
    recipe = CorrespondenceRecipe(n_total=n_total, rng_seed=5)
    chosen, frames = walk_oracle(model, recipe)
    cset = generate_correspondences(model, model, RigidTransform.identity(), recipe)
    got = sorted(zip(map(bytes, cset.source_points), map(bytes, cset.source_frames)))
    want = sorted(zip(map(bytes, model.points[chosen]), map(bytes, np.array(frames))))
    assert got == want


def with_fault_at(model, target):
    """The kernel, with the frame of model point ``target`` broken."""
    real = geom3d.estimate_lrf_stack

    def kernel(cloud, centers, radius):
        axes, verdict = real(cloud, centers, radius)
        hit = (centers == model.points[target]).all(axis=1)
        axes[hit] = 2.0 * np.eye(3)
        verdict[hit] = LRF_FAULT
        return axes, verdict
    return mock.patch.object(synthbench, "estimate_lrf_stack", kernel)


def test_frame_fault_raises_where_the_loop_would_reach_it():
    model = line_and_blob(seed=2)
    recipe = CorrespondenceRecipe(n_total=40, rng_seed=7)
    walk = np.random.default_rng(recipe.rng_seed).permutation(len(model))
    support = synthbench.DEFAULT_LRF_SUPPORT_PR * model.resolution
    _, verdict = estimate_lrf_stack(model, model.points[walk], support)
    passed_before = np.cumsum(verdict == LRF_OK) - (verdict == LRF_OK)
    reached = np.flatnonzero(passed_before < recipe.n_total)
    # The last candidate the loop reaches, and the first it never does,
    # which lies in the same chunk of the walk.
    last, beyond = reached[-1], reached[-1] + 1
    chunk = recipe.n_total + recipe.n_total // 16 + 16
    assert beyond // chunk == last // chunk
    with with_fault_at(model, walk[last]), pytest.raises(ValueError, match="frame rows are not orthonormal"):
        generate_correspondences(model, model, RigidTransform.identity(), recipe)
    clean = generate_correspondences(model, model, RigidTransform.identity(), recipe)
    with with_fault_at(model, walk[beyond]):
        faulted = generate_correspondences(model, model, RigidTransform.identity(), recipe)
    assert faulted.source_frames.tobytes() == clean.source_frames.tobytes()
    assert faulted.target_points.tobytes() == clean.target_points.tobytes()


def generation_peak(model_points, n_total):
    model = make_test_model("torus", model_points, 0)
    model.resolution
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        generate_correspondences(model, model, RigidTransform.identity(),
                                 CorrespondenceRecipe(n_total=n_total, rng_seed=1))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_generation_memory_does_not_grow_with_the_set():
    # Frame temporaries are bounded per block of centres; what remains is
    # the set itself and the k-d tree, well under a mebibyte here.
    assert generation_peak(8000, 2000) - generation_peak(4000, 1000) <= 2**20


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf])
def test_non_finite_radius_is_rejected(radius):
    cloud = make_test_model("sphere", 300, 0)
    center = cloud.points[0]
    with pytest.raises(ValueError, match="^support_radius must be positive and finite$"):
        estimate_lrf(cloud, center, radius)
    with pytest.raises(ValueError, match="^support_radius must be positive and finite$"):
        estimate_lrf_stack(cloud, center[None], radius)
