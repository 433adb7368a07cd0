import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgroup import (
    AmbiguousFrameError,
    DegenerateSampleError,
    InsufficientSupportError,
    PointCloud,
    RigidTransform,
    compute_resolution,
    estimate_lrf,
    estimate_rigid_transform,
)
from corrgroup.geom3d import _check_rigid_stack, _rotation_faults
from corrgroup.synthbench import random_rotation


def grid_cloud(side=5, spacing=1.0):
    axis = np.arange(side) * spacing
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    return PointCloud(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))


def inverse(t):
    """The rigid motion that undoes ``t``."""
    return RigidTransform(t.rotation.T, -(t.rotation.T @ t.translation))


def compose(a, b):
    """The rigid motion of applying ``b``, then ``a``."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def brute_force_resolution(points):
    n = len(points)
    dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    return dists.min(axis=1).mean()


class TestResolution:
    def test_uniform_grid_equals_spacing(self):
        assert compute_resolution(grid_cloud(spacing=1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_two_points(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert compute_resolution(cloud) == pytest.approx(3.0, abs=1e-15)

    def test_matches_linear_scan_on_sphere(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(2000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert compute_resolution(PointCloud(pts)) == pytest.approx(
            brute_force_resolution(pts), abs=1e-12)

    def test_matches_linear_scan_with_duplicates(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 3))
        pts[50] = pts[10]  # duplicate point: nearest other point at distance 0
        assert compute_resolution(PointCloud(pts)) == pytest.approx(
            brute_force_resolution(pts), abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="insufficient points for resolution"):
            compute_resolution(PointCloud([[0.0, 0.0, 0.0]]))

    def test_cached_property_matches(self):
        cloud = grid_cloud(side=3)
        assert cloud.resolution == compute_resolution(cloud)


class TestRigidTransform:
    def test_identity_roundtrip(self):
        cloud = grid_cloud(side=3)
        out = PointCloud(RigidTransform.identity().apply(cloud.points))
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), [0.0, 0.0, 5.0])
        np.testing.assert_allclose(t.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 8.0], atol=1e-15)

    def test_rotation_about_z(self):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = RigidTransform(rot, np.zeros(3))
        np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(60, 3)))
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        out = PointCloud(t.apply(cloud.points))
        before = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
        after = np.linalg.norm(out.points[:, None] - out.points[None], axis=2)
        assert np.abs(before - after).max() < 1e-9
        assert len(out) == len(cloud)

    def test_rejects_improper_rotation(self):
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflect, np.zeros(3))

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(3)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        identity = compose(t, inverse(t))
        np.testing.assert_allclose(identity.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(identity.translation, 0.0, atol=1e-12)


class TestEstimateRigidTransform:
    def test_identical_sets_give_identity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(6, 3))
        t = estimate_rigid_transform(pts, pts)
        assert np.abs(t.rotation - np.eye(3)).max() < 1e-9
        assert np.linalg.norm(t.translation) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_recovers_known_transform(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(3, 3))
        truth = RigidTransform(random_rotation(rng), rng.normal(size=3))
        est = estimate_rigid_transform(src, truth.apply(src))
        assert np.abs(est.rotation - truth.rotation).max() < 1e-9
        assert np.linalg.norm(est.translation - truth.translation) < 1e-9

    def test_recovery_composes_to_identity(self):
        rng = np.random.default_rng(40)
        src = rng.normal(size=(5, 3))
        truth = RigidTransform(random_rotation(rng), rng.normal(size=3))
        est = estimate_rigid_transform(src, truth.apply(src))
        residual = compose(est, inverse(truth))
        assert np.linalg.norm(residual.rotation - np.eye(3)) < 1e-9
        assert np.linalg.norm(residual.translation) < 1e-9

    def test_collinear_sample_rejected(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(DegenerateSampleError, match="degenerate sample"):
            estimate_rigid_transform(src, src + 1.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_rigid_transform(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_reflection_corrected_under_noise(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(4, 3))
        tgt = rng.normal(size=(4, 3))  # unrelated sets can provoke a reflection
        est = estimate_rigid_transform(src, tgt)
        assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)


def planar_ellipse_cloud(n=400, seed=0):
    # Elliptical so the two in-plane covariance directions are distinct.
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(n))
    a = rng.uniform(0, 2 * np.pi, n)
    return PointCloud(np.column_stack([1.6 * r * np.cos(a), r * np.sin(a), np.zeros(n)]))


class TestEstimateLrf:
    def test_planar_support_normal_axis(self):
        cloud = planar_ellipse_cloud()
        frame = estimate_lrf(cloud, [0.0, 0.0, 0.0], support_radius=2.0)
        # z row of the frame is the plane normal, up to the sign rule
        assert abs(abs(frame.axes[2] @ [0.0, 0.0, 1.0]) - 1.0) < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_repeatable_under_rotation(self, seed):
        # Anisotropic blob queried off-centroid: every axis has decisive
        # sign votes, so the frame must rotate exactly with the cloud.
        rng = np.random.default_rng(100 + seed)
        pts = rng.normal(size=(400, 3)) * [1.6, 1.0, 0.5]
        cloud = PointCloud(pts)
        q = random_rotation(rng)
        center = np.array([0.4, -0.3, 0.15])
        frame = estimate_lrf(cloud, center, 2.0)
        rotated = PointCloud(cloud.points @ q.T)
        frame_rot = estimate_lrf(rotated, q @ center, 2.0)
        np.testing.assert_allclose(frame_rot.axes, frame.axes @ q.T, atol=1e-6)

    def test_insufficient_support(self):
        cloud = PointCloud(np.eye(3) * 10.0)
        with pytest.raises(InsufficientSupportError, match="insufficient support"):
            estimate_lrf(cloud, [0.0, 0.0, 0.0], 1.0)

    def test_ambiguous_frame_on_symmetric_support(self):
        # Perfectly symmetric square grid: the two in-plane eigenvalues tie.
        axis = np.linspace(-1, 1, 21)
        gx, gy = np.meshgrid(axis, axis)
        cloud = PointCloud(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
        with pytest.raises(AmbiguousFrameError, match="ambiguous frame"):
            estimate_lrf(cloud, [0.0, 0.0, 0.0], 5.0)

    def test_right_handed(self):
        frame = estimate_lrf(planar_ellipse_cloud(), [0.0, 0.0, 0.0], 2.0)
        assert np.linalg.det(frame.axes) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# The proper-rotation rule's arithmetic
# ---------------------------------------------------------------------------

def rotation_rule_oracle(m):
    """The proper-rotation rule on one 3 x 3 matrix in Python floats: the
    verdicts (non-finite, M M^T = I, det +1, within 1e-9) and the largest
    |entry| of M M^T - I. Each Gram entry is (m_i0 m_j0 + m_i1 m_j1) + m_i2 m_j2,
    the determinant the cofactor expansion along the first row, and a
    non-finite matrix fails the first check only, with error 0."""
    rows = [[float(x) for x in row] for row in m]
    if not all(math.isfinite(x) for row in rows for x in row):
        return (True, False, False), 0.0
    gaps = []
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            gram = (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]
            gaps.append(abs(gram - 1.0 if i == j else gram))
    error = math.nan if any(math.isnan(g) for g in gaps) else max(gaps)
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)
    return (False, error > 1e-9, not abs(det - 1.0) <= 1e-9), error


@st.composite
def rule_matrices(draw):
    """One 3 x 3 matrix: a rotation moved by about 1e-9 (either side of the
    bound), a reflection, entries of any size (products that overflow), or a
    rotation with a non-finite entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["near", "mirror", "wide", "non-finite"]))
    m = random_rotation(rng)
    if kind == "near":
        m = m + 10.0 ** draw(st.floats(-10.5, -8.5)) * rng.uniform(-1.0, 1.0, (3, 3))
    elif kind == "mirror":
        m = -m
    elif kind == "wide":
        m = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-200.0, 200.0, (3, 3))
    else:
        m[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return m


def assert_rule_rows(stack):
    """The rule's masks and errors on ``stack`` are the oracle's, row by row,
    and each row gets them alone as in the stack."""
    faults, error = _rotation_faults(stack)
    for k, row in enumerate(stack):
        verdicts, row_error = rotation_rule_oracle(row)
        assert tuple(faults[:, k].tolist()) == verdicts
        np.testing.assert_array_equal(error[k], row_error)  # bit for bit; NaN equals NaN
        alone_faults, alone_error = _rotation_faults(stack[k:k + 1])
        assert alone_faults[:, 0].tolist() == faults[:, k].tolist()
        assert alone_error.tobytes() == error[k:k + 1].tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(rule_matrices(), min_size=1, max_size=6))
def test_rotation_rule_is_fixed_order_arithmetic_on_each_row(matrices):
    stack = np.array(matrices)
    before = stack.copy()
    assert_rule_rows(stack)
    # The transposed views RigidTransform's check passes.
    assert_rule_rows(stack.transpose(0, 2, 1))
    np.testing.assert_array_equal(stack, before)  # a non-finite row is not overwritten


@settings(max_examples=100, deadline=None)
@given(st.lists(rule_matrices(), min_size=1, max_size=6))
def test_transform_check_hands_on_the_error_of_the_transposed_rule(matrices):
    rot = np.array(matrices)
    verdicts = [rotation_rule_oracle(r.T) for r in rot]
    try:
        error = _check_rigid_stack(rot, np.zeros((len(rot), 3)))
    except ValueError:
        assert any(any(v) for v, _ in verdicts)
    else:
        assert not any(any(v) for v, _ in verdicts)
        np.testing.assert_array_equal(error, [e for _, e in verdicts])
