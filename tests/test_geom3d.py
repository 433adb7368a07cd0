import numpy as np
import pytest

from corrgroup import (
    AmbiguousFrameError,
    DegenerateSampleError,
    InsufficientSupportError,
    PointCloud,
    RigidTransform,
    apply_transform,
    compute_resolution,
    estimate_lrf,
    estimate_rigid_transform,
)
from corrgroup.synthbench import random_rotation


def grid_cloud(side=5, spacing=1.0):
    axis = np.arange(side) * spacing
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    return PointCloud(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))


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
        pts[50] = pts[10]  # duplicate point: nearest distinct neighbor at distance 0
        assert compute_resolution(PointCloud(pts)) == pytest.approx(
            brute_force_resolution(pts), abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="insufficient points for resolution"):
            compute_resolution(PointCloud([[0.0, 0.0, 0.0]]))

    def test_subsample_cap_warns(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(500, 3)))
        with pytest.warns(UserWarning, match="subsample"):
            value = compute_resolution(cloud, max_points=100)
        assert value > 0

    def test_cached_property_matches(self):
        cloud = grid_cloud(side=3)
        assert cloud.resolution == compute_resolution(cloud)


class TestRigidTransform:
    def test_identity_roundtrip(self):
        cloud = grid_cloud(side=3)
        out = apply_transform(RigidTransform.identity(), cloud)
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
        out = apply_transform(t, cloud)
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
        identity = t.compose(t.inverse())
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
        residual = est.compose(truth.inverse())
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
