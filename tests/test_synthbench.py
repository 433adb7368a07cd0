import numpy as np
import pytest

from corrgroup import (
    CorrespondenceRecipe,
    SceneRecipe,
    SimilarityModel,
    generate_correspondences,
    generate_scene,
    judge,
    make_test_model,
)
from corrgroup.synthbench import random_rotation


class TestMakeTestModel:
    def test_sphere_unit_radius(self):
        cloud = make_test_model("sphere", 1000, seed=1)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12

    @pytest.mark.parametrize("kind", ["sphere", "torus", "plane-with-bumps"])
    def test_deterministic(self, kind):
        a = make_test_model(kind, 500, seed=3)
        b = make_test_model(kind, 500, seed=3)
        np.testing.assert_array_equal(a.points, b.points)

    def test_torus_resolution_positive(self):
        cloud = make_test_model("torus", 5000, seed=2)
        assert np.isfinite(cloud.resolution) and cloud.resolution > 0

    @pytest.mark.parametrize("kind", ["sphere", "torus"])
    def test_nondegenerate_covariance(self, kind):
        cloud = make_test_model(kind, 2000, seed=4)
        centered = cloud.points - cloud.points.mean(axis=0)
        evals = np.linalg.eigvalsh(centered.T @ centered / len(cloud))
        assert evals.min() > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            make_test_model("cube", 500, seed=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="n_points"):
            make_test_model("sphere", 50, seed=0)


class TestGenerateScene:
    def test_noise_free_full_density_is_exact_transform(self):
        model = make_test_model("torus", 1500, seed=5)
        scene, truth = generate_scene(model, SceneRecipe(rotation_seed=1, rng_seed=2))
        np.testing.assert_allclose(scene.points, truth.apply(model.points), atol=1e-12)

    def test_downsample_exact_count(self):
        model = make_test_model("sphere", 10000, seed=6)
        recipe = SceneRecipe(rotation_seed=1, downsample_ratio=0.5, rng_seed=3)
        scene, _ = generate_scene(model, recipe)
        assert len(scene) == 5000

    def test_noise_standard_deviation(self):
        model = make_test_model("sphere", 100000, seed=7)
        resolution = model.resolution
        recipe = SceneRecipe(rotation_seed=2, noise_sigma_pr=0.3, rng_seed=4)
        scene, truth = generate_scene(model, recipe)
        displacement = scene.points - truth.apply(model.points)
        per_axis = displacement.std(axis=0, ddof=1) / resolution
        assert np.all(per_axis >= 0.285) and np.all(per_axis <= 0.315)

    def test_deterministic(self):
        model = make_test_model("torus", 800, seed=8)
        recipe = SceneRecipe(rotation_seed=9, noise_sigma_pr=0.1, downsample_ratio=0.7, rng_seed=10)
        a, ta = generate_scene(model, recipe)
        b, tb = generate_scene(model, recipe)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(ta.rotation, tb.rotation)

    def test_downsample_below_two_points_rejected(self):
        model = make_test_model("sphere", 100, seed=0)
        with pytest.raises(ValueError, match="fewer than 2"):
            generate_scene(model, SceneRecipe(downsample_ratio=0.01))

    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            SceneRecipe(noise_sigma_pr=-0.1)
        with pytest.raises(ValueError):
            SceneRecipe(downsample_ratio=0.0)


@pytest.fixture(scope="module")
def torus_instance():
    model = make_test_model("torus", 3000, seed=11)
    scene, truth = generate_scene(model, SceneRecipe(rotation_seed=12, rng_seed=13))
    return model, scene, truth


class TestGenerateCorrespondences:
    def recipe(self, **overrides):
        base = dict(n_total=200, inlier_ratio=0.3, inlier_jitter_pr=0.5,
                    outlier_min_offset_pr=10.0, lrf_noise_deg=5.0, rng_seed=21)
        base.update(overrides)
        return CorrespondenceRecipe(**base)

    def test_exact_inlier_count_at_judging_threshold(self, torus_instance):
        model, scene, truth = torus_instance
        cset = generate_correspondences(model, scene, truth, self.recipe())
        epsilon = 4.0 * cset.source_resolution_pr
        judged = sum(judge(c, truth, epsilon) for c in cset.items)
        assert judged == 60  # round(0.3 * 200), exact by construction

    def test_full_inlier_ratio(self, torus_instance):
        model, scene, truth = torus_instance
        cset = generate_correspondences(model, scene, truth, self.recipe(inlier_ratio=1.0))
        epsilon = 4.0 * cset.source_resolution_pr
        assert all(judge(c, truth, epsilon) for c in cset.items)

    def test_zero_inlier_ratio(self, torus_instance):
        model, scene, truth = torus_instance
        cset = generate_correspondences(model, scene, truth, self.recipe(inlier_ratio=0.0))
        epsilon = 4.0 * cset.source_resolution_pr
        assert not any(judge(c, truth, epsilon) for c in cset.items)

    def test_labels_match_judging_between_jitter_and_offset(self, torus_instance):
        # Any tolerance strictly between the jitter bound and the minimum
        # offset must recover exactly the planted inlier count.
        model, scene, truth = torus_instance
        cset = generate_correspondences(model, scene, truth, self.recipe())
        for epsilon_pr in (0.75, 2.0, 5.0, 9.0):
            epsilon = epsilon_pr * cset.source_resolution_pr
            judged = sum(judge(c, truth, epsilon) for c in cset.items)
            assert judged == 60, epsilon_pr

    def test_displacement_bounds(self, torus_instance):
        model, scene, truth = torus_instance
        recipe = self.recipe()
        cset = generate_correspondences(model, scene, truth, recipe)
        residuals = np.linalg.norm(
            truth.apply(cset.source_points) - cset.target_points, axis=1)
        pr = cset.source_resolution_pr
        inlier_mask = residuals <= recipe.inlier_jitter_pr * pr
        assert inlier_mask.sum() == 60
        assert residuals[~inlier_mask].min() >= recipe.outlier_min_offset_pr * pr

    def test_deterministic(self, torus_instance):
        model, scene, truth = torus_instance
        a = generate_correspondences(model, scene, truth, self.recipe())
        b = generate_correspondences(model, scene, truth, self.recipe())
        np.testing.assert_array_equal(a.source_points, b.source_points)
        np.testing.assert_array_equal(a.target_points, b.target_points)
        np.testing.assert_array_equal(a.similarities, b.similarities)
        np.testing.assert_array_equal(a.source_frames, b.source_frames)

    def test_keypoints_distinct(self, torus_instance):
        model, scene, truth = torus_instance
        cset = generate_correspondences(model, scene, truth, self.recipe())
        assert len(np.unique(cset.source_points, axis=0)) == len(cset)

    def test_all_items_have_frames(self, torus_instance):
        model, scene, truth = torus_instance
        cset = generate_correspondences(model, scene, truth, self.recipe())
        assert cset.has_lrfs

    def test_ratio_channel_has_signal(self, torus_instance):
        model, scene, truth = torus_instance
        cset = generate_correspondences(model, scene, truth, self.recipe(n_total=400))
        d2 = cset.second_nn_distances
        lowe = np.where(d2 > 0, 1.0 - cset.nn_distances / np.where(d2 > 0, d2, 1.0), 0.0)
        epsilon = 4.0 * cset.source_resolution_pr
        judged = np.array([judge(c, truth, epsilon) for c in cset.items])
        assert lowe[judged].mean() > lowe[~judged].mean()

    def test_n_total_exceeding_model_rejected(self, torus_instance):
        model, scene, truth = torus_instance
        with pytest.raises(ValueError, match="n_total exceeds"):
            generate_correspondences(model, scene, truth, self.recipe(n_total=4000))

    def test_sphere_model_supported_via_resampling(self):
        # Spheres have locally symmetric patches; frame-ambiguous keypoints
        # must be skipped, not fatal.
        model = make_test_model("sphere", 3000, seed=30)
        scene, truth = generate_scene(model, SceneRecipe(rotation_seed=31, rng_seed=32))
        cset = generate_correspondences(model, scene, truth, self.recipe(n_total=300))
        assert len(cset) == 300 and cset.has_lrfs

    def test_similarity_ranges_respected(self, torus_instance):
        model, scene, truth = torus_instance
        sim = SimilarityModel(inlier_low=0.8, inlier_high=0.9, outlier_low=0.1, outlier_high=0.2)
        cset = generate_correspondences(
            model, scene, truth, self.recipe(similarity_model=sim))
        epsilon = 4.0 * cset.source_resolution_pr
        judged = np.array([judge(c, truth, epsilon) for c in cset.items])
        sims = cset.similarities
        assert np.all((sims[judged] >= 0.8) & (sims[judged] <= 0.9))
        assert np.all((sims[~judged] >= 0.1) & (sims[~judged] <= 0.2))

    # The generator builds every target from the ground truth and never reads
    # the scene, so the paper's noise and density nuisances leave the set as
    # it is and their sweeps only reseed each level (ROADMAP item 6).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="generate_correspondences does not read the scene")
    @pytest.mark.parametrize("nuisance", [{"noise_sigma_pr": 5.0}, {"downsample_ratio": 0.2}],
                             ids=["noisier", "sparser"])
    def test_the_scene_nuisance_changes_the_set(self, nuisance):
        model = make_test_model("torus", 1500, seed=11)
        sets = []
        for scene_recipe in (SceneRecipe(rotation_seed=12, rng_seed=13),
                             SceneRecipe(rotation_seed=12, rng_seed=13, **nuisance)):
            scene, truth = generate_scene(model, scene_recipe)
            sets.append(generate_correspondences(model, scene, truth, self.recipe(n_total=100)))
        columns = ("source_points", "target_points", "similarities", "source_frames", "target_frames")
        assert any(getattr(sets[0], name).tobytes() != getattr(sets[1], name).tobytes() for name in columns)

    def test_low_offset_warns(self):
        with pytest.warns(UserWarning, match="outlier_min_offset_pr"):
            CorrespondenceRecipe(outlier_min_offset_pr=5.0)

    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            CorrespondenceRecipe(inlier_ratio=1.5)
        with pytest.raises(ValueError):
            CorrespondenceRecipe(n_total=0)


# Each recipe field that must be non-negative or positive rejects NaN by
# name, rather than failing later in generation on non-finite points.
@pytest.mark.parametrize("recipe, field", [
    (SceneRecipe, "noise_sigma_pr"),
    (CorrespondenceRecipe, "inlier_jitter_pr"),
    (CorrespondenceRecipe, "outlier_min_offset_pr"),
    (CorrespondenceRecipe, "lrf_noise_deg"),
])
def test_recipe_rejects_nan(recipe, field):
    with pytest.raises(ValueError, match=field):
        recipe(**{field: float("nan")})


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
@pytest.mark.parametrize("recipe, field", [
    (SceneRecipe, "noise_sigma_pr"),
    (CorrespondenceRecipe, "inlier_jitter_pr"),
    (CorrespondenceRecipe, "outlier_min_offset_pr"),
    (CorrespondenceRecipe, "lrf_noise_deg"),
])
def test_recipe_rejects_infinity(recipe, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        recipe(**{field: value})


@pytest.mark.parametrize("n_total, ratio, planted", [(50, 0.25, 13), (60, 0.25, 15), (10, 0.05, 1), (7, 0.0, 0)])
def test_planted_inliers_round_half_up(n_total, ratio, planted):
    assert CorrespondenceRecipe(n_total=n_total, inlier_ratio=ratio).n_inliers == planted


def test_random_rotation_is_proper():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = random_rotation(rng)
        assert np.abs(q.T @ q - np.eye(3)).max() < 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


# A count must be an int: a float fails later in generation, and True is no count.
@pytest.mark.parametrize("n_total", [2.5, 3.0, True, "3"])
def test_recipe_rejects_non_integer_n_total(n_total):
    with pytest.raises(ValueError, match="^n_total must be positive and an integer"):
        CorrespondenceRecipe(n_total=n_total)
