import numpy as np
import pytest

from corrgroup import (
    AlgorithmParams,
    Correspondence,
    CorrespondenceSet,
    LocalReferenceFrame,
    PointCloud,
    RigidTransform,
    group_3dhv,
    group_gc,
    group_ransac,
    group_si,
    group_st,
    strip_lrfs,
)
from corrgroup.corr_model import pairwise_rigidity
from corrgroup.grouping import hough_votes
from corrgroup.synthbench import (
    CorrespondenceRecipe,
    SceneRecipe,
    generate_correspondences,
    generate_scene,
    make_test_model,
    random_rotation,
)

# ---------------------------------------------------------------------------
# Construction helpers. Sets built here use source_resolution_pr = 1.0, so
# thresholds in resolution units are plain distances.
# ---------------------------------------------------------------------------


def random_transform(rng):
    return RigidTransform(random_rotation(rng), rng.normal(size=3) * 10.0)


def build_set(source, target, *, frames=None, sims=None, nn=None, d2=None, gt=None):
    n = len(source)
    sims = sims if sims is not None else [0.9] * n
    nn = nn if nn is not None else [0.05] * n
    d2 = d2 if d2 is not None else [1.0] * n
    items = tuple(
        Correspondence(
            source[i], target[i], sims[i], nn[i], d2[i],
            source_lrf=frames[i][0] if frames else None,
            target_lrf=frames[i][1] if frames else None,
        )
        for i in range(n)
    )
    return CorrespondenceSet(items, source_resolution_pr=1.0, ground_truth=gt)


def exact_inlier_set(n, seed, *, with_frames=False, scale=20.0):
    """All correspondences agree exactly with one rigid transform."""
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n, 3)) * scale
    truth = random_transform(rng)
    target = truth.apply(source)
    frames = None
    if with_frames:
        frames = []
        for _ in range(n):
            frame = LocalReferenceFrame(random_rotation(rng))
            frames.append((frame, frame.rotated(truth.rotation)))
    return build_set(source, target, frames=frames, gt=truth), truth


def planted_set(n, n_inliers, seed, *, offset=12.0, scale=20.0, with_frames=False):
    """n_inliers exact matches; the rest displaced >= offset from truth."""
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n, 3)) * scale
    truth = random_transform(rng)
    target = truth.apply(source)
    directions = rng.normal(size=(n - n_inliers, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    magnitudes = offset * (1.0 + rng.random(n - n_inliers))
    target[n_inliers:] += directions * magnitudes[:, None]
    frames = None
    if with_frames:
        frames = []
        for i in range(n):
            frame = LocalReferenceFrame(random_rotation(rng))
            if i < n_inliers:
                frames.append((frame, frame.rotated(truth.rotation)))
            else:
                frames.append((frame, LocalReferenceFrame(random_rotation(rng))))
    return build_set(source, target, frames=frames, gt=truth), truth


# ---------------------------------------------------------------------------
# RANSAC
# ---------------------------------------------------------------------------


class TestRansac:
    def test_recovers_planted_inliers_seed_42(self):
        cset, truth = planted_set(100, 30, seed=1234, offset=12.0)
        result = group_ransac(cset, AlgorithmParams(rng_seed=42))
        assert result.inlier_indices == tuple(range(30))
        assert np.abs(result.transform.rotation - truth.rotation).max() < 1e-6
        assert np.linalg.norm(result.transform.translation - truth.translation) < 1e-6

    def test_all_exact_inliers_returned(self):
        cset, _ = exact_inlier_set(40, seed=5)
        result = group_ransac(cset, AlgorithmParams(n_ransac=200, rng_seed=1))
        assert result.inlier_indices == tuple(range(40))

    def test_too_few_correspondences(self):
        cset, _ = exact_inlier_set(2, seed=6)
        with pytest.raises(ValueError, match="too few correspondences"):
            group_ransac(cset, AlgorithmParams())

    def test_deterministic_per_seed(self):
        cset, _ = planted_set(80, 20, seed=7)
        params = AlgorithmParams(n_ransac=500, rng_seed=3)
        a = group_ransac(cset, params)
        b = group_ransac(cset, params)
        assert a.inlier_indices == b.inlier_indices
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)

    def test_different_seeds_allowed_to_differ(self):
        cset, _ = planted_set(60, 15, seed=8)
        a = group_ransac(cset, AlgorithmParams(n_ransac=50, rng_seed=0))
        b = group_ransac(cset, AlgorithmParams(n_ransac=50, rng_seed=1))
        # both must still be valid subsets
        assert set(a.inlier_indices) <= set(range(60))
        assert set(b.inlier_indices) <= set(range(60))


# ---------------------------------------------------------------------------
# Spectral matching
# ---------------------------------------------------------------------------


def st_dense_oracle(cset, params):
    """Same greedy loop as group_st but with a dense eigensolver."""
    n = len(cset)
    if n == 0:
        return ()
    if n == 1:
        return (0,)
    src = cset.source_points
    tgt = cset.target_points
    scores = pairwise_rigidity(src, tgt)
    matrix = np.where(scores >= params.t_st, scores, 0.0)
    np.fill_diagonal(matrix, 0.0)
    if not matrix.any():
        return ()
    evecs = np.linalg.eigh(matrix)[1]
    vector = evecs[:, -1]
    if vector[np.abs(vector).argmax()] < 0:
        vector = -vector
    remaining = np.arange(n)
    accepted = []
    while remaining.size:
        local = int(np.argmax(vector[remaining]))
        if vector[remaining][local] <= 1e-12:
            break
        chosen = int(remaining[local])
        accepted.append(chosen)
        conflict = (
            (src[remaining] == src[chosen]).all(axis=1)
            | (tgt[remaining] == tgt[chosen]).all(axis=1)
        )
        conflict[local] = True
        remaining = remaining[~conflict]
    return tuple(sorted(accepted))


def two_group_set(n_major, n_minor, seed):
    """A consistent major group plus a smaller consistent group that reuses
    the first n_minor source keypoints but maps them through a far-away
    transform (a one-to-many matching conflict)."""
    rng = np.random.default_rng(seed)
    source_major = rng.normal(size=(n_major, 3)) * 20.0
    truth = random_transform(rng)
    decoy = RigidTransform(truth.rotation, truth.translation + 500.0)
    source = np.vstack([source_major, source_major[:n_minor]])
    target = np.vstack([
        truth.apply(source_major),
        decoy.apply(source_major[:n_minor]),
    ])
    return build_set(source, target, gt=truth)


class TestSpectralMatching:
    def test_all_scores_below_cutoff_gives_empty(self):
        # Two correspondences whose segment lengths disagree wildly.
        source = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        target = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        cset = build_set(source, target)
        assert group_st(cset, AlgorithmParams()).inlier_indices == ()

    def test_major_group_beats_minor_group(self):
        cset = two_group_set(8, 3, seed=11)
        result = group_st(cset, AlgorithmParams())
        assert result.inlier_indices == tuple(range(8))
        assert result.inlier_indices == st_dense_oracle(cset, AlgorithmParams())

    def test_single_correspondence_returned(self):
        cset, _ = exact_inlier_set(1, seed=12)
        assert group_st(cset, AlgorithmParams()).inlier_indices == (0,)

    @pytest.mark.parametrize("n_major,n_minor,seed", [
        (6, 3, 0), (7, 4, 1), (8, 4, 2), (5, 2, 3), (9, 3, 4),
    ])
    def test_two_group_sets_match_dense_oracle(self, n_major, n_minor, seed):
        cset = two_group_set(n_major, n_minor, seed)
        params = AlgorithmParams()
        result = group_st(cset, params)
        assert result.inlier_indices == st_dense_oracle(cset, params)
        assert set(result.inlier_indices) <= set(range(n_major))

    def test_conflict_removal_is_one_to_one(self):
        # Two correspondences share a source keypoint; at most one survives.
        rng = np.random.default_rng(13)
        cset, _ = exact_inlier_set(6, seed=14)
        items = list(cset.items)
        dup = items[0]
        items.append(Correspondence(
            dup.source_point, dup.target_point + [40.0, 0, 0],
            0.9, 0.05, 1.0))
        conflicted = CorrespondenceSet(tuple(items), source_resolution_pr=1.0)
        result = group_st(conflicted, AlgorithmParams())
        kept = set(result.inlier_indices)
        assert not ({0, 6} <= kept)

    def test_scores_cover_indices(self):
        cset, _ = exact_inlier_set(5, seed=15)
        result = group_st(cset, AlgorithmParams())
        assert result.scores is not None
        assert set(result.scores) == set(result.inlier_indices)


# ---------------------------------------------------------------------------
# Geometric consistency
# ---------------------------------------------------------------------------


def gc_exhaustive_oracle(cset, params):
    """All-seed maximal cluster via the scalar compatibility test."""
    from corrgroup import distance_compatibility

    n = len(cset)
    threshold = params.t_gc_pr * cset.source_resolution_pr
    best_seed, best_members = None, []
    for seed in range(n):
        members = [
            j for j in range(n)
            if j == seed or distance_compatibility(cset.items[seed], cset.items[j], threshold)[1]
        ]
        if len(members) > len(best_members):
            best_seed, best_members = seed, members
    return tuple(best_members) if best_seed is not None else ()


def gc_separated_set(seed):
    """5 exact inliers plus 5 outliers, all pairwise residuals above t_gc."""
    params = AlgorithmParams()
    for attempt in range(200):
        rng = np.random.default_rng(seed + attempt)
        source = rng.normal(size=(10, 3)) * 20.0
        truth = random_transform(rng)
        target = truth.apply(source)
        target[5:] += rng.normal(size=(5, 3)) * 30.0
        cset = build_set(source, target, gt=truth)
        from corrgroup.corr_model import pairwise_distance_residuals

        residuals = pairwise_distance_residuals(cset.source_points, cset.target_points)
        outlier_rows = residuals[5:]
        mask = np.ones_like(outlier_rows, dtype=bool)
        mask[np.arange(5), np.arange(5, 10)] = False  # self residuals are 0
        if outlier_rows[mask].min() > params.t_gc_pr:
            return cset
    raise AssertionError("could not construct a separated set")


class TestGeometricConsistency:
    def test_single_transform_returns_everything(self):
        cset, _ = exact_inlier_set(25, seed=16)
        assert group_gc(cset, AlgorithmParams()).inlier_indices == tuple(range(25))

    def test_isolated_outliers_excluded(self):
        cset = gc_separated_set(seed=400)
        result = group_gc(cset, AlgorithmParams())
        assert result.inlier_indices == (0, 1, 2, 3, 4)
        assert result.inlier_indices == gc_exhaustive_oracle(cset, AlgorithmParams())

    def test_empty_set(self):
        cset = CorrespondenceSet((), source_resolution_pr=1.0)
        assert group_gc(cset, AlgorithmParams()).inlier_indices == ()

    @pytest.mark.parametrize("seed", range(15))
    def test_random_sets_match_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 13))
        source = rng.normal(size=(n, 3)) * 8.0
        target = rng.normal(size=(n, 3)) * 8.0
        cset = build_set(source, target)
        params = AlgorithmParams()
        assert group_gc(cset, params).inlier_indices == gc_exhaustive_oracle(cset, params)

    def test_tie_prefers_lowest_seed(self):
        # Two pairs, each internally consistent, mutually incompatible.
        source = np.array([[0.0, 0, 0], [1.0, 0, 0], [100.0, 0, 0], [101.0, 0, 0]])
        target = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 50, 0], [0.0, 51 + 40.0, 0]])
        cset = build_set(source, target)
        result = group_gc(cset, AlgorithmParams())
        assert result.inlier_indices == (0, 1)


# ---------------------------------------------------------------------------
# Hough voting
# ---------------------------------------------------------------------------


class TestHoughVoting:
    def test_exact_inliers_vote_identically(self):
        cset, truth = exact_inlier_set(20, seed=17, with_frames=True)
        cloud = PointCloud(cset.source_points)
        votes = hough_votes(cset, cloud)
        expected = truth.apply(cloud.centroid())
        assert np.abs(votes - expected).max() < 1e-9
        result = group_3dhv(cset, AlgorithmParams(), cloud)
        assert result.inlier_indices == tuple(range(20))

    @pytest.mark.parametrize("seed", range(5))
    def test_peak_bin_pure_with_outliers(self, seed):
        cset, _ = planted_set(40, 20, seed=100 + seed, offset=12.0, with_frames=True)
        cloud = PointCloud(cset.source_points)
        result = group_3dhv(cset, AlgorithmParams(), cloud)
        assert set(result.inlier_indices) <= set(range(20))
        assert len(result.inlier_indices) >= 18  # exact votes stay together

    def test_missing_lrf_rejected(self):
        cset, _ = exact_inlier_set(5, seed=18, with_frames=True)
        items = list(cset.items)
        items[2] = Correspondence(
            items[2].source_point, items[2].target_point, 0.9, 0.05, 1.0,
            source_lrf=items[2].source_lrf, target_lrf=None)
        with pytest.raises(ValueError, match="only some records carry frames"):
            CorrespondenceSet(tuple(items), source_resolution_pr=1.0)
        frameless = strip_lrfs(cset)
        with pytest.raises(ValueError, match="LRF required for 3DHV"):
            group_3dhv(frameless, AlgorithmParams(), PointCloud(frameless.source_points))

    def test_empty_set(self):
        cset = CorrespondenceSet((), source_resolution_pr=1.0)
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        assert group_3dhv(cset, AlgorithmParams(), cloud).inlier_indices == ()


# ---------------------------------------------------------------------------
# Search of inliers
# ---------------------------------------------------------------------------


class TestSearchOfInliers:
    def test_all_exact_inliers_kept_with_unit_scores(self):
        cset, _ = exact_inlier_set(30, seed=19, with_frames=True)
        result = group_si(cset, AlgorithmParams())
        assert result.inlier_indices == tuple(range(30))
        assert all(s == 1.0 for s in result.scores.values())

    def test_single_correspondence_kept(self):
        cset, _ = exact_inlier_set(1, seed=20, with_frames=True)
        assert group_si(cset, AlgorithmParams()).inlier_indices == (0,)

    def test_missing_lrf_rejected(self):
        cset, _ = exact_inlier_set(4, seed=21)
        with pytest.raises(ValueError, match="LRF required for SI"):
            group_si(cset, AlgorithmParams())

    def test_outliers_rejected(self):
        cset, _ = planted_set(60, 30, seed=22, offset=12.0, with_frames=True)
        result = group_si(cset, AlgorithmParams())
        assert set(result.inlier_indices) == set(range(30))

    def test_score_bounds(self):
        cset, _ = planted_set(50, 20, seed=23, offset=12.0, with_frames=True)
        result = group_si(cset, AlgorithmParams())
        assert all(0.0 <= s <= 1.0 for s in result.scores.values())


# ---------------------------------------------------------------------------
# Shared properties: determinism and rigid invariance
# ---------------------------------------------------------------------------


def generated_instance(seed=0, n=200, ratio=0.4):
    model = make_test_model("torus", 2500, seed=seed)
    scene, truth = generate_scene(model, SceneRecipe(rotation_seed=seed, rng_seed=seed + 1))
    recipe = CorrespondenceRecipe(
        n_total=n, inlier_ratio=ratio, inlier_jitter_pr=0.5,
        outlier_min_offset_pr=10.0, lrf_noise_deg=5.0, rng_seed=seed + 2)
    return model, generate_correspondences(model, scene, truth, recipe)


def transformed_copy(cset, q_source, q_target):
    items = tuple(
        Correspondence(
            q_source.apply(c.source_point), q_target.apply(c.target_point),
            c.similarity, c.nn_distance, c.second_nn_distance,
            source_lrf=c.source_lrf.rotated(q_source.rotation),
            target_lrf=c.target_lrf.rotated(q_target.rotation),
        )
        for c in cset.items
    )
    return CorrespondenceSet(items, source_resolution_pr=cset.source_resolution_pr)


class TestSharedProperties:
    def test_determinism_across_runs(self):
        model, cset = generated_instance(seed=3)
        params = AlgorithmParams(n_ransac=800, rng_seed=11)
        from corrgroup import run_algorithm

        for name in ("ss", "nnsr", "ransac", "st", "gc", "3dhv", "si"):
            a = run_algorithm(name, cset, params, source_cloud=model)
            b = run_algorithm(name, cset, params, source_cloud=model)
            assert a.inlier_indices == b.inlier_indices, name

    def test_rigid_invariance_of_index_sets(self):
        rng = np.random.default_rng(77)
        model, cset = generated_instance(seed=4)
        q_source = random_transform(rng)
        q_target = random_transform(rng)
        moved = transformed_copy(cset, q_source, q_target)
        moved_cloud = PointCloud(q_source.apply(model.points))
        params = AlgorithmParams(n_ransac=800, rng_seed=5)
        from corrgroup import run_algorithm

        for name in ("st", "gc", "si"):
            base = run_algorithm(name, cset, params, source_cloud=model)
            after = run_algorithm(name, moved, params, source_cloud=moved_cloud)
            assert base.inlier_indices == after.inlier_indices, name

        base = group_ransac(cset, params)
        after = group_ransac(moved, params)
        assert base.inlier_indices == after.inlier_indices

    def test_rigid_invariance_of_hough_peak(self):
        # Vote binning is only invariant when matched votes coincide, so
        # this uses exact inliers (zero jitter, exact frames).
        rng = np.random.default_rng(78)
        cset, _ = planted_set(60, 25, seed=9, offset=12.0, with_frames=True)
        cloud = PointCloud(cset.source_points)
        q_source = random_transform(rng)
        q_target = random_transform(rng)
        moved = transformed_copy(cset, q_source, q_target)
        moved_cloud = PointCloud(q_source.apply(cloud.points))
        params = AlgorithmParams()
        base = group_3dhv(cset, params, cloud)
        after = group_3dhv(moved, params, moved_cloud)
        assert base.inlier_indices == after.inlier_indices

    def test_results_are_index_subsets(self):
        model, cset = generated_instance(seed=6, n=120)
        params = AlgorithmParams(n_ransac=400, rng_seed=1)
        from corrgroup import run_algorithm

        for name in ("ss", "nnsr", "ransac", "st", "gc", "3dhv", "si"):
            result = run_algorithm(name, cset, params, source_cloud=model)
            assert all(0 <= i < len(cset) for i in result.inlier_indices), name
            assert result.inlier_indices == tuple(sorted(set(result.inlier_indices))), name


# ---------------------------------------------------------------------------
# Tie rules on five identical correspondences: every length is 0, every
# residual is 0 and every feature score is equal.
# ---------------------------------------------------------------------------

def identical_set(n=5):
    point = np.array([[1.0, 2.0, 3.0]])
    frames = np.broadcast_to(np.eye(3), (n, 3, 3))
    return CorrespondenceSet.from_arrays(np.repeat(point, n, axis=0), np.repeat(point + 4.0, n, axis=0),
                                         np.full(n, 0.5), np.full(n, 0.1), np.ones(n), 1.0,
                                         source_frames=frames, target_frames=frames)


class TestIdenticalCorrespondences:
    def test_si_keeps_its_kappa_voters_taken_by_index(self):
        # kappa = n - 1 = 4 voters, ties to the lower index; zero lengths
        # score 0, so only a voter's vote for itself counts: 1 / (4 + 4).
        result = group_si(identical_set(), AlgorithmParams())
        assert result.inlier_indices == (0, 1, 2, 3)
        assert result.scores == {i: 1 / 8 for i in range(4)}

    def test_gc_keeps_the_lowest_seed_cluster_of_all_five(self):
        assert group_gc(identical_set(), AlgorithmParams()).inlier_indices == (0, 1, 2, 3, 4)

    def test_st_keeps_none_of_an_all_zero_matrix(self):
        assert group_st(identical_set(), AlgorithmParams()).inlier_indices == ()

    def test_ransac_keeps_none_when_every_sample_is_degenerate(self):
        assert group_ransac(identical_set(), AlgorithmParams(n_ransac=50)).inlier_indices == ()


# ---------------------------------------------------------------------------
# Coordinates whose squared lengths overflow float64
# ---------------------------------------------------------------------------

def scaled_perfect_set(scale, n=40):
    """n perfect matches (target = source, identity frames) at ``scale``."""
    points = np.random.default_rng(0).random((n, 3)) * scale
    frames = np.broadcast_to(np.eye(3), (n, 3, 3))
    return CorrespondenceSet.from_arrays(points, points, np.full(n, 0.9), np.full(n, 0.1), np.full(n, 1.0),
                                         scale, source_frames=frames, target_frames=frames)


OVERFLOW_CHECKED = [(group_st, "ST"), (group_gc, "GC"), (group_si, "SI"), (group_ransac, "RANSAC")]


@pytest.mark.parametrize("algorithm, name", OVERFLOW_CHECKED, ids=["st", "gc", "si", "ransac"])
def test_overflowing_lengths_rejected(algorithm, name):
    with pytest.raises(ValueError, match=f"^{name}: .*overflow float64"):
        algorithm(scaled_perfect_set(1e155), AlgorithmParams())


@pytest.mark.parametrize("algorithm, name", OVERFLOW_CHECKED, ids=["st", "gc", "si", "ransac"])
def test_large_finite_lengths_still_grouped(algorithm, name):
    assert algorithm(scaled_perfect_set(1e150), AlgorithmParams()).inlier_indices == tuple(range(40))
