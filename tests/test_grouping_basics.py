import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgroup import (
    AlgorithmParams,
    Correspondence,
    CorrespondenceSet,
    GroupingResult,
    NonConvergenceError,
    PointCloud,
    group_3dhv,
    group_nnsr,
    group_ss,
    otsu_threshold,
    principal_eigenvector,
)
from corrgroup.grouping import hough_votes


def scored_set(similarities, nn=None, d2=None):
    n = len(similarities)
    nn = nn if nn is not None else [0.1] * n
    d2 = d2 if d2 is not None else [1.0] * n
    rng = np.random.default_rng(0)
    items = tuple(
        Correspondence(rng.normal(size=3), rng.normal(size=3), s, a, b)
        for s, a, b in zip(similarities, nn, d2)
    )
    return CorrespondenceSet(items, source_resolution_pr=1.0)


def otsu_oracle(values):
    """Exhaustive candidate search over the same 255 interior bin edges."""
    vals = np.asarray(values, dtype=np.float64)
    lo, hi = vals.min(), vals.max()
    edges = np.linspace(lo, hi, 257)
    best_edge, best_var = None, -np.inf
    for edge in edges[1:256]:
        left = vals[vals < edge]
        right = vals[vals >= edge]
        if left.size == 0 or right.size == 0:
            continue
        var = left.size * right.size * (left.mean() - right.mean()) ** 2
        if var > best_var:
            best_var, best_edge = var, edge
    return best_edge


class TestOtsu:
    def test_bimodal_split(self):
        values = [0.1] * 5 + [0.9] * 5
        threshold, degenerate = otsu_threshold(values)
        assert not degenerate
        assert 0.1 < threshold < 0.9
        assert threshold == otsu_oracle(values)

    def test_all_equal_degenerate(self):
        threshold, degenerate = otsu_threshold([0.5, 0.5, 0.5])
        assert degenerate and threshold == 0.5

    def test_binary_split_matches_oracle(self):
        values = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        threshold, degenerate = otsu_threshold(values)
        assert not degenerate
        assert threshold == otsu_oracle(values)
        below = [v for v in values if v < threshold]
        assert below == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sets_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(rng.integers(2, 60))
        threshold, degenerate = otsu_threshold(values)
        if not degenerate:
            assert threshold == otsu_oracle(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            otsu_threshold([])


FLOAT_MAX = float(np.finfo(np.float64).max)
NEAR_LIMIT = [FLOAT_MAX, -FLOAT_MAX, 1.7e308, -1.7e308, 1e308, -1e308, 5e307, 0.0, 5e-324]


class TestOtsuNearTheFloatLimit:
    """Values whose span, class sums or variances overflow float64 are scaled
    by a power of two; the threshold still lies in [min, max] and no
    overflow warning is raised."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from(NEAR_LIMIT),
                                     st.floats(min_value=-FLOAT_MAX, max_value=FLOAT_MAX)),
                           min_size=2, max_size=40))
    @example(values=[-1e308, 1e308])
    @example(values=[1e308, 1.7e308])
    @example(values=[FLOAT_MAX, -FLOAT_MAX])
    @example(values=[FLOAT_MAX] * 3 + [1.7e308] * 3)
    def test_threshold_within_the_values_without_warnings(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            threshold, degenerate = otsu_threshold(values)
        assert math.isfinite(threshold)
        assert min(values) <= threshold <= max(values)
        assert degenerate == (min(values) == max(values))

    @pytest.mark.parametrize("seed", range(10))
    def test_scaled_values_match_oracle(self, seed):
        # A power-of-two scale is exact, so the oracle on the scaled values
        # picks the same edge.
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=rng.integers(2, 60)) * FLOAT_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            threshold, _ = otsu_threshold(values)
        assert threshold == np.ldexp(otsu_oracle(np.ldexp(values, -1024)), 1024)

    def test_ss_keeps_the_upper_class(self):
        sims = [-1e308, -5e307, 5e307, 1e308]
        result = group_ss(scored_set(sims), AlgorithmParams())
        assert result.inlier_indices == (2, 3)


class TestPrincipalEigenvector:
    def test_diagonal(self):
        vector, value = principal_eigenvector(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(vector, [1.0, 0.0], atol=1e-9)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_exchange_matrix(self):
        vector, value = principal_eigenvector(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vector, np.full(2, 1 / np.sqrt(2)), atol=1e-9)
        assert value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_solver(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((10, 10))
        m = (m + m.T) / 2.0
        vector, value = principal_eigenvector(m)
        evals, evecs = np.linalg.eigh(m)
        expected = evecs[:, -1]
        expected = expected if expected[np.abs(expected).argmax()] > 0 else -expected
        assert value == pytest.approx(evals[-1], abs=1e-6)
        assert np.abs(vector - expected).max() < 1e-6
        assert (vector >= -1e-12).all()
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        vector, value = principal_eigenvector(np.zeros((4, 4)))
        assert value == 0.0
        np.testing.assert_allclose(vector, 0.5)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            principal_eigenvector(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            principal_eigenvector(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"empty \(0 x 0\)"):
            principal_eigenvector(np.zeros((0, 0)))

    def test_bipartite_star_does_not_converge(self):
        # Exactly symmetric +/- spectrum: power iteration oscillates.
        m = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NonConvergenceError, match="eigen non-convergence"):
            principal_eigenvector(m)


class TestSimilarityScore:
    def test_adaptive_bimodal(self):
        cset = scored_set([0.9, 0.9, 0.85, 0.1, 0.12])
        result = group_ss(cset, AlgorithmParams())
        assert result.inlier_indices == (0, 1, 2)
        # adaptive cutoff agrees with the exhaustive search
        cutoff = otsu_oracle(cset.similarities)
        assert set(result.inlier_indices) == {i for i, s in enumerate(cset.similarities) if s >= cutoff}

    def test_adaptive_degenerate_keeps_all(self):
        cset = scored_set([0.5, 0.5, 0.5, 0.5])
        result = group_ss(cset, AlgorithmParams())
        assert result.inlier_indices == (0, 1, 2, 3)

    def test_fixed_cutoff(self):
        cset = scored_set([0.9, 0.7])
        result = group_ss(cset, AlgorithmParams(t_ss=0.8))
        assert result.inlier_indices == (0,)

    def test_fixed_cutoff_inclusive(self):
        cset = scored_set([0.8, 0.7])
        result = group_ss(cset, AlgorithmParams(t_ss=0.8))
        assert result.inlier_indices == (0,)

    def test_empty_set(self):
        cset = CorrespondenceSet((), source_resolution_pr=1.0)
        assert group_ss(cset, AlgorithmParams()).inlier_indices == ()

    def test_scores_cover_indices(self):
        cset = scored_set([0.9, 0.2, 0.85])
        result = group_ss(cset, AlgorithmParams(t_ss=0.5))
        assert set(result.scores) == set(result.inlier_indices)


class TestRatioTest:
    def test_strong_ratio_accepted(self):
        cset = scored_set([0.9], nn=[0.1], d2=[1.0])
        result = group_nnsr(cset, AlgorithmParams())
        assert result.inlier_indices == (0,)
        assert result.scores[0] == pytest.approx(0.9)

    def test_equal_distances_rejected(self):
        cset = scored_set([0.9], nn=[0.4], d2=[0.4])
        assert group_nnsr(cset, AlgorithmParams()).inlier_indices == ()

    def test_zero_distances_rejected(self):
        cset = scored_set([1.0], nn=[0.0], d2=[0.0])
        assert group_nnsr(cset, AlgorithmParams()).inlier_indices == ()

    def test_boundary_inclusive(self):
        cset = scored_set([0.9], nn=[0.2], d2=[1.0])
        assert group_nnsr(cset, AlgorithmParams(t_nnsr=0.8)).inlier_indices == (0,)

    def test_coordinates_do_not_matter(self):
        sims = [0.9, 0.3, 0.7, 0.95]
        nn = [0.1, 0.9, 0.3, 0.02]
        d2 = [1.0, 1.0, 1.0, 1.0]
        a = scored_set(sims, nn, d2)
        permuted_items = tuple(
            Correspondence(b.target_point, a_item.source_point, a_item.similarity,
                           a_item.nn_distance, a_item.second_nn_distance)
            for a_item, b in zip(a.items, reversed(a.items))
        )
        b = CorrespondenceSet(permuted_items, source_resolution_pr=1.0)
        params = AlgorithmParams()
        assert group_nnsr(a, params).inlier_indices == group_nnsr(b, params).inlier_indices
        assert group_ss(a, params).inlier_indices == group_ss(b, params).inlier_indices


class TestAlgorithmParams:
    def test_defaults(self):
        params = AlgorithmParams()
        assert params.t_ss is None
        assert params.t_nnsr == 0.8
        assert params.n_ransac == 10000
        assert params.d_ransac_pr == 5.0
        assert params.t_st == 0.6
        assert params.t_gc_pr == 3.0
        assert params.si_kappa == 250
        assert params.si_sigma == 0.9
        assert params.si_delta_pr == 5.0

    @pytest.mark.parametrize("bad", [
        {"t_nnsr": 1.5}, {"t_st": -0.1}, {"si_sigma": 2.0},
        {"n_ransac": 0}, {"si_kappa": 0}, {"d_ransac_pr": 0.0},
        {"t_gc_pr": -1.0}, {"hough_bin_pr": 0.0}, {"si_delta_pr": 0.0},
        {"t_ss": 0.0}, {"rng_seed": -1},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            AlgorithmParams(**bad)

    @pytest.mark.parametrize("field", ["d_ransac_pr", "t_gc_pr", "hough_bin_pr", "si_delta_pr"])
    def test_infinite_tolerance_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
            AlgorithmParams(**{field: float("inf")})

    @pytest.mark.parametrize("field", ["n_ransac", "si_kappa", "rng_seed"])
    def test_booleans_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            AlgorithmParams(**{field: True})


class TestGroupingResult:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            GroupingResult((2, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            GroupingResult((1, 1))

    def test_rejects_score_mismatch(self):
        with pytest.raises(ValueError, match="cover exactly"):
            GroupingResult((0, 1), scores={0: 1.0})


def hough_peak_oracle(votes, bin_side):
    """Peak bin members by a dict accumulator: one floor and one int tuple
    per vote; ties pick the lexicographically smallest bin coordinate."""
    bins = {}
    for index, vote in enumerate(votes):
        coord = tuple(int(c) for c in np.floor(np.asarray(vote, dtype=np.float64) / bin_side))
        bins.setdefault(coord, []).append(index)
    coord = min(bins, key=lambda c: (-len(bins[c]), c))
    return tuple(sorted(bins[coord]))


ORIGIN = PointCloud([[0.0, 0.0, 0.0]])


def vote_set(votes, resolution=1.0):
    """A set whose Hough votes against ORIGIN are exactly ``votes``:
    keypoints at the origin, identity frames, targets at the votes."""
    n = len(votes)
    frames = np.tile(np.eye(3), (n, 1, 1))
    return CorrespondenceSet.from_arrays(
        np.zeros((n, 3)), votes, np.ones(n), np.zeros(n), np.ones(n), resolution,
        source_frames=frames, target_frames=frames)


class TestHoughBinning:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_accumulator(self, seed):
        # Equal-sized groups in bins around the origin force a tie at the
        # peak; a third of their coordinates sit exactly on a bin edge, and
        # scattered votes add lone bins.
        rng = np.random.default_rng(seed)
        bin_side = 0.5
        bins = np.unique(rng.integers(-4, 4, size=(10, 3)), axis=0)
        offsets = rng.uniform(0.0, bin_side, size=(len(bins), 4, 3))
        offsets[rng.random(offsets.shape) < 1 / 3] = 0.0
        grouped = (bins[:, None, :] * bin_side + offsets).reshape(-1, 3)
        scattered = rng.uniform(-20.0, 20.0, size=(30, 3))
        votes = np.vstack([grouped, scattered])[rng.permutation(len(grouped) + 30)]
        cset = vote_set(votes)
        assert np.array_equal(hough_votes(cset, ORIGIN), votes)
        result = group_3dhv(cset, AlgorithmParams(hough_bin_pr=bin_side), ORIGIN)
        assert result.inlier_indices == hough_peak_oracle(votes, bin_side)

    def test_tie_picks_smallest_coordinate(self):
        votes = np.array([[5.0, 0.0, 0.0], [-0.5, 9.0, 0.0], [5.2, 0.1, 0.3], [-0.1, 9.5, 0.9]])
        result = group_3dhv(vote_set(votes), AlgorithmParams(hough_bin_pr=1.0), ORIGIN)
        assert result.inlier_indices == (1, 3) == hough_peak_oracle(votes, 1.0)

    def test_overflowing_bin_coordinates_rejected(self):
        # Valid set, but vote / bin side exceeds float64 (1e250 / 5e-60).
        cset = vote_set(np.full((4, 3), 1e250), resolution=1e-60)
        with pytest.raises(ValueError, match="bin coordinates are not finite"):
            group_3dhv(cset, AlgorithmParams(), ORIGIN)
