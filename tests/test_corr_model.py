import numpy as np
import pytest

from corrgroup import (
    Correspondence,
    CorrespondenceFormatError,
    CorrespondenceSet,
    LocalReferenceFrame,
    RigidTransform,
    distance_compatibility,
    load_correspondences,
    load_ground_truth,
    save_correspondences,
    save_ground_truth,
    strip_lrfs,
)
from corrgroup.corr_model import pairwise_distance_residuals, pairwise_rigidity
from corrgroup.synthbench import random_rotation


def corr(src, tgt, sim=0.9, nn=0.1, d2=0.5, source_lrf=None, target_lrf=None):
    return Correspondence(np.asarray(src, float), np.asarray(tgt, float),
                          sim, nn, d2, source_lrf, target_lrf)


def rigidity_score(c1, c2):
    """Length-ratio compatibility of two correspondences, in [0, 1]: the
    record-level oracle of ``corr_model._rigidity_from_lengths``.

    With d_s and d_t the source- and target-side segment lengths, the score
    is min(d_s/d_t, d_t/d_s). Any zero length (duplicate keypoints) scores
    0 so that duplicated correspondences cannot reinforce each other. The
    lengths come from ``np.linalg.norm``, not the kernel's ``cdist``.
    """
    d_s = float(np.linalg.norm(c1.source_point - c2.source_point))
    d_t = float(np.linalg.norm(c1.target_point - c2.target_point))
    if d_s == 0.0 or d_t == 0.0:
        return 0.0
    return min(d_s / d_t, d_t / d_s)


def make_set(pairs, pr=1.0, gt=None):
    return CorrespondenceSet(tuple(corr(s, t) for s, t in pairs),
                             source_resolution_pr=pr, ground_truth=gt)


class TestRigidityScore:
    def test_equal_lengths(self):
        c1 = corr([0, 0, 0], [5, 5, 5])
        c2 = corr([2, 0, 0], [5, 5, 7])
        assert rigidity_score(c1, c2) == 1.0

    def test_half_ratio(self):
        c1 = corr([0, 0, 0], [0, 0, 0])
        c2 = corr([1, 0, 0], [2, 0, 0])
        assert rigidity_score(c1, c2) == 0.5

    def test_duplicate_pair_scores_zero(self):
        c = corr([1, 2, 3], [4, 5, 6])
        assert rigidity_score(c, c) == 0.0

    def test_single_zero_length_scores_zero(self):
        c1 = corr([0, 0, 0], [0, 0, 0])
        c2 = corr([0, 0, 0], [1, 0, 0])  # source lengths zero, target not
        assert rigidity_score(c1, c2) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            c1 = corr(rng.normal(size=3), rng.normal(size=3))
            c2 = corr(rng.normal(size=3), rng.normal(size=3))
            assert rigidity_score(c1, c2) == rigidity_score(c2, c1)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(2)
        src = rng.normal(size=(2, 3))
        tgt = rng.normal(size=(2, 3))
        base = rigidity_score(corr(src[0], tgt[0]), corr(src[1], tgt[1]))
        qs = RigidTransform(random_rotation(rng), rng.normal(size=3))
        qt = RigidTransform(random_rotation(rng), rng.normal(size=3))
        moved = rigidity_score(
            corr(qs.apply(src[0]), qt.apply(tgt[0])),
            corr(qs.apply(src[1]), qt.apply(tgt[1])),
        )
        assert moved == pytest.approx(base, abs=1e-12)

    def test_exact_rigid_pairs_score_one(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(10, 3))
        truth = RigidTransform(random_rotation(rng), rng.normal(size=3))
        tgt = truth.apply(src)
        scores = pairwise_rigidity(src, tgt)
        off_diag = scores[~np.eye(len(src), dtype=bool)]
        assert np.abs(off_diag - 1.0).max() < 1e-9
        residuals = pairwise_distance_residuals(src, tgt)
        assert residuals.max() < 1e-9


class TestDistanceCompatibility:
    def test_zero_residual(self):
        c1 = corr([0, 0, 0], [10, 0, 0])
        c2 = corr([4, 0, 0], [10, 4, 0])
        residual, ok = distance_compatibility(c1, c2, 3.0)
        assert residual == 0.0 and ok

    def test_within_threshold(self):
        c1 = corr([0, 0, 0], [0, 0, 0])
        c2 = corr([5, 0, 0], [3, 0, 0])
        residual, ok = distance_compatibility(c1, c2, 3.0)
        assert residual == 2.0 and ok

    def test_outside_threshold(self):
        c1 = corr([0, 0, 0], [0, 0, 0])
        c2 = corr([5, 0, 0], [1, 0, 0])
        residual, ok = distance_compatibility(c1, c2, 3.0)
        assert residual == 4.0 and not ok

    def test_boundary_is_strict(self):
        c1 = corr([0, 0, 0], [0, 0, 0])
        c2 = corr([5, 0, 0], [2, 0, 0])
        residual, ok = distance_compatibility(c1, c2, 3.0)
        assert residual == 3.0 and not ok

    def test_requires_positive_threshold(self):
        c = corr([0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            distance_compatibility(c, c, 0.0)


class TestCorrespondenceValidation:
    def test_rejects_nn_above_second(self):
        with pytest.raises(ValueError, match="nn_distance exceeds"):
            corr([0, 0, 0], [0, 0, 0], nn=0.9, d2=0.5)

    def test_rejects_nonfinite_similarity(self):
        with pytest.raises(ValueError):
            corr([0, 0, 0], [0, 0, 0], sim=float("nan"))

    def test_set_requires_positive_resolution(self):
        with pytest.raises(ValueError):
            make_set([([0, 0, 0], [0, 0, 0])], pr=0.0)


def random_frame(rng):
    return LocalReferenceFrame(random_rotation(rng))


class TestFileRoundTrip:
    def test_roundtrip_without_frames(self, tmp_path):
        rng = np.random.default_rng(5)
        cset = make_set([(rng.normal(size=3), rng.normal(size=3)) for _ in range(3)],
                        pr=0.123456789012345)
        path = tmp_path / "c.txt"
        save_correspondences(cset, path)
        loaded = load_correspondences(path)
        assert len(loaded) == 3
        assert loaded.source_resolution_pr == cset.source_resolution_pr
        for a, b in zip(loaded.items, cset.items):
            np.testing.assert_array_equal(a.source_point, b.source_point)
            np.testing.assert_array_equal(a.target_point, b.target_point)
            assert a.similarity == b.similarity
            assert a.nn_distance == b.nn_distance
            assert a.second_nn_distance == b.second_nn_distance
            assert a.source_lrf is None and a.target_lrf is None

    def test_roundtrip_with_frames(self, tmp_path):
        rng = np.random.default_rng(6)
        items = tuple(
            corr(rng.normal(size=3), rng.normal(size=3),
                 source_lrf=random_frame(rng), target_lrf=random_frame(rng))
            for _ in range(4)
        )
        cset = CorrespondenceSet(items, source_resolution_pr=0.25)
        path = tmp_path / "c.txt"
        save_correspondences(cset, path)
        loaded = load_correspondences(path)
        for a, b in zip(loaded.items, cset.items):
            np.testing.assert_array_equal(a.source_lrf.axes, b.source_lrf.axes)
            np.testing.assert_array_equal(a.target_lrf.axes, b.target_lrf.axes)

    def test_empty_set_roundtrip(self, tmp_path):
        cset = CorrespondenceSet((), source_resolution_pr=1.0)
        path = tmp_path / "empty.txt"
        save_correspondences(cset, path)
        loaded = load_correspondences(path)
        assert len(loaded) == 0

    def test_mixed_frames_rejected_on_save(self, tmp_path):
        rng = np.random.default_rng(7)
        items = (
            corr([0, 0, 0], [1, 1, 1], source_lrf=random_frame(rng), target_lrf=random_frame(rng)),
            corr([1, 0, 0], [2, 1, 1]),
        )
        with pytest.raises(ValueError, match="only some records carry frames"):
            cset = CorrespondenceSet(items, source_resolution_pr=1.0)
            save_correspondences(cset, tmp_path / "m.txt")

    def test_validation_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "#corrgroup v1 n=2 pr=1\n"
            "0 0 0 1 1 1 0.9 0.1 0.5\n"
            "0 0 0 1 1 1 0.9 0.7 0.2\n"  # nn > second_nn
        )
        with pytest.raises(CorrespondenceFormatError, match="line 3"):
            load_correspondences(path)

    def test_malformed_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#corrgroup v1 n=1 pr=1\n0 0 0 1 1 1 0.9\n")
        with pytest.raises(CorrespondenceFormatError, match="line 2.*fields"):
            load_correspondences(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#corrgroup v1 n=1 pr=1\n0 0 0 1 1 x 0.9 0.1 0.5\n")
        with pytest.raises(CorrespondenceFormatError, match="line 2"):
            load_correspondences(path)

    def test_non_ascii_bytes_name_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"#corrgroup v1 n=2 pr=1\n0 0 0 1 1 1 0.9 0.1 0.5\n"
                         b"0 0 0 1 1 1 0.9 0.1 0.5\xc3\xa9\n")
        with pytest.raises(CorrespondenceFormatError, match="line 3: non-numeric"):
            load_correspondences(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 1 1 1 0.9 0.1 0.5\n")
        with pytest.raises(CorrespondenceFormatError, match="line 1"):
            load_correspondences(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#corrgroup v1 n=2 pr=1\n0 0 0 1 1 1 0.9 0.1 0.5\n")
        with pytest.raises(CorrespondenceFormatError, match="declares n=2"):
            load_correspondences(path)


class TestGroundTruthSidecar:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        truth = RigidTransform(random_rotation(rng), rng.normal(size=3))
        path = tmp_path / "gt.txt"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        np.testing.assert_array_equal(loaded.rotation, truth.rotation)
        np.testing.assert_array_equal(loaded.translation, truth.translation)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1 0 0 0 1 0 0 0 1\n")
        with pytest.raises(CorrespondenceFormatError, match="12 numbers"):
            load_ground_truth(path)

    def test_non_ascii_bytes_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_bytes(b"1 0 0 0 1 0 0 0 1 0 0 \xc3\xa9\n")
        with pytest.raises(CorrespondenceFormatError, match="non-numeric"):
            load_ground_truth(path)

    def test_non_rotation_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("2 0 0 0 1 0 0 0 1 0 0 0\n")
        with pytest.raises(CorrespondenceFormatError):
            load_ground_truth(path)


def test_strip_lrfs():
    rng = np.random.default_rng(9)
    items = tuple(
        corr(rng.normal(size=3), rng.normal(size=3),
             source_lrf=random_frame(rng), target_lrf=random_frame(rng))
        for _ in range(3)
    )
    cset = CorrespondenceSet(items, source_resolution_pr=1.0)
    assert cset.has_lrfs
    stripped = strip_lrfs(cset)
    assert not stripped.has_lrfs
    assert len(stripped) == 3
    np.testing.assert_array_equal(stripped.source_points, cset.source_points)


def test_replaced_sets_share_columns_and_rebuild_their_records():
    rng = np.random.default_rng(9)
    cset = CorrespondenceSet.from_arrays(
        rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), np.full(4, 0.9), np.full(4, 0.1), np.full(4, 0.5), 1.0,
        source_frames=[random_rotation(rng) for _ in range(4)],
        target_frames=[random_rotation(rng) for _ in range(4)])
    assert all(c.source_lrf is not None and c.target_lrf is not None for c in cset.items)
    stripped = strip_lrfs(cset)
    assert all(c.source_lrf is None and c.target_lrf is None for c in stripped.items)
    assert stripped.source_frames is None and stripped.target_frames is None
    truth = RigidTransform(random_rotation(rng), rng.normal(size=3))
    located = cset.with_ground_truth(truth)
    assert located.ground_truth is truth and cset.ground_truth is None
    for replaced in (stripped, located):
        assert replaced.source_points is cset.source_points
        assert replaced.similarities is cset.similarities
        assert not replaced.similarities.flags.writeable
    assert located.source_frames is cset.source_frames
    assert [c.source_lrf.axes.tobytes() for c in located.items] == [c.source_lrf.axes.tobytes() for c in cset.items]
