"""The columnar correspondence set and its v1 text file: golden file bytes,
the line that a loader fault names, a save/load differential round trip,
and producers that build no per-row records."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrgroup import (
    Correspondence,
    CorrespondenceFormatError,
    CorrespondenceRecipe,
    CorrespondenceSet,
    LocalReferenceFrame,
    SceneRecipe,
    corr_model,
    generate_correspondences,
    generate_scene,
    load_correspondences,
    make_test_model,
    save_correspondences,
    strip_lrfs,
)
from corrgroup.synthbench import random_rotation

DATA = Path(__file__).parent / "data"
COLUMNS = ("source_points", "target_points", "similarities", "nn_distances",
           "second_nn_distances", "source_frames", "target_frames")


def assert_same_columns(a, b):
    """Every column equal bit for bit (so -0.0 differs from 0.0), and the resolution."""
    assert len(a) == len(b)
    assert a.source_resolution_pr == b.source_resolution_pr
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def frameless_golden_set():
    """Six rows with a duplicate keypoint, 1e6 offsets, -0.0, 1e-300, nn = 0 and nn = d2nn."""
    rng = np.random.default_rng(31)
    src = rng.normal(size=(6, 3)) * 10.0
    src[3] = src[1]
    src[5] += 1e6
    tgt = rng.normal(size=(6, 3)) * 10.0
    tgt[5] -= 1e6
    tgt[2, 0] = -0.0
    sims = rng.uniform(-1.0, 1.0, 6)
    sims[4] = 1e-300
    nn = rng.uniform(0.0, 0.5, 6)
    nn[0] = 0.0
    d2 = nn + rng.uniform(0.0, 0.5, 6)
    d2[2] = nn[2]
    return CorrespondenceSet.from_arrays(src, tgt, sims, nn, d2, 1.0 / 3.0)


def framed_golden_set():
    model = make_test_model("torus", 300, seed=5)
    scene, truth = generate_scene(model, SceneRecipe(rotation_seed=1, rng_seed=2))
    return generate_correspondences(model, scene, truth, CorrespondenceRecipe(
        n_total=8, inlier_ratio=0.5, lrf_noise_deg=5.0, rng_seed=3))


# Both files were written by the earlier, record-based saver; they pin the
# v1 bytes for the columnar saver and parser.
GOLDEN = {"corrs_v1_without_frames.txt": frameless_golden_set,
          "corrs_v1_with_frames.txt": framed_golden_set}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_v1_file(name, tmp_path):
    cset = GOLDEN[name]()
    save_correspondences(cset, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()
    assert_same_columns(load_correspondences(DATA / name), cset)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def correspondence_sets(draw):
    """Valid sets of 0-12 rows, with or without frames, duplicate keypoints
    and 1e6 offsets."""
    n = draw(st.integers(0, 12))

    def column(*shape):
        size = int(np.prod((n, *shape)))
        return np.array(draw(st.lists(finite, min_size=size, max_size=size)), dtype=np.float64).reshape(n, *shape)

    src, tgt = column(3), column(3)
    if n >= 2 and draw(st.booleans()):
        src[-1] = src[0]
        tgt[-1] = tgt[0]
    if draw(st.booleans()):
        src += 1e6
        tgt -= 1e6
    distances = np.sort(np.abs(column(2)), axis=1)
    frames = {}
    if draw(st.booleans()):
        seeds = draw(st.lists(st.integers(0, 2**32), min_size=2 * n, max_size=2 * n))
        stack = np.array([random_rotation(np.random.default_rng(s)) for s in seeds]).reshape(2, n, 3, 3)
        frames = {"source_frames": stack[0], "target_frames": stack[1]}
    pr = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return CorrespondenceSet.from_arrays(src, tgt, column(), distances[:, 0], distances[:, 1], pr, **frames)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cset=correspondence_sets())
def test_save_load_round_trip_is_bit_exact(cset, tmp_path):
    path = tmp_path / "c.txt"
    save_correspondences(cset, path)
    assert_same_columns(load_correspondences(path), cset)


GOOD = "0 0 0 1 1 1 0.9 0.1 0.5"
IDENTITY_FRAMES = " 1 0 0 0 1 0 0 0 1" * 2
FIELD_COUNT_FAULT = "0 0 0 1 1 1 0.9 0.1"
NN_FAULT = "0 0 0 1 1 1 0.9 0.7 0.2"


@pytest.mark.parametrize("bad, reason, later", [
    (FIELD_COUNT_FAULT, "expected 9 or 27 fields, got 8", NN_FAULT),
    ("0 0 0 1 1 x 0.9 0.1 0.5", "non-numeric field", NN_FAULT),
    (NN_FAULT, "nn_distance exceeds second_nn_distance", FIELD_COUNT_FAULT),
    (GOOD + " 2 0 0 0 1 0 0 0 1 1 0 0 0 1 0 0 0 1", "source frame rows are not orthonormal", FIELD_COUNT_FAULT),
], ids=["field-count", "non-numeric", "nn-above-d2nn", "frame"])
@pytest.mark.parametrize("blank_lines", [0, 3])
def test_fault_names_first_faulty_line(tmp_path, bad, reason, later, blank_lines):
    """Line k carries the fault and a later line another kind of fault: a
    value fault after a parse fault, or a parse fault after a value fault."""
    good = GOOD + IDENTITY_FRAMES if len(bad.split()) == 27 else GOOD
    lines = ["#corrgroup v1 n=5 pr=1", good] + [""] * blank_lines + [good, bad, good, later]
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    k = 4 + blank_lines
    with pytest.raises(CorrespondenceFormatError, match=f"^line {k}: {reason}$"):
        load_correspondences(path)


@pytest.mark.parametrize("pr", ["0", "-1", "nan", "inf"])
def test_header_resolution_must_be_finite_and_positive(tmp_path, pr):
    path = tmp_path / "bad.txt"
    path.write_text(f"#corrgroup v1 n=1 pr={pr}\n{NN_FAULT}\n")
    with pytest.raises(CorrespondenceFormatError, match="^line 1: source_resolution_pr must be finite and positive"):
        load_correspondences(path)


def test_from_arrays_names_first_bad_row():
    nn = np.full(5, 0.1)
    nn[3] = 0.9
    with pytest.raises(ValueError, match="^row 3: nn_distance exceeds"):
        CorrespondenceSet.from_arrays(np.zeros((5, 3)), np.zeros((5, 3)), np.ones(5), nn, np.full(5, 0.5), 1.0)
    with pytest.raises(ValueError, match="only some records carry frames"):
        CorrespondenceSet.from_arrays(np.zeros((1, 3)), np.zeros((1, 3)), [1.0], [0.1], [0.5], 1.0,
                                      source_frames=np.eye(3)[None])


def test_columns_are_read_only():
    cset = frameless_golden_set()
    with pytest.raises(ValueError, match="read-only"):
        cset.similarities[0] = 0.0


def test_producers_build_no_records(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a Correspondence record was built")

    monkeypatch.setattr(Correspondence, "__post_init__", refuse)
    cset = framed_golden_set()
    save_correspondences(cset, tmp_path / "c.txt")
    loaded = load_correspondences(tmp_path / "c.txt").with_ground_truth(cset.ground_truth)
    stripped = strip_lrfs(loaded)
    assert stripped.ground_truth is cset.ground_truth
    assert not stripped.has_lrfs and len(stripped) == len(cset) == 8


def test_records_adopt_the_checked_columns(monkeypatch):
    cset = framed_golden_set()
    # The frame columns passed the frame rule when the set was built; the
    # records take their rows without checking them again.
    monkeypatch.setattr(LocalReferenceFrame, "__post_init__", lambda self: pytest.fail("a frame was re-checked"))
    records = cset.items
    monkeypatch.undo()
    assert len(records) == len(cset)
    for i, record in enumerate(records):
        assert record.source_point.tobytes() == cset.source_points[i].tobytes()
        assert record.target_point.tobytes() == cset.target_points[i].tobytes()
        assert (record.similarity, record.nn_distance, record.second_nn_distance) == (
            cset.similarities[i], cset.nn_distances[i], cset.second_nn_distances[i])
        for frame, column in ((record.source_lrf, cset.source_frames), (record.target_lrf, cset.target_frames)):
            assert frame.axes.tobytes() == column[i].tobytes()
            assert not frame.axes.flags.writeable
    assert_same_columns(CorrespondenceSet(records, cset.source_resolution_pr), cset)


@pytest.mark.parametrize("framed", [True, False], ids=["frames", "no-frames"])
def test_records_run_no_row_check(monkeypatch, framed):
    # Every row passed the set's checks when it was built; the records are
    # made on the checked columns without a row check of their own.
    cset = framed_golden_set() if framed else strip_lrfs(framed_golden_set())
    monkeypatch.setattr(corr_model, "_validate_rows", lambda *args: pytest.fail("a row was re-checked"))
    monkeypatch.setattr(Correspondence, "__post_init__", lambda self: pytest.fail("a record was re-checked"))
    records = cset.items
    monkeypatch.undo()
    assert len(records) == len(cset) == 8
    for i, record in enumerate(records):
        assert not record.source_point.flags.writeable and not record.target_point.flags.writeable
        assert record.source_point.tobytes() == cset.source_points[i].tobytes()
        assert {type(record.similarity), type(record.nn_distance), type(record.second_nn_distance)} == {float}
        assert (record.source_lrf is None) == (record.target_lrf is None) == (not framed)
    assert_same_columns(CorrespondenceSet(records, cset.source_resolution_pr), cset)


def test_a_frame_that_fails_the_rule_enters_no_set_or_record():
    cset = framed_golden_set()
    frames = cset.source_frames.copy()
    frames[2, 0, 0] += 1e-6
    with pytest.raises(ValueError, match="^row 2: source frame rows are not orthonormal$"):
        CorrespondenceSet.from_arrays(*(getattr(cset, name) for name in COLUMNS[:5]), cset.source_resolution_pr,
                                      source_frames=frames, target_frames=cset.target_frames)
    with pytest.raises(ValueError, match="^frame rows are not orthonormal$"):
        LocalReferenceFrame(frames[2])
