"""The two rules every checked output passes through, against the copies
they replace.

``GroupingResult`` is the one normaliser of an algorithm's result: a 1-D
integer sequence or array of indices becomes a tuple of Python ints, and
scores a dict of ints to floats. ``result_oracle`` is the per-element
normaliser it replaced; both must store the same values and raise the same
message, ``unique`` before ``sorted``.

One mask kernel holds the proper-rotation rule (finite entries, orthonormal
rows, det +1, within 1e-9) for transforms and frames. ``rigid_stack_oracle``
and ``frame_faults_oracle`` are its two former copies, kept verbatim. They
take the Gram product from BLAS and the determinant from LAPACK's LU; the
kernel sums each Gram entry in a fixed order and expands the determinant by
cofactors, elementwise, so its error and determinant may differ from theirs
in the last place. Frame masks therefore match the copies bit for bit
except for an error within an ulp of 1e-9 or a |det - 1| within a few ulps
of it, which the drawn stacks do not reach (``tests/test_geom3d.py`` holds
the kernel's own bits to a Python-float oracle). The transform rule runs the
kernel on R^T, so a stack with a determinant within a few ulps of the bound
is not compared, and the errors are compared within 8 eps.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrgroup import GroupingResult, LocalReferenceFrame, RigidTransform
from corrgroup.geom3d import _check_rigid_stack, frame_faults


def result_oracle(indices, scores=None):
    """(inlier_indices, scores) as the per-element normaliser stored them."""
    idx = tuple(int(i) for i in indices)
    if any(i < 0 for i in idx):
        raise ValueError("indices must be non-negative")
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be unique")
    if idx != tuple(sorted(idx)):
        raise ValueError("indices must be sorted")
    if scores is not None:
        scores = {int(k): float(v) for k, v in scores.items()}
        if set(scores) != set(idx):
            raise ValueError("scores must cover exactly the inlier indices")
    return idx, scores


_RIGID_FAULTS = ("vector components must be finite", "rotation entries must be finite",
                 "rotation matrix is not orthonormal", "rotation matrix must have determinant +1")


def rigid_stack_oracle(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """The :class:`RigidTransform` rule on a (k, 3, 3) / (k, 3) stack: raise
    its ``ValueError`` for the first pair that fails, naming the first check
    it fails (finite translation, finite rotation, R^T R = I and det +1, 1e-9).
    Returns the (k,) largest |entry| of R^T R - I."""
    finite = np.isfinite(rotations).all(axis=(1, 2))
    rot = np.where(finite[:, None, None], rotations, np.eye(3))
    gram_error = np.abs(rot.transpose(0, 2, 1) @ rot - np.eye(3)).max(axis=(1, 2))
    faults = np.array([
        ~np.isfinite(translations).all(axis=1),
        ~finite,
        gram_error > 1e-9,
        np.abs(np.linalg.det(rot) - 1.0) > 1e-9,
    ])
    faulty = faults.any(axis=0)
    if faulty.any():
        raise ValueError(_RIGID_FAULTS[int(np.argmax(faults[:, np.argmax(faulty)]))])
    return gram_error


def frame_faults_oracle(axes: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The frame-validity rule on an (n, 3, 3) stack of axes, as (bad-row
    mask, reason) per check in order: finite, orthonormal rows, det +1 (1e-9)."""
    finite = np.isfinite(axes).all(axis=(1, 2))
    axes = np.where(finite[:, None, None], axes, np.eye(3))
    gram_error = np.abs(axes @ axes.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2))
    return [
        (~finite, "frame axes must be finite"),
        (gram_error > 1e-9, "frame rows are not orthonormal"),
        (np.abs(np.linalg.det(axes) - 1.0) > 1e-9, "frame must be right-handed"),
    ]


def outcome(fn, *args):
    """What ``fn`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def build(cls, *args) -> None:
    cls(*args)


def package_result(indices, scores=None):
    result = GroupingResult(indices, scores)
    return result.inlier_indices, result.scores


# ---------------------------------------------------------------------------
# GroupingResult
# ---------------------------------------------------------------------------

INDEX_FORMS = {
    "tuple": tuple,
    "list": list,
    "int32": lambda v: np.array(v, dtype=np.int32),
    "int64": lambda v: np.array(v, dtype=np.int64),
    "intp": lambda v: np.array(v, dtype=np.intp),
}


@st.composite
def index_inputs(draw):
    values = draw(st.lists(st.integers(-3, 40), max_size=12))
    shape = draw(st.sampled_from(["raw", "sorted-unique", "valid"]))
    if shape == "sorted-unique":
        values = sorted(set(values))
    elif shape == "valid":
        values = sorted({abs(v) for v in values})
    indices = INDEX_FORMS[draw(st.sampled_from(sorted(INDEX_FORMS)))](values)
    keys = draw(st.sampled_from(["none", "same", "numpy", "missing", "extra"]))
    if keys == "none":
        return indices, None
    key_set = sorted(set(values))
    if keys == "missing" and key_set:
        key_set = key_set[1:]
    elif keys == "extra":
        key_set = key_set + [41]
    floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
    scores = {k: draw(floats) for k in draw(st.permutations(key_set))}
    if keys == "numpy":
        scores = {np.int64(k): np.float32(v) for k, v in scores.items()}
    return indices, scores


@settings(max_examples=400, deadline=None)
@given(index_inputs())
def test_result_matches_the_per_element_normaliser(case):
    indices, scores = case
    expected = outcome(result_oracle, indices, scores)
    got = outcome(package_result, indices, scores)
    assert got == expected
    if not isinstance(got, str):
        idx, normalised = got
        assert all(type(i) is int for i in idx)
        if normalised is not None:
            assert list(normalised.items()) == list(expected[1].items())  # the input's order
            assert all(type(k) is int and type(v) is float for k, v in normalised.items())
            # The scores share the index objects, so a kept result holds each index once.
            assert all(k is i for k, i in zip(sorted(normalised), idx))


@pytest.mark.parametrize("form", sorted(INDEX_FORMS))
@pytest.mark.parametrize("values, message", [
    ([], None),
    ([0, 4, 9], None),
    ([3, 1, 3], "unique"),          # a duplicate that is not adjacent, in unsorted input
    ([5, 2, 9, 2], "unique"),
    ([2, 1], "sorted"),
    ([1, 1], "unique"),
    ([4, -1, 4], "non-negative"),
])
def test_result_forms_and_messages(form, values, message):
    indices = INDEX_FORMS[form](values)
    assert outcome(package_result, indices) == outcome(result_oracle, indices)
    if message is not None:
        with pytest.raises(ValueError, match=f"^indices must be {message}$"):
            GroupingResult(indices)


@pytest.mark.parametrize("indices", [np.array([1.0, 2.0]), np.zeros((2, 2), dtype=np.int64), [True]])
def test_result_rejects_indices_that_are_not_a_1d_integer_sequence(indices):
    with pytest.raises(ValueError, match="1-D integer sequence"):
        GroupingResult(indices)


# ---------------------------------------------------------------------------
# The proper-rotation rule
# ---------------------------------------------------------------------------

MIRROR = np.diag([1.0, 1.0, -1.0])
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def quaternion_rotation(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@st.composite
def rotation_rows(draw):
    """One 3x3 matrix: exact, near-orthonormal around the 1e-9 bound, scaled
    (det fails first near 3.3e-10), a reflection, or with a non-finite entry."""
    q = draw(arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)))
    rot = quaternion_rotation(q) if np.linalg.norm(q) > 1e-3 else np.eye(3)
    kind = draw(st.sampled_from(["exact", "near", "scaled", "mirror", "non-finite"]))
    eps = 10.0 ** draw(st.floats(-10.5, -8.5))
    if kind == "near":
        rot = rot + eps * draw(arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)))
    elif kind == "scaled":
        rot = rot * (1.0 + eps)
    elif kind == "mirror":
        rot = rot @ MIRROR if draw(st.booleans()) else -rot
    elif kind == "non-finite":
        rot[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = draw(NON_FINITE)
    return rot


@st.composite
def rigid_stacks(draw):
    k = draw(st.integers(1, 6))
    rot = np.array([draw(rotation_rows()) for _ in range(k)])
    tra = draw(arrays(np.float64, (k, 3), elements=st.floats(-1e3, 1e3)))
    for row in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        tra[row, draw(st.integers(0, 2))] = draw(NON_FINITE)
    return rot, tra


def det_near_bound(stack) -> bool:
    """Whether a finite row's |det - 1| lies within a few ulps of 1e-9."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    det = np.linalg.det(np.where(finite[:, None, None], stack, np.eye(3)))
    return bool((np.abs(np.abs(det - 1.0) - 1e-9) < 1e-15).any())


@settings(max_examples=400, deadline=None)
@given(rigid_stacks())
def test_frame_masks_match_the_former_copy(stack):
    rot, _ = stack
    for axes in (rot, rot.transpose(0, 2, 1)):
        got = frame_faults(axes)
        expected = frame_faults_oracle(axes)
        assert [reason for _, reason in got] == [reason for _, reason in expected]
        for (bad, _), (want, _) in zip(got, expected):
            assert bad.tolist() == want.tolist()
        for row in axes:
            reasons = [reason for bad, reason in frame_faults_oracle(row[None]) if bad[0]]
            assert outcome(build, LocalReferenceFrame, row) == (
                f"ValueError: {reasons[0]}" if reasons else None)


@settings(max_examples=400, deadline=None)
@given(rigid_stacks())
def test_transform_rule_matches_the_former_copy(stack):
    rot, tra = stack
    assume(not det_near_bound(rot))
    assert_same_check(rot, tra)
    for k in range(len(rot)):
        expected = assert_same_check(rot[k:k + 1], tra[k:k + 1])
        assert outcome(build, RigidTransform, rot[k], tra[k]) == expected


def assert_same_check(rot, tra):
    """The stack check and its former copy raise the same message, or both
    pass and return the same |R^T R - I| up to the rounding of R^T R; returns
    the message or None."""
    got, expected = outcome(_check_rigid_stack, rot, tra), outcome(rigid_stack_oracle, rot, tra)
    if isinstance(expected, str):
        assert got == expected
        return expected
    assert np.abs(got - expected).max() <= 8 * np.finfo(np.float64).eps
    return None


@pytest.mark.parametrize("bad, message", [
    ((0, 1, np.nan), "rotation entries must be finite"),
    ((2, 2, np.inf), "rotation entries must be finite"),
    ("mirror", "rotation matrix must have determinant +1"),
    ("scaled", "rotation matrix must have determinant +1"),
    ("stretched", "rotation matrix is not orthonormal"),
    ("translation", "vector components must be finite"),
])
def test_each_rigid_fault_names_its_check(bad, message):
    rot = np.repeat(np.eye(3)[None], 3, axis=0)
    tra = np.zeros((3, 3))
    if bad == "mirror":
        rot[1] = MIRROR
    elif bad == "scaled":
        rot[1] *= 1.0 + 4e-10          # |R^T R - I| 8e-10 passes; det 1 + 1.2e-9 does not
    elif bad == "stretched":
        rot[1, 0, 0] = 1.0 + 2e-9
    elif bad == "translation":
        tra[1, 0] = np.nan
        rot[1, 0, 0] = np.nan           # the translation check comes first
    else:
        rot[1][bad[:2]] = bad[2]
    for check in (_check_rigid_stack, rigid_stack_oracle):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(rot, tra)
