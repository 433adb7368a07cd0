"""The generator's stacked rotation draws against the one-row forms they replace.

``random_rotation_oracle`` and ``axis_rotation_oracle`` are the scalar
forms as they stood before the stacks: Python floats and ``math`` for each
draw, one 3 x 3 matrix per call. Every stacked row must agree with them bit
for bit (``tobytes()``), and a stacked draw must leave the generator's
stream where the calls would have left it.
"""

import math

import numpy as np
import pytest

from corrgroup import synthbench
from corrgroup.synthbench import random_rotation


def random_rotation_oracle(rng):
    """A rotation drawn uniformly over SO(3) (quaternion method), one row."""
    u1, u2, u3 = rng.random(3)
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    qx = a * math.sin(2.0 * math.pi * u2)
    qy = a * math.cos(2.0 * math.pi * u2)
    qz = b * math.sin(2.0 * math.pi * u3)
    qw = b * math.cos(2.0 * math.pi * u3)
    return np.array([
        [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
        [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
        [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
    ])


def axis_rotation_oracle(axis, angle):
    """Rodrigues rotation about a (not necessarily unit) axis; the identity for a zero axis."""
    k = np.asarray(axis, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        return np.eye(3)
    k = k / norm
    skew = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * skew + (1.0 - math.cos(angle)) * (skew @ skew)


@pytest.mark.parametrize("k", [0, 1, 350])
def test_stacked_draws_match_the_one_row_form(k):
    for seed in range(60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthbench._random_rotations(rng, k)
        want = np.array([random_rotation_oracle(ref) for _ in range(k)]).reshape(k, 3, 3)
        assert got.shape == (k, 3, 3) and got.tobytes() == want.tobytes(), seed
        assert rng.random() == ref.random(), seed


def test_random_rotation_is_the_stack_of_one():
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(500):
        got = random_rotation(rng)
        assert got.shape == (3, 3) and got.tobytes() == random_rotation_oracle(ref).tobytes()


def axis_cases(seed, k):
    """Axes as the generator draws them (unit vectors, angles up to 5 degrees)
    on half the rows; on the rest, axes of any length and any angle. Zero
    axes of both signs are spliced in."""
    rng = np.random.default_rng(seed)
    unit = rng.normal(size=(k, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    wide = rng.normal(size=(k, 3)) * 10.0 ** rng.uniform(-150, 150, size=(k, 1))
    generated = rng.random(k) < 0.5
    axes = np.where(generated[:, None], unit, wide)
    angles = np.where(generated, math.radians(5.0) * rng.random(k), rng.uniform(-4 * math.pi, 4 * math.pi, k))
    zero = rng.random(k) < 0.1
    axes[zero] = np.where(rng.random((k, 3)) < 0.5, 0.0, -0.0)[zero]
    return axes, angles


@pytest.mark.parametrize("k", [0, 1, 350])
def test_stacked_axis_rotations_match_the_one_axis_form(k):
    for seed in range(60):
        axes, angles = axis_cases(seed, k)
        got = synthbench._axis_rotations(axes, angles)
        want = np.array([axis_rotation_oracle(a, t) for a, t in zip(axes, angles)]).reshape(k, 3, 3)
        assert got.shape == (k, 3, 3) and got.tobytes() == want.tobytes(), seed

