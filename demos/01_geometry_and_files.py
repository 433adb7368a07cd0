"""Tour of the geometry layer: clouds, resolution, rigid fits, local
frames, and the PLY / correspondence file formats.

Run from the repository root:  python demos/01_geometry_and_files.py
"""

import tempfile
from pathlib import Path

import numpy as np

from corrgroup import (
    PointCloud,
    RigidTransform,
    apply_transform,
    estimate_lrf,
    estimate_rigid_transform,
    load_ply,
    make_test_model,
    save_ply,
)
from corrgroup.synthbench import random_rotation

# A procedural torus stands in for a scanned model. Its "resolution" (pr)
# is the mean nearest-neighbor spacing; every distance threshold in the
# toolkit is quoted in multiples of this unit.
model = make_test_model("torus", 4000, seed=1)
print(f"torus model: {len(model)} points, resolution pr = {model.resolution:.5f}")

# Rigid transforms are rotation + translation; applying one preserves all
# pairwise distances, so the resolution is unchanged.
rng = np.random.default_rng(7)
pose = RigidTransform(random_rotation(rng), rng.normal(size=3))
moved = apply_transform(pose, model)
print(f"after a rigid move the resolution is still {moved.resolution:.5f}")

# Given matched point sets, the least-squares fit recovers the motion.
sample = model.points[:50]
fit = estimate_rigid_transform(sample, pose.apply(sample))
print(f"rigid fit error: rotation {np.abs(fit.rotation - pose.rotation).max():.2e}, "
      f"translation {np.linalg.norm(fit.translation - pose.translation):.2e}")

# Local reference frames give each keypoint a repeatable orientation: the
# frame estimated after a rotation is the rotated frame.
center = model.points[123]
frame = estimate_lrf(model, center, support_radius=15 * model.resolution)
frame_moved = estimate_lrf(moved, pose.apply(center), 15 * model.resolution)
drift = np.abs(frame_moved.axes - frame.axes @ pose.rotation.T).max()
print(f"local frame repeatability under the move: {drift:.2e}")

# Clouds round-trip exactly through PLY (ASCII or binary little-endian).
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.ply"
    save_ply(model, path, binary=True)
    again = load_ply(path)
    print(f"PLY round trip exact: {np.array_equal(again.points, model.points)}")
