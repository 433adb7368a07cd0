"""Tour of the geometry layer: clouds, resolution, rigid fits, local
frames, and the PLY / correspondence file formats.

Run from the repository root:  python demos/01_geometry_and_files.py
"""

import tempfile
from pathlib import Path

import numpy as np

from corrgroup import (
    CorrespondenceRecipe,
    PointCloud,
    RigidTransform,
    SceneRecipe,
    estimate_lrf,
    estimate_rigid_transform,
    generate_correspondences,
    generate_scene,
    load_correspondences,
    load_ply,
    make_test_model,
    save_correspondences,
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
moved = PointCloud(pose.apply(model.points))
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

    # A correspondence set is a bundle of columns (points, scores, frames).
    # The v1 text file has a "#corrgroup v1 n=<count> pr=<resolution>"
    # header, then one record per line; it round-trips every column exactly.
    scene, truth = generate_scene(model, SceneRecipe(rotation_seed=3, rng_seed=4))
    cset = generate_correspondences(model, scene, truth, CorrespondenceRecipe(n_total=50, rng_seed=5))
    corr_path = Path(tmp) / "corrs.txt"
    save_correspondences(cset, corr_path)
    print(f"correspondence file header: {corr_path.read_text().splitlines()[0]}")
    back = load_correspondences(corr_path)
    exact = all(np.array_equal(getattr(back, name), getattr(cset, name))
                for name in ("source_points", "target_points", "similarities", "nn_distances",
                             "second_nn_distances", "source_frames", "target_frames"))
    print(f"correspondence round trip exact: {exact} ({len(back)} records with frames)")
