"""Small fixed-seed sweeps must reproduce their outputs byte for byte.

``tests/data/inlier_ratio_sweep_small.csv`` is the reference output of
:data:`PLAN` for all seven algorithms; :data:`GOLDEN_OUTPUTS` pins the same
sweep as JSON, an epsilon-axis sweep on the same base, and st's and si's
indices and scores on two larger sets (:func:`st_si_large_sets`), and RANSAC's
inliers and transform on the same sets (:func:`ransac_large_sets`). A change
that alters them on purpose names the change in CHANGES.md and rewrites the
files with

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

from dataclasses import replace
from pathlib import Path

import pytest

from corrgroup import (
    AlgorithmParams,
    CorrespondenceRecipe,
    InstanceSpec,
    SceneRecipe,
    SweepPlan,
    generate_correspondences,
    generate_scene,
    group_ransac,
    group_si,
    group_st,
    make_test_model,
    records_to_csv,
    run_sweep,
)
from corrgroup.evaluation import records_to_json

GOLDEN = Path(__file__).parent / "data" / "inlier_ratio_sweep_small.csv"

PLAN = SweepPlan(
    axis="inlier_ratio",
    levels=(0.2, 0.5, 0.8),
    trials_per_level=2,
    base=InstanceSpec(
        model_kind="torus",
        model_points=2000,
        corr=CorrespondenceRecipe(n_total=120, lrf_noise_deg=5.0),
        params=AlgorithmParams(n_ransac=500),
    ),
    base_seed=5,
)

EPSILON_PLAN = replace(PLAN, axis="epsilon_pr", levels=(2.0, 4.0, 8.0))


def large_sets():
    """(n, set) for n = 600 and 1000: inlier ratio 0.3, 5 degree LRF noise."""
    model = make_test_model("torus", 2000, 0)
    for n in (600, 1000):
        scene, truth = generate_scene(model, SceneRecipe(rotation_seed=n, rng_seed=n + 1))
        yield n, generate_correspondences(model, scene, truth, CorrespondenceRecipe(
            n_total=n, inlier_ratio=0.3, lrf_noise_deg=5.0, rng_seed=n + 2))


def st_si_large_sets() -> str:
    """st's and si's inliers with scores (``%.17g``) on n = 600 and 1000.

    At n = 120 si's kappa (250) is capped at n - 1, so every other
    correspondence is a neighbour; these sizes make si pick its kappa
    nearest by distance.
    """
    lines = ["n,algorithm,index,score"]
    for n, cset in large_sets():
        for name, group in (("st", group_st), ("si", group_si)):
            result = group(cset, AlgorithmParams())
            lines += [f"{n},{name},{i},{result.scores[i]:.17g}" for i in result.inlier_indices]
    return "\n".join(lines) + "\n"


def ransac_large_sets() -> str:
    """RANSAC's inliers, rotation (row-major) and translation (``%.17g``) with
    default parameters on :func:`large_sets`."""
    lines = ["n,field,position,value"]
    for n, cset in large_sets():
        result = group_ransac(cset, AlgorithmParams())
        lines += [f"{n},inlier,{k},{i}" for k, i in enumerate(result.inlier_indices)]
        for field, values in (("rotation", result.transform.rotation.ravel()),
                              ("translation", result.transform.translation)):
            lines += [f"{n},{field},{k},{v:.17g}" for k, v in enumerate(values.tolist())]
    return "\n".join(lines) + "\n"


# Golden file -> the output it pins.
GOLDEN_OUTPUTS = {
    "inlier_ratio_sweep_small.json": lambda: records_to_json(run_sweep(PLAN)),
    "epsilon_sweep_small.csv": lambda: records_to_csv(run_sweep(EPSILON_PLAN)),
    "st_si_large_sets.csv": st_si_large_sets,
    "ransac_large_sets.csv": ransac_large_sets,
}


def test_sweep_csv_matches_golden_file():
    assert records_to_csv(run_sweep(PLAN)) == GOLDEN.read_text(encoding="ascii")


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_sweep_output_matches_golden_file(name):
    assert GOLDEN_OUTPUTS[name]() == (GOLDEN.parent / name).read_text(encoding="ascii")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    outputs = {GOLDEN.name: lambda: records_to_csv(run_sweep(PLAN)), **GOLDEN_OUTPUTS}
    for name, render in outputs.items():
        (GOLDEN.parent / name).write_text(render(), encoding="ascii")
        print(f"wrote {GOLDEN.parent / name}")
