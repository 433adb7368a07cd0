"""A small fixed-seed inlier-ratio sweep must reproduce its CSV byte for byte.

``tests/data/inlier_ratio_sweep_small.csv`` is the reference output of
:data:`PLAN` for all seven algorithms. A change that alters it on purpose
names the change in CHANGES.md and rewrites the file with

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

from pathlib import Path

from corrgroup import (
    AlgorithmParams,
    CorrespondenceRecipe,
    InstanceSpec,
    SweepPlan,
    records_to_csv,
    run_sweep,
)

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


def test_sweep_csv_matches_golden_file():
    assert records_to_csv(run_sweep(PLAN)) == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(records_to_csv(run_sweep(PLAN)), encoding="ascii")
    print(f"wrote {GOLDEN}")
