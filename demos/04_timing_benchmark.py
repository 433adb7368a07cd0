"""Measure grouping wall time per algorithm at a few input sizes.

Timing covers the grouping call only (set generation is excluded), runs
serially, and discards one warm-up call per algorithm. Expect the ratio
test and Hough voting to be fastest and RANSAC / spectral matching to be
the most expensive as the sets grow.

Run from the repository root:  python demos/04_timing_benchmark.py
(The full-size run takes a couple of minutes; trim sizes or repeats for
a quicker look.)
"""

from corrgroup import (
    ALGORITHM_NAMES,
    AlgorithmParams,
    CorrespondenceRecipe,
    InstanceSpec,
    time_algorithms,
)
from corrgroup.evaluation import blas_threads_line

spec = InstanceSpec(
    model_kind="torus",
    model_points=4000,
    corr=CorrespondenceRecipe(
        n_total=1000, inlier_ratio=0.2, inlier_jitter_pr=0.5,
        outlier_min_offset_pr=30.0, lrf_noise_deg=5.0),
    params=AlgorithmParams(),
)

records = time_algorithms(
    sizes=(250, 500, 1000), algorithms=ALGORITHM_NAMES, spec=spec, repeats=5)

sizes = sorted({r.n_initial for r in records})
print(blas_threads_line())
print(f"{'algorithm':>10s} " + " ".join(f"{n:>10d}" for n in sizes))
for name in ALGORITHM_NAMES:
    cells = []
    for n in sizes:
        (record,) = [r for r in records if r.algorithm == name and r.n_initial == n]
        cells.append(f"{record.wall_time_ns / 1e6:>9.2f}ms")
    print(f"{name:>10s} " + " ".join(cells))
