"""Ground-truth judging, precision/recall scoring, nuisance sweeps, and
wall-clock timing.

A correspondence is judged correct when its ground-truth residual
``|| R p + t - p' ||`` stays within the tolerance epsilon (inclusive).
Precision is the judged-correct fraction of a grouped set; recall is the
recovered fraction of all judged-correct correspondences. Both are
reported as ``None`` (an explicit undefined flag) when their denominator
is empty, so aggregation can exclude those records instead of silently
averaging zeros.

Sweep records are fully deterministic under a fixed base seed, including
their serialized CSV/JSON forms; measured wall time therefore lives only
in :func:`time_algorithms` output, never in sweep records.
"""

from __future__ import annotations

import concurrent.futures
import csv as _csv
import io
import json
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .corr_model import Correspondence, CorrespondenceSet
from .geom3d import PointCloud, RigidTransform
from .grouping import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    AlgorithmParams,
    GroupingResult,
    group_3dhv,
    group_gc,
    group_nnsr,
    group_ransac,
    group_si,
    group_ss,
    group_st,
)
from .synthbench import CorrespondenceRecipe, SceneRecipe, generate_correspondences, generate_scene, make_test_model

SWEEP_AXES = (
    "noise_sigma_pr",
    "downsample_ratio",
    "inlier_ratio",
    "epsilon_pr",
    "n_correspondences",
)

CSV_COLUMNS = (
    "algorithm", "axis", "level", "trial",
    "n_initial", "n_grouped", "n_correct", "n_gt",
    "precision", "recall", "wall_time_ns",
)


def judge(c: Correspondence, ground_truth: RigidTransform, epsilon: float) -> bool:
    """True when the ground-truth residual of c is within epsilon (inclusive)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    residual = float(np.linalg.norm(ground_truth.apply(c.source_point) - c.target_point))
    return residual <= epsilon


def judge_set(cset: CorrespondenceSet, epsilon: float) -> np.ndarray:
    """Boolean judgment mask over a whole correspondence set."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if cset.ground_truth is None:
        raise ValueError("correspondence set has no ground truth")
    residuals = np.linalg.norm(
        cset.ground_truth.apply(cset.source_points) - cset.target_points, axis=1)
    return residuals <= epsilon


@dataclass(frozen=True)
class EvaluationRecord:
    """Per-run counts, precision/recall (None = undefined), and timing."""

    algorithm: str
    epsilon_pr: float
    precision: float | None
    recall: float | None
    n_initial: int
    n_grouped: int
    n_correct: int
    n_gt_inliers: int
    wall_time_ns: int = 0
    params: AlgorithmParams | None = None
    nuisance: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n_initial", "n_grouped", "n_correct", "n_gt_inliers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_correct > min(self.n_grouped, self.n_gt_inliers):
            raise ValueError("n_correct exceeds n_grouped or n_gt_inliers")
        if self.wall_time_ns < 0:
            raise ValueError("wall_time_ns must be non-negative")


def score(
    result: GroupingResult,
    cset: CorrespondenceSet,
    epsilon_pr: float = 4.0,
    *,
    algorithm: str = "",
    params: AlgorithmParams | None = None,
    nuisance: dict | None = None,
    wall_time_ns: int = 0,
) -> EvaluationRecord:
    """Precision/recall of a grouping result against the set's ground truth."""
    correct_mask = judge_set(cset, epsilon_pr * cset.source_resolution_pr)
    n_gt = int(correct_mask.sum())
    grouped = np.asarray(result.inlier_indices, dtype=np.intp)
    n_grouped = grouped.size
    n_correct = int(correct_mask[grouped].sum()) if n_grouped else 0
    precision = n_correct / n_grouped if n_grouped > 0 else None
    recall = n_correct / n_gt if n_gt > 0 else None
    return EvaluationRecord(
        algorithm=algorithm,
        epsilon_pr=float(epsilon_pr),
        precision=precision,
        recall=recall,
        n_initial=len(cset),
        n_grouped=int(n_grouped),
        n_correct=n_correct,
        n_gt_inliers=n_gt,
        wall_time_ns=int(wall_time_ns),
        params=params,
        nuisance=dict(nuisance or {}),
    )


def run_algorithm(
    name: str,
    cset: CorrespondenceSet,
    params: AlgorithmParams,
    source_cloud: PointCloud | None = None,
) -> GroupingResult:
    """Dispatch one algorithm by name.

    Hough voting needs a source cloud for its reference centroid; when none
    is supplied the source keypoints stand in (any fixed reference point
    preserves the vote-coincidence property).
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}")
    # Resolved through this module's namespace, so that a function rebound
    # here is the one called (perfbench's self-test injects a faulty group_gc).
    algorithm = globals()[ALGORITHMS[name].__name__]
    if name == "3dhv":
        cloud = source_cloud if source_cloud is not None else PointCloud(cset.source_points)
        return algorithm(cset, params, cloud)
    return algorithm(cset, params)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceSpec:
    """Base model, recipes, and parameters shared by a sweep or benchmark."""

    model_kind: str = "torus"
    model_points: int = 4000
    model_seed: int = 0
    scene: SceneRecipe = field(default_factory=SceneRecipe)
    corr: CorrespondenceRecipe = field(default_factory=CorrespondenceRecipe)
    params: AlgorithmParams = field(default_factory=AlgorithmParams)
    epsilon_pr: float = 4.0

    def __post_init__(self):
        if self.epsilon_pr <= 0:
            raise ValueError("epsilon_pr must be positive")


@dataclass(frozen=True)
class SweepPlan:
    """One nuisance axis, its levels, and the trial count per level."""

    axis: str
    levels: tuple[float, ...]
    trials_per_level: int
    base: InstanceSpec = field(default_factory=InstanceSpec)
    base_seed: int = 0

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}")
        levels = tuple(float(v) for v in self.levels)
        if len(levels) < 2:
            raise ValueError("a sweep needs at least 2 levels")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if self.trials_per_level < 1:
            raise ValueError("trials_per_level must be positive")
        object.__setattr__(self, "levels", levels)


@lru_cache(maxsize=8)
def _cached_model(kind: str, n_points: int, seed: int) -> PointCloud:
    return make_test_model(kind, n_points, seed)


def _trial_seeds(base_seed: int, level_idx: int, trial: int) -> tuple[int, int, int, int]:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(level_idx, trial))
    return tuple(int(s) for s in seq.generate_state(4, dtype=np.uint64))


def _build_instance(spec: InstanceSpec, axis: str, level: float, seeds: tuple[int, int, int, int]):
    """Model, correspondence set, and params for one sweep cell or bench repeat.

    ``seeds`` are the rotation, scene, correspondence and algorithm seeds
    of :func:`_trial_seeds`; ``level`` sets the nuisance ``axis``.
    """
    rot_seed, scene_seed, corr_seed, algo_seed = seeds
    scene_recipe = replace(spec.scene, rotation_seed=rot_seed, rng_seed=scene_seed)
    corr_recipe = replace(spec.corr, rng_seed=corr_seed)
    if axis == "noise_sigma_pr":
        scene_recipe = replace(scene_recipe, noise_sigma_pr=level)
    elif axis == "downsample_ratio":
        scene_recipe = replace(scene_recipe, downsample_ratio=level)
    elif axis == "inlier_ratio":
        corr_recipe = replace(corr_recipe, inlier_ratio=level)
    elif axis == "n_correspondences":
        corr_recipe = replace(corr_recipe, n_total=int(level))
    model = _cached_model(spec.model_kind, spec.model_points, spec.model_seed)
    scene, ground_truth = generate_scene(model, scene_recipe)
    cset = generate_correspondences(model, scene, ground_truth, corr_recipe)
    params = replace(spec.params, rng_seed=algo_seed)
    return model, cset, params


def _run_sweep_trial(plan: SweepPlan, level_idx: int, trial: int,
                     algorithms: tuple[str, ...]) -> list[EvaluationRecord]:
    """All records for one (level, trial) cell, in algorithm order."""
    level = plan.levels[level_idx]
    try:
        model, cset, params = _build_instance(
            plan.base, plan.axis, level, _trial_seeds(plan.base_seed, level_idx, trial))
        records = []
        for name in algorithms:
            result = run_algorithm(name, cset, params, source_cloud=model)
            records.append(score(
                result, cset, plan.base.epsilon_pr,
                algorithm=name,
                params=params,
                nuisance={"axis": plan.axis, "level": level, "trial": trial},
            ))
        return records
    except Exception as exc:
        raise RuntimeError(
            f"sweep failed at axis={plan.axis} level={level} trial={trial}: {exc}"
        ) from exc


def _run_epsilon_trial(plan: SweepPlan, trial: int,
                       algorithms: tuple[str, ...]) -> list[EvaluationRecord]:
    """Epsilon-axis trial: group once, judge at every level."""
    try:
        model, cset, params = _build_instance(
            plan.base, plan.axis, plan.levels[0], _trial_seeds(plan.base_seed, 0, trial))
        records = []
        results = {name: run_algorithm(name, cset, params, source_cloud=model)
                   for name in algorithms}
        for level_idx, level in enumerate(plan.levels):
            for name in algorithms:
                records.append(score(
                    results[name], cset, level,
                    algorithm=name,
                    params=params,
                    nuisance={"axis": plan.axis, "level": level, "trial": trial},
                ))
        return records
    except Exception as exc:
        raise RuntimeError(
            f"sweep failed at axis={plan.axis} trial={trial}: {exc}"
        ) from exc


def run_sweep(plan: SweepPlan, algorithms=ALGORITHM_NAMES, *, n_workers: int = 1) -> list[EvaluationRecord]:
    """One record per (algorithm, level, trial), in deterministic order.

    Within a trial the same generated set is fed to every algorithm. Trials
    may execute in parallel processes (``n_workers``); records are merged
    in plan order regardless of completion order.
    """
    algorithms = tuple(algorithms)
    for name in algorithms:
        if name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {name!r}")
    if plan.axis == "epsilon_pr":
        jobs = [(_run_epsilon_trial, (plan, trial, algorithms))
                for trial in range(plan.trials_per_level)]
    else:
        jobs = [(_run_sweep_trial, (plan, level_idx, trial, algorithms))
                for level_idx in range(len(plan.levels))
                for trial in range(plan.trials_per_level)]

    if n_workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            chunks = list(pool.map(_call_job, jobs))
    else:
        chunks = [fn(*args) for fn, args in jobs]

    records = [record for chunk in chunks for record in chunk]
    order = {name: i for i, name in enumerate(algorithms)}
    level_pos = {level: i for i, level in enumerate(plan.levels)}
    records.sort(key=lambda r: (
        level_pos[r.nuisance["level"]], r.nuisance["trial"], order[r.algorithm]))
    return records


def _call_job(job):
    fn, args = job
    return fn(*args)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def time_algorithms(
    sizes,
    algorithms,
    spec: InstanceSpec,
    repeats: int = 10,
    *,
    base_seed: int = 0,
) -> list[EvaluationRecord]:
    """Mean grouping wall time per (algorithm, size), serially measured.

    For each size, ``repeats`` independently seeded sets are generated up
    front; each algorithm gets one untimed warm-up call and then one timed
    call per set on a monotonic clock. Set construction is excluded from
    the measurement.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    algorithms = tuple(algorithms)
    records = []
    for size_idx, size in enumerate(sizes):
        size = int(size)
        instances = [
            _build_instance(spec, "n_correspondences", size, _trial_seeds(base_seed, size_idx, rep))
            for rep in range(repeats)
        ]
        for name in algorithms:
            model, cset, params = instances[0]
            run_algorithm(name, cset, params, source_cloud=model)  # warm-up
            elapsed = []
            for model, cset, params in instances:
                start = time.perf_counter_ns()
                result = run_algorithm(name, cset, params, source_cloud=model)
                elapsed.append(time.perf_counter_ns() - start)
            mean_ns = int(round(sum(elapsed) / len(elapsed)))
            records.append(EvaluationRecord(
                algorithm=name,
                epsilon_pr=spec.epsilon_pr,
                precision=None,
                recall=None,
                n_initial=size,
                n_grouped=len(result),
                n_correct=0,
                n_gt_inliers=0,
                wall_time_ns=max(mean_ns, 1),
                params=spec.params,
                nuisance={"axis": "timing", "level": float(size), "trial": repeats},
            ))
    return records


# ---------------------------------------------------------------------------
# CSV / JSON serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float | None) -> str:
    return "" if x is None else "%.17g" % x


def _record_row(record: EvaluationRecord) -> list[str]:
    nuisance = record.nuisance
    return [
        record.algorithm,
        str(nuisance.get("axis", "")),
        _fmt_float(nuisance.get("level")),
        "" if nuisance.get("trial") is None else str(nuisance["trial"]),
        str(record.n_initial),
        str(record.n_grouped),
        str(record.n_correct),
        str(record.n_gt_inliers),
        _fmt_float(record.precision),
        _fmt_float(record.recall),
        str(record.wall_time_ns),
    ]


def records_to_csv(records) -> str:
    """Serialize records to the canonical CSV layout (one row per record)."""
    out = io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(_record_row(record))
    return out.getvalue()


def write_csv(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(records_to_csv(records))


def records_from_csv(text: str) -> list[EvaluationRecord]:
    """Parse the canonical CSV layout back into records."""
    reader = _csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise ValueError("unexpected CSV header")
    records = []
    for row in reader:
        if not row:
            continue
        (algorithm, axis, level, trial, n_initial, n_grouped,
         n_correct, n_gt, precision, recall, wall_time_ns) = row
        nuisance = {"axis": axis}
        if level:
            nuisance["level"] = float(level)
        if trial:
            nuisance["trial"] = int(trial)
        records.append(EvaluationRecord(
            algorithm=algorithm,
            epsilon_pr=float("nan"),
            precision=float(precision) if precision else None,
            recall=float(recall) if recall else None,
            n_initial=int(n_initial),
            n_grouped=int(n_grouped),
            n_correct=int(n_correct),
            n_gt_inliers=int(n_gt),
            wall_time_ns=int(wall_time_ns),
            nuisance=nuisance,
        ))
    return records


def read_csv(path) -> list[EvaluationRecord]:
    with open(path, "r", encoding="ascii") as handle:
        return records_from_csv(handle.read())


def records_to_json(records) -> str:
    """JSON array mirroring the CSV columns (undefined values are null)."""
    rows = []
    for record in records:
        nuisance = record.nuisance
        rows.append({
            "algorithm": record.algorithm,
            "axis": nuisance.get("axis", ""),
            "level": nuisance.get("level"),
            "trial": nuisance.get("trial"),
            "n_initial": record.n_initial,
            "n_grouped": record.n_grouped,
            "n_correct": record.n_correct,
            "n_gt": record.n_gt_inliers,
            "precision": record.precision,
            "recall": record.recall,
            "wall_time_ns": record.wall_time_ns,
        })
    return json.dumps(rows, indent=2)


def records_from_json(text: str) -> list[EvaluationRecord]:
    rows = json.loads(text)
    records = []
    for row in rows:
        nuisance = {"axis": row.get("axis", "")}
        if row.get("level") is not None:
            nuisance["level"] = float(row["level"])
        if row.get("trial") is not None:
            nuisance["trial"] = int(row["trial"])
        records.append(EvaluationRecord(
            algorithm=row["algorithm"],
            epsilon_pr=float("nan"),
            precision=row.get("precision"),
            recall=row.get("recall"),
            n_initial=int(row["n_initial"]),
            n_grouped=int(row["n_grouped"]),
            n_correct=int(row["n_correct"]),
            n_gt_inliers=int(row["n_gt"]),
            wall_time_ns=int(row["wall_time_ns"]),
            nuisance=nuisance,
        ))
    return records
