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
import math
import operator
import os
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

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
from .synthbench import DEFAULT_EPSILON_PR, CorrespondenceRecipe, SceneRecipe, _check_model, _check_set_size
from .synthbench import _kept_count, generate_correspondences, generate_scene, make_test_model

SWEEP_AXES = (
    "noise_sigma_pr",
    "downsample_ratio",
    "inlier_ratio",
    "epsilon_pr",
    "n_correspondences",
)

# The record schema: each column's name, its type, and whether its value
# may be undefined (None in a typed row, an empty CSV field, JSON null).
_SCHEMA = (
    ("algorithm", str, False), ("axis", str, False), ("level", float, True), ("trial", int, True),
    ("n_initial", int, False), ("n_grouped", int, False), ("n_correct", int, False), ("n_gt", int, False),
    ("precision", float, True), ("recall", float, True), ("wall_time_ns", int, False),
)
CSV_COLUMNS, _COLUMN_TYPES, _OPTIONAL = zip(*_SCHEMA)
# The types of the JSON values each column takes: a float column takes an
# int too, no column takes a bool (JSON true is no count), and only an
# optional column takes null.
_JSON_TYPES = tuple(frozenset({kind, int} if kind is float else {kind}) | ({type(None)} if optional else set())
                    for kind, optional in zip(_COLUMN_TYPES, _OPTIONAL))
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


def _check_tolerance(value: float, name: str = "epsilon") -> None:
    """The judging tolerance rule: raise ``ValueError`` naming ``name``
    unless ``value`` is positive and finite."""
    if not (0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite")


def _residuals(source: np.ndarray, target: np.ndarray, ground_truth: RigidTransform) -> np.ndarray:
    """The (n,) ground-truth residuals |R p + t - q| of (n, 3) point rows.

    einsum without ``optimize`` never routes to BLAS, whose results depend
    on the shape of the call, so a row gets the same bits alone or in any set."""
    mapped = np.einsum("nj,ij->ni", source, ground_truth.rotation) + ground_truth.translation
    return np.linalg.norm(mapped - target, axis=1)


def judge(c: Correspondence, ground_truth: RigidTransform, epsilon: float) -> bool:
    """True when the ground-truth residual of c is within epsilon (inclusive)."""
    _check_tolerance(epsilon)
    return bool(_residuals(c.source_point[None], c.target_point[None], ground_truth)[0] <= epsilon)


def judge_set(cset: CorrespondenceSet, epsilon: float) -> np.ndarray:
    """Boolean judgment mask over a whole correspondence set."""
    _check_tolerance(epsilon)
    if cset.ground_truth is None:
        raise ValueError("correspondence set has no ground truth")
    return _residuals(cset.source_points, cset.target_points, cset.ground_truth) <= epsilon


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
        if self.n_grouped > self.n_initial:
            raise ValueError("n_grouped exceeds n_initial")
        for name in ("precision", "recall"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be None or in [0, 1], got {value!r}")
        if self.wall_time_ns < 0:
            raise ValueError("wall_time_ns must be non-negative")


def score(
    result: GroupingResult,
    cset: CorrespondenceSet,
    epsilon_pr: float = DEFAULT_EPSILON_PR,
    *,
    algorithm: str = "",
    params: AlgorithmParams | None = None,
    nuisance: dict | None = None,
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
    """Base model, recipes, and parameters shared by a sweep or benchmark.

    The model is checked here; whether a set and a downsampled scene fit
    on it is checked on each spec that is generated (:func:`_spec_at`), as
    a sweep replaces this spec's own set size or ratio."""

    model_kind: str = "torus"
    model_points: int = 4000
    model_seed: int = 0
    scene: SceneRecipe = field(default_factory=SceneRecipe)
    corr: CorrespondenceRecipe = field(default_factory=CorrespondenceRecipe)
    params: AlgorithmParams = field(default_factory=AlgorithmParams)
    epsilon_pr: float = DEFAULT_EPSILON_PR

    def __post_init__(self):
        _check_model(self.model_kind, self.model_points)
        _check_tolerance(self.epsilon_pr, "epsilon_pr")


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
        if any(not (b > a) for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if type(self.trials_per_level) is not int or self.trials_per_level < 1:
            raise ValueError(f"trials_per_level must be positive and an integer, got {self.trials_per_level!r}")
        for level in levels:
            _spec_at(self.base, self.axis, level)
        object.__setattr__(self, "levels", levels)


def _spec_at(spec: InstanceSpec, axis: str, level: float) -> InstanceSpec:
    """``spec`` with the field that nuisance ``axis`` sweeps set to ``level``.

    The recipe or spec that owns the field validates the level, and the
    level's set and downsampled scene must fit on the model, so a sweep or
    bench plan can be checked before any set is generated.
    """
    if axis == "noise_sigma_pr":
        spec = replace(spec, scene=replace(spec.scene, noise_sigma_pr=level))
    elif axis == "downsample_ratio":
        spec = replace(spec, scene=replace(spec.scene, downsample_ratio=level))
    elif axis == "inlier_ratio":
        spec = replace(spec, corr=replace(spec.corr, inlier_ratio=level))
    elif axis == "n_correspondences":
        if not float(level).is_integer():
            raise ValueError(f"n_correspondences levels must be integers, got {level!r}")
        spec = replace(spec, corr=replace(spec.corr, n_total=int(level)))
    else:  # the epsilon_pr axis
        spec = replace(spec, epsilon_pr=level)
    _check_set_size(spec.corr.n_total, spec.model_points)
    _kept_count(spec.scene.downsample_ratio, spec.model_points)
    return spec


@lru_cache(maxsize=8)
def _cached_model(kind: str, n_points: int, seed: int) -> PointCloud:
    return make_test_model(kind, n_points, seed)


def _trial_seeds(base_seed: int, *spawn_key: int) -> tuple[int, int, int, int]:
    """Rotation, scene, correspondence and algorithm seeds of the instance at ``spawn_key``."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=spawn_key)
    return tuple(int(s) for s in seq.generate_state(4, dtype=np.uint64))


def _build_instance(spec: InstanceSpec, seeds: tuple[int, int, int, int]):
    """Model, scene, correspondence set, and params of ``spec`` at the :func:`_trial_seeds` ``seeds``."""
    rot_seed, scene_seed, corr_seed, algo_seed = seeds
    scene_recipe = replace(spec.scene, rotation_seed=rot_seed, rng_seed=scene_seed)
    corr_recipe = replace(spec.corr, rng_seed=corr_seed)
    model = _cached_model(spec.model_kind, spec.model_points, spec.model_seed)
    scene, ground_truth = generate_scene(model, scene_recipe)
    cset = generate_correspondences(model, scene, ground_truth, corr_recipe)
    params = replace(spec.params, rng_seed=algo_seed)
    return model, scene, cset, params


def _run_cell(plan: SweepPlan, algorithms: tuple[str, ...], level_idx: int,
              trial: int) -> list[EvaluationRecord]:
    """Records of one (level, trial) cell: each algorithm runs once on the
    cell's set, then is scored at the cell's level; on the epsilon axis,
    where only judging depends on the level, at every level."""
    level = plan.levels[level_idx]
    on_epsilon = plan.axis == "epsilon_pr"
    try:
        model, _, cset, params = _build_instance(
            _spec_at(plan.base, plan.axis, level), _trial_seeds(plan.base_seed, level_idx, trial))
        results = {name: run_algorithm(name, cset, params, source_cloud=model)
                   for name in algorithms}
        return [
            score(results[name], cset, scored if on_epsilon else plan.base.epsilon_pr,
                  algorithm=name, params=params,
                  nuisance={"axis": plan.axis, "level": scored, "trial": trial})
            for scored in (plan.levels if on_epsilon else (level,))
            for name in algorithms
        ]
    except Exception as exc:
        where = f"trial={trial}" if on_epsilon else f"level={level} trial={trial}"
        raise RuntimeError(f"sweep failed at axis={plan.axis} {where}: {exc}") from exc


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
    level_idxs = (0,) if plan.axis == "epsilon_pr" else range(len(plan.levels))
    cells = [(level_idx, trial) for level_idx in level_idxs
             for trial in range(plan.trials_per_level)]
    run_cell = partial(_run_cell, plan, algorithms)
    if n_workers > 1 and len(cells) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(n_workers, len(cells))) as pool:
            chunks = list(pool.map(run_cell, *zip(*cells)))
    else:
        chunks = [run_cell(*cell) for cell in cells]

    level_pos = {level: i for i, level in enumerate(plan.levels)}
    # Stable: only an epsilon-axis cell, one per trial, spans several levels.
    return sorted((record for chunk in chunks for record in chunk),
                  key=lambda record: level_pos[record.nuisance["level"]])


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def blas_threads_line() -> str:
    """The BLAS thread settings a timing runs under, as one printable line.

    The BLAS thread count moves the times of BLAS-backed stages such as
    st's power iteration, though not any output, so a timing should name it.
    """
    return "BLAS threads: " + " ".join(
        f"{name}={os.environ.get(name) or 'unset'}" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


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
    if type(repeats) is not int or repeats < 1:
        raise ValueError(f"repeats must be >= 1 and an integer, got {repeats!r}")
    specs = [_spec_at(spec, "n_correspondences", size) for size in sizes]
    algorithms = tuple(algorithms)
    records = []
    for size_idx, sized in enumerate(specs):
        size = sized.corr.n_total
        instances = [_build_instance(sized, _trial_seeds(base_seed, size_idx, rep))
                     for rep in range(repeats)]
        for name in algorithms:
            model, _, cset, params = instances[0]
            run_algorithm(name, cset, params, source_cloud=model)  # warm-up
            elapsed = []
            for model, _, cset, params in instances:
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

def _record_values(record: EvaluationRecord) -> tuple:
    """The typed row of a record: its values in CSV_COLUMNS order, None where undefined."""
    nuisance = record.nuisance
    return (record.algorithm, nuisance.get("axis", ""), nuisance.get("level"), nuisance.get("trial"),
            record.n_initial, record.n_grouped, record.n_correct, record.n_gt_inliers,
            record.precision, record.recall, record.wall_time_ns)


def _record_from_row(row) -> EvaluationRecord:
    """A record from a typed row (see :func:`_record_values`)."""
    (algorithm, axis, level, trial, n_initial, n_grouped, n_correct, n_gt,
     precision, recall, wall_time_ns) = row
    nuisance = {"axis": axis}
    if level is not None:
        nuisance["level"] = level
    if trial is not None:
        nuisance["trial"] = trial
    return EvaluationRecord(
        algorithm=algorithm, epsilon_pr=float("nan"), precision=precision, recall=recall,
        n_initial=n_initial, n_grouped=n_grouped, n_correct=n_correct, n_gt_inliers=n_gt,
        wall_time_ns=wall_time_ns, nuisance=nuisance)


def records_to_csv(records) -> str:
    """Serialize records to the canonical CSV layout (one row per record)."""
    out = io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(["" if value is None else "%.17g" % value if kind is float else str(value)
                         for kind, value in zip(_COLUMN_TYPES, _record_values(record))])
    return out.getvalue()


def write_csv(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(records_to_csv(records))


def records_from_csv(text: str) -> list[EvaluationRecord]:
    """Parse the canonical CSV layout back into records."""
    reader = _csv.reader(io.StringIO(text))
    if next(reader, None) != list(CSV_COLUMNS):
        raise ValueError("unexpected CSV header")
    rows = [row for row in reader if row]
    if not rows:
        return []
    # A column at a time, so that map() converts the required columns.
    columns = ([None if value == "" else kind(value) for value in column] if optional else list(map(kind, column))
               for kind, optional, column in zip(_COLUMN_TYPES, _OPTIONAL, zip(*rows, strict=True), strict=True))
    return [_record_from_row(row) for row in zip(*columns)]


def read_csv(path) -> list[EvaluationRecord]:
    with open(path, "r", encoding="ascii") as handle:
        return records_from_csv(handle.read())


def records_to_json(records) -> str:
    """JSON array mirroring the CSV columns (undefined values are null)."""
    return json.dumps([dict(zip(CSV_COLUMNS, _record_values(record))) for record in records], indent=2)


def records_from_json(text: str) -> list[EvaluationRecord]:
    """Parse the JSON array back into records; every row has every column,
    each value of the type its column takes (see ``_SCHEMA``)."""
    rows = json.loads(text)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError("expected a JSON array of records")
    values_of = operator.itemgetter(*CSV_COLUMNS)
    records = []
    for row in rows:
        try:
            values = values_of(row)
        except KeyError:
            missing = next(column for column in CSV_COLUMNS if column not in row)
            raise ValueError(f"record lacks column {missing!r}") from None
        if not all(map(frozenset.__contains__, _JSON_TYPES, map(type, values))):
            column, kind, optional = next(spec for spec, value, types in zip(_SCHEMA, values, _JSON_TYPES)
                                          if type(value) not in types)
            raise ValueError(f"record column {column!r} must be {_TYPE_NAMES[kind]}"
                             f"{' or null' if optional else ''}, not {row[column]!r}")
        records.append(_record_from_row(values))
    return records
