import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgroup import (
    MODEL_KINDS,
    AlgorithmParams,
    Correspondence,
    CorrespondenceRecipe,
    CorrespondenceSet,
    EvaluationRecord,
    GroupingResult,
    InstanceSpec,
    RigidTransform,
    SceneRecipe,
    SweepPlan,
    generate_correspondences,
    generate_scene,
    judge,
    make_test_model,
    records_from_csv,
    records_to_csv,
    run_sweep,
    score,
    time_algorithms,
)
from corrgroup import evaluation
from corrgroup.evaluation import records_from_json, records_to_json

NAN = float("nan")


def identity_set(n, gt=True):
    """n correspondences under the identity transform at chosen residuals."""
    items = tuple(
        Correspondence(np.array([float(i), 0.0, 0.0]), np.array([float(i), 0.0, 0.0]),
                       0.9, 0.1, 1.0)
        for i in range(n)
    )
    truth = RigidTransform.identity() if gt else None
    return CorrespondenceSet(items, source_resolution_pr=1.0, ground_truth=truth)


def displaced_set(residuals, pr=1.0):
    """One correspondence per residual, displaced along x from the truth."""
    items = tuple(
        Correspondence(np.array([float(i) * 100.0, 0.0, 0.0]),
                       np.array([float(i) * 100.0 + r, 0.0, 0.0]),
                       0.9, 0.1, 1.0)
        for i, r in enumerate(residuals)
    )
    return CorrespondenceSet(items, source_resolution_pr=pr,
                             ground_truth=RigidTransform.identity())


class TestJudge:
    def test_exact_inlier(self):
        c = Correspondence(np.zeros(3), np.zeros(3), 0.9, 0.1, 1.0)
        assert judge(c, RigidTransform.identity(), 0.001)

    def test_boundary_inclusive(self):
        c = Correspondence(np.zeros(3), np.array([0.25, 0.0, 0.0]), 0.9, 0.1, 1.0)
        assert judge(c, RigidTransform.identity(), 0.25)

    def test_outside(self):
        c = Correspondence(np.zeros(3), np.array([5.0, 0.0, 0.0]), 0.9, 0.1, 1.0)
        assert not judge(c, RigidTransform.identity(), 4.0)

    def test_rejects_nan_epsilon(self):
        c = Correspondence(np.zeros(3), np.zeros(3), 0.9, 0.1, 1.0)
        with pytest.raises(ValueError, match="positive"):
            judge(c, RigidTransform.identity(), NAN)

    def test_rejects_infinite_epsilon(self):
        c = Correspondence(np.zeros(3), np.array([50.0, 0.0, 0.0]), 0.9, 0.1, 1.0)
        with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
            judge(c, RigidTransform.identity(), float("inf"))

    def test_judge_set_rejects_infinite_epsilon(self):
        with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
            evaluation.judge_set(displaced_set([0.0, 50.0]), float("inf"))

    def test_requires_positive_epsilon(self):
        c = Correspondence(np.zeros(3), np.zeros(3), 0.9, 0.1, 1.0)
        with pytest.raises(ValueError):
            judge(c, RigidTransform.identity(), 0.0)


@lru_cache(maxsize=None)
def generated_set(kind, seed):
    model = make_test_model(kind, 2000, seed)
    scene, truth = generate_scene(model, SceneRecipe(rotation_seed=seed, rng_seed=seed + 1))
    return generate_correspondences(model, scene, truth,
                                    CorrespondenceRecipe(n_total=200, inlier_ratio=0.3, rng_seed=seed + 2))


def rows_of(cset, rows, shift_source=0.0, shift_target=0.0, truth=None):
    """The set of the given rows, without frames, each side shifted, judged
    against ``truth`` (by default the set's)."""
    return CorrespondenceSet.from_arrays(
        cset.source_points[rows] + shift_source, cset.target_points[rows] + shift_target,
        cset.similarities[rows], cset.nn_distances[rows], cset.second_nn_distances[rows],
        cset.source_resolution_pr, ground_truth=truth or cset.ground_truth)


def ulp_neighbours(value):
    """value and its floats 1 and 2 ulps below and above, the positive ones."""
    below = np.nextafter(value, 0.0)
    above = np.nextafter(value, np.inf)
    values = (np.nextafter(below, 0.0), below, value, above, np.nextafter(above, np.inf))
    return [float(v) for v in values if v > 0]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), seed=st.integers(0, 2), exponent=st.integers(0, 6),
       data=st.data())
def test_a_row_is_judged_the_same_alone_and_in_any_set(kind, seed, exponent, data):
    """With epsilon at a row's residual, as a one-row or a whole-set transform
    computes it, and at its 1- and 2-ulp neighbours, ``judge`` on the row and
    ``judge_set`` on its set, on a permuted copy and on a subset agree."""
    full = generated_set(kind, seed)
    rows = data.draw(st.lists(st.integers(0, len(full) - 1), min_size=2, max_size=60, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Move both sides far from the origin; the truth moves with them.
    shift_source, shift_target = rng.uniform(-1.0, 1.0, (2, 3)) * 10.0**exponent
    truth = full.ground_truth
    truth = RigidTransform(truth.rotation, truth.translation + shift_target - truth.rotation @ shift_source)
    cset = rows_of(full, rows, shift_source, shift_target, truth)
    n = len(cset)
    order = rng.permutation(n)
    position = np.argsort(order)
    permuted = rows_of(cset, order)
    kept = rng.random(n) < 0.5
    parts = [(np.flatnonzero(mask), rows_of(cset, mask)) for mask in (kept, ~kept)]
    in_set = np.linalg.norm(truth.apply(cset.source_points) - cset.target_points, axis=1)
    for i, c in enumerate(cset.items):
        alone = float(np.linalg.norm(truth.apply(c.source_point) - c.target_point))
        for epsilon in ulp_neighbours(alone) + ulp_neighbours(in_set[i]):
            verdict = judge(c, truth, epsilon)
            assert evaluation.judge_set(cset, epsilon)[i] == verdict, (i, epsilon)
            assert evaluation.judge_set(permuted, epsilon)[position[i]] == verdict, (i, epsilon)
            members, part = parts[0] if kept[i] else parts[1]
            assert evaluation.judge_set(part, epsilon)[np.searchsorted(members, i)] == verdict, (i, epsilon)


class TestScore:
    def test_plain_arithmetic(self):
        # 20 ground-truth inliers; group 10 of which 5 are correct.
        residuals = [0.0] * 20 + [50.0] * 10
        cset = displaced_set(residuals)
        grouped = GroupingResult(tuple(range(15, 25)))  # 5 inliers + 5 outliers
        record = score(grouped, cset, epsilon_pr=4.0)
        assert record.n_gt_inliers == 20
        assert record.n_grouped == 10
        assert record.n_correct == 5
        assert record.precision == 0.5
        assert record.recall == 0.25
        # exact identities, integer-checked before division
        assert record.precision * record.n_grouped == record.n_correct
        assert record.recall * record.n_gt_inliers == record.n_correct

    def test_empty_group_precision_undefined(self):
        cset = displaced_set([0.0] * 5)
        record = score(GroupingResult(()), cset, 4.0)
        assert record.precision is None
        assert record.recall == 0.0

    def test_no_gt_inliers_recall_undefined(self):
        cset = displaced_set([50.0] * 5)
        record = score(GroupingResult((0, 1)), cset, 4.0)
        assert record.recall is None
        assert record.precision == 0.0

    def test_perfect_grouping(self):
        cset = displaced_set([0.0] * 8 + [50.0] * 4)
        record = score(GroupingResult(tuple(range(8))), cset, 4.0)
        assert record.precision == 1.0 and record.recall == 1.0

    def test_rejects_nan_epsilon(self):
        # NaN passes an `epsilon <= 0` check and then judges every correspondence wrong.
        with pytest.raises(ValueError, match="positive"):
            score(GroupingResult((0, 1)), identity_set(3), NAN)

    def test_missing_ground_truth_rejected(self):
        cset = identity_set(3, gt=False)
        with pytest.raises(ValueError, match="no ground truth"):
            score(GroupingResult((0,)), cset, 4.0)

    def test_epsilon_monotonicity_fixed_grouping(self):
        rng = np.random.default_rng(3)
        residuals = rng.uniform(0.0, 12.0, 40)
        cset = displaced_set(list(residuals))
        grouped = GroupingResult(tuple(range(0, 40, 2)))
        previous_p, previous_r = -1.0, -1.0
        for eps in range(2, 11):
            record = score(grouped, cset, float(eps))
            assert record.precision >= previous_p
            if record.recall is not None and previous_r >= 0:
                pass  # recall denominators change with epsilon; only precision is monotone
            previous_p = record.precision


class TestEvaluationRecordValidation:
    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError, match="n_correct"):
            EvaluationRecord("ss", 4.0, 1.0, 1.0, 10, 5, 7, 6)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            EvaluationRecord("ss", 4.0, None, None, -1, 0, 0, 0)

    def test_rejects_more_grouped_than_initial(self):
        with pytest.raises(ValueError, match="n_grouped exceeds n_initial"):
            EvaluationRecord("ss", 4.0, None, None, 10, 50, 0, 0)

    @pytest.mark.parametrize("field", ["precision", "recall"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, -0.5, float("inf")])
    def test_rejects_a_ratio_outside_the_unit_interval(self, field, value):
        ratios = {"precision": 1.0, "recall": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be None or in"):
            EvaluationRecord("ss", 4.0, ratios["precision"], ratios["recall"], 10, 5, 5, 5)


def small_plan(axis="inlier_ratio", levels=(0.3, 0.7), trials=2, **corr_overrides):
    corr = CorrespondenceRecipe(
        n_total=60, inlier_ratio=0.5, inlier_jitter_pr=0.5,
        outlier_min_offset_pr=10.0, lrf_noise_deg=3.0,
        **corr_overrides)
    spec = InstanceSpec(
        model_kind="torus", model_points=1200, model_seed=0,
        scene=SceneRecipe(), corr=corr,
        params=AlgorithmParams(n_ransac=300), epsilon_pr=4.0)
    return SweepPlan(axis=axis, levels=levels, trials_per_level=trials,
                     base=spec, base_seed=42)


class TestRunSweep:
    def test_record_count_and_order(self):
        plan = small_plan(axis="inlier_ratio", levels=(0.1, 0.5, 0.9), trials=1)
        records = run_sweep(plan, algorithms=("ss", "gc"))
        assert len(records) == 3 * 1 * 2
        keys = [(r.nuisance["level"], r.nuisance["trial"], r.algorithm) for r in records]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], ["ss", "gc"].index(k[2])))

    def test_deterministic_records(self):
        plan = small_plan()
        a = records_to_csv(run_sweep(plan, algorithms=("nnsr", "ransac")))
        b = records_to_csv(run_sweep(plan, algorithms=("nnsr", "ransac")))
        assert a == b

    def test_epsilon_axis_groups_once_and_is_monotone(self):
        plan = small_plan(axis="epsilon_pr", levels=(2.0, 4.0, 6.0, 8.0, 10.0), trials=2)
        records = run_sweep(plan, algorithms=("ss", "nnsr", "gc"))
        assert len(records) == 5 * 2 * 3
        by_algo_trial = {}
        for r in records:
            by_algo_trial.setdefault((r.algorithm, r.nuisance["trial"]), []).append(r)
        for series in by_algo_trial.values():
            series.sort(key=lambda r: r.nuisance["level"])
            # same grouping at every level
            assert len({r.n_grouped for r in series}) == 1
            precisions = [r.precision for r in series if r.precision is not None]
            assert precisions == sorted(precisions)

    def test_inlier_ratio_axis_changes_gt_count(self):
        plan = small_plan(axis="inlier_ratio", levels=(0.2, 0.8), trials=1)
        records = run_sweep(plan, algorithms=("ss",))
        low, high = records[0], records[1]
        assert low.n_gt_inliers == 12   # round(0.2 * 60)
        assert high.n_gt_inliers == 48  # round(0.8 * 60)

    def test_n_correspondences_axis(self):
        plan = small_plan(axis="n_correspondences", levels=(40.0, 80.0), trials=1)
        records = run_sweep(plan, algorithms=("gc",))
        assert records[0].n_initial == 40
        assert records[1].n_initial == 80

    def test_parallel_matches_serial(self):
        plan = small_plan(trials=2)
        serial = records_to_csv(run_sweep(plan, algorithms=("ss", "gc")))
        parallel = records_to_csv(run_sweep(plan, algorithms=("ss", "gc"), n_workers=2))
        assert serial == parallel

    def test_error_carries_context(self):
        # Every model point as a keypoint passes the plan's checks, but three
        # of the 1200 have no stable frame, so the cell fails at run time.
        plan = small_plan(axis="n_correspondences", levels=(40.0, 1200.0), trials=1)
        with pytest.raises(RuntimeError, match="level=1200.0 trial=0: only 1197 of 1200 keypoints"):
            run_sweep(plan, algorithms=("ss",))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_sweep(small_plan(), algorithms=("nope",))

    def test_pool_never_larger_than_the_cell_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(evaluation.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        plan = small_plan(levels=(0.3, 0.5, 0.7), trials=1)
        records = run_sweep(plan, algorithms=("ss",), n_workers=64)
        assert sizes == [3]
        assert records_to_csv(records) == records_to_csv(run_sweep(plan, algorithms=("ss",)))

    @pytest.mark.parametrize("levels", [(NAN, 1.0), (1.0, NAN)])
    def test_plan_rejects_nan_level(self, levels):
        with pytest.raises(ValueError, match="strictly increasing"):
            small_plan(levels=levels)

    def test_spec_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            InstanceSpec(epsilon_pr=NAN)

    def test_spec_rejects_infinite_epsilon(self):
        with pytest.raises(ValueError, match="^epsilon_pr must be positive and finite$"):
            InstanceSpec(epsilon_pr=float("inf"))

    def test_spec_checks_the_model(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            InstanceSpec(model_kind="cube")
        with pytest.raises(ValueError, match="n_points must be >= 100"):
            InstanceSpec(model_points=50, corr=CorrespondenceRecipe(n_total=10))

    def test_plan_rejects_a_level_larger_than_the_model(self):
        with pytest.raises(ValueError, match="n_total exceeds the number of model points"):
            small_plan(axis="n_correspondences", levels=(100, 5000))
        with pytest.raises(ValueError, match="n_total exceeds the number of model points"):
            SweepPlan(axis="inlier_ratio", levels=(0.3, 0.7), trials_per_level=1,
                      base=InstanceSpec(model_points=500))  # the default n_total of 1000
        with pytest.raises(ValueError, match="n_total exceeds the number of model points"):
            time_algorithms((100, 5000), ("ss",), InstanceSpec(), repeats=1)

    def test_set_size_axis_checks_the_levels_not_the_base_set(self):
        # The base spec's default n_total of 1000 does not fit on 500
        # points, but a sweep over the set size generates only its levels.
        plan = SweepPlan(axis="n_correspondences", levels=(100, 200), trials_per_level=1,
                         base=InstanceSpec(model_points=500))
        assert plan.levels == (100.0, 200.0)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            small_plan(levels=(0.5, 0.5))
        with pytest.raises(ValueError, match="at least 2"):
            small_plan(levels=(0.5,))
        with pytest.raises(ValueError, match="unknown sweep axis"):
            small_plan(axis="bogus")


class TestTiming:
    def test_row_counts_and_positive_times(self):
        spec = InstanceSpec(
            model_kind="torus", model_points=1200,
            corr=CorrespondenceRecipe(n_total=50, inlier_ratio=0.4,
                                      outlier_min_offset_pr=10.0),
            params=AlgorithmParams(n_ransac=100))
        records = time_algorithms((40, 60), ("nnsr", "gc"), spec, repeats=3)
        assert len(records) == 4
        assert all(r.wall_time_ns > 0 for r in records)
        assert [r.n_initial for r in records] == [40, 40, 60, 60]

    def test_repeats_validation(self):
        spec = InstanceSpec()
        with pytest.raises(ValueError):
            time_algorithms((40,), ("ss",), spec, repeats=0)


class TestSerialization:
    def sample_records(self):
        plan = small_plan(trials=1)
        return run_sweep(plan, algorithms=("ss", "nnsr", "gc"))

    def test_csv_roundtrip_lossless(self):
        records = self.sample_records()
        text = records_to_csv(records)
        parsed = records_from_csv(text)
        assert records_to_csv(parsed) == text

    def test_csv_header(self):
        text = records_to_csv([])
        assert text.splitlines()[0] == (
            "algorithm,axis,level,trial,n_initial,n_grouped,n_correct,n_gt,"
            "precision,recall,wall_time_ns")

    def test_undefined_flags_serialize_empty(self):
        record = EvaluationRecord("ss", 4.0, None, None, 5, 0, 0, 0,
                                  nuisance={"axis": "inlier_ratio", "level": 0.1, "trial": 0})
        line = records_to_csv([record]).splitlines()[1]
        assert ",,," in line or line.endswith(",,0") or ",," in line
        parsed = records_from_csv(records_to_csv([record]))[0]
        assert parsed.precision is None and parsed.recall is None

    def test_json_roundtrip(self):
        records = self.sample_records()
        text = records_to_json(records)
        parsed = records_from_json(text)
        assert records_to_json(parsed) == text
        assert records_to_csv(parsed) == records_to_csv(records)

    def test_csv_rejects_foreign_header(self):
        with pytest.raises(ValueError, match="header"):
            records_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("precision,recall,counts,message", [
        ("nan", "0.5", "10,5,5,10", "precision"),
        ("2.5", "0.5", "10,5,5,10", "precision"),
        ("0.5", "nan", "10,5,5,10", "recall"),
        ("", "", "10,50,0,0", "n_grouped exceeds n_initial"),
    ])
    def test_csv_rejects_records_no_run_produces(self, precision, recall, counts, message):
        text = records_to_csv([]) + f"ss,inlier_ratio,0.5,0,{counts},{precision},{recall},0\n"
        with pytest.raises(ValueError, match=message):
            records_from_csv(text)

    @pytest.mark.parametrize("text", ["{}", '{"algorithm": "ss"}', "[1]", '"ss"'])
    def test_json_rejects_anything_but_an_array_of_records(self, text):
        with pytest.raises(ValueError, match="^expected a JSON array"):
            records_from_json(text)

    def test_json_names_the_missing_column(self):
        with pytest.raises(ValueError, match="lacks column 'algorithm'"):
            records_from_json("[{}]")
        row = {column: None for column in evaluation.CSV_COLUMNS if column != "recall"}
        with pytest.raises(ValueError, match="lacks column 'recall'"):
            records_from_json(json.dumps([row]))

    @pytest.mark.parametrize("column,value,message", [
        ("n_initial", "10", "'n_initial' must be an integer, not '10'"),
        ("precision", "1.0", "'precision' must be a number or null, not '1.0'"),
        ("n_gt", 10.7, "'n_gt' must be an integer, not 10.7"),
        ("n_correct", True, "'n_correct' must be an integer, not True"),
    ])
    def test_json_names_the_column_of_a_mistyped_value(self, column, value, message):
        row = json.loads(records_to_json(self.sample_records()))[0]
        row[column] = value
        with pytest.raises(ValueError, match=f"^record column {message}$"):
            records_from_json(json.dumps([row]))


@pytest.mark.parametrize("trials", [1.5, 2.0, True])
def test_plan_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="^trials_per_level must be positive and an integer"):
        small_plan(trials=trials)


@pytest.mark.parametrize("repeats", [1.5, 2.0, True])
def test_timing_rejects_non_integer_repeats(repeats):
    with pytest.raises(ValueError, match="^repeats must be >= 1 and an integer"):
        time_algorithms((40,), ("ss",), InstanceSpec(), repeats=repeats)
