import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from corrgroup import (
    AlgorithmParams,
    GroupingResult,
    evaluation,
    load_correspondences,
    load_ground_truth,
    load_ply,
    records_from_csv,
)
from corrgroup.cli import ValidationFailure, main, parse_levels


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def generated_sets(monkeypatch):
    """Counts the correspondence sets the harness generates."""
    calls = []
    generate = evaluation.generate_correspondences

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(evaluation, "generate_correspondences", counting)
    return calls


@pytest.fixture
def synth_files(tmp_path):
    code = run_cli(
        "synth", "--model", "torus", "--model-points", "1500",
        "--n", "120", "--inlier-ratio", "0.4", "--lrf-noise-deg", "3",
        "--seed", "7", "--out-dir", str(tmp_path), "--prefix", "case")
    assert code == 0
    return {
        "scene": tmp_path / "case_scene.ply",
        "corrs": tmp_path / "case_corrs.txt",
        "gt": tmp_path / "case_gt.txt",
    }


class TestParseLevels:
    def test_range_inclusive_when_step_divides(self):
        levels = parse_levels("0.1:0.9:0.1")
        assert levels == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_integer_range(self):
        assert parse_levels("2:10:1") == (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

    def test_range_stops_at_or_below_end(self):
        assert parse_levels("0.1:0.5:0.15") == (0.1, 0.25, 0.4)

    def test_comma_list(self):
        assert parse_levels("250,500,1000") == (250.0, 500.0, 1000.0)

    def test_rejects_garbage(self):
        with pytest.raises(ValidationFailure):
            parse_levels("abc")
        with pytest.raises(ValidationFailure):
            parse_levels("1:0:1")
        with pytest.raises(ValidationFailure):
            parse_levels("5")

    @pytest.mark.parametrize("spec", ["0:inf:1", "-inf:0:1", "0:1:inf", "0:nan:1"])
    def test_rejects_non_finite_range(self, spec):
        with pytest.raises(ValidationFailure, match="bad --levels value"):
            parse_levels(spec)


@pytest.mark.parametrize("argv, message", [
    (("synth", "--model-points", "50", "--n", "10"), "n_points must be >= 100"),
    (("synth", "--model-points", "150", "--n", "200"), "n_total exceeds the number of model points"),
    (("sweep", "--axis", "n-correspondences", "--levels", "100,5000", "--algo", "ss"),
     "n_total exceeds the number of model points"),
    (("bench", "--sizes", "100,5000", "--algo", "ss"), "n_total exceeds the number of model points"),
    (("synth", "--downsample-ratio", "0.0001"), "downsampling would leave fewer than 2 points"),
    (("sweep", "--axis", "downsample", "--levels", "0.0001,0.5", "--algo", "ss"),
     "downsampling would leave fewer than 2 points"),
    (("bench", "--sizes", "40", "--repeats", "1", "--downsample-ratio", "0.0001", "--algo", "ss"),
     "downsampling would leave fewer than 2 points"),
])
def test_model_size_errors_exit_2_before_any_set(tmp_path, capsys, generated_sets, argv, message):
    out = ("--out-dir", str(tmp_path / "out")) if argv[0] == "synth" else ("--out", str(tmp_path / "out.csv"))
    assert run_cli(*argv, *out) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert generated_sets == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("sweep", "--axis", "n-correspondences", "--levels", "40,60", "--trials", "1"),
    ("bench", "--sizes", "40,60", "--repeats", "1"),
])
def test_set_size_axis_checks_each_level_not_the_default_n(tmp_path, argv):
    # The default --n of 1000 exceeds the 600-point model, but only the
    # swept sizes are generated, and they fit.
    assert run_cli(*argv, "--model-points", "600", "--algo", "ss", "--out", str(tmp_path / "out.csv")) == 0
    assert (tmp_path / "out.csv").exists()


class TestSynth:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--model", "sphere", "--model-points", "2000",
            "--n", "1000", "--inlier-ratio", "0.3", "--seed", "7",
            "--out-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "true_inliers=300" in out
        scene = load_ply(tmp_path / "synth_scene.ply")
        assert len(scene) == 2000
        cset = load_correspondences(tmp_path / "synth_corrs.txt")
        assert len(cset) == 1000 and cset.has_lrfs
        load_ground_truth(tmp_path / "synth_gt.txt")

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            code = run_cli(
                "synth", "--model", "torus", "--model-points", "1200",
                "--n", "80", "--inlier-ratio", "0.5", "--seed", "3",
                "--out-dir", str(tmp_path / sub))
            assert code == 0
        for name in ("synth_scene.ply", "synth_corrs.txt", "synth_gt.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_ratio_exit_2(self, tmp_path, capsys):
        code = run_cli("synth", "--inlier-ratio", "1.5", "--out-dir", str(tmp_path))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_no_lrfs_flag(self, tmp_path):
        code = run_cli(
            "synth", "--model", "torus", "--model-points", "1200", "--n", "50",
            "--no-lrfs", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        cset = load_correspondences(tmp_path / "synth_corrs.txt")
        assert not cset.has_lrfs

    # SHA-256 of the three files and the printed lines of two fixed
    # invocations: torus with frames, and sphere without frames at a planted
    # count that rounds half up (0.25 * 50 = 12.5 -> 13).
    @pytest.mark.parametrize("flags, digests", [
        (["--model-points", "800", "--n", "60", "--inlier-ratio", "0.3", "--seed", "7"], {
            "scene.ply": "45f366b66d90bb29723eff83a30f5c9018bf834db1d7b5f162c3f8d25459f3e9",
            "corrs.txt": "9315580c7afda2f5182b5cc336c968525d222a3f02427525de5d578aaa4c9d7d",
            "gt.txt": "69e669c827606fddda55f22e9ae04b041637209a1a3ea0761ed27c0bc2e1e843",
            "stdout": "4c3b88186a51d4b1b29eda422ccb5df0db8f3a302dab7486f7a08c865f59e44f",
        }),
        (["--model", "sphere", "--model-points", "600", "--n", "50", "--inlier-ratio", "0.25",
          "--seed", "11", "--no-lrfs"], {
            "scene.ply": "f776262c6e4352b35c5d28609bff1ef6ad2b0f636c45479fb0d9e8278f95c288",
            "corrs.txt": "dbf444158bd98e3f0eb1c03e2c2ebe28f4acefe05f27d9b4539eecd180c3b570",
            "gt.txt": "d49da5fa3999dc8b0d434407ed88b5c994c9bae0bf810c09d286355a428c5707",
            "stdout": "d7935e81a9c9b7d9c8624936940efb9e330fdc53d47974867dba1ac106b2fe70",
        }),
    ], ids=["frames", "no-lrfs"])
    def test_output_bytes_pinned(self, tmp_path, monkeypatch, capsys, flags, digests):
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", *flags, "--out-dir", "out", "--prefix", "t") == 0
        outputs = {name: (tmp_path / "out" / f"t_{name}").read_bytes() for name in ("scene.ply", "corrs.txt", "gt.txt")}
        outputs["stdout"] = capsys.readouterr().out.encode()
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == digests


class TestGroup:
    def test_single_algorithm_writes_indices(self, synth_files, tmp_path):
        out = tmp_path / "gc.txt"
        code = run_cli("group", "--algo", "gc", "--in", str(synth_files["corrs"]),
                       "--out", str(out))
        assert code == 0
        indices = [int(line) for line in out.read_text().splitlines()]
        assert indices == sorted(set(indices))
        assert all(0 <= i < 120 for i in indices)

    def test_lrf_required_error_names_algorithm(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--model", "torus", "--model-points", "1200", "--n", "40",
            "--no-lrfs", "--seed", "2", "--out-dir", str(tmp_path))
        assert code == 0
        code = run_cli("group", "--algo", "3dhv",
                       "--in", str(tmp_path / "synth_corrs.txt"))
        assert code == 1
        assert "LRF required for 3DHV" in capsys.readouterr().err

    def test_all_with_gt_prints_table(self, synth_files, tmp_path, capsys):
        out = tmp_path / "idx.txt"
        code = run_cli(
            "group", "--all", "--in", str(synth_files["corrs"]),
            "--gt", str(synth_files["gt"]), "--epsilon-pr", "4",
            "--n-ransac", "300", "--out", str(out))
        assert code == 0
        table = capsys.readouterr().out
        for name in ("ss", "nnsr", "ransac", "st", "gc", "3dhv", "si"):
            assert name in table
            assert (tmp_path / f"idx_{name}.txt").exists()
        assert "precision" in table and "recall" in table

    def test_nan_epsilon_exit_2(self, synth_files, capsys):
        code = run_cli("group", "--algo", "ss", "--in", str(synth_files["corrs"]),
                       "--gt", str(synth_files["gt"]), "--epsilon-pr", "nan")
        assert code == 2
        assert "--epsilon-pr must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epsilon-pr", "--d-ransac-pr", "--t-gc-pr", "--hough-bin-pr",
                                      "--si-delta-pr"])
    def test_infinite_tolerance_exit_2(self, synth_files, tmp_path, capsys, flag):
        out = tmp_path / "idx.txt"
        code = run_cli("group", "--algo", "gc", "--algo", "3dhv", "--in", str(synth_files["corrs"]),
                       "--gt", str(synth_files["gt"]), flag, "inf", "--out", str(out))
        assert code == 2
        name = flag if flag == "--epsilon-pr" else flag[2:].replace("-", "_")
        assert f"{name} must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("idx*"))

    @pytest.mark.parametrize("key", ["epsilon_pr", "t_gc_pr"])
    def test_infinite_config_tolerance_exit_2(self, synth_files, tmp_path, capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: float("inf")}))
        code = run_cli("--config", str(config), "group", "--algo", "gc", "--in", str(synth_files["corrs"]),
                       "--gt", str(synth_files["gt"]))
        assert code == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_ransac_transform_sidecar(self, synth_files, tmp_path):
        tf_path = tmp_path / "tf.txt"
        code = run_cli(
            "group", "--algo", "ransac", "--in", str(synth_files["corrs"]),
            "--n-ransac", "300", "--out", str(tmp_path / "r.txt"),
            "--transform-out", str(tf_path))
        assert code == 0
        estimated = load_ground_truth(tf_path)
        truth = load_ground_truth(synth_files["gt"])
        assert np.abs(estimated.rotation - truth.rotation).max() < 1e-2

    def test_missing_input_exit_1(self, capsys):
        code = run_cli("group", "--algo", "gc", "--in", "/nonexistent/file.txt")
        assert code == 1


class TestSweep:
    def test_csv_row_count_and_determinism(self, tmp_path):
        argv = [
            "sweep", "--axis", "inlier-ratio", "--levels", "0.3,0.7",
            "--trials", "2", "--algo", "ss", "--algo", "gc",
            "--model-points", "1200", "--n", "60", "--lrf-noise-deg", "3",
            "--n-ransac", "200", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        records = records_from_csv(a.read_text())
        assert len(records) == 2 * 2 * 2

    def test_conflicting_axis_flag_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--axis", "inlier-ratio", "--levels", "0.3,0.7",
            "--inlier-ratio", "0.5", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "conflicting axis flags" in capsys.readouterr().err

    def test_epsilon_axis_monotone_precision(self, tmp_path):
        out = tmp_path / "eps.csv"
        code = run_cli(
            "sweep", "--axis", "epsilon", "--levels", "2:10:1",
            "--trials", "1", "--algo", "gc", "--algo", "ss",
            "--model-points", "1200", "--n", "60", "--lrf-noise-deg", "3",
            "--jitter-pr", "1.5", "--seed", "9", "--out", str(out))
        assert code == 0
        records = records_from_csv(out.read_text())
        by_algo = {}
        for record in records:
            by_algo.setdefault(record.algorithm, []).append(record)
        for series in by_algo.values():
            series.sort(key=lambda r: r.nuisance["level"])
            precisions = [r.precision for r in series if r.precision is not None]
            assert precisions == sorted(precisions)

    def test_svg_emission(self, tmp_path):
        code = run_cli(
            "sweep", "--axis", "inlier-ratio", "--levels", "0.3,0.7",
            "--trials", "1", "--algo", "ss", "--algo", "nnsr",
            "--model-points", "1200", "--n", "50", "--lrf-noise-deg", "3",
            "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "chart"))
        assert code == 0
        for metric in ("precision", "recall"):
            body = (tmp_path / f"chart_{metric}.svg").read_text()
            assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")
            assert "polyline" in body

    def test_json_emission(self, tmp_path):
        out_json = tmp_path / "s.json"
        code = run_cli(
            "sweep", "--axis", "inlier-ratio", "--levels", "0.3,0.7",
            "--trials", "1", "--algo", "ss",
            "--model-points", "1200", "--n", "50", "--lrf-noise-deg", "3",
            "--out", str(tmp_path / "s.csv"), "--json", str(out_json))
        assert code == 0
        rows = json.loads(out_json.read_text())
        assert len(rows) == 2 and rows[0]["algorithm"] == "ss"

    @pytest.mark.parametrize("axis, levels, fault", [
        ("inlier-ratio", "0.5,1.5", "inlier_ratio must be in [0, 1]"),
        ("n-correspondences", "40,60.5", "levels must be integers"),
    ])
    def test_bad_level_exit_2_before_any_set(self, tmp_path, capsys, generated_sets, axis, levels, fault):
        code = run_cli(
            "sweep", "--axis", axis, "--levels", levels, "--algo", "ss",
            "--model-points", "1200", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert fault in capsys.readouterr().err
        assert generated_sets == []

    @pytest.mark.parametrize("argv, fault", [
        (["--axis", "noise", "--levels", "0,inf"], "noise_sigma_pr must be finite"),
        (["--axis", "noise", "--levels", "0:inf:1"], "bad --levels value"),
        (["--axis", "inlier-ratio", "--levels", "0.3,0.7", "--noise-sigma-pr", "inf"], "noise_sigma_pr must be finite"),
        (["--axis", "inlier-ratio", "--levels", "0.3,0.7", "--jitter-pr", "inf"], "inlier_jitter_pr must be finite"),
        (["--axis", "inlier-ratio", "--levels", "0.3,0.7", "--outlier-offset-pr", "inf"],
         "outlier_min_offset_pr must be finite"),
        (["--axis", "inlier-ratio", "--levels", "0.3,0.7", "--lrf-noise-deg", "inf"], "lrf_noise_deg must be finite"),
    ], ids=["noise-level", "level-range", "noise", "jitter", "offset", "lrf-noise"])
    def test_non_finite_input_exit_2_before_any_set(self, tmp_path, capsys, generated_sets, argv, fault):
        code = run_cli("sweep", *argv, "--algo", "ss", "--model-points", "1200",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert fault in capsys.readouterr().err
        assert generated_sets == []

    def test_bad_threads_env_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CORRGROUP_THREADS", "many")
        code = run_cli(
            "sweep", "--axis", "inlier-ratio", "--levels", "0.3,0.7",
            "--algo", "ss", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "CORRGROUP_THREADS" in capsys.readouterr().err

    def test_threads_env_preserves_output(self, tmp_path, monkeypatch):
        argv = [
            "sweep", "--axis", "inlier-ratio", "--levels", "0.3,0.7",
            "--trials", "2", "--algo", "ss", "--algo", "gc",
            "--model-points", "1200", "--n", "50", "--lrf-noise-deg", "3",
            "--seed", "11",
        ]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "par.csv"
        assert run_cli(*argv, "--out", str(serial)) == 0
        monkeypatch.setenv("CORRGROUP_THREADS", "2")
        assert run_cli(*argv, "--out", str(parallel)) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestBench:
    def test_rows_and_output(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "bench", "--sizes", "40,60", "--repeats", "2",
            "--algo", "nnsr", "--algo", "gc",
            "--model-points", "1200", "--n-ransac", "100",
            "--out", str(out))
        assert code == 0
        records = records_from_csv(out.read_text())
        assert len(records) == 4
        assert all(r.wall_time_ns > 0 for r in records)
        assert "mean_time_ms" in capsys.readouterr().out

    def test_prints_blas_thread_setting(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "bench.csv"
        code = run_cli("bench", "--sizes", "40", "--repeats", "1", "--algo", "nnsr",
                       "--model-points", "1200", "--out", str(out))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "BLAS threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset" in lines
        # The line goes to stdout only; the CSV keeps its columns.
        assert "BLAS" not in out.read_text()

    def test_bad_sizes_exit_2(self, tmp_path):
        assert run_cli("bench", "--sizes", "x,y", "--out", str(tmp_path / "b.csv")) == 2

    def test_zero_size_exit_2_before_any_set(self, tmp_path, capsys, generated_sets):
        code = run_cli("bench", "--sizes", "40,0", "--algo", "ss",
                       "--model-points", "1200", "--out", str(tmp_path / "b.csv"))
        assert code == 2
        assert "n_total must be positive" in capsys.readouterr().err
        assert generated_sets == []


class TestConfig:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": "torus", "model_points": 1200, "n": 60,
            "inlier_ratio": 0.5, "seed": 4,
        }))
        code = run_cli(
            "--config", str(config), "synth",
            "--inlier-ratio", "0.25",  # flag beats config
            "--out-dir", str(tmp_path))
        assert code == 0
        assert "true_inliers=15" in capsys.readouterr().out  # 0.25 * 60
        cset = load_correspondences(tmp_path / "synth_corrs.txt")
        assert len(cset) == 60

    def test_explicit_zero_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model_points": 1200, "n": 60, "inlier_ratio": 0.5}))
        code = run_cli("--config", str(config), "synth", "--inlier-ratio", "0",
                       "--out-dir", str(tmp_path))
        assert code == 0
        assert "true_inliers=0" in capsys.readouterr().out

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"not_a_flag": 1}))
        code = run_cli("--config", str(config), "synth", "--out-dir", str(tmp_path))
        assert code == 2
        assert "not_a_flag" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert run_cli("--config", str(tmp_path / "nope.json"), "synth",
                       "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("values", [
        {"model_points": "1200"}, {"n": 60.5}, {"n": True}, {"inlier_ratio": "0.5"},
        {"inlier_ratio": False}, {"model": "cube"}, {"no_lrfs": 1}, {"prefix": 7},
    ])
    def test_config_value_must_fit_flag_exit_2(self, tmp_path, capsys, values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model_points": 1200, "n": 60, **values}))
        code = run_cli("--config", str(config), "synth", "--out-dir", str(tmp_path))
        assert code == 2
        assert repr(next(iter(values))) in capsys.readouterr().err
        assert not (tmp_path / "synth_corrs.txt").exists()

    def test_group_config_keys_are_the_param_fields(self, tmp_path, monkeypatch, synth_files):
        data = {"t_ss": 0.7, "t_nnsr": 0.6, "n_ransac": 50, "d_ransac_pr": 4.0, "t_st": 0.5,
                "t_gc_pr": 2.0, "hough_bin_pr": 6.0, "si_kappa": 30, "si_sigma": 0.8,
                "si_delta_pr": 4.5, "rng_seed": 7}
        assert set(data) == {field.name for field in fields(AlgorithmParams)}
        seen = []
        monkeypatch.setattr(evaluation, "run_algorithm",
                            lambda name, cset, params, source_cloud=None: seen.append(params) or GroupingResult(()))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        code = run_cli("--config", str(config), "group", "--in", str(synth_files["corrs"]),
                       "--algo", "ss", "--out", str(tmp_path / "ss.txt"))
        assert code == 0
        assert seen == [AlgorithmParams(**data)]

    def test_config_algo_takes_a_list_of_choices(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        for algo in ("gc", ["gc", "bogus"]):
            config.write_text(json.dumps({"algo": algo}))
            assert run_cli("--config", str(config), "group", "--in", str(tmp_path / "c.txt")) == 2
            assert "'algo'" in capsys.readouterr().err


def test_unknown_flag_exit_2():
    assert run_cli("synth", "--bogus-flag") == 2


def test_missing_subcommand_exit_2():
    assert run_cli() == 2
