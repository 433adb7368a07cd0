"""Command-line front end.

Subcommands:

* ``synth`` -- generate a scene PLY, a correspondence file, and a
  ground-truth sidecar from a procedural model.
* ``group`` -- run one or all grouping algorithms on a correspondence
  file; optionally judge against a ground-truth sidecar.
* ``sweep`` -- run a nuisance sweep and emit the evaluation CSV
  (optionally per-metric SVG line charts).
* ``bench`` -- measure mean grouping wall time per algorithm and size.

Exit codes: 0 success, 2 validation error, 1 runtime error. A JSON file
passed via ``--config`` supplies flag defaults (explicit flags win).
``CORRGROUP_THREADS`` caps sweep parallelism; ``bench`` always runs
serially so the measurements stay honest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, ply
from .corr_model import (
    load_correspondences,
    load_ground_truth,
    save_correspondences,
    save_ground_truth,
    strip_lrfs,
)
from .grouping import ALGORITHM_NAMES, AlgorithmParams
from .synthbench import (
    MODEL_KINDS,
    CorrespondenceRecipe,
    SceneRecipe,
    SimilarityModel,
    generate_correspondences,
    generate_scene,
    make_test_model,
)

AXIS_FLAGS = {
    "noise": ("noise_sigma_pr", "--noise-sigma-pr"),
    "downsample": ("downsample_ratio", "--downsample-ratio"),
    "inlier-ratio": ("inlier_ratio", "--inlier-ratio"),
    "epsilon": ("epsilon_pr", "--epsilon-pr"),
    "n-correspondences": ("n_correspondences", "--n"),
}


class ValidationFailure(Exception):
    """Configuration or flag validation problem (exit code 2)."""


def parse_levels(spec: str) -> tuple[float, ...]:
    """Parse a level list: 'a,b,c' or 'start:end:step' (inclusive ends
    whenever the step divides the range)."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("range syntax is start:end:step")
            start, end, step = (float(p) for p in parts)
            if step <= 0 or end < start:
                raise ValueError("range needs end >= start and step > 0")
            count = int(math.floor((end - start) / step + 1e-9)) + 1
            levels = tuple(round(start + i * step, 12) for i in range(count))
        else:
            levels = tuple(float(p) for p in spec.split(",") if p.strip())
    except ValueError as exc:
        raise ValidationFailure(f"bad --levels value {spec!r}: {exc}") from None
    if len(levels) < 2:
        raise ValidationFailure("--levels must produce at least 2 levels")
    return levels


def _parse_int_list(spec: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in spec.split(",") if p.strip())
    except ValueError:
        raise ValidationFailure(f"bad {flag} value {spec!r}") from None
    if not values:
        raise ValidationFailure(f"{flag} must list at least one value")
    return values


# ---------------------------------------------------------------------------
# Parser construction: every flag defaults to None so that --config values
# can fill in anything the command line left unset.
# ---------------------------------------------------------------------------

_DATA_FLAGS: dict[str, dict] = {
    "model": dict(choices=MODEL_KINDS, help="procedural model kind"),
    "model_points": dict(type=int, help="model cloud size (default 4000)"),
    "model_seed": dict(type=int, help="model sampling seed (default 0)"),
    "n": dict(type=int, help="number of correspondences (default 1000)"),
    "inlier_ratio": dict(type=float, help="fraction of true matches (default 0.5)"),
    "jitter_pr": dict(type=float, help="inlier jitter bound, resolutions (default 0.5)"),
    "outlier_offset_pr": dict(type=float, help="minimum outlier offset, resolutions (default 10)"),
    "lrf_noise_deg": dict(type=float, help="inlier frame perturbation bound, degrees (default 0)"),
    "noise_sigma_pr": dict(type=float, help="scene Gaussian noise sigma, resolutions (default 0)"),
    "downsample_ratio": dict(type=float, help="scene retention fraction (default 1.0)"),
    "sim_inlier_low": dict(type=float), "sim_inlier_high": dict(type=float),
    "sim_outlier_low": dict(type=float), "sim_outlier_high": dict(type=float),
    "seed": dict(type=int, help="base seed for all randomness (default 0)"),
}

_PARAM_FLAGS: dict[str, dict] = {
    "t_ss": dict(type=float, help="fixed similarity cutoff (default adaptive)"),
    "t_nnsr": dict(type=float), "n_ransac": dict(type=int),
    "d_ransac_pr": dict(type=float), "t_st": dict(type=float),
    "t_gc_pr": dict(type=float), "hough_bin_pr": dict(type=float),
    "si_kappa": dict(type=int), "si_sigma": dict(type=float),
    "si_delta_pr": dict(type=float),
}

def _add_flags(parser: argparse.ArgumentParser, flags: dict[str, dict]) -> None:
    for dest, spec in flags.items():
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, default=None, **spec)


def _add_algo_selection(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--algo", action="append", choices=ALGORITHM_NAMES,
                       help="algorithm to run (repeatable)")
    group.add_argument("--all", action="store_true", help="run all seven algorithms")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrgroup",
        description="3D correspondence grouping toolkit: synthetic data, "
                    "seven grouping algorithms, sweeps, and timing.",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (explicit flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate scene, correspondences, ground truth")
    _add_flags(synth, _DATA_FLAGS)
    synth.add_argument("--no-lrfs", action="store_true",
                       help="omit local reference frames from the output")
    synth.add_argument("--out-dir", default=None, help="output directory (default .)")
    synth.add_argument("--prefix", default=None, help="output file prefix (default synth)")
    synth.set_defaults(func=cmd_synth)

    group = sub.add_parser("group", help="run grouping algorithms on a correspondence file")
    group.add_argument("--in", dest="input", required=True, help="correspondence file")
    _add_algo_selection(group)
    group.add_argument("--gt", default=None, help="ground-truth sidecar for judging")
    group.add_argument("--epsilon-pr", dest="epsilon_pr", type=float, default=None,
                       help="judging tolerance in resolutions (default 4)")
    group.add_argument("--model", dest="model_ply", default=None,
                       help="source cloud PLY (reference centroid for Hough voting)")
    group.add_argument("--out", default=None, help="write inlier indices here")
    group.add_argument("--transform-out", default=None,
                       help="write the RANSAC transform as a sidecar")
    _add_flags(group, _PARAM_FLAGS)
    group.add_argument("--rng-seed", dest="rng_seed", type=int, default=None)
    group.set_defaults(func=cmd_group)

    sweep = sub.add_parser("sweep", help="run a nuisance sweep, emit CSV (+ SVG)")
    sweep.add_argument("--axis", required=True, choices=sorted(AXIS_FLAGS),
                       help="nuisance axis to sweep")
    sweep.add_argument("--levels", required=True,
                       help="levels: 'a,b,c' or 'start:end:step'")
    sweep.add_argument("--trials", type=int, default=None, help="trials per level (default 1)")
    _add_algo_selection(sweep)
    _add_flags(sweep, _DATA_FLAGS)
    _add_flags(sweep, _PARAM_FLAGS)
    sweep.add_argument("--epsilon-pr", dest="epsilon_pr", type=float, default=None,
                       help="judging tolerance in resolutions (default 4)")
    sweep.add_argument("--out", default=None, help="CSV output path (default sweep.csv)")
    sweep.add_argument("--json", dest="json_out", default=None, help="also write records as JSON")
    sweep.add_argument("--svg", default=None,
                       help="prefix for per-metric SVG charts")
    sweep.set_defaults(func=cmd_sweep)

    bench = sub.add_parser("bench", help="measure grouping wall time per algorithm/size")
    bench.add_argument("--sizes", required=True, help="comma-separated set sizes")
    bench.add_argument("--repeats", type=int, default=None, help="timed runs per size (default 10)")
    _add_algo_selection(bench)
    _add_flags(bench, _DATA_FLAGS)
    _add_flags(bench, _PARAM_FLAGS)
    bench.add_argument("--out", default=None, help="CSV output path (default bench.csv)")
    bench.set_defaults(func=cmd_bench)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config JSON; unknown keys are rejected."""
    if not args.config:
        return
    try:
        data = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        raise ValidationFailure(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationFailure("config must be a JSON object of flag values")
    for key, value in data.items():
        if not hasattr(args, key) or key in ("func", "command", "config"):
            raise ValidationFailure(f"config key {key!r} does not match any flag")
        if getattr(args, key) in (None, False):
            setattr(args, key, value)


def _pick(args, name, default):
    value = getattr(args, name, None)
    return default if value is None else value


def _selected_algorithms(args) -> tuple[str, ...]:
    if getattr(args, "all", False):
        return ALGORITHM_NAMES
    if getattr(args, "algo", None):
        seen = []
        for name in args.algo:
            if name not in seen:
                seen.append(name)
        return tuple(seen)
    return ALGORITHM_NAMES


def _given(args, **fields: str) -> dict:
    """Field name -> flag value, for the flags in ``fields`` that are set."""
    values = {field: getattr(args, flag, None) for field, flag in fields.items()}
    return {field: value for field, value in values.items() if value is not None}


def _spec_from_args(args) -> tuple[evaluation.InstanceSpec, int]:
    """The instance spec the data and parameter flags describe, and the base seed.

    Only flags that are set reach the dataclasses, so their defaults are
    the only ones.
    """
    params = _params_from_args(args)
    try:
        similarity = SimilarityModel(**_given(
            args, inlier_low="sim_inlier_low", inlier_high="sim_inlier_high",
            outlier_low="sim_outlier_low", outlier_high="sim_outlier_high"))
        scene = SceneRecipe(**_given(
            args, noise_sigma_pr="noise_sigma_pr", downsample_ratio="downsample_ratio"))
        corr = CorrespondenceRecipe(similarity_model=similarity, **_given(
            args, n_total="n", inlier_ratio="inlier_ratio", inlier_jitter_pr="jitter_pr",
            outlier_min_offset_pr="outlier_offset_pr", lrf_noise_deg="lrf_noise_deg"))
        spec = evaluation.InstanceSpec(scene=scene, corr=corr, params=params, **_given(
            args, model_kind="model", model_points="model_points", model_seed="model_seed",
            epsilon_pr="epsilon_pr"))
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from None
    return spec, int(_pick(args, "seed", 0))


def _params_from_args(args, *, rng_seed: int = 0) -> AlgorithmParams:
    values = {}
    for name in _PARAM_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    values["rng_seed"] = int(_pick(args, "rng_seed", rng_seed))
    try:
        return AlgorithmParams(**values)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from None


def _worker_count() -> int:
    raw = os.environ.get("CORRGROUP_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValidationFailure(f"CORRGROUP_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValidationFailure("CORRGROUP_THREADS must be >= 1")
    return workers


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec, seed = _spec_from_args(args)
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(0,)).generate_state(3, dtype=np.uint64)
    scene_recipe = replace(spec.scene, rotation_seed=int(seeds[0]), rng_seed=int(seeds[1]))
    corr_recipe = replace(spec.corr, rng_seed=int(seeds[2]))

    out_dir = Path(_pick(args, "out_dir", "."))
    prefix = _pick(args, "prefix", "synth")
    out_dir.mkdir(parents=True, exist_ok=True)

    model = make_test_model(spec.model_kind, spec.model_points, spec.model_seed)
    scene, ground_truth = generate_scene(model, scene_recipe)
    cset = generate_correspondences(model, scene, ground_truth, corr_recipe)
    if args.no_lrfs:
        cset = strip_lrfs(cset)

    scene_path = out_dir / f"{prefix}_scene.ply"
    corr_path = out_dir / f"{prefix}_corrs.txt"
    gt_path = out_dir / f"{prefix}_gt.txt"
    ply.save_ply(scene, scene_path)
    save_correspondences(cset, corr_path)
    save_ground_truth(ground_truth, gt_path)

    true_inliers = int(math.floor(corr_recipe.inlier_ratio * corr_recipe.n_total + 0.5))
    print(f"n={len(cset)} pr={cset.source_resolution_pr:.6g} true_inliers={true_inliers}")
    print(f"scene={scene_path} correspondences={corr_path} ground_truth={gt_path}")
    return 0


def cmd_group(args) -> int:
    algorithms = _selected_algorithms(args)
    params = _params_from_args(args)
    epsilon_pr = _pick(args, "epsilon_pr", 4.0)
    if epsilon_pr <= 0:
        raise ValidationFailure("--epsilon-pr must be positive")

    cset = load_correspondences(args.input)
    source_cloud = ply.load_ply(args.model_ply) if args.model_ply else None
    ground_truth = load_ground_truth(args.gt) if args.gt else None
    if ground_truth is not None:
        cset = cset.with_ground_truth(ground_truth)

    table = []
    for name in algorithms:
        result = evaluation.run_algorithm(name, cset, params, source_cloud=source_cloud)
        if args.out:
            path = Path(args.out)
            if len(algorithms) > 1:
                path = path.with_name(f"{path.stem}_{name}{path.suffix or '.txt'}")
            path.write_text("".join(f"{i}\n" for i in result.inlier_indices))
        else:
            print(f"# {name}: {len(result)} inliers")
            for index in result.inlier_indices:
                print(index)
        if args.transform_out and result.transform is not None:
            path = Path(args.transform_out)
            if len(algorithms) > 1:
                path = path.with_name(f"{path.stem}_{name}{path.suffix or '.txt'}")
            save_ground_truth(result.transform, path)
        if ground_truth is not None:
            record = evaluation.score(result, cset, epsilon_pr, algorithm=name, params=params)
            table.append(record)

    if table:
        fmt = "{:<8} {:>9} {:>9} {:>7} {:>10} {:>10}"
        print(fmt.format("algo", "n_grouped", "n_correct", "n_gt", "precision", "recall"))
        for record in table:
            print(fmt.format(
                record.algorithm, record.n_grouped, record.n_correct, record.n_gt_inliers,
                "-" if record.precision is None else f"{record.precision:.4f}",
                "-" if record.recall is None else f"{record.recall:.4f}",
            ))
    return 0


def cmd_sweep(args) -> int:
    axis_internal, axis_flag = AXIS_FLAGS[args.axis]
    flag_dest = axis_flag.lstrip("-").replace("-", "_")
    if getattr(args, flag_dest, None) is not None:
        raise ValidationFailure(
            f"conflicting axis flags: {axis_flag} is swept by --axis {args.axis}")
    levels = parse_levels(args.levels)
    if axis_internal == "n_correspondences" and any(lv != int(lv) for lv in levels):
        raise ValidationFailure("n-correspondences levels must be integers")

    algorithms = _selected_algorithms(args)
    spec, seed = _spec_from_args(args)
    try:
        plan = evaluation.SweepPlan(
            axis=axis_internal, levels=levels,
            trials_per_level=int(_pick(args, "trials", 1)),
            base=spec, base_seed=seed,
        )
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from None

    records = evaluation.run_sweep(plan, algorithms, n_workers=_worker_count())
    out_path = Path(_pick(args, "out", "sweep.csv"))
    evaluation.write_csv(records, out_path)
    print(f"wrote {len(records)} records to {out_path}")
    if args.json_out:
        Path(args.json_out).write_text(evaluation.records_to_json(records))
        print(f"wrote JSON to {args.json_out}")
    if args.svg:
        for metric in ("precision", "recall"):
            svg_path = Path(f"{args.svg}_{metric}.svg")
            svg_path.write_text(render_metric_chart(records, metric, plan.axis))
            print(f"wrote chart to {svg_path}")
    return 0


def cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes, "--sizes")
    repeats = int(_pick(args, "repeats", 10))
    if repeats < 1:
        raise ValidationFailure("--repeats must be >= 1")
    algorithms = _selected_algorithms(args)
    spec, seed = _spec_from_args(args)
    records = evaluation.time_algorithms(sizes, algorithms, spec, repeats, base_seed=seed)
    out_path = Path(_pick(args, "out", "bench.csv"))
    evaluation.write_csv(records, out_path)
    fmt = "{:<8} {:>8} {:>14}"
    print(fmt.format("algo", "n", "mean_time_ms"))
    for record in records:
        print(fmt.format(record.algorithm, record.n_initial,
                         f"{record.wall_time_ns / 1e6:.3f}"))
    print(f"wrote {len(records)} rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
            "#9467bd", "#8c564b", "#17becf")


def render_metric_chart(records, metric: str, axis_label: str) -> str:
    """Self-contained SVG line chart: metric mean vs level, one series per
    algorithm. Records with an undefined metric are excluded from means."""
    if metric not in ("precision", "recall"):
        raise ValueError("metric must be 'precision' or 'recall'")
    series: dict[str, dict[float, list[float]]] = {}
    for record in records:
        value = getattr(record, metric)
        level = record.nuisance.get("level")
        if value is None or level is None:
            continue
        series.setdefault(record.algorithm, {}).setdefault(level, []).append(value)

    width, height = 640, 420
    left, right, top, bottom = 70, 180, 30, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    levels = sorted({lv for by_level in series.values() for lv in by_level})
    lo = min(levels) if levels else 0.0
    hi = max(levels) if levels else 1.0
    span = (hi - lo) or 1.0

    def sx(level: float) -> float:
        return left + (level - lo) / span * plot_w

    def sy(value: float) -> float:
        return top + (1.0 - value) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{axis_label}</text>',
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {top + plot_h / 2:.1f})">{metric}</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:g}</text>')
    for level in levels:
        x = sx(level)
        parts.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                     f'y2="{top + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{level:g}</text>')

    for i, (name, by_level) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        points = [(lv, sum(vals) / len(vals)) for lv, vals in sorted(by_level.items())]
        path = " ".join(f"{sx(lv):.2f},{sy(v):.2f}" for lv, v in points)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{path}"/>')
        for lv, v in points:
            parts.append(f'<circle cx="{sx(lv):.2f}" cy="{sy(v):.2f}" r="2.6" fill="{color}"/>')
        ly = top + 16 * i
        parts.append(f'<line x1="{width - right + 12}" y1="{ly + 5}" '
                     f'x2="{width - right + 34}" y2="{ly + 5}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - right + 40}" y="{ly + 9}" font-family="sans-serif" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args)
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
