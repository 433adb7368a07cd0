"""Benchmark of the corrgroup package: one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload file-roundtrip --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-module metrics and the tracing
overhead. The package is imported from ``src/`` next to this directory and
measured from outside; nothing in it is edited. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One OpenBLAS thread, set before numpy loads it. On a 2-vCPU host, two
# threads made st and si about twice as slow (the power iteration's
# matrix-vector products wait on the second vCPU) and made their times
# depend on what else ran there.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from reference import REFERENCE_S  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Later performance claims must also hold on this seed; it was not used
# while the benchmark and its floors were tuned.
HELD_OUT_SEED = 9001

TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def import_package():
    """Import corrgroup from this checkout's src/, or stop without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import corrgroup
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import corrgroup from {src}: {exc}")
    if not Path(corrgroup.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: corrgroup imported from {corrgroup.__file__}, not {src}")
    return corrgroup


def unit_of(name: str) -> str:
    if name.startswith("group_ms."):
        return "ms"
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_bytes_computed", "B"), ("_share", "ratio"), ("_ratio", "ratio"),
                         ("_mean", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end_names(algorithms) -> list[str]:
    return (["setup_s", "cell_s"] + [f"group_ms.{a}" for a in algorithms]
            + ["load_ms", "save_ms", "peak_rss_mb", "pass_share", "precision_mean", "recall_mean"])


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def tail(values) -> str:
    """Highest listed percentile with at least ten samples beyond it."""
    best = [p for p in TAIL_PERCENTILES if len(values) * (1 - p / 100) >= 10]
    if not best:
        return "tail=none(n<20)"
    return f"p{best[-1]:g}={np.percentile(values, best[-1]):.6g}"


def blas_facts() -> str:
    """OpenBLAS libraries loaded into this process and their thread counts."""
    facts = []
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts.append(f"{Path(path).name}:threads={fn()}")
                break
    return ",".join(facts) or "unknown"


def environment(seed: int) -> list[str]:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}",
        f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}",
        f"blas={blas.get('name')} {blas.get('version')} loaded={blas_facts()}",
        f"seed={seed} held_out_seed={HELD_OUT_SEED}",
    ]


def fix_malloc() -> str:
    """Fix glibc's malloc thresholds, which it otherwise moves as the process runs.

    With the moving thresholds, the n x n temporaries are sometimes mapped
    afresh and sometimes reused from the heap, so one call's time took one
    of two values (3dhv: 3.5 or 6 ms on the same input) by the process's
    history. Fixed thresholds keep every temporary below 32 MiB in the heap.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "malloc=default(no glibc)"
    m_trim_threshold, m_mmap_threshold = -1, -3
    if libc.mallopt(m_mmap_threshold, 32 * 2**20) and libc.mallopt(m_trim_threshold, 256 * 2**20):
        return "malloc=glibc mmap_threshold=32MiB trim_threshold=256MiB"
    return "malloc=default(mallopt refused)"


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def end_to_end(run, algorithms) -> dict[str, float]:
    samples = run.samples
    metrics = {name: median(samples.get(name, [])) for name in end_to_end_names(algorithms)}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["pass_share"] = 1.0 - run.failed / run.attempted if run.attempted else math.nan
    for position, name in enumerate(("precision_mean", "recall_mean")):
        defined = [pair[position] for pair in run.first_scores.values() if pair[position] is not None]
        metrics[name] = sum(defined) / len(defined) if defined else math.nan
    return metrics


def traced_run(workload, run, seed: int, algorithms):
    """Set-up with spans on, then per input one cell with spans and one without.

    Alternating the two keeps the drift of the machine's speed out of the
    overhead figure. One further cell on the first input, without spans,
    measures each algorithm's tracemalloc peak. Returns the per-module
    metrics, the tracer and notes for the report.
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    traced_calls, traced_cells, untraced_cells = [], [], []
    # The call log wraps the tracer's wrappers, so the reference kernel it
    # runs before each grouping call stays outside the call's span.
    with tracer.installed(), run.log.installed(), tracer.span("setup"):
        inputs = workload.setup(run, seed, tracer)
    for index, item in enumerate(inputs):
        first_call = len(run.log.calls)
        tracer.input_id = index
        with tracer.installed(), run.log.installed(), tracer.span("cell"):
            workload.cell(run, index, item, tracer)
        traced_calls += run.log.calls[first_call:]
        traced_cells.append(run.samples["cell_s"].pop())
        with run.log.installed():
            workload.cell(run, index, item, None)
        untraced_cells.append(run.samples["cell_s"].pop())
    run.log.memory_mb = {}
    with run.log.installed():
        workload.cell(run, 0, inputs[0], None)
    memory, run.log.memory_mb = run.log.memory_mb, None
    overhead = median(traced_cells) - median(untraced_cells)
    metrics = layer_metrics(tracer, traced_calls, memory, algorithms, overhead)
    notes = [f"traced cell_s={median(traced_cells):.6g} s untraced cell_s={median(untraced_cells):.6g} s "
             f"overhead={overhead:.6g} s ({overhead / median(untraced_cells):+.1%})"]
    return metrics, tracer, notes


def write_spans(tracer, workload_name: str, seed: int) -> Path:
    path = OUT_DIR / f"spans-{workload_name}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "input", "rejected", "size"],
                   "spans": tracer.spans}, handle, separators=(",", ":"))
    return path


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, registry=None) -> int:
    import_package()
    import workloads
    from corrgroup.grouping import ALGORITHM_NAMES

    registry = registry or workloads.WORKLOADS
    args = parse_args(argv, sorted(registry))
    workload = registry[args.workload]
    print(f"# corrgroup benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in environment(args.seed) + [fix_malloc()]:
        print(f"# env {line}")
    print(f"# env loadavg_start={loadavg()}")

    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    with workloads.scratch_dir(OUT_DIR) as scratch:
        run = workloads.Run(workload, scratch)
        if args.trace:
            metrics, tracer, notes = traced_run(workload, run, args.seed, ALGORITHM_NAMES)
            notes.append(f"spans written to {write_spans(tracer, args.workload, args.seed).relative_to(ROOT)}")
        else:
            with run.log.installed():
                inputs = workload.setup(run, args.seed, None)
                workloads.run_cells(workload, run, inputs, args.seconds)
            metrics = end_to_end(run, ALGORITHM_NAMES)
            notes = []

    print(f"# env loadavg_end={loadavg()} wall_s={time.perf_counter() - started:.1f}")
    print(f"# env reference kernel: nominal {REFERENCE_S * 1e3:g} ms, measured median "
          f"{median(run.reference_s) * 1e3:.4g} ms, range {min(run.reference_s) * 1e3:.4g}-"
          f"{max(run.reference_s) * 1e3:.4g} ms over {len(run.reference_s)} calls")
    for note in notes:
        print(f"# {note}")
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}")
    print(f"# ops attempted={run.attempted} failed={run.failed} "
          f"failed_share={run.failed / max(run.attempted, 1):.6g}")
    for algo in ALGORITHM_NAMES:
        scores = [pair for key, pair in run.first_scores.items() if key[-1] == algo]
        lows = [min((p[i] for p in scores if p[i] is not None), default=math.nan) for i in (0, 1)]
        print(f"# scores {algo} lowest_precision={lows[0]:.4f} lowest_recall={lows[1]:.4f}")
    for name, value in metrics.items():
        samples = run.samples.get(name, [])
        detail = (f"n={len(samples)} {tail(samples)} as_measured={median(run.raw[name]):.6g}"
                  if samples and not args.trace else "")
        print(f"{name:<40} {value:>14.6g} {unit_of(name):<6} {detail}".rstrip())

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": None if isinstance(value, float) and math.isnan(value) else value,
                           "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
