"""Hooks the benchmark installs around the package's cross-module calls.

Two kinds of hook exist:

* :class:`CallLog` wraps ``evaluation.run_algorithm`` and keeps each call's
  duration, input size and result. It is installed in every run, because
  ``run_sweep`` hides both the per-algorithm times and the grouping results
  the correctness check needs.
* :class:`Tracer` records a span (name, start, end, parent, input id) around
  every module-level name listed in :data:`TRACED_NAMES`. It is installed
  only in the traced run. Spans stay in memory until the run ends.

Every hook patches a module attribute and restores the original on exit,
so the package under test is never edited.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc

from corrgroup import evaluation, geom3d, grouping, synthbench

# (module, attribute) -> span name. A function imported under two names
# gets the same span name on both, so the callers in evaluation and the
# benchmark's own calls through synthbench are both seen.
TRACED_NAMES = (
    (evaluation, "run_algorithm", "grouping.{algo}"),
    (evaluation, "score", "evaluation.score"),
    (evaluation, "make_test_model", "synthbench.model"),
    (synthbench, "make_test_model", "synthbench.model"),
    (evaluation, "generate_scene", "synthbench.scene"),
    (synthbench, "generate_scene", "synthbench.scene"),
    (evaluation, "generate_correspondences", "synthbench.corr_gen"),
    (synthbench, "generate_correspondences", "synthbench.corr_gen"),
    (synthbench, "estimate_lrf", "geom3d.lrf"),
    (grouping, "pairwise_rigidity", "corr_model.pairwise"),
    (grouping, "pairwise_distance_residuals", "corr_model.pairwise"),
    (grouping, "estimate_rigid_transform", "geom3d.rigid_fit"),
    (grouping, "otsu_threshold", "grouping.otsu"),
)

# Exceptions a traced call may raise as part of its contract; a span that
# ends in one of them is flagged as rejected rather than failed.
REJECTIONS = (geom3d.DegenerateSampleError, geom3d.InsufficientSupportError,
              geom3d.AmbiguousFrameError)


@contextlib.contextmanager
def patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class CallLog:
    """Every ``evaluation.run_algorithm`` call: (name, n, seconds, result or exception, reference).

    ``reference`` is called right before each call; it times the reference
    kernel (see reference.py), and its result is kept with the call.

    While ``memory_mb`` is a dict, calls run under tracemalloc instead, and
    the peak is kept per algorithm, in MiB.
    """

    def __init__(self, reference):
        self.calls: list[tuple[str, int, float, object, float]] = []
        self.memory_mb: dict[str, float] | None = None
        self._reference = reference

    def _wrap(self, original):
        def run_algorithm(name, cset, *args, **kwargs):
            reference = self._reference()
            memory = self.memory_mb
            if memory is not None:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = original(name, cset, *args, **kwargs)
            except Exception as exc:
                self.calls.append((name, len(cset), time.perf_counter() - start, exc, reference))
                raise
            finally:
                if memory is not None:
                    memory[name] = max(tracemalloc.get_traced_memory()[1] / 2**20, memory.get(name, 0.0))
                    tracemalloc.stop()
            self.calls.append((name, len(cset), time.perf_counter() - start, result, reference))
            return result
        return run_algorithm

    @contextlib.contextmanager
    def installed(self):
        with patched(evaluation, "run_algorithm", self._wrap(evaluation.run_algorithm)):
            yield self


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start_ns, end_ns, parent, input_id, flag, size]``:
    ``parent`` is the index of the enclosing span (-1 at the top),
    ``flag`` is 1 when the call ended in one of :data:`REJECTIONS`, and
    ``size`` is the side length of a pairwise matrix or the record count
    of a ``corr_model.load`` span (0 elsewhere).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.input_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                  self.input_id, 0, 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except REJECTIONS:
            record[5] = 1
            raise
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span_name = name.format(algo=args[0]) if "{algo}" in name else name
            with self.span(span_name) as record:
                result = fn(*args, **kwargs)
                if span_name == "corr_model.pairwise":
                    record[6] = len(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for module, attr, name in TRACED_NAMES:
                stack.enter_context(patched(module, attr, self._wrap(getattr(module, attr), name)))
            yield self

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def layer_metrics(tracer: Tracer, traced_calls, memory_mb: dict[str, float],
                  algorithms, overhead_s: float) -> dict[str, float]:
    """Per-module figures of one traced pass (set-up plus one cell per input).

    Times are self times: a span's duration minus that of its child spans.
    ``corr_model.pairwise_bytes_computed`` is computed from array shapes
    (two n x 3 inputs and one n x n result of float64 per call), not
    measured memory traffic.
    """
    count: dict[str, int] = {}
    own_ns: dict[str, int] = {}
    flagged: dict[str, int] = {}
    sizes: dict[str, list[int]] = {}
    for span, own in zip(tracer.spans, tracer.self_times_ns()):
        name, flag, size = span[0], span[5], span[6]
        count[name] = count.get(name, 0) + 1
        own_ns[name] = own_ns.get(name, 0) + own
        flagged[name] = flagged.get(name, 0) + flag
        sizes.setdefault(name, []).append(size)

    def ms(name):
        return own_ns.get(name, 0) / 1e6

    def share(name):
        return flagged.get(name, 0) / count[name] if count.get(name) else 0.0

    pairwise = sizes.get("corr_model.pairwise", [])
    records = sum(sizes.get("corr_model.load", []))
    metrics = {
        "synthbench.corr_gen_ms": ms("synthbench.corr_gen"),
        "synthbench.scene_ms": ms("synthbench.scene"),
        "synthbench.model_ms": ms("synthbench.model"),
        "geom3d.lrf_calls": count.get("geom3d.lrf", 0),
        "geom3d.lrf_ms": ms("geom3d.lrf"),
        "geom3d.lrf_accept_ratio": 1.0 - share("geom3d.lrf") if count.get("geom3d.lrf") else 0.0,
        "geom3d.rigid_fit_calls": count.get("geom3d.rigid_fit", 0),
        "geom3d.rigid_fit_ms": ms("geom3d.rigid_fit"),
        "geom3d.rigid_fit_degenerate_share": share("geom3d.rigid_fit"),
        "corr_model.pairwise_ms": ms("corr_model.pairwise"),
        "corr_model.pairwise_calls": len(pairwise),
        "corr_model.pairwise_cells": sum(n * n for n in pairwise),
        "corr_model.pairwise_bytes_computed": sum(8 * (n * n + 6 * n) for n in pairwise),
        "corr_model.load_ms": ms("corr_model.load"),
        "corr_model.save_ms": ms("corr_model.save"),
        "corr_model.columns_ms": ms("corr_model.columns"),
        "corr_model.records_per_s": records / (ms("corr_model.load") / 1e3) if records else 0.0,
        "ply.load_ms": ms("ply.load"),
        "ply.save_ms": ms("ply.save"),
    }
    for algo in algorithms:
        metrics[f"grouping.{algo}.core_ms"] = ms(f"grouping.{algo}")
        metrics[f"grouping.{algo}.mem_peak_mb"] = memory_mb.get(algo, 0.0)
        metrics[f"grouping.{algo}.n_grouped"] = sum(
            len(result) for name, _, _, result, _ in traced_calls
            if name == algo and not isinstance(result, BaseException))
    metrics.update({
        "grouping.otsu_calls": count.get("grouping.otsu", 0),
        "grouping.otsu_ms": ms("grouping.otsu"),
        "evaluation.score_ms": ms("evaluation.score"),
        "evaluation.cells": count.get("evaluation.score", 0) // len(algorithms),
        "trace.overhead_s": overhead_s,
    })
    return metrics
