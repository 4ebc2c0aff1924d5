"""Engine throughput benchmark: the ``repro bench engine`` entry point.

Measures cold-cache cells/second (and cycles simulated/second) of the
experiment-execution engine over the standard 8-cell benchmark grid —
2 workloads x 4 machine configurations, the same grid
``benchmarks/bench_engine_throughput.py`` has tracked since PR 1 — and
writes the result as ``BENCH_engine.json`` so CI can gate on throughput
regressions.

The committed reference numbers live in ``benchmarks/BENCH_engine.json``;
:func:`check_regression` fails when the measured cold throughput drops more
than the allowed fraction below them, and :func:`check_counters` when the
run's deterministic work counters differ from the record's at all.
``pr1_baseline_cells_per_sec`` in that file records the throughput of the
engine before the event-driven scheduler, measured on the same machine with
the same grid, so the scheduler's speedup stays visible next to the current
numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional

from repro.core.config import ava_config, native_config
from repro.experiments.engine import CellExecutor, SweepSpec
from repro.workloads.registry import ALL_WORKLOAD_NAMES

#: The configurations both benchmark grids sweep.
_BENCH_CONFIGS = (native_config(1), ava_config(2), ava_config(4),
                  ava_config(8))

#: The benchmark grid (PR 1's): small but non-trivial, 8 cells.
BENCH_SPEC = SweepSpec(workloads=("axpy", "blackscholes"),
                       configs=_BENCH_CONFIGS)

#: The extended-grid variant: the full ten-kernel builtin suite over the
#: same configurations (40 cells) — ``repro bench engine --extended``.
EXTENDED_BENCH_SPEC = SweepSpec(workloads=tuple(ALL_WORKLOAD_NAMES),
                                configs=_BENCH_CONFIGS)

#: Where the committed reference numbers live.
BASELINE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" \
    / "BENCH_engine.json"


def measure_engine_throughput(repeats: int = 3,
                              spec: SweepSpec = BENCH_SPEC,
                              progress=None) -> dict:
    """Run a benchmark grid cold (no cache) ``repeats`` times serially.

    Returns the best run (shared machines are noisy; the minimum is the
    least-contended measurement), with scheduler-efficiency counters from
    the executed simulations.  ``progress`` (a
    :class:`repro.experiments.engine.Progress` callback) streams per-cell
    completion to stderr without perturbing the timed region beyond the
    callback itself.
    """
    n_cells = len(spec.cells())
    best: Optional[dict] = None
    for repeat in range(max(1, repeats)):
        # no cache: every cell simulates
        executor = CellExecutor(progress=progress)
        start = time.perf_counter()
        executor.run_spec(spec, label=f"bench cold run {repeat + 1}")
        elapsed = time.perf_counter() - start
        stats = executor.stats
        run = {
            "cells": n_cells,
            "seconds": round(elapsed, 4),
            "cells_per_sec": round(n_cells / elapsed, 3),
            "cycles_simulated": stats.sim_cycles,
            "cycles_per_sec": round(stats.sim_cycles / elapsed, 1),
            "events_processed": stats.sim_events_processed,
            "cycles_skipped": stats.sim_cycles_skipped,
            "spans_charged": stats.sim_spans_charged,
            "span_cycles": stats.sim_span_cycles,
        }
        if best is None or run["cells_per_sec"] > best["cells_per_sec"]:
            best = run
    assert best is not None
    return best


def measure_warm_trace_throughput(repeats: int = 3,
                                  spec: SweepSpec = BENCH_SPEC,
                                  progress=None) -> dict:
    """Cold results, warm traces: the compile-once/replay-many speedup.

    Prewarms a throwaway :class:`~repro.compiler.store.TraceStore` with
    one unmeasured compile per distinct (workload, signature) pair, then
    times cache-less runs whose every program replays from the store —
    the steady state of any repo that has run a sweep before.  A fresh
    executor per repeat keeps the in-process memo out of the measurement.
    """
    import tempfile

    from repro.compiler.signature import CompileSignature
    from repro.compiler.store import TraceStore

    n_cells = len(spec.cells())
    best: Optional[dict] = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-traces-") as tmp:
        store = TraceStore(Path(tmp))
        seen = set()
        for cell in spec.cells():
            workload = cell.resolve_workload()
            signature = CompileSignature.from_config(cell.config)
            key = store.key(workload, signature)
            if key not in seen:
                seen.add(key)
                store.put_trace(key, workload.compile(signature))
        for repeat in range(max(1, repeats)):
            executor = CellExecutor(traces=TraceStore(Path(tmp)),
                                    progress=progress)
            start = time.perf_counter()
            executor.run_spec(spec, label=f"bench warm-trace run {repeat + 1}")
            elapsed = time.perf_counter() - start
            # A benchmark that silently recompiled would measure the wrong
            # thing entirely.
            assert executor.stats.compiles == 0, executor.stats.summary()
            run = {
                "warm_trace_seconds": round(elapsed, 4),
                "warm_trace_cells_per_sec": round(n_cells / elapsed, 3),
                "trace_hits": executor.stats.trace_hits,
                "trace_misses": executor.stats.trace_misses,
            }
            if (best is None or run["warm_trace_cells_per_sec"]
                    > best["warm_trace_cells_per_sec"]):
                best = run
    assert best is not None
    return best


def measure_scheduler_speedup(spec: SweepSpec = BENCH_SPEC,
                              repeats: int = 3) -> dict:
    """Machine-independent check: event-driven scheduler vs the retained
    reference stepper, same grid, same machine, same run.

    Unlike the absolute cells/second gate (valid only on the machine the
    baseline was recorded on), this ratio cancels host speed, so CI can
    gate on it without cross-machine flakiness.  Each engine is timed
    ``repeats`` times and the best (least-contended) run is kept — a
    single pass swings the ratio by +/-15% on a noisy runner, which is
    wider than the regression margin the gate is meant to detect.
    """
    import numpy as np

    from repro.vpu.pipeline import VectorPipeline
    from repro.vpu.reference import ReferencePipeline

    jobs = []
    for cell in spec.cells():
        workload = cell.resolve_workload()
        jobs.append((workload, workload.compile(cell.config).program,
                     cell.config))
    timings = {}
    for label, cls in (("reference", ReferencePipeline),
                       ("scheduler", VectorPipeline)):
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for workload, program, config in jobs:
                pipe = cls(config, program)
                workload.init_data(np.random.default_rng(42))
                pipe.run()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        timings[label] = best
    return {
        "reference_seconds": round(timings["reference"], 4),
        "scheduler_seconds": round(timings["scheduler"], 4),
        "speedup_vs_reference": round(
            timings["reference"] / timings["scheduler"], 3),
    }


def profile_engine(spec: SweepSpec = BENCH_SPEC, top: int = 25) -> str:
    """cProfile one cold grid run; returns the top-``top`` cumulative rows.

    The next perf PR starts from this table instead of guesses: it is
    printed by ``repro bench engine --profile`` and written next to the
    benchmark JSON.  One run, no repeats — profiling overhead (~2.5x)
    distorts absolute time anyway; only the ranking is meaningful.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    CellExecutor().run_spec(spec, label="bench profile run")
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def load_baseline(path: Path = BASELINE_PATH) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


#: Deterministic work counters of a benchmark run.  They depend only on
#: the simulated behaviour, never on the host, so a run must reproduce the
#: committed record exactly.
WORK_COUNTERS = ("cycles_simulated", "events_processed", "cycles_skipped",
                 "spans_charged")


def check_counters(measured: dict, baseline: dict) -> Optional[str]:
    """None if every work counter matches the committed record, else a
    message naming each counter that differs."""
    stale = [f"{name} {measured[name]} != recorded {baseline.get(name)}"
             for name in WORK_COUNTERS if measured[name] != baseline.get(name)]
    if not stale:
        return None
    return ("work counters differ from the committed record (the simulated "
            "behaviour changed or the record is stale): " + ", ".join(stale))


def check_regression(measured: dict, baseline: dict,
                     max_regression: float = 0.20) -> Optional[str]:
    """None if within budget, else a human-readable failure message."""
    reference = baseline.get("cells_per_sec")
    if not reference:
        return None
    floor = reference * (1.0 - max_regression)
    if measured["cells_per_sec"] < floor:
        return (f"engine throughput regressed: {measured['cells_per_sec']} "
                f"cells/s vs committed baseline {reference} "
                f"(allowed floor {floor:.2f})")
    return None


def render_report(measured: dict, baseline: Optional[dict]) -> str:
    lines = [
        "engine cold-cache throughput "
        f"({measured['cells']} cells, serial):",
        f"  {measured['cells_per_sec']} cells/s "
        f"({measured['seconds']} s, "
        f"{measured['cycles_per_sec']:,.0f} cycles/s)",
        f"  scheduler: {measured['events_processed']} events processed, "
        f"{measured['cycles_skipped']} of {measured['cycles_simulated']} "
        "cycles skipped",
    ]
    if measured.get("spans_charged"):
        lines.append(
            f"  spans: {measured['spans_charged']} charged covering "
            f"{measured['span_cycles']} cycles")
    if "warm_trace_cells_per_sec" in measured:
        lines.insert(2, f"  warm trace store: "
                        f"{measured['warm_trace_cells_per_sec']} cells/s "
                        f"({measured['warm_trace_seconds']} s, "
                        f"{measured['trace_hits']} trace hits, "
                        "0 kernel compiles)")
    if baseline:
        pr1 = baseline.get("pr1_baseline_cells_per_sec")
        if pr1:
            lines.append(f"  vs PR 1 engine ({pr1} cells/s): "
                         f"{measured['cells_per_sec'] / pr1:.2f}x")
        ref = baseline.get("cells_per_sec")
        if ref:
            lines.append(f"  vs committed baseline ({ref} cells/s): "
                         f"{measured['cells_per_sec'] / ref:.2f}x")
    return "\n".join(lines)


def run_bench_engine(output: Optional[str] = "BENCH_engine.json",
                     baseline_path: Path = BASELINE_PATH,
                     max_regression: float = 0.20,
                     repeats: int = 3,
                     relative: bool = False,
                     min_relative_speedup: float = 1.3,
                     min_warm_ratio: float = 0.95,
                     extended: bool = False,
                     profile: bool = False,
                     progress=None) -> int:
    """CLI body for ``repro bench engine``; returns an exit status.

    In both modes the run's :data:`WORK_COUNTERS` must equal the committed
    record's (when one covers this grid).  ``relative=True`` gates on
    machine-independent ratios instead of the committed absolute
    throughput — the mode CI uses.  Two ratios must hold:
    the same-run scheduler-vs-reference speedup
    (``min_relative_speedup``), and the warm-trace/cold ratio
    (``min_warm_ratio`` — replaying stored traces skips every compile, so
    warm throughput falling measurably below cold means the replay path
    itself regressed).  ``extended=True`` measures the ten-kernel grid
    (:data:`EXTENDED_BENCH_SPEC`); the absolute gate only applies when the
    committed baseline was recorded on the same grid.  ``profile=True``
    appends a cProfile table of one cold run (written next to ``output``).
    ``progress`` forwards live per-cell completion to the engine's
    progress callback.
    """
    spec = EXTENDED_BENCH_SPEC if extended else BENCH_SPEC
    grid = "extended" if extended else "standard"
    baseline = load_baseline(baseline_path)
    if baseline is not None and baseline.get("grid", "standard") != grid:
        print(f"note: committed baseline covers the "
              f"{baseline.get('grid', 'standard')} grid, not {grid}; "
              "the absolute regression gate is skipped")
        baseline = None
    if baseline is None and not relative:
        print(f"note: no committed {grid}-grid baseline at {baseline_path}; "
              "the regression gate is skipped (run from a repository "
              "checkout to enable it)")
    measured = measure_engine_throughput(repeats=repeats, spec=spec,
                                         progress=progress)
    measured.update(measure_warm_trace_throughput(repeats=repeats, spec=spec,
                                                  progress=progress))
    measured["grid"] = grid
    if baseline and "pr1_baseline_cells_per_sec" in baseline:
        measured["pr1_baseline_cells_per_sec"] = (
            baseline["pr1_baseline_cells_per_sec"])
    if relative:
        measured.update(measure_scheduler_speedup(spec=spec,
                                                  repeats=repeats))
    print(render_report(measured, baseline))
    if output:
        Path(output).write_text(json.dumps(measured, indent=2) + "\n")
        print(f"[written to {output}]")
    if profile:
        table = profile_engine(spec=spec)
        print(table)
        if output:
            profile_path = Path(output).with_name(
                Path(output).stem + "_profile.txt")
            profile_path.write_text(table)
            print(f"[profile written to {profile_path}]")
    stale = check_counters(measured, baseline) if baseline else None
    if stale:
        print(stale)
    if relative:
        status = 1 if stale else 0
        ratio = measured["speedup_vs_reference"]
        print(f"  vs reference stepper (same run): {ratio}x")
        if ratio < min_relative_speedup:
            print(f"scheduler regressed: only {ratio}x over the reference "
                  f"stepper (floor {min_relative_speedup}x)")
            status = 1
        warm_ratio = (measured["warm_trace_cells_per_sec"]
                      / measured["cells_per_sec"])
        print(f"  warm-trace vs cold (same run): {warm_ratio:.2f}x")
        if warm_ratio < min_warm_ratio:
            print(f"warm-trace path regressed: {warm_ratio:.2f}x cold "
                  f"throughput (floor {min_warm_ratio}x) — trace replay "
                  "should never be slower than compiling")
            status = 1
        return status
    if stale:
        return 1
    if baseline:
        failure = check_regression(measured, baseline, max_regression)
        if failure:
            print(failure)
            return 1
    return 0
