"""`repro bench engine`: the committed record's work counters are exact."""

import pytest

import repro.experiments.bench as bench
from repro.experiments.engine import CellExecutor


def test_committed_record_matches_the_benchmark_grid():
    """The grid's deterministic counters equal the committed record, so a
    change in simulated behaviour must refresh it in the same change."""
    baseline = bench.load_baseline()
    assert baseline is not None
    executor = CellExecutor()
    executor.run_spec(bench.BENCH_SPEC)
    stats = executor.stats
    measured = {"cycles_simulated": stats.sim_cycles,
                "events_processed": stats.sim_events_processed,
                "cycles_skipped": stats.sim_cycles_skipped,
                "spans_charged": stats.sim_spans_charged}
    assert bench.check_counters(measured, baseline) is None
    assert baseline["span_cycles"] == stats.sim_span_cycles


def test_check_counters_names_every_stale_counter():
    record = {"cycles_simulated": 10, "events_processed": 5,
              "cycles_skipped": 6, "spans_charged": 2}
    assert bench.check_counters(dict(record), record) is None
    message = bench.check_counters(
        {**record, "events_processed": 4, "spans_charged": 3}, record)
    assert "events_processed 4 != recorded 5" in message
    assert "spans_charged 3 != recorded 2" in message
    assert "cycles_simulated" not in message


@pytest.mark.parametrize("relative", [False, True],
                         ids=["absolute", "relative"])
def test_stale_counters_fail_the_run(monkeypatch, tmp_path, capsys,
                                     relative):
    record = {"cells_per_sec": 1.0, "cycles_simulated": 10,
              "events_processed": 5, "cycles_skipped": 6,
              "spans_charged": 2}
    measured = {**record, "cells": 8, "seconds": 1.0, "cells_per_sec": 8.0,
                "cycles_per_sec": 10.0, "span_cycles": 8,
                "warm_trace_seconds": 1.0,
                "warm_trace_cells_per_sec": 8.0, "trace_hits": 8,
                "trace_misses": 0}
    monkeypatch.setattr(bench, "load_baseline", lambda path: dict(record))
    monkeypatch.setattr(bench, "measure_engine_throughput",
                        lambda **kwargs: dict(measured))
    monkeypatch.setattr(bench, "measure_warm_trace_throughput",
                        lambda **kwargs: {})
    monkeypatch.setattr(bench, "measure_scheduler_speedup",
                        lambda **kwargs: {"speedup_vs_reference": 2.0})

    def run():
        return bench.run_bench_engine(output=None, relative=relative)

    assert run() == 0
    measured["cycles_skipped"] = 7
    assert run() == 1
    assert "cycles_skipped 7 != recorded 6" in capsys.readouterr().out
