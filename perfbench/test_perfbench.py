"""Tests of the benchmark's own code: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import scenarios
from layers import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- self time ----------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [(0, "run", None, 0.0, 10.0),
             (1, "key", 0, 1.0, 4.0),
             (2, "fingerprint", 1, 2.0, 3.0),
             (3, "simulate", 0, 5.0, 9.0)]
    assert measure.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_recorder_nests_spans_and_totals_self_time():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    def middle():
        rec.call("b", leaf)
        return rec.call("b", leaf)

    assert rec.call("a", middle) == "leaf"
    total, self_s = rec.totals()
    # a spans ticks 0..5, each b one tick; a's self time is what is left.
    assert total == {"a": 5.0, "b": 2.0}
    assert self_s == {"a": 3.0, "b": 2.0}
    assert [parent for _, _, parent, _, _ in rec.spans] == [None, 0, 0]


def test_span_closes_when_the_call_raises():
    rec = Recorder()
    with pytest.raises(ValueError):
        rec.call("bad", int, "x")
    assert rec.spans[0][4] >= rec.spans[0][3]
    assert rec.call("next", lambda: 1) == 1
    assert rec.spans[1][2] is None


# -- tail percentile -----------------------------------------------------------
def test_tail_needs_ten_samples_beyond_it():
    assert measure.tail([1.0] * 10) == (0.0, 0.0)
    pct, value = measure.tail([float(v) for v in range(11)])
    assert value == 0.0 and pct == pytest.approx(100 / 11)


def test_tail_is_the_eleventh_largest():
    values = [float(v) for v in range(1, 101)]
    assert measure.tail(values[::-1]) == (90.0, 90.0)
    beyond = [v for v in values if v > measure.tail(values)[1]]
    assert len(beyond) == measure.TAIL_SAMPLES


# -- output checks -------------------------------------------------------------
def _pass(digest="d", **counters):
    base = {"cells_requested": 84, "cells_failed": 0, "sim_cycles": 7}
    base.update(counters)
    return {"digest": digest, "counters": base}


def test_matching_pass_has_no_problems():
    assert measure.check_pass(_pass(), "d", {"sim_cycles": 7}) == []
    assert measure.check_pass(_pass(), None, {"sim_cycles": 7}) == []


def test_digest_or_counter_mismatch_fails_every_cell_of_the_pass():
    passes = [_pass(), _pass(digest="other"), _pass(sim_cycles=8)]
    found = [measure.check_pass(p, "d", {"sim_cycles": 7}) for p in passes]
    assert [len(f) for f in found] == [0, 1, 1]
    assert "digest" in found[1][0] and "sim_cycles" in found[2][0]
    assert measure.count_failures(passes, found) == 2 * 84


def test_engine_failures_count_when_output_matches():
    passes = [_pass(cells_failed=3)]
    found = [measure.check_pass(passes[0], None, {})]
    assert measure.count_failures(passes, found) == 3


def test_passes_must_agree_with_each_other():
    assert measure.agree([_pass(), _pass()], ["sim_cycles"]) == []
    problems = measure.agree([_pass(), _pass(digest="x"), _pass(sim_cycles=9)],
                             ["sim_cycles"])
    assert len(problems) == 2


# -- seeded scenario generator ---------------------------------------------------
def test_same_seed_same_spec():
    assert scenarios.sweep_spec(7) == scenarios.sweep_spec(7)


def test_seeds_draw_different_points():
    specs = {json.dumps(scenarios.sweep_spec(seed), sort_keys=True)
             for seed in range(20)}
    assert len(specs) == 20


@pytest.mark.parametrize("seed", range(50))
def test_points_are_distinct_so_work_is_seed_free(seed):
    spec = scenarios.sweep_spec(seed)
    for axis, size in (("memory", scenarios.N_MEMORY),
                       ("timing", scenarios.N_TIMING)):
        entries = [json.dumps(e, sort_keys=True) for e in spec[axis]]
        assert len(set(entries)) == len(entries) == size
    assert (len(spec["workloads"]) * len(spec["machines"])
            * len(spec["memory"]) * len(spec["timing"])
            == scenarios.cell_count() == 120)


# -- wrapping the program ----------------------------------------------------------
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import layers
from repro.core.config import get_machine
from repro.experiments.engine import Cell, CellExecutor, ResultCache
rec = layers.Recorder()
layers.install(rec)
executor = CellExecutor(cache=ResultCache({cache!r}))
cell = Cell(workload="axpy", config=get_machine("native-x1"))
executor.run([cell])
executor.run([cell])
print(json.dumps(rec.layer_metrics()))
"""


def test_install_counts_one_cold_and_one_warm_cell(tmp_path):
    script = SCRIPT.format(src=str(ROOT / "src"), here=str(HERE),
                           cache=str(tmp_path / "cache"))
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=120)
    m = json.loads(done.stdout.splitlines()[-1])
    assert m["compiler.compiles"] == 1
    assert m["engine.keys"] == 2
    assert (m["cachefs.misses"], m["cachefs.hits"], m["cachefs.puts"]) \
        == (1, 1, 1)
    assert m["vpu.cells"] == m["sim.builds"] == 1
    assert m["vpu.sim_cycles"] > 0 and m["vpu.events_processed"] > 0
    assert m["cachefs.bytes_read"] == m["cachefs.bytes_written"] > 0
    assert m["engine.self_s"] > 0 and m["vpu.simulate_s"] > 0


# -- the contract's failure mode -------------------------------------------------------
def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure3-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- the run's contract ------------------------------------------------------------
def test_traced_metrics_are_the_declared_per_layer_metrics():
    import run
    produced = set(Recorder().layer_metrics()) | {"trace.overhead_s",
                                                  "host.probe_s"}
    assert produced == set(run.declared_units(trace=True))


def test_sweep_pins_simulated_totals_for_the_default_seed_only():
    import run
    pins = run.load_pins()["sweep-memsys"]
    default = run.Run("sweep-memsys", scenarios.DEFAULT_SEED)
    digest, counters = run.expected(default, pins)
    assert digest == pins["digest"] and "sim_cycles" in counters
    digest, counters = run.expected(run.Run("sweep-memsys", 5), pins)
    assert digest is None
    assert not set(run.SIMULATED) & set(counters)
    assert counters["sims_executed"] == scenarios.cell_count()


def test_warm_store_is_keyed_by_the_sources_only(tmp_path):
    import run
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    first = run.source_digest(tmp_path)
    (src / "__pycache__").mkdir()
    (src / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"bytecode")
    assert run.source_digest(tmp_path) == first
    (src / "a.py").write_text("x = 2\n")
    assert run.source_digest(tmp_path) != first


def test_calibration_removes_a_host_slowdown_and_keeps_a_program_one():
    fast = measure.calibrated(2.0, [0.0015, 0.0015], 0.0015)
    slow_host = measure.calibrated(3.0, [0.00225, 0.00225], 0.0015)
    slow_program = measure.calibrated(3.0, [0.0015, 0.0015], 0.0015)
    assert fast == pytest.approx(2.0) == pytest.approx(slow_host)
    assert slow_program == pytest.approx(1.5 * fast)
