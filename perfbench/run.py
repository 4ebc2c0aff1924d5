"""Layered benchmark of the AVA reproduction's user paths.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (see ``README.md`` for why each exists):

* ``figure3-cold`` — ``repro figure3 all`` into an empty private cache;
* ``rerun-warm``  — the extended ten-kernel figure3 grid against a store
  prefilled with the code under test;
* ``sweep-memsys`` — a seeded memory/timing sweep, results cold, traces
  prefilled.

Every pass is a fresh interpreter running the inline backend (no process
pool), started by :mod:`worker`.  Passes repeat until their timed regions
add up to about ``--seconds`` (the pass count nearest to it).  Times are
host-calibrated: each is scaled by how long a fixed probe loop, sampled
all through the pass, took against its reference time, so the host's own
drift cancels and a change to the program shows in full.  Time and
memory are the mean over the passes; set-up time is the median over
extra set-up-only interpreters and the passes, calibrated by the probe
samples of the whole run.  With
``--trace 1`` one more pass runs with every layer wrapped in spans and the
per-layer metrics are reported instead.  Outputs are checked against the
digests and counters pinned in ``pins.json``; a mismatch fails the pass's
cells.  Human-readable lines go first, the JSON result is the last line.
Scratch files live in ``.perfbench/`` at the checkout root: a run's own
directory is removed on exit, and the warm store is kept for later runs
of the same sources (it is keyed by a digest of ``src/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from measure import (agree, calibrated, check_pass, count_failures, mean,
                     median)
from scenarios import DEFAULT_SEED
from worker import PROBE_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ["figure3-cold", "rerun-warm", "sweep-memsys"]

#: Set-up-only interpreters per run, on top of one per pass.
SETUP_PROBES = 5

#: A run must exit within this many seconds of starting.
RUN_BUDGET_S = 170.0

#: Pinned counters that depend on the sweep's seed: checked against the
#: pins only for :data:`scenarios.DEFAULT_SEED`, and between the passes of
#: every run.  All other pinned counters hold for every seed.
SIMULATED = ["sim_cycles", "sim_events_processed"]


class BenchError(RuntimeError):
    """A step of the benchmark could not run at all."""


class Run:
    """One benchmark invocation: its private directory and its children."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.work = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.setups = []
        self.problems = []
        self._n = 0

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def fresh_dir(self) -> str:
        self._n += 1
        return str(self.work / f"cache-{self._n}")

    def child(self, mode: str, cache_dir: str, trace: bool = False) -> dict:
        """Run one worker interpreter to completion; its JSON result."""
        job = {"mode": mode, "workload": self.workload, "seed": self.seed,
               "cache_dir": cache_dir, "trace": trace,
               "t0": time.monotonic()}
        env = dict(os.environ, PYTHONHASHSEED="0")
        # A session of its own, so the prefill's pool workers can be
        # killed with their parent if the step overruns or is interrupted.
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(job)], cwd=ROOT,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} step ran past the run budget") from exc
        finally:
            if proc.returncode is None:
                kill_group(proc)
        if proc.returncode != 0:
            raise BenchError(f"{mode} step exited {proc.returncode}:\n"
                             f"{err.strip()}")
        result = json.loads(out.strip().splitlines()[-1])
        if "setup_s" in result:
            self.setups.append(result["setup_s"])
        return result


def host_calibrated(seconds: float, result: dict) -> float:
    """``seconds`` measured in a worker, at the reference host speed."""
    return calibrated(seconds, result["probe_s"], PROBE_REFERENCE_S)


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a step and every process it started, and wait until the group
    is gone (its grandchildren are reaped by init, not by us)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def source_digest(root: Path = ROOT) -> str:
    """sha256 over the paths and bytes of every file under ``src/``, plus
    the worker that builds stores: the code a warm store was built with."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    digest.update(WORKER.read_bytes())
    return digest.hexdigest()


def warm_store(run: Run, pins: dict) -> str:
    """The result store ``rerun-warm`` replays, built once per source tree.

    The store is prefilled (untimed, over a 2-worker pool) into the run's
    own directory, checked against its pins and only then renamed into
    place, so a later run never finds a partial or wrong store.  A store
    from other sources would turn the rerun into a cold run, since
    ``code_fingerprint()`` is part of every cell key; hence the digest in
    its name.
    """
    store = ROOT / ".perfbench" / f"store-{source_digest()[:16]}"
    if store.is_dir():
        return str(store)
    built = run.fresh_dir()
    prefill = run.child("prefill-results", built)
    problems = check_pass(prefill, pins["prefill"]["digest"],
                          pins["prefill"]["counters"])
    if problems:
        run.problems += problems
        return built
    try:
        os.rename(built, store)
    except OSError:
        pass  # another invocation put its store there first
    return str(store)


def prepare(run: Run, pins: dict):
    """Untimed per-invocation preparation; returns a factory for the cache
    directory each pass uses."""
    if run.workload == "figure3-cold":
        return run.fresh_dir
    if run.workload == "rerun-warm":
        store = warm_store(run, pins)
        return lambda: store
    source = Path(run.fresh_dir())
    prefill = run.child("prefill-traces", str(source))
    run.problems += check_pass(prefill, None, pins["prefill"]["counters"])

    def with_traces() -> str:
        target = run.fresh_dir()
        shutil.copytree(source / "traces", Path(target) / "traces")
        return target
    return with_traces


def expected(run: Run, pins: dict):
    """(digest, counters) every pass of this run must reproduce."""
    counters = dict(pins["counters"])
    if run.workload == "sweep-memsys" and run.seed != DEFAULT_SEED:
        for name in SIMULATED:
            counters.pop(name)
        return None, counters
    return pins["digest"], counters


def measure(run: Run, seconds: float, trace: bool) -> dict:
    pins = load_pins()[run.workload]
    cache_dir = prepare(run, pins)
    digest, counters = expected(run, pins)

    # A throwaway set-up first: it writes the bytecode caches of a fresh
    # checkout, which no later interpreter pays for.
    run.child("setup", run.fresh_dir())
    run.setups.clear()
    for _ in range(SETUP_PROBES):
        run.child("setup", cache_dir())

    # As many passes as brings the measured time nearest to ``seconds``.
    passes = []
    measured = 0.0
    while not passes or measured + measured / len(passes) / 2 < seconds:
        longest = max((p["wall_s"] for p in passes), default=0.0)
        if passes and run.left() < 2.5 * longest + 10.0:
            break
        passes.append(run.child("pass", cache_dir()))
        measured += passes[-1]["wall_s"]
    traced = run.child("pass", cache_dir(), trace=True) if trace else None

    checked = passes + ([traced] if traced else [])
    found = [check_pass(p, digest, counters) for p in checked]
    cross = agree(checked, SIMULATED)
    failed = count_failures(checked, found)
    attempted = sum(p["counters"]["cells_requested"] for p in checked)
    if run.problems or cross:
        failed = attempted
    for problem in run.problems + cross + [m for f in found for m in f]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    walls = [host_calibrated(p["wall_s"], p) for p in passes]
    probes = [s for p in checked for s in p["probe_s"]]
    # A set-up is too short to sample in; it is calibrated by the host
    # speed over the whole run.
    setup_s = calibrated(median(run.setups),
                         [s for p in passes for s in p["probe_s"]],
                         PROBE_REFERENCE_S)
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (
            host_calibrated(traced["wall_s"], traced) - mean(walls))
        metrics["host.probe_s"] = median(probes)
    else:
        metrics = {"wall_s": mean(walls),
                   "cpu_s": mean([host_calibrated(p["cpu_s"], p)
                                  for p in passes]),
                   "setup_s": setup_s,
                   "peak_rss_mb": mean([p["peak_rss_mb"] for p in passes])}
    print(f"{run.workload} seed={run.seed}: {len(passes)} passes"
          f"{' + 1 traced' if trace else ''}, {len(run.setups)} set-ups")
    measured = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    speeds = ", ".join(f"{mean(p['probe_s']) * 1e3:.3f}" for p in passes)
    print(f"  measured walls {measured} s")
    print(f"  host probe per pass {speeds} ms "
          f"(reference {PROBE_REFERENCE_S * 1e3:.3f} ms)")
    print(f"  calibrated walls {', '.join(f'{w:.3f}' for w in walls)} s")
    print(f"  set-up median {median(run.setups):.4f} s measured, "
          f"{setup_s:.4f} s calibrated")
    print(f"  work per pass: {json.dumps(passes[0]['counters'])}")
    print(f"  render sha256 {passes[0]['digest']}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="draws sweep-memsys's scenarios; the other "
                             "workloads are the paper's fixed grid")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    # A terminated run still kills its steps and removes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = measure(run, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it
    declared = declared_units(bool(args.trace))
    if set(result["metrics"]) != set(declared):
        print(f"metrics {sorted(result['metrics'])} differ from the ones "
              f"BENCHMARK.json declares", file=sys.stderr)
        return 1
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:.6g} {declared[name]}")
    result["metrics"] = {name: {"value": value, "unit": declared[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the
    kind of run (per-layer with tracing, end-to-end without)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
