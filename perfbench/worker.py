"""One fresh-interpreter step of the benchmark.

``python3 perfbench/worker.py '<job JSON>'`` imports ``repro`` from the
checkout's ``src/``, does one step and prints one JSON object as its last
stdout line.  Every pass runs in its own interpreter, as a user's command
does, so per-process memos start cold each time.  Job keys:

* ``mode``: ``setup`` (import and executor construction only), ``pass``
  (one timed workload pass), ``prefill-results`` (the warm store a rerun
  replays) or ``prefill-traces`` (compiled traces, no results);
* ``workload``, ``cache_dir`` and, for the sweep, ``seed``;
* ``t0``: the parent's ``time.monotonic()`` just before it launched this
  interpreter (CLOCK_MONOTONIC is system-wide), so set-up time counts
  interpreter start;
* ``trace``: wrap the layers (:mod:`layers`) after set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Iterations of the host-speed probe loop.
PROBE_ITERATIONS = 20_000

#: Probe time that host-calibrated seconds are scaled to: about what the
#: loop takes on a 2.1 GHz Xeon vCPU with its neighbours idle.
PROBE_REFERENCE_S = 0.0015

#: Probes taken just before and just after the timed region, on top of
#: the ones sampled inside it.
EDGE_PROBES = 3

#: Probes per second of CPU time inside the timed region.
SAMPLE_HZ = 20


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: a witness of host speed
    that no change to ``repro`` can move."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Prober:
    """Host-speed samples taken in this interpreter, plus the wall and CPU
    time they cost, so a timed region can leave that time out.

    Used as a context manager, it samples :data:`SAMPLE_HZ` times per CPU
    second from a ``SIGPROF`` interval timer (the signal profilers use), so
    a pass's samples spread evenly over it and follow the host's speed
    through it.
    """

    def __init__(self) -> None:
        self.samples = []
        self.wall = 0.0
        self.cpu = 0.0

    def __call__(self, *_signal) -> None:
        start, cpu0 = time.perf_counter(), cpu_seconds()
        self.samples.append(probe())
        self.wall += time.perf_counter() - start
        self.cpu += cpu_seconds() - cpu0

    def edge(self) -> None:
        for _ in range(EDGE_PROBES):
            self()

    def __enter__(self) -> "Prober":
        signal.signal(signal.SIGPROF, self)
        signal.setitimer(signal.ITIMER_PROF, 1 / SAMPLE_HZ, 1 / SAMPLE_HZ)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def import_repro():
    """Import ``repro`` from this checkout, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")


def figure3_names(workload: str):
    from repro.workloads.registry import (ALL_WORKLOAD_NAMES,
                                          WORKLOAD_NAMES)
    return list(WORKLOAD_NAMES if workload == "figure3-cold"
                else ALL_WORKLOAD_NAMES)


def render_figure3(executor, names) -> str:
    """``repro figure3`` stdout for ``names``, byte for byte."""
    from repro.experiments.figure3 import build_panels
    panels = build_panels(names, executor=executor)
    return "".join(panels[name].render() + "\n" for name in names)


def render_sweep(executor, seed: int) -> str:
    """``repro sweep`` stdout for the workload's seeded spec."""
    from repro.experiments.sweep import run_sweep
    from scenarios import sweep_spec
    return run_sweep(sweep_spec(seed), executor=executor) + "\n"


def run_pass(job: dict) -> dict:
    import_repro()
    from repro.experiments.engine import make_executor
    import repro.experiments.figure3  # noqa: F401 — part of set-up
    import repro.experiments.sweep  # noqa: F401 — part of set-up

    prober = Prober()
    executor = make_executor(jobs=1, cache=True, cache_dir=job["cache_dir"],
                             backend="inline")
    setup_s = time.monotonic() - job["t0"]
    if job["mode"] == "setup":
        return {"setup_s": setup_s}

    recorder = None
    if job["trace"]:
        import layers
        recorder = layers.Recorder()
        layers.install(recorder)
    workload = job["workload"]
    if workload == "sweep-memsys":
        def region():
            return render_sweep(executor, job["seed"])
    else:
        names = figure3_names(workload)

        def region():
            return render_figure3(executor, names)

    # A traced pass samples at the edges only: a probe inside the region
    # would be charged to whichever span it interrupted.
    sampling = contextlib.nullcontext() if job["trace"] else prober
    prober.edge()
    outside_wall, outside_cpu = prober.wall, prober.cpu
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with sampling:
        text = region()
    wall_s = time.perf_counter() - start - (prober.wall - outside_wall)
    cpu_s = cpu_seconds() - cpu0 - (prober.cpu - outside_cpu)
    prober.edge()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_s": prober.samples,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "counters": executor.stats.to_dict(),
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
    return result


def prefill_results(job: dict) -> dict:
    """Run the extended grid cold into ``cache_dir`` over a process pool —
    untimed preparation, so it may use both cores."""
    import_repro()
    from repro.experiments.engine import make_executor
    with make_executor(jobs=2, cache=True, cache_dir=job["cache_dir"],
                       backend="pool") as executor:
        text = render_figure3(executor, figure3_names(job["workload"]))
    return {"digest": hashlib.sha256(text.encode()).hexdigest(),
            "counters": executor.stats.to_dict()}


def prefill_traces(job: dict) -> dict:
    """Compile every trace the sweep replays into ``cache_dir/traces``."""
    import_repro()
    from repro.compiler.signature import CompileSignature
    from repro.compiler.store import TRACE_SUBDIR, TraceStore
    from repro.core.config import get_machine
    from repro.workloads.registry import get_workload
    from scenarios import trace_cells

    store = TraceStore(Path(job["cache_dir"]) / TRACE_SUBDIR)
    keys = set()
    for name, machine in trace_cells():
        workload = get_workload(name)
        config = get_machine(machine)
        key = store.key(workload, CompileSignature.from_config(config))
        if key not in keys:
            keys.add(key)
            store.put_trace(key, workload.compile(config))
    return {"digest": None, "counters": {"compiles": len(keys)}}


MODES = {"setup": run_pass, "pass": run_pass,
         "prefill-results": prefill_results,
         "prefill-traces": prefill_traces}


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    print(json.dumps(MODES[job["mode"]](job)))
