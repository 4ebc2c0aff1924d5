"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public callables at each ``repro`` layer
boundary — compile, trace store, decode, keying, result cache, simulator
build/run, energy model, renderers — so every call opens a span and adds
exact work counts read off its arguments and result.  Spans nest through
a stack (the benchmark is serial), stay in memory, and are summarised by
:meth:`Recorder.layer_metrics` once the traced pass ends.  Counting work
(sizes on disk, result fields) happens after the span closes, so it is
not charged to the layer.

Nothing is wrapped unless :func:`install` is called: the untraced passes
run the program exactly as a user does.
"""

from __future__ import annotations

import gc
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from measure import median, self_times, tail

Span = Tuple[int, str, Optional[int], float, float]


class Recorder:
    """An in-memory span stack plus named counters and GC time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(int)
        self.cell_s: List[float] = []
        #: Duration of the span that ended last.
        self.last = 0.0
        self._stack: List[int] = []
        self._gc_start = 0.0

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, parent, 0.0, 0.0))
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = (sid, name, parent, start, end)
            self.last = end - start

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(total duration, total self time) per span name."""
        own = self_times(self.spans)
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for sid, name, _, start, end in self.spans:
            total[name] += end - start
            self_s[name] += own[sid]
        return total, self_s

    # -- garbage collector -----------------------------------------------------
    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        else:
            self.counts["python.gc_collections"] += 1
            self.counts["python.gc_s"] += self.clock() - self._gc_start

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric this recorder can produce (zeros where a
        layer never ran)."""
        total, self_s = self.totals()
        c = self.counts
        simulate_s = total["vpu.simulate"]
        events = c["vpu.events_processed"]
        pct, tail_s = tail(self.cell_s)
        metrics = {
            "compiler.compile_s": total["compiler.compile"],
            "compiler.store.get_s": total["compiler.store.get"],
            "compiler.store.put_s": total["compiler.store.put"],
            "isa.decode_s": total["isa.decode"],
            "engine.key_s": total["engine.key"],
            "engine.fingerprint_s": total["engine.fingerprint"],
            "engine.self_s": self_s["engine.run"],
            "cachefs.get_s": total["cachefs.get"],
            "cachefs.put_s": total["cachefs.put"],
            "sim.build_s": total["sim.build"],
            "vpu.simulate_s": simulate_s,
            "vpu.us_per_event": 1e6 * simulate_s / events if events else 0.0,
            "vpu.kuops_per_s": (c["vpu.committed"] / simulate_s / 1e3
                                if simulate_s else 0.0),
            "vpu.cell_p50_ms": 1e3 * median(self.cell_s),
            "vpu.cell_tail_ms": 1e3 * tail_s,
            "vpu.cell_tail_pct": pct,
            "power.energy_s": total["power.energy"],
            "experiments.render_s": total["experiments.render"],
        }
        for name in COUNTERS:
            metrics[name] = c[name]
        return metrics


#: Counters :func:`install` maintains (reported even when zero).
COUNTERS = [
    "compiler.compiles", "compiler.insts_emitted",
    "compiler.store.gets", "compiler.store.bytes_read",
    "compiler.store.puts", "compiler.store.bytes_written",
    "isa.insts_decoded", "engine.keys",
    "cachefs.hits", "cachefs.misses", "cachefs.bytes_read",
    "cachefs.puts", "cachefs.bytes_written",
    "sim.builds", "vpu.cells", "vpu.sim_cycles", "vpu.committed",
    "vpu.events_processed", "vpu.cycles_skipped", "vpu.spans_charged",
    "vpu.swap_loads", "vpu.swap_stores",
    "memory.l2_misses", "memory.dram_accesses",
    "python.gc_collections", "python.gc_s",
]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(rec: Recorder) -> None:
    """Wrap every layer boundary of the imported ``repro`` package."""
    import repro.experiments.engine as engine
    import repro.experiments.sweep as sweep
    from repro.compiler.store import TraceStore
    from repro.experiments.figure3 import Figure3Panel
    from repro.isa.program import Program
    from repro.power.mcpat import McPatModel
    from repro.sim.simulator import Simulator
    from repro.workloads.base import Workload

    c = rec.counts

    def wrap(owner, attr: str, span: str,
             after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = rec.call(span, original, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        setattr(owner, attr, wrapper)

    def compiled(result, *_):
        c["compiler.compiles"] += 1
        c["compiler.insts_emitted"] += len(result.program.insts)

    def trace_get(result, store, key):
        c["compiler.store.gets"] += 1
        if result is not None:
            c["compiler.store.bytes_read"] += _size(store.path(key))

    def trace_put(_, store, key, *__):
        c["compiler.store.puts"] += 1
        c["compiler.store.bytes_written"] += _size(store.path(key))

    def result_get(result, store, key):
        if result is None:
            c["cachefs.misses"] += 1
        else:
            c["cachefs.hits"] += 1
            c["cachefs.bytes_read"] += _size(store.path(key))

    def result_put(_, store, key, *__):
        c["cachefs.puts"] += 1
        c["cachefs.bytes_written"] += _size(store.path(key))

    def keyed(*_):
        c["engine.keys"] += 1

    def built(*_):
        c["sim.builds"] += 1

    def simulated(result, *_):
        s = result.stats
        rec.cell_s.append(rec.last)
        c["vpu.cells"] += 1
        for counter, field in (("vpu.sim_cycles", "cycles"),
                               ("vpu.committed", "committed"),
                               ("vpu.events_processed", "events_processed"),
                               ("vpu.cycles_skipped", "cycles_skipped"),
                               ("vpu.spans_charged", "spans_charged"),
                               ("vpu.swap_loads", "swap_loads"),
                               ("vpu.swap_stores", "swap_stores"),
                               ("memory.l2_misses", "l2_misses"),
                               ("memory.dram_accesses", "dram_accesses")):
            c[counter] += getattr(s, field)

    wrap(Workload, "compile", "compiler.compile", compiled)
    wrap(TraceStore, "get", "compiler.store.get", trace_get)
    wrap(TraceStore, "put_trace", "compiler.store.put", trace_put)
    wrap(engine.ResultCache, "get", "cachefs.get", result_get)
    wrap(engine.ResultCache, "put", "cachefs.put", result_put)
    wrap(engine, "cell_key", "engine.key", keyed)
    wrap(engine, "program_fingerprint", "engine.fingerprint")
    wrap(engine.CellExecutor, "run", "engine.run")
    wrap(Simulator, "__init__", "sim.build", built)
    wrap(Simulator, "run", "vpu.simulate", simulated)
    wrap(McPatModel, "energy", "power.energy")
    wrap(Figure3Panel, "render", "experiments.render")
    wrap(sweep, "_render", "experiments.render")

    decode = Program.from_dict.__func__

    def from_dict(cls, data):
        program = rec.call("isa.decode", decode, cls, data)
        c["isa.insts_decoded"] += len(program.insts)
        return program

    Program.from_dict = classmethod(from_dict)
    gc.callbacks.append(rec.gc_callback)
