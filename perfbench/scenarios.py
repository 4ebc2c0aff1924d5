"""The seeded scenario grid of the ``sweep-memsys`` workload.

Five kernels figure3's paper grid never simulates with (the four extended
RiVEC kernels, plus blackscholes under non-paper memory systems) on the
two swapping AVA configurations and the NATIVE X8 baseline, over memory
and timing points drawn from the seed.  Every drawn point is distinct
from the others on its axis, so the grid always has exactly
:func:`cell_count` distinct cells: the amount of work never depends on
the seed, only which scenarios carry it.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

WORKLOADS = ["jacobi2d", "pathfinder", "spmv", "streamcluster",
             "blackscholes"]
MACHINES = ["ava-x4", "ava-x8", "native-x8"]

#: Drawn memory points: L2 hit latency x DRAM latency.  Every DRAM choice
#: is at least the ``slow-dram`` preset's, so swaps pay slow DRAM.
L2_LATENCIES = [12, 16, 20, 24, 32]
DRAM_LATENCIES = [160, 200, 240, 280, 320]
N_MEMORY = 4

#: Drawn timing points: pre-issue swap budget x memory-queue dead time.
SWAP_BUDGETS = [1, 2, 3, 4]
MEM_DEAD_TIMES = [2, 3, 4]
N_TIMING = 2

#: The seed whose sweep render and simulated counters are pinned.
DEFAULT_SEED = 0


def sweep_spec(seed: int) -> Dict[str, object]:
    """A ``repro sweep`` spec (the JSON-file form, as a dict) for ``seed``.

    The same seed always yields the same spec; points are drawn without
    replacement, so no two memory (or timing) entries coincide.
    """
    rng = random.Random(f"sweep-memsys:{seed}")
    memory = rng.sample(list(itertools.product(L2_LATENCIES,
                                               DRAM_LATENCIES)), N_MEMORY)
    timing = rng.sample(list(itertools.product(SWAP_BUDGETS,
                                               MEM_DEAD_TIMES)), N_TIMING)
    return {
        "name": f"memsys-seed{seed}",
        "workloads": list(WORKLOADS),
        "machines": list(MACHINES),
        "memory": [{"l2": {"latency": l2}, "dram": {"latency": dram}}
                   for l2, dram in memory],
        "timing": [{"preissue_swap_budget": budget,
                    "mem_dead_time": dead}
                   for budget, dead in timing],
    }


def cell_count() -> int:
    """Cells (and, since all are distinct, simulations) in every spec."""
    return len(WORKLOADS) * len(MACHINES) * N_MEMORY * N_TIMING


def trace_cells() -> List[Tuple[str, str]]:
    """The (workload, machine) pairs whose traces the workload prefills."""
    return [(w, m) for w in WORKLOADS for m in MACHINES]
