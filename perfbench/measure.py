"""Pure arithmetic of the benchmark: averages, the tail rule, output checks.

Nothing here imports ``repro`` or touches the clock, so the rules the
benchmark reports by are unit-tested on their own (``test_perfbench.py``).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10


def mean(values: Sequence[float]) -> float:
    """Mean of a non-empty sample (0.0 for an empty one)."""
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one)."""
    return float(statistics.median(values)) if values else 0.0


def calibrated(seconds: float, probes: Sequence[float],
               reference: float) -> float:
    """``seconds`` measured while the probe loop took ``probes``, scaled to
    a host on which it takes ``reference``: the same work at a fixed host
    speed.  The program cannot move the probe, so a change to it shows in
    full, while a host that slows both by the same factor shows not at
    all."""
    return seconds * reference / mean(probes)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile of ``values`` that still
    has :data:`TAIL_SAMPLES` samples above it — the 11th-largest sample.

    With too few samples for any such percentile the answer is ``(0, 0)``:
    a tail read off fewer points would be one outlier, not a tail.
    """
    n = len(values)
    if n <= TAIL_SAMPLES:
        return 0.0, 0.0
    rank = n - TAIL_SAMPLES - 1          # 0-based; TAIL_SAMPLES above it
    return 100.0 * (rank + 1) / n, float(sorted(values)[rank])


def check_pass(result: Mapping[str, object],
               expected_digest: Optional[str],
               expected_counters: Mapping[str, int]) -> List[str]:
    """Every way one pass's output differs from its pins, as messages.

    ``expected_digest`` None means the render has no pin (a sweep seed
    other than the default); counters always do.
    """
    problems = []
    digest = result["digest"]
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"render digest {digest} != pinned {expected_digest}")
    counters = result["counters"]
    for name, want in expected_counters.items():
        got = counters.get(name)
        if got != want:
            problems.append(f"counter {name} = {got} != pinned {want}")
    return problems


def count_failures(passes: Sequence[Mapping[str, object]],
                   problems: Sequence[Sequence[str]]) -> int:
    """Failed operations over a run's passes: a pass with any mismatch
    failed as a whole (its output is wrong), otherwise the cells the
    engine itself reported failed."""
    failed = 0
    for result, found in zip(passes, problems):
        counters = result["counters"]
        failed += (counters["cells_requested"] if found
                   else counters["cells_failed"])
    return failed


def agree(passes: Sequence[Mapping[str, object]],
          keys: Sequence[str]) -> List[str]:
    """Mismatches between passes that must produce identical output: the
    render digest and the named counters of every pass against the first."""
    problems = []
    first = passes[0]
    for i, other in enumerate(passes[1:], start=1):
        if other["digest"] != first["digest"]:
            problems.append(f"pass {i} render digest differs from pass 0")
        for key in keys:
            if other["counters"][key] != first["counters"][key]:
                problems.append(f"pass {i} counter {key} differs from "
                                f"pass 0")
    return problems


def self_times(spans: Sequence[Tuple[int, str, Optional[int], float, float]]
               ) -> Dict[int, float]:
    """Self time of every span: its duration minus the time its direct
    children cover.  Spans are ``(id, name, parent_id, start, end)``;
    children of one parent run one after another, so their durations add.
    """
    own = {sid: end - start for sid, _, _, start, end in spans}
    for _, _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
