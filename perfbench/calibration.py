"""A fixed piece of work that measures how fast the machine runs right now.

The host this benchmark was built on drifts in speed by up to 1.8x over
minutes, as other tenants come and go.  Timings are reported at a fixed
reference speed: each measured interval is divided by calibration readings
taken on either side of it and multiplied by the reference machine's
reading, :data:`REFERENCE_CALIBRATION_S`.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import deque
from time import perf_counter

# Median seconds of calibrate() on the reference machine, a 2-vCPU Intel
# Xeon (Sapphire Rapids) KVM guest running CPython 3.11.7.
REFERENCE_CALIBRATION_S = 0.0163

def _graph() -> tuple[list[str], dict[str, int], dict[str, dict[str, int]]]:
    names = [f"Calibration Journal {i:04d}" for i in range(300)]
    adj: dict[str, dict[str, int]] = {name: {} for name in names}
    rng = random.Random(2011)
    for _ in range(1500):
        a, b = rng.sample(names, 2)
        adj[a][b] = adj[b][a] = 1
    return names, {name: i for i, name in enumerate(names)}, adj


_NAMES, _INDEX, _ADJ = _graph()


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed piece of pure
    Python work of the pipeline's kinds (breadth-first search over dicts
    with keyed sorts, JSON text).  It uses nothing from interlock, so a
    change to the program cannot move it."""
    start = perf_counter()
    for source in _NAMES[:15]:
        dist: dict[str, int | None] = {v: None for v in _NAMES}
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(_ADJ[u], key=_INDEX.__getitem__):
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    json.dumps({v: sorted(nbrs) for v, nbrs in _ADJ.items()}, indent=2)
    return perf_counter() - start


def calibrate_for(seconds: float) -> float:
    """Mean seconds of :func:`calibrate` over repeats filling ``seconds``
    (at least one), so that a long pipeline gets a steadier reading."""
    runs = [calibrate()]
    while sum(runs) < seconds:
        runs.append(calibrate())
    return statistics.mean(runs)


def at_reference_speed(samples: list[float], calibration: list[float]) -> list[float]:
    """Seconds scaled to the reference machine's speed.

    ``calibration[i]`` and ``calibration[i + 1]`` were read just before and
    just after ``samples[i]``; the sample is scaled by their mean.
    """
    return [
        t * REFERENCE_CALIBRATION_S / ((before + after) / 2)
        for t, before, after in zip(samples, calibration, calibration[1:])
    ]
