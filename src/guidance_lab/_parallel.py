"""Sequential order-preserving map.

Nothing in the package calls it any more: trajectories run as one batch
(see ``samplers.sample_runs``).  It stays because the benchmark's tracer
(``perfbench/tracer.py``) imports it.
"""

from __future__ import annotations

__all__ = ["parallel_map"]


def parallel_map(fn, items):
    return [fn(item) for item in items]
