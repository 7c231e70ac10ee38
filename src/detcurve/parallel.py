"""Deterministic parallel block evaluation.

Work is split into blocks whose boundaries never depend on the worker
count, and results are collected in block order.  The functionals reduce
their floating sums with math.fsum; the curvature sweeps combine per-frame
results by max and concatenation in frame order.  Running with
DETCURVE_THREADS=1 or =8 therefore produces bit-identical output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

BLOCK = 1 << 17


def worker_count() -> int:
    """Thread cap: DETCURVE_THREADS if set, else min(4, cpu count)."""
    env = os.environ.get("DETCURVE_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValueError(f"DETCURVE_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ValueError(f"DETCURVE_THREADS must be >= 1, got {n}")
        return n
    return min(4, os.cpu_count() or 1)


def block_ranges(total: int):
    """Fixed [start, stop) partition of range(total) into BLOCK-sized ranges,
    independent of workers."""
    return [(start, min(start + BLOCK, total)) for start in range(0, total, BLOCK)]


def map_blocks(fn, ranges):
    """Apply fn to each (start, stop) range, preserving range order.

    Threads overlap only where numpy drops the GIL: on 2^17 items (2 vCPUs)
    two threads ran ufuncs and np.concatenate 1.8-2.4x as fast as one, but
    fancy-index gathers, np.repeat and np.add.at 0.85-1.3x, and any call on
    2^14 items ~1x.  One worker runs a plain loop.
    """
    workers = worker_count()
    if workers == 1 or len(ranges) <= 1:
        return [fn(start, stop) for start, stop in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))
