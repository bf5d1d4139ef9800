"""Timing utilities shared by the experiment runners."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Measurement", "measure"]


@dataclass
class Measurement:
    """One timed run: the wall-clock seconds plus the callable's return value."""

    seconds: float
    value: Any = None
    label: str = ""


def measure(fn: Callable[[], Any], label: str = "", repeat: int = 1) -> Measurement:
    """Run ``fn`` ``repeat`` times and return the best (minimum) wall-clock time.

    The minimum over repeats is the conventional way to suppress scheduler
    noise for CPU-bound micro-benchmarks.
    """
    best = float("inf")
    value: Any = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return Measurement(seconds=best, value=value, label=label)

