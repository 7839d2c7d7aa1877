"""Small shared helpers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map preserving input order, optionally across a thread pool.

    The heavy lifting in this package happens inside NumPy and LAPACK
    calls that release the GIL, so threads can run them side by side
    without the pickling constraints of processes; on small problems the
    overhead can outweigh that, which is why callers default to one.
    Results are returned in input order regardless of completion order.
    """
    check_threads(threads)
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def check_threads(threads: int) -> None:
    """A thread count below 1 is a ConfigError."""
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
