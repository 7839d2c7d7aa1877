"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_threads() -> int:
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map preserving input order, optionally across a thread pool.

    The heavy lifting in this package happens inside NumPy and LAPACK
    calls that release the GIL, so threads give real speedups without the
    pickling constraints of processes. Results are returned in input
    order regardless of completion order.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
