"""Small shared helpers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

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


def json_number(value, name: str) -> float:
    """A JSON number (an int or a float, not a bool) as a float; else an error naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is past the float range") from None


def json_int(value, name: str) -> int:
    """A JSON integer (an int, not a bool or a float); else a TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def json_numbers(value, name: str) -> np.ndarray:
    """A JSON list of numbers as a float array; else an error naming ``name``."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a JSON list of numbers, got {type(value).__name__}")
    return np.array([json_number(v, name) for v in value], dtype=float)
