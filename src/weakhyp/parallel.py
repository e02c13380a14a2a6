"""Order-preserving parallel map.

Results come back in input order regardless of completion order, so every
downstream reduction sees a fixed sequence and outputs stay bitwise
independent of the thread count.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")

__all__ = ["ordered_map"]


def ordered_map(fn: Callable[[A], B], items: Iterable[A], threads: int = 1) -> list[B]:
    seq: Sequence[A] = list(items)
    if threads <= 1 or len(seq) <= 1:
        return [fn(item) for item in seq]
    from concurrent.futures import ThreadPoolExecutor  # only where a pool runs

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, seq))
