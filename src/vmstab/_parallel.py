"""Deterministic chunked execution across worker threads.

Work is split into fixed-size chunks by node index and results are
returned in chunk order, so downstream reductions see one canonical
ordering no matter how many threads ran.  The chunk size is fixed by
the caller, never derived from the thread count: identical
configurations must produce bitwise identical artifacts.  numpy releases
the GIL inside the heavy kernels, which is where the speedup comes from.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Tuple


def chunk_spans(n: int, chunk: int) -> List[Tuple[int, int]]:
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def run_chunks(worker: Callable[[int, int], object], n: int, chunk: int,
               threads: int) -> list:
    """Evaluate worker(lo, hi) over every chunk span, in index order."""
    spans = chunk_spans(n, chunk)
    if threads <= 1 or len(spans) <= 1:
        return [worker(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda span: worker(*span), spans))
