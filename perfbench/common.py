"""Shared pieces of the benchmark: the filter under test, inputs, timing.

Every workload serves the paper's operating point (results/fig5.json):
MPCBF-2, w=64, k=3, 40 bits per member, word_overflow="saturate".
"""

from __future__ import annotations

import asyncio
import os
import platform
import threading

import numpy as np

from repro.filters.factory import FilterSpec, build_filter
from repro.filters.mpcbf import MPCBF

VARIANT = "MPCBF-2"
WORD_BITS = 64
K = 3
BITS_PER_MEMBER = 40
#: Hash seed of every filter; the workload seed only drives the inputs.
FILTER_SEED = 0

#: Minimum samples beyond a reported p99 (a p99 needs 1000 samples).
P99_TAIL = 10


def make_filter(capacity: int) -> MPCBF:
    """An empty filter at the paper's operating point for ``capacity``."""
    return build_filter(
        FilterSpec(
            variant=VARIANT,
            memory_bits=BITS_PER_MEMBER * capacity,
            k=K,
            word_bits=WORD_BITS,
            capacity=capacity,
            seed=FILTER_SEED,
            extra={"word_overflow": "saturate"},
        )
    )


def u64_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct pre-encoded keys (random u64 values)."""
    keys = np.unique(rng.integers(0, 2**64 - 1, size=n + n // 64 + 16, dtype=np.uint64))
    rng.shuffle(keys)
    if len(keys) < n:
        raise RuntimeError("key generator produced too many duplicates")
    return keys[:n]


def byte_keys(keys: np.ndarray, tag: bytes) -> np.ndarray:
    """Byte-string keys (no NUL bytes) derived from a u64 column.

    ``tag`` keeps the key spaces of different roles (members, fresh
    writes, never-inserted probes) disjoint.
    """
    return np.array([tag + b"%016x" % int(v) for v in keys], dtype=np.bytes_)


def disjoint_u64(rng: np.random.Generator, sizes: list[int]) -> list[np.ndarray]:
    """Several mutually disjoint u64 key columns of the given sizes."""
    pool = u64_keys(rng, sum(sizes))
    out, start = [], 0
    for size in sizes:
        out.append(pool[start : start + size])
        start += size
    return out


def percentile_us(samples_s: list[float], q: float) -> float:
    """The q-th percentile (0-100) of durations in seconds, as µs."""
    return float(np.percentile(np.asarray(samples_s), q)) * 1e6


def median(values: list[float]) -> float:
    return float(np.median(np.asarray(values)))


def window_rate(done: list[tuple[float, int]], start: float, end: float) -> float:
    """Keys per second completed within ``[start, end)``.

    ``done`` holds ``(completion time, keys)`` per request.
    """
    keys = sum(count for finished, count in done if start <= finished < end)
    return keys / (end - start)


def machine_info(seed: int) -> dict:
    """Machine facts that absolute numbers are only meaningful with."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


class ServerLoop:
    """An asyncio loop on its own thread that hosts the servers.

    The benchmark's callers are plain threads using the blocking client
    APIs, so nothing blocking ever runs on this loop.
    """

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="server-loop", daemon=True
        )
        self._thread.start()

    def run(self, coro, timeout: float = 60.0):
        """Run ``coro`` on the loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self) -> None:
        async def _cancel_rest() -> None:
            tasks = [
                t for t in asyncio.all_tasks() if t is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        self.run(_cancel_rest(), timeout=30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30.0)
        self.loop.close()


class Caller(threading.Thread):
    """A closed-loop caller thread that re-raises its failure on join."""

    def __init__(self, target, name: str) -> None:
        super().__init__(name=name, daemon=True)
        self._target_fn = target
        self.error: BaseException | None = None
        self.result = None

    def run(self) -> None:
        try:
            self.result = self._target_fn()
        except BaseException as exc:  # re-raised in join_checked
            self.error = exc

    def join_checked(self, timeout: float) -> object:
        self.join(timeout)
        if self.is_alive():
            raise RuntimeError(f"caller {self.name} did not finish")
        if self.error is not None:
            raise self.error
        return self.result
