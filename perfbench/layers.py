"""Per-layer attribution for the traced run.

The program has no tracing of its own yet, so the traced run wraps the
public functions and methods of each layer on the live objects, from
outside.  Each wrapper records its call's wall time and keys; a
per-thread stack subtracts the time of wrapped calls nested inside it,
giving the layer's *self* time.  Wrappers are installed only in the
traced run, and :meth:`Tracer.remove` puts the original attributes back.

``LAYER_METRICS`` lists every per-layer metric with its unit, the
direction that is better, and the end-to-end metric and workload it is
expected to move.  ``BENCHMARK.json`` carries the same names and units,
except the ``LEDGER_ONLY`` ones.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

#: name -> (unit, better, what it measures, target metric@workload)
LAYER_METRICS: dict[str, tuple[str, str, str, str]] = {
    "hashing.locate_s": ("s", "lower", "PartitionedHashFamily.locate_array", "query_keys_per_s@kernel_bulk, op_p50_us@serve_mixed"),
    "hashing.locate_calls": ("count", "lower", "locate_array calls", "query_keys_per_s@kernel_bulk, op_p50_us@serve_mixed"),
    "hashing.encode_s": ("s", "lower", "KeyEncoder.encode_many, client and filter side", "read_p50_us@serve_mixed"),
    "kernels.insert_s": ("s", "lower", "ColumnarHCBF.bulk_insert", "insert_keys_per_s@kernel_bulk, write_p50_us@serve_mixed"),
    "kernels.delete_s": ("s", "lower", "ColumnarHCBF.bulk_delete", "churn_keys_per_s@kernel_bulk, write_p50_us@serve_mixed"),
    "kernels.count_s": ("s", "lower", "ColumnarHCBF.bulk_count", "keys_per_s@kernel_bulk"),
    "kernels.calls": ("count", "lower", "bulk_insert/delete/count calls", "churn_keys_per_s@kernel_bulk"),
    "kernels.keys_per_call": ("keys", "higher", "keys per kernel call", "churn_keys_per_s@kernel_bulk"),
    "filters.self_s": ("s", "lower", "MPCBF *_many minus nested hashing and kernels", "keys_per_s@kernel_bulk"),
    "filters.calls": ("count", "lower", "MPCBF insert/delete/query/count_many calls", "keys_per_s@serve_mixed"),
    "filters.keys_per_call": ("keys", "higher", "batch depth the caller or coalescer delivers", "keys_per_s@serve_mixed"),
    "filters.overflow_events": ("count", "lower", "hash insertions absorbed by saturated words", "fpr@kernel_bulk"),
    "filters.saturated_words": ("count", "lower", "words frozen by saturation", "fpr@kernel_bulk"),
    "service.coalesce_wait_s": ("s", "lower", "STATS span coalesce_wait, sum", "op_p50_us@serve_mixed"),
    "service.coalesce_wait_count": ("count", "lower", "STATS span coalesce_wait, count", "op_p50_us@serve_mixed"),
    "service.filter_execute_s": ("s", "lower", "STATS span filter_execute, sum", "write_p50_us@serve_mixed"),
    "service.filter_execute_count": ("count", "lower", "STATS span filter_execute, count", "write_p50_us@serve_mixed"),
    "service.protocol_decode_s": ("s", "lower", "STATS span protocol_decode, sum", "op_p50_us@serve_mixed"),
    "service.protocol_decode_count": ("count", "lower", "STATS span protocol_decode, count", "op_p50_us@serve_mixed"),
    "service.batch_requests_mean": ("requests", "higher", "STATS coalescing mean_batch_requests", "op_p50_us@serve_mixed"),
    "service.bytes_in_per_key": ("B/key", "lower", "STATS bytes_in per key served", "read_p50_us@serve_mixed"),
    "service.bytes_out_per_key": ("B/key", "lower", "STATS bytes_out per key served", "read_p50_us@serve_mixed"),
    "cluster.wal_append_s": ("s", "lower", "WriteAheadLog.append", "write_p50_us@cluster_quorum"),
    "cluster.wal_sync_s": ("s", "lower", "WriteAheadLog.sync_batch", "write_p50_us@cluster_quorum"),
    "cluster.wal_fsyncs": ("count", "lower", "wal.describe() fsyncs_total", "write_p50_us@cluster_quorum"),
    "cluster.wal_records": ("count", "lower", "wal.describe() appends_total", "write_p50_us@cluster_quorum"),
    "cluster.wal_bytes_per_key": ("B/key", "lower", "wal.size_bytes() per logged key", "write_p50_us@cluster_quorum"),
    "cluster.repl_wait_s": ("s", "lower", "ReplicationManager.wait_committed", "write_p50_us@cluster_quorum, write_p99_us@cluster_quorum"),
    "cluster.repl_lag_records_max": ("count", "lower", "max lag_records(), sampled every 10 ms", "write_p99_us@cluster_quorum"),
    "cluster.router_partition_s": ("s", "lower", "HashRing.partition", "read_p50_us@cluster_quorum, write_p50_us@cluster_quorum"),
    "cluster.router_forward_s": ("s", "lower", "router insert/query_many minus partition", "read_p50_us@cluster_quorum, write_p50_us@cluster_quorum"),
    "cluster.router_calls": ("count", "lower", "router insert/query_many calls", "read_p50_us@cluster_quorum"),
    "cluster.fallback_reads": ("count", "lower", "reads served by a non-primary node", "read_p99_us@cluster_quorum"),
    "rebalance.execute_s": ("s", "lower", "Coordinator.execute", "join_s@rebalance_join"),
    "rebalance.topology_refreshes": ("count", "lower", "ClusterClient.refresh_topology calls", "keys_per_s@rebalance_join"),
    "rebalance.refresh_s": ("s", "lower", "ClusterClient.refresh_topology", "write_p50_us@rebalance_join"),
    "observability.busy_s": ("s", "lower", "time the workload's callers were blocked in the program, client-observed", "keys_per_s@all"),
    "observability.residual_s": ("s", "lower", "busy time the layer numbers above leave uncovered (served: loopback, asyncio, reply encoding)", "op_p50_us@serve_mixed, keys_per_s@all"),
    "observability.residual_share": ("ratio", "lower", "residual_s / busy_s", "keys_per_s@all"),
    "observability.trace_overhead": ("ratio", "higher", "traced keys_per_s / untraced keys_per_s", "keys_per_s@all"),
}

#: Printed as ``# layer`` lines, left out of the result line and
#: BENCHMARK.json: counts that stay 0 on a healthy run at the operating
#: point (no word saturates at 40 bits per member, and a router reads
#: from a replica only when its primary fails or sheds), and the
#: ``rebalance`` layer, which only ``rebalance_join`` runs, a workload
#: BENCHMARK.json leaves out because the program fails it.
LEDGER_ONLY = {
    "filters.overflow_events",
    "filters.saturated_words",
    "cluster.fallback_reads",
    "rebalance.execute_s",
    "rebalance.topology_refreshes",
    "rebalance.refresh_s",
}


class Tracer:
    """Wrap live objects' methods and sum wall and self time per name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object, bool]] = []
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.keys: Counter[str] = Counter()
        self.enabled = False

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, elapsed: float, nested: float, keys: int) -> None:
        with self._lock:
            self.total[name] += elapsed
            self.self_time[name] += elapsed - nested
            self.calls[name] += 1
            self.keys[name] += keys

    def _install(self, obj, attr: str, wrapper) -> None:
        had_own = attr in getattr(obj, "__dict__", {})
        self._installed.append((obj, attr, getattr(obj, attr), had_own))
        wrapper.traced_by = self
        setattr(obj, attr, wrapper)

    def _is_wrapped(self, obj, attr: str) -> bool:
        return getattr(getattr(obj, attr), "traced_by", None) is self

    def wrap(self, obj, attr: str, name: str, *, counts_keys: bool = True) -> None:
        """Time every call of ``obj.attr`` as ``name`` (once per object)."""
        if self._is_wrapped(obj, attr):
            return
        original = getattr(obj, attr)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                keys = len(args[0]) if counts_keys and args else 0
                self._record(name, elapsed, nested, keys)

        self._install(obj, attr, traced)

    def wrap_async(self, obj, attr: str, name: str) -> None:
        """Time an async method's awaited duration (a leaf: no nesting)."""
        if self._is_wrapped(obj, attr):
            return
        original = getattr(obj, attr)

        async def traced(*args, **kwargs):
            if not self.enabled:
                return await original(*args, **kwargs)
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                self._record(name, time.perf_counter() - start, 0.0, 0)

        self._install(obj, attr, traced)

    def remove(self) -> None:
        """Restore every wrapped attribute."""
        for obj, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._installed.clear()

    # -- instrumentation of the repo's layers ------------------------------
    def instrument_filter(self, filt) -> None:
        """hashing, kernels and filters layers of one MPCBF."""
        self.wrap(filt.family, "locate_array", "hashing.locate")
        self.wrap(filt.encoder, "encode_many", "hashing.encode_filter")
        for op in ("insert", "delete", "count"):
            self.wrap(filt.columns, f"bulk_{op}", f"kernels.{op}")
        for op in ("insert_many", "delete_many", "query_many", "count_many"):
            self.wrap(filt, op, f"filters.{op}")

    def instrument_encoder(self, encoder) -> None:
        """The client-side encoder the benchmark builds bulk64 columns with."""
        self.wrap(encoder, "encode_many", "hashing.encode_client")

    def instrument_wal(self, wal) -> None:
        self.wrap(wal, "append", "cluster.wal_append", counts_keys=False)
        self.wrap(wal, "sync_batch", "cluster.wal_sync", counts_keys=False)

    def instrument_replication(self, replication) -> None:
        self.wrap_async(replication, "wait_committed", "cluster.repl_wait")

    def instrument_router(self, backend) -> None:
        """A RouterBackend's ring lookups and fan-out calls."""
        self.wrap(backend.ring, "partition", "cluster.router_partition")
        for op in ("insert_many", "delete_many", "query_many"):
            self.wrap(backend, op, "cluster.router_call")

    def instrument_cluster_client(self, client) -> None:
        """A ClusterClient: client-side routing and topology refreshes."""
        self.wrap(client.ring, "partition", "cluster.router_partition")
        for op in ("insert_many", "query_many"):
            self.wrap(client, op, "cluster.router_call")
        self.wrap(client, "refresh_topology", "rebalance.refresh", counts_keys=False)
        timed_refresh = client.refresh_topology

        def refresh_and_rewrap():
            # A refresh installs a new ring object; keep it instrumented.
            try:
                return timed_refresh()
            finally:
                self.wrap(client.ring, "partition", "cluster.router_partition")

        self._install(client, "refresh_topology", refresh_and_rewrap)

    def instrument_coordinator(self, coordinator) -> None:
        self.wrap(coordinator, "execute", "rebalance.execute", counts_keys=False)

    # -- reading -----------------------------------------------------------
    def seconds(self, *names: str, self_only: bool = False) -> float:
        source = self.self_time if self_only else self.total
        return sum(source[name] for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)


def span_delta(before: dict, after: dict, name: str) -> tuple[float, int]:
    """(seconds, count) a STATS ``spans_us`` entry grew by."""

    def total(report: dict) -> tuple[float, float]:
        entry = report.get("spans_us", {}).get(name)
        if not entry:
            return 0.0, 0.0
        return entry["count"] * entry["mean"] / 1e6, entry["count"]

    s0, c0 = total(before)
    s1, c1 = total(after)
    return s1 - s0, int(c1 - c0)


def coalescing_mean_delta(before: dict, after: dict) -> float:
    """Mean requests per dispatched micro-batch within the window."""

    def totals(report: dict) -> tuple[float, float]:
        hist = report["coalescing"]["batch_requests"]
        return hist["count"] * hist["mean"], hist["count"]

    r0, n0 = totals(before)
    r1, n1 = totals(after)
    return (r1 - r0) / (n1 - n0) if n1 > n0 else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    busy_s: float,
    covered_s: float | None = None,
    stats: list[tuple[dict, dict]] = (),
    served_keys: int = 0,
    wals: list = (),
    wal_keys: int = 0,
    repl_lag_max: int = 0,
    routers: list = (),
    filters: list = (),
) -> dict[str, float]:
    """Assemble every ``LAYER_METRICS`` value (except the trace overhead)
    for one traced window.

    ``busy_s`` is the time the workload's callers spent blocked in the
    program.  ``stats`` holds (before, after) STATS reports of the
    servers the callers talk to; when given, the callers' path is
    client-side encode, then those servers' decode, coalesce-wait and
    execute spans, and whatever that leaves of ``busy_s`` is the
    residual.  Without servers, ``covered_s`` says what the top-level
    layers account for.  ``wals`` pairs each WAL with its
    ``(appends, fsyncs, size_bytes)`` at the window start.
    """
    t = tracer
    out: dict[str, float] = {}
    out["hashing.locate_s"] = t.seconds("hashing.locate")
    out["hashing.locate_calls"] = t.count("hashing.locate")
    out["hashing.encode_s"] = t.seconds("hashing.encode_client", "hashing.encode_filter")
    kernel_names = ("kernels.insert", "kernels.delete", "kernels.count")
    out["kernels.insert_s"] = t.seconds("kernels.insert")
    out["kernels.delete_s"] = t.seconds("kernels.delete")
    out["kernels.count_s"] = t.seconds("kernels.count")
    out["kernels.calls"] = t.count(*kernel_names)
    kernel_keys = sum(t.keys[n] for n in kernel_names)
    out["kernels.keys_per_call"] = kernel_keys / max(1, out["kernels.calls"])
    filter_names = tuple(
        f"filters.{op}" for op in ("insert_many", "delete_many", "query_many", "count_many")
    )
    out["filters.self_s"] = t.seconds(*filter_names, self_only=True)
    out["filters.calls"] = t.count(*filter_names)
    filter_keys = sum(t.keys[n] for n in filter_names)
    out["filters.keys_per_call"] = filter_keys / max(1, out["filters.calls"])
    out["filters.overflow_events"] = sum(f.overflow_events for f in filters)
    out["filters.saturated_words"] = sum(
        len(f.columns.saturated_dict()) for f in filters
    )
    decode = wait = execute = 0.0
    decode_n = wait_n = execute_n = 0
    bytes_in = bytes_out = 0
    batch_means = []
    for before, after in stats:
        s, n = span_delta(before, after, "protocol_decode")
        decode, decode_n = decode + s, decode_n + n
        s, n = span_delta(before, after, "coalesce_wait")
        wait, wait_n = wait + s, wait_n + n
        s, n = span_delta(before, after, "filter_execute")
        execute, execute_n = execute + s, execute_n + n
        bytes_in += after["bytes_in"] - before["bytes_in"]
        bytes_out += after["bytes_out"] - before["bytes_out"]
        batch_means.append(coalescing_mean_delta(before, after))
    out["service.coalesce_wait_s"] = wait
    out["service.coalesce_wait_count"] = wait_n
    out["service.filter_execute_s"] = execute
    out["service.filter_execute_count"] = execute_n
    out["service.protocol_decode_s"] = decode
    out["service.protocol_decode_count"] = decode_n
    out["service.batch_requests_mean"] = (
        sum(batch_means) / len(batch_means) if batch_means else 0.0
    )
    out["service.bytes_in_per_key"] = bytes_in / served_keys if served_keys else 0.0
    out["service.bytes_out_per_key"] = bytes_out / served_keys if served_keys else 0.0
    if stats:
        covered_s = t.seconds("hashing.encode_client") + decode + wait + execute
    out["cluster.wal_append_s"] = t.seconds("cluster.wal_append")
    out["cluster.wal_sync_s"] = t.seconds("cluster.wal_sync")
    appends = fsyncs = wal_bytes = 0
    for wal, (appends0, fsyncs0, size0) in wals:
        described = wal.describe()
        appends += described["appends_total"] - appends0
        fsyncs += described["fsyncs_total"] - fsyncs0
        wal_bytes += described["size_bytes"] - size0
    out["cluster.wal_fsyncs"] = fsyncs
    out["cluster.wal_records"] = appends
    out["cluster.wal_bytes_per_key"] = wal_bytes / wal_keys if wal_keys else 0.0
    out["cluster.repl_wait_s"] = t.seconds("cluster.repl_wait")
    out["cluster.repl_lag_records_max"] = repl_lag_max
    out["cluster.router_partition_s"] = t.seconds("cluster.router_partition")
    out["cluster.router_forward_s"] = t.seconds("cluster.router_call") - t.seconds(
        "cluster.router_partition"
    )
    out["cluster.router_calls"] = t.count("cluster.router_call")
    out["cluster.fallback_reads"] = sum(r.fallback_reads for r in routers)
    out["rebalance.execute_s"] = t.seconds("rebalance.execute")
    out["rebalance.topology_refreshes"] = t.count("rebalance.refresh")
    out["rebalance.refresh_s"] = t.seconds("rebalance.refresh")
    out["observability.busy_s"] = busy_s
    out["observability.residual_s"] = busy_s - covered_s
    out["observability.residual_share"] = (busy_s - covered_s) / busy_s if busy_s else 0.0
    return out
