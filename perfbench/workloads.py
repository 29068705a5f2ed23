"""The workloads, each a seeded, closed-loop, self-checking run.

Every workload function takes ``(seed, seconds, short, tracer)`` and
returns an :class:`Outcome`.  Inputs are generated from the seed before
the timed window opens; the program sees only those generated keys.
``short`` shrinks the data sizes for the smoke check.  ``tracer`` is
``None`` in the untraced run; in the traced run it is a
:class:`layers.Tracer` whose wrappers the workload installs on its live
objects during set-up and enables for the timed window only.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    P99_TAIL,
    Caller,
    ServerLoop,
    byte_keys,
    disjoint_u64,
    make_filter,
    median,
    percentile_us,
    window_rate,
)
from layers import Tracer, layer_metrics
from repro.cluster.cluster_client import ClusterClient
from repro.cluster.node import build_node_server, recover_node
from repro.cluster.router import HashRing, NodeAddress, RouterBackend, ShardGroup
from repro.hashing.encoders import KeyEncoder
from repro.rebalance.coordinator import Coordinator
from repro.service.client import FilterClient
from repro.service.server import FilterServer

#: Where WALs and coordinator state live while a run lasts.
RUN_DIR = Path(__file__).resolve().parents[1] / ".perfbench_tmp"
#: Iterations per second the rebalance_join loop starts before the join ends.
JOIN_PACE = 20.0
#: Highest false-positive rate kernel_bulk accepts: 1.25 times the
#: 0.0025 measured at the operating point on 500 k never-inserted probes
#: (the Eq. 11 estimate in results/fig5.json, 0.0015, runs low).
FPR_LIMIT = 0.0031
#: Seconds a caller may still be busy after the window closes.
JOIN_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Every end-to-end metric the workload reports, by name.
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Correctness checks by name; every one must hold.
    checks: dict[str, bool]
    #: Per-layer metrics (traced run only).
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class SetupDone(Exception):
    """Ends a set-up-only run right after the set-up, with its time."""

    def __init__(self, seconds: float) -> None:
        super().__init__(seconds)
        self.seconds = seconds


#: True in a set-up-only run (``run.py --setup-only``).
SETUP_ONLY = False


def _timed_setup(setup):
    """Run ``setup`` once and time it.

    In a fresh process the set-up also pays the first-call warm-up of
    NumPy and the filter paths, so ``setup_s`` shows a cold start and
    the timed window never pays it.  In a set-up-only run it raises
    :class:`SetupDone` instead of returning.
    """
    start = time.perf_counter()
    env = setup()
    elapsed = time.perf_counter() - start
    if SETUP_ONLY:
        raise SetupDone(elapsed)
    return env, elapsed


def _warm_up_numpy() -> None:
    """First calls of every filter path on a small throwaway filter."""
    small = make_filter(4096)
    keys = np.arange(1, 257, dtype=np.uint64)
    small.insert_many(keys)
    small.query_many(keys)
    small.count_many(keys)
    small.delete_many(keys)
    small.insert_many(np.array([b"warm-%d" % i for i in range(64)]))


def _dump(filt) -> str:
    return json.dumps(filt.dump_level_state())


def _latency_metrics(prefix: str, samples: list[float], out: dict) -> None:
    """The sample count, the median, and the p99 where enough samples lie
    beyond it."""
    out[f"{prefix}_calls"] = len(samples)
    out[f"{prefix}_p50_us"] = percentile_us(samples, 50)
    if len(samples) * 0.01 >= P99_TAIL:
        out[f"{prefix}_p99_us"] = percentile_us(samples, 99)


class _Window:
    """A timed window that opens for all callers at the same instant."""

    def __init__(self, parties: int, seconds: float) -> None:
        self.seconds = seconds
        self.start = self.end = 0.0
        self._barrier = threading.Barrier(parties, action=self._open)

    def _open(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start + self.seconds

    def wait_open(self) -> None:
        self._barrier.wait(timeout=JOIN_TIMEOUT_S)

    def is_open(self) -> bool:
        return time.perf_counter() < self.end


def _run_dir(name: str) -> Path:
    """A fresh directory for WALs and coordinator state, in the checkout."""
    path = RUN_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _stats(port: int) -> dict:
    with FilterClient(port=port) as client:
        return client.stats()


def _wal_marks(wals) -> list:
    """Each WAL with its (appends, fsyncs, size_bytes) as of now."""
    marks = []
    for wal in wals:
        described = wal.describe()
        marks.append(
            (wal, (described["appends_total"], described["fsyncs_total"], described["size_bytes"]))
        )
    return marks


# ---------------------------------------------------------------- kernel_bulk
def kernel_bulk(seed: int, seconds: float, short: bool, tracer: Tracer | None) -> Outcome:
    """In-process: bulk load, then 64-key churn and half-member probes."""
    n = 100_000 if short else 1_000_000
    load_batch = n // 16
    probe_batch = 4096
    churn_pool = 4096  # 64-key batches; each is deleted right after insert
    rng = np.random.default_rng(seed)
    members, negatives, churn = disjoint_u64(rng, [n, n // 2, 64 * churn_pool])
    probes = np.concatenate([members[: n // 2], negatives])
    is_member = np.zeros(len(probes), dtype=bool)
    is_member[: n // 2] = True
    order = rng.permutation(len(probes))
    probes, is_member = probes[order], is_member[order]

    def setup():
        _warm_up_numpy()
        return make_filter(n)

    filt, setup_s = _timed_setup(setup)
    if tracer is not None:
        tracer.instrument_filter(filt)
        tracer.enabled = True

    start = time.perf_counter()
    load_times, done = [], []
    for i in range(0, n, load_batch):
        t0 = time.perf_counter()
        filt.insert_many(members[i : i + load_batch])
        t1 = time.perf_counter()
        load_times.append(t1 - t0)
        done.append((t1, load_batch))

    # Churn and probes alternate in short rounds, so that both sample
    # the whole window and a slow stretch of the machine hits both.  The
    # last probe batch of a round asks for counts instead of membership.
    window_end = start + seconds
    write_lat, read_lat, count_lat, churn_rates = [], [], [], []
    churn_iters = pos = 0
    false_neg = false_pos = negatives_probed = 0
    first_pass = True
    while first_pass or time.perf_counter() < window_end:
        round_start = time.perf_counter()
        for _ in range(16):
            batch = churn[(churn_iters % churn_pool) * 64 :][:64]
            t0 = time.perf_counter()
            filt.insert_many(batch)
            t1 = time.perf_counter()
            filt.delete_many(batch)
            t2 = time.perf_counter()
            write_lat += [t1 - t0, t2 - t1]
            done.append((t2, 128))
            churn_iters += 1
        churn_rates.append(16 * 128 / (time.perf_counter() - round_start))
        for j in range(9):
            batch = probes[pos : pos + probe_batch]
            t0 = time.perf_counter()
            if j < 8:
                answers = filt.query_many(batch)
            else:
                answers = filt.count_many(batch) >= 1
            t1 = time.perf_counter()
            (read_lat if j < 8 else count_lat).append(t1 - t0)
            done.append((t1, len(batch)))
            expect = is_member[pos : pos + probe_batch]
            false_neg += bool(np.any(expect & ~answers))
            if first_pass:
                false_pos += int(np.count_nonzero(answers & ~expect))
                negatives_probed += int(np.count_nonzero(~expect))
            pos += probe_batch
            if pos >= len(probes):
                pos, first_pass = 0, False
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False

    fpr = false_pos / negatives_probed
    checks = {
        "no_false_negatives": false_neg == 0,
        "fpr_within_limit": fpr <= FPR_LIMIT,
    }
    metrics = {
        "setup_s": setup_s,
        "keys_per_s": window_rate(done, start, start + seconds),
        "insert_keys_per_s": load_batch / median(load_times),
        "churn_keys_per_s": median(churn_rates),
        "query_keys_per_s": probe_batch / median(read_lat),
        "fpr": fpr,
    }
    _latency_metrics("read", read_lat, metrics)
    _latency_metrics("write", write_lat, metrics)
    attempted = len(load_times) + len(write_lat) + len(read_lat) + len(count_lat)
    metrics["failed_share"] = false_neg / attempted
    outcome = Outcome(metrics, attempted, false_neg, checks)
    if tracer is not None:
        covered = tracer.seconds(
            "filters.insert_many", "filters.delete_many",
            "filters.query_many", "filters.count_many",
        )
        outcome.layers = layer_metrics(
            tracer, busy_s=elapsed, covered_s=covered, filters=[filt]
        )
    return outcome


# ---------------------------------------------------------------- serve_mixed
def _mixed_inputs(seed: int, seconds: float, short: bool) -> dict:
    """serve_mixed's members, connection A's columns and B's script."""
    n = 20_000 if short else 100_000
    query_sets, write_sets = 512, 256
    b_ops = int(2000 * seconds) + 10_000  # B runs ~600 ops/s
    rng = np.random.default_rng(seed)
    m_u, neg_u, a_u, b_u = disjoint_u64(
        rng, [n, 128 * query_sets, 64 * write_sets, b_ops]
    )
    members = byte_keys(m_u, b"m")
    negatives = byte_keys(neg_u, b"n")
    # Connection A: 256-key queries, the first 128 members.
    a_queries = [
        np.concatenate(
            [members[rng.integers(0, n, 128)], negatives[i * 128 : (i + 1) * 128]]
        )
        for i in range(query_sets)
    ]
    a_writes = byte_keys(a_u, b"a").reshape(write_sets, 64)
    # Connection B: 90% query of a member, 5% insert of a fresh key,
    # 5% delete of the oldest key B inserted and has not deleted yet.
    b_fresh = byte_keys(b_u, b"b").tolist()
    member_list = members.tolist()
    kinds = rng.choice(3, size=b_ops, p=[0.90, 0.05, 0.05])
    b_script, live, inserted = [], [], 0
    for kind, member in zip(kinds, rng.integers(0, n, b_ops)):
        if kind == 2 and live:
            b_script.append(("delete", live.pop(0)))
        elif kind == 0:
            b_script.append(("query", member_list[member]))
        else:
            live.append(b_fresh[inserted])
            b_script.append(("insert", b_fresh[inserted]))
            inserted += 1
    return {
        "n": n,
        "members": members,
        "member_list": member_list,
        "a_queries": a_queries,
        "a_writes": a_writes,
        "b_script": b_script,
    }


def _mixed_oracle(inputs: dict, acked: list, b_done: int):
    """A fresh filter fed the members and every acked mixed operation."""
    oracle = make_filter(inputs["n"])
    oracle.insert_many(inputs["members"])
    for batch in acked:
        oracle.insert_many(batch)
        oracle.delete_many(batch)
    for kind, key in inputs["b_script"][:b_done]:
        if kind == "insert":
            oracle.insert_many([key])
        elif kind == "delete":
            oracle.delete_many([key])
    return oracle


def serve_mixed(seed: int, seconds: float, short: bool, tracer: Tracer | None) -> Outcome:
    """One daemon; connection A sends bulk64 columns, B single keys."""
    inputs = _mixed_inputs(seed, seconds, short)
    n, members, member_list = inputs["n"], inputs["members"], inputs["member_list"]
    a_queries, a_writes, b_script = (
        inputs["a_queries"], inputs["a_writes"], inputs["b_script"]
    )
    query_sets, write_sets = len(a_queries), len(a_writes)

    loop = ServerLoop()
    encoder = KeyEncoder()
    try:

        def setup():
            _warm_up_numpy()
            filt = make_filter(n)
            filt.insert_many(members)
            server = FilterServer(filt)
            loop.run(server.start())
            with FilterClient(port=server.port) as client:
                client.query_many64(encoder.encode_many(a_queries[0]))
                client.query(member_list[0])
            return server

        server, setup_s = _timed_setup(setup)
        filt = server.filter
        if tracer is not None:
            tracer.instrument_filter(filt)
            tracer.instrument_encoder(encoder)
            stats_before = _stats(server.port)
        window = _Window(3, seconds)

        def conn_a():
            reads, writes, acked, done, fneg = [], [], [], [], 0
            with FilterClient(port=server.port) as client:
                client.bulk64_supported()
                window.wait_open()
                i = 0
                while window.is_open():
                    column = a_queries[i % query_sets]
                    t0 = time.perf_counter()
                    answers = client.query_many64(encoder.encode_many(column))
                    t1 = time.perf_counter()
                    reads.append(t1 - t0)
                    done.append((t1, 256))
                    fneg += bool(np.any(~answers[:128]))
                    if i % 4 == 0:
                        batch = a_writes[(i // 4) % write_sets]
                        t0 = time.perf_counter()
                        client.insert_many64(encoder.encode_many(batch))
                        t1 = time.perf_counter()
                        client.delete_many64(encoder.encode_many(batch))
                        t2 = time.perf_counter()
                        writes += [t1 - t0, t2 - t1]
                        done += [(t1, 64), (t2, 64)]
                        acked.append(batch)
                    i += 1
            return reads, writes, acked, done, fneg

        def conn_b():
            ops, done, fneg = [], [], 0
            with FilterClient(port=server.port) as client:
                window.wait_open()
                while window.is_open() and len(done) < len(b_script):
                    kind, key = b_script[len(done)]
                    t0 = time.perf_counter()
                    if kind == "query":
                        fneg += not client.query(key)
                    elif kind == "insert":
                        client.insert(key)
                    else:
                        client.delete(key)
                    t1 = time.perf_counter()
                    ops.append(t1 - t0)
                    done.append((t1, 1))
            return ops, done, fneg

        callers = [Caller(conn_a, "conn-a"), Caller(conn_b, "conn-b")]
        for caller in callers:
            caller.start()
        if tracer is not None:
            tracer.enabled = True
        window.wait_open()
        reads, writes, acked, a_done, a_fneg = callers[0].join_checked(
            seconds + JOIN_TIMEOUT_S
        )
        ops, b_done, b_fneg = callers[1].join_checked(JOIN_TIMEOUT_S)
        served_keys = sum(keys for _, keys in a_done + b_done)
        if tracer is not None:
            tracer.enabled = False
            stats_after = _stats(server.port)

        oracle = _mixed_oracle(inputs, acked, len(b_done))
        checks = {
            "inputs_sufficient": len(b_done) < len(b_script),
            "no_false_negatives": a_fneg + b_fneg == 0,
            "state_matches_oracle": _dump(server.executor.filter) == _dump(oracle),
        }
        failed = a_fneg + b_fneg
        attempted = len(reads) + len(writes) + len(ops)
        metrics = {
            "setup_s": setup_s,
            "keys_per_s": window_rate(a_done + b_done, window.start, window.end),
            "failed_share": failed / attempted,
        }
        _latency_metrics("read", reads, metrics)
        _latency_metrics("write", writes, metrics)
        _latency_metrics("op", ops, metrics)
        outcome = Outcome(metrics, attempted, failed, checks)
        if tracer is not None:
            outcome.layers = layer_metrics(
                tracer,
                busy_s=sum(reads) + sum(writes) + sum(ops),
                stats=[(stats_before, stats_after)],
                served_keys=served_keys,
                filters=[filt],
            )
        loop.run(server.stop())
        return outcome
    finally:
        loop.close()


# ------------------------------------------------------------- cluster_quorum
def cluster_quorum(seed: int, seconds: float, short: bool, tracer: Tracer | None) -> Outcome:
    """Router over 2 shard groups of WAL primary + quorum-acked replica.

    One connection inserts 64 fresh keys, then queries 256: those 64,
    the 64 of an earlier batch and 128 never inserted.  A second
    connection adds no throughput, because the router's single worker
    thread serialises both; it only makes each read wait behind the
    other connection's ~20 ms quorum write for a share of the time that
    drifts from run to run (read p50 8.8-15.2 ms over five seeds).
    """
    max_batches = int(200 * seconds) + 1000  # 64-key insert batches available
    # Per group; about twice the keys a run inserts on a 2-core box.
    capacity = 10_000 if short else 40_000
    rng = np.random.default_rng(seed)
    fresh_u, negatives_u = disjoint_u64(rng, [64 * max_batches, 128 * 1024])
    fresh = byte_keys(fresh_u, b"w").reshape(max_batches, 64)
    negatives = byte_keys(negatives_u, b"n").reshape(1024, 128)
    # Which earlier acked batch each iteration re-reads (a fraction of i).
    reread = rng.random(max_batches)

    loop = ServerLoop()
    encoder = KeyEncoder()
    try:

        def setup():
            _warm_up_numpy()
            base = _run_dir("cluster")
            env = {"nodes": [], "groups": [], "wals": [], "replications": []}
            for name in ("g0", "g1"):
                servers = []
                for role in ("replica", "primary"):
                    rec = recover_node(
                        lambda: make_filter(capacity),
                        wal_dir=base / f"{name}-{role}",
                        fsync="batch",
                    )
                    if tracer is not None:
                        tracer.instrument_wal(rec.wal)
                        tracer.instrument_filter(rec.filter)
                    if role == "replica":
                        server = build_node_server(rec, read_only=True)
                        loop.run(server.start())
                        replica = server
                    else:
                        server = build_node_server(
                            rec,
                            replicas=[("127.0.0.1", replica.port)],
                            ack_mode="quorum",
                        )
                        if tracer is not None:
                            tracer.instrument_replication(server.replication)
                        loop.run(server.start())
                        env["replications"].append(server.replication)
                    env["wals"].append(rec.wal)
                    servers.append(server)
                env["nodes"].extend(servers)
                env["groups"].append(
                    (
                        ShardGroup(
                            name=name,
                            primary=NodeAddress("127.0.0.1", servers[1].port),
                            replicas=(NodeAddress("127.0.0.1", servers[0].port),),
                        ),
                        servers[1],
                        servers[0],
                    )
                )
            backend = RouterBackend(HashRing([g for g, _, _ in env["groups"]]))
            if tracer is not None:
                tracer.instrument_router(backend)
            router = FilterServer(backend)
            loop.run(router.start())
            env["router"], env["backend"] = router, backend
            with FilterClient(port=router.port) as client:
                client.query_many64(encoder.encode_many(negatives[0]))
            return env

        env, setup_s = _timed_setup(setup)
        if tracer is not None:
            tracer.instrument_encoder(encoder)
            stats_before = _stats(env["router"].port)
            wal_marks = _wal_marks(env["wals"])
        window = _Window(2, seconds)
        port = env["router"].port

        def caller():
            reads, writes, done, missed, batches = [], [], [], 0, 0
            with FilterClient(port=port) as client:
                client.bulk64_supported()
                window.wait_open()
                while window.is_open() and batches < max_batches:
                    batch = fresh[batches]
                    t0 = time.perf_counter()
                    client.insert_many64(encoder.encode_many(batch))
                    t1 = time.perf_counter()
                    writes.append(t1 - t0)
                    earlier = fresh[int(reread[batches] * batches)]
                    column = np.concatenate([batch, earlier, negatives[batches % 1024]])
                    t2 = time.perf_counter()
                    answers = client.query_many64(encoder.encode_many(column))
                    t3 = time.perf_counter()
                    reads.append(t3 - t2)
                    done += [(t1, 64), (t3, len(column))]
                    missed += bool(np.any(~answers[:128]))
                    batches += 1
            return reads, writes, done, missed, batches

        thread = Caller(caller, "conn")
        thread.start()
        if tracer is not None:
            tracer.enabled = True
        window.wait_open()
        lag_max = 0
        while tracer is not None and thread.is_alive():
            # Replica lag, sampled through the window.
            lags = [lag for r in env["replications"] for lag in r.lag_records().values()]
            lag_max = max([lag_max, *lags])
            time.sleep(0.01)
        reads, writes, done, missed, batches = thread.join_checked(
            seconds + JOIN_TIMEOUT_S
        )
        if tracer is not None:
            tracer.enabled = False
            stats_after = _stats(port)

        keys = sum(count for _, count in done)
        acked = fresh[:batches].ravel()
        acked_u64 = encoder.encode_many(acked)
        parts = env["backend"].ring.partition(acked_u64)
        state_ok = True
        for group, primary, replica in env["groups"]:
            oracle = make_filter(capacity)
            oracle.insert_many(acked_u64[np.asarray(parts.get(group.name, []), dtype=np.intp)])
            expected = _dump(oracle)
            state_ok &= _dump(primary.executor.filter) == expected
            state_ok &= _dump(replica.executor.filter) == expected
        checks = {
            "inputs_sufficient": batches < max_batches,
            "read_your_writes": missed == 0,
            "state_matches_oracle": state_ok,
        }
        attempted = len(reads) + len(writes)
        metrics = {
            "setup_s": setup_s,
            "keys_per_s": window_rate(done, window.start, window.end),
            "failed_share": missed / attempted,
        }
        _latency_metrics("read", reads, metrics)
        _latency_metrics("write", writes, metrics)
        outcome = Outcome(metrics, attempted, missed, checks)
        if tracer is not None:
            outcome.layers = layer_metrics(
                tracer,
                busy_s=sum(reads) + sum(writes),
                stats=[(stats_before, stats_after)],
                served_keys=keys,
                wals=wal_marks,
                wal_keys=len(acked),
                repl_lag_max=lag_max,
                routers=[env["backend"]],
                filters=[s.executor.filter for _, p, r in env["groups"] for s in (p, r)],
            )
        loop.run(env["router"].stop())
        env["backend"].close()
        for server in reversed(env["nodes"]):
            loop.run(server.stop())
        return outcome
    finally:
        loop.close()


# ------------------------------------------------------------- rebalance_join
def rebalance_join(seed: int, seconds: float, short: bool, tracer: Tracer | None) -> Outcome:
    """A ClusterClient write loop while a second group joins the ring.

    Each iteration writes 64 fresh keys and reads them back.  Until the
    join completes the loop starts at most ``JOIN_PACE`` iterations per
    second, so the data the migration must move is the same in every
    run; a free-running loop out-writes the migration stream and the
    join takes anywhere from seconds to minutes.  After the join the
    loop runs free.
    """
    preload_batches = 40 if short else 200
    max_batches = int(400 * seconds) + preload_batches
    vnodes = 32
    rng = np.random.default_rng(seed)
    (pool_u,) = disjoint_u64(rng, [64 * max_batches])
    pool = byte_keys(pool_u, b"r").reshape(max_batches, 64)
    pool_lists = pool.tolist()
    capacity = 10_000 if short else 60_000

    loop = ServerLoop()
    try:

        def setup():
            _warm_up_numpy()
            base = _run_dir("rebalance")
            env = {"nodes": {}}
            for name in ("a", "b"):
                rec = recover_node(
                    lambda: make_filter(capacity), wal_dir=base / name, fsync="batch"
                )
                if tracer is not None:
                    tracer.instrument_wal(rec.wal)
                    tracer.instrument_filter(rec.filter)
                server = build_node_server(rec, group=name)
                loop.run(server.start())
                env["nodes"][name] = server
            env["groups"] = {
                name: ShardGroup(
                    name=name, primary=NodeAddress("127.0.0.1", server.port)
                )
                for name, server in env["nodes"].items()
            }
            coordinator = Coordinator(base / "coordinator", catchup_lag=64, batch_records=128)
            coordinator.bootstrap([env["groups"]["a"]], vnodes=vnodes)
            client = ClusterClient([env["groups"]["a"]], vnodes=vnodes, retries=12, backoff_s=0.02)
            for i in range(preload_batches):
                client.insert_many(pool_lists[i])
            env["coordinator"], env["client"] = coordinator, client
            return env

        env, setup_s = _timed_setup(setup)
        client, coordinator = env["client"], env["coordinator"]
        if tracer is not None:
            tracer.instrument_cluster_client(client)
            tracer.instrument_coordinator(coordinator)
            stats_before = {n: _stats(s.port) for n, s in env["nodes"].items()}
            wal_marks = _wal_marks(s.wal for s in env["nodes"].values())
        window = _Window(2, seconds)
        joined = threading.Event()
        stop = threading.Event()

        def writer():
            log = []  # (read_end, write_s, read_s) per iteration
            missed, refreshed = 0, False
            batch = preload_batches
            window.wait_open()
            due = window.start
            while not stop.is_set() and batch < max_batches:
                if joined.is_set():
                    if not refreshed:
                        client.refresh_topology()
                        refreshed = True
                else:
                    due = max(due + 1.0 / JOIN_PACE, time.perf_counter())
                    time.sleep(max(0.0, due - time.perf_counter()))
                keys = pool_lists[batch]
                t0 = time.perf_counter()
                client.insert_many(keys)
                t1 = time.perf_counter()
                answers = client.query_many(keys)
                t2 = time.perf_counter()
                missed += False in answers
                log.append((t2, t1 - t0, t2 - t1))
                batch += 1
            return log, missed, batch

        thread = Caller(writer, "writer")
        thread.start()
        if tracer is not None:
            tracer.enabled = True
        window.wait_open()
        time.sleep(0.2 * seconds)
        coordinator.plan_join(env["groups"]["b"])
        join_start = time.perf_counter()
        coordinator.execute()
        join_end = time.perf_counter()
        joined.set()
        time.sleep(max(0.3 * seconds, window.end - time.perf_counter()))
        stop.set()
        log, missed, batches = thread.join_checked(JOIN_TIMEOUT_S)
        if tracer is not None:
            tracer.enabled = False
            stats_after = {n: _stats(s.port) for n, s in env["nodes"].items()}

        during = [row for row in log if join_start <= row[0] <= join_end]
        after = [row for row in log if row[0] > join_end]
        acked = pool[:batches].ravel()
        answers = client.query_many(acked.tolist())
        # Acked batches with a key the final read-back misses.
        lost = int(np.count_nonzero(~np.array(answers).reshape(-1, 64).all(axis=1)))
        ring = HashRing(list(env["groups"].values()), vnodes=vnodes)
        parts = ring.partition(acked.tolist())
        state_ok = True
        for name, server in env["nodes"].items():
            oracle = make_filter(capacity)
            oracle.insert_many(acked[np.asarray(parts.get(name, []), dtype=np.intp)])
            state_ok &= _dump(server.executor.filter) == _dump(oracle)
        checks = {
            "inputs_sufficient": batches < max_batches,
            "read_your_writes": missed == 0,
            "no_lost_acked_writes": lost == 0,
            "state_matches_oracle": state_ok,
            "writes_during_join": len(during) > 0,
            "writes_after_join": len(after) > 1,
        }
        attempted = 2 * len(log)
        failed = missed + lost
        join_s = join_end - join_start
        metrics = {
            "setup_s": setup_s,
            "keys_per_s": 128 * len(during) / join_s,
            "join_s": join_s,
            "failed_share": failed / attempted,
        }
        if len(after) > 1:
            metrics["post_join_keys_per_s"] = 128 * (len(after) - 1) / (after[-1][0] - after[0][0])
        # A join holds only a few dozen iterations whose latencies split
        # between fenced retries and plain writes, so their median moves
        # with which side of the split it lands on; the gated medians
        # cover the whole window, the join-only ones are ledger lines.
        writes_all = [row[1] for row in log]
        reads_all = [row[2] for row in log]
        _latency_metrics("read", reads_all, metrics)
        _latency_metrics("write", writes_all, metrics)
        if during:
            metrics["join_read_p50_us"] = percentile_us([row[2] for row in during], 50)
            metrics["join_write_p50_us"] = percentile_us([row[1] for row in during], 50)
        outcome = Outcome(metrics, attempted, failed, checks)
        if tracer is not None:
            outcome.layers = layer_metrics(
                tracer,
                busy_s=sum(writes_all) + sum(reads_all),
                stats=[(stats_before[n], stats_after[n]) for n in env["nodes"]],
                served_keys=128 * len(log),
                wals=wal_marks,
                wal_keys=64 * len(log),
                filters=[s.executor.filter for s in env["nodes"].values()],
            )
        client.close()
        coordinator.close()
        for server in env["nodes"].values():
            loop.run(server.stop())
        return outcome
    finally:
        loop.close()


WORKLOADS = {
    "kernel_bulk": kernel_bulk,
    "serve_mixed": serve_mixed,
    "cluster_quorum": cluster_quorum,
    "rebalance_join": rebalance_join,
}
