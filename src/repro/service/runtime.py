"""The service runtime: streamed ingest over a long-running deployment.

:class:`ServiceRuntime` turns a batch :class:`~repro.api.session.Session`
into a long-lived service: external producers submit elements into a bounded
ingress queue at any time (with explicit accept/defer/reject backpressure),
and the simulation advances in fixed ticks that drain the queue into the
live servers.  With a database bound (``db=...``), the deployment runs on the
durable ``sqlite`` ledger backend, periodically checkpoints hashchain batch
contents, and — when re-opened on an existing database — restores every
server from the persisted chain before accepting new traffic.

Threading model: the simulator itself is single-threaded; the runtime guards
every entry point (submit / tick / snapshot / stop) with one lock so the
:mod:`repro.service.http` endpoint can serve scrapes from its own thread
while the driving loop ticks.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from ..analysis.throughput import PAPER_ROLLING_WINDOW, recent_throughput
from ..api.results import RunResult
from ..api.session import Session
from ..config import ExperimentConfig
from ..core.types import HashBatch
from ..errors import ConfigurationError, SimulationError
from ..workload.elements import make_element
from ..workload.traces import WorkloadTrace
from .persistence import SqliteLedger, ledger_db

#: Queue-depth fraction above which accepted submissions are flagged deferred.
DEFER_WATERMARK = 0.5


class ServiceRuntime:
    """A Setchain deployment driven as a service: stream in, tick, observe."""

    def __init__(self, scenario: Any = "service/default", *, db: str | Path | None = None,
                 seed: int | None = None, scale: float = 1.0, tick: float = 0.1,
                 queue_limit: int = 10_000, drain_per_tick: int | None = None,
                 checkpoint_every: int = 10) -> None:
        if tick <= 0:
            raise ConfigurationError("tick must be positive")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be at least 1")
        if drain_per_tick is not None and drain_per_tick < 1:
            raise ConfigurationError("drain_per_tick must be at least 1")
        self.tick_duration = tick
        self.queue_limit = queue_limit
        self.drain_per_tick = drain_per_tick
        self.checkpoint_every = checkpoint_every
        self.db_path = str(db) if db is not None else None

        config = self._resolve(scenario)
        if self.db_path is not None:
            config = config.with_overrides(ledger_backend="sqlite")
        binding = ledger_db(self.db_path) if self.db_path is not None else nullcontext()
        with binding:
            self.session = Session(config, scale=scale, seed=seed, inject=False)
        self.deployment = self.session.deployment
        self.config = self.session.config

        #: Blocks replayed from a persisted ledger at startup (0 for fresh runs).
        self.recovered_blocks = self._restore()
        self.session.start()

        self._lock = threading.RLock()
        self._queue: deque[tuple[str, int]] = deque()
        self._rr = 0  # round-robin cursor over servers
        self.ticks = 0
        self.restarts = 0
        self._stopped = False
        #: Ingress accounting: every submit() lands in exactly one bucket.
        self.accepted = 0
        self.deferred = 0
        self.rejected = 0
        #: Elements handed to a server / refused by one (duplicate, invalid,
        #: or crashed) after leaving the queue.
        self.drained = 0
        self.server_rejected = 0
        self._trace: WorkloadTrace | None = None
        self._trace_pos = 0
        self._trace_offset = 0.0

    @staticmethod
    def _resolve(scenario: Any) -> ExperimentConfig:
        from ..api.session import _resolve_config
        return _resolve_config(scenario)

    # -- restart restoration ------------------------------------------------------

    def _restore(self) -> int:
        """Rebuild server state from a previously persisted ledger.

        Three steps, ordered before the first simulator advance: preload
        every server's batch store from the journal (hashchain keeps batch
        contents out-of-band), mark each server's own persisted hash-batches
        as already signed (so replay does not re-append them), then replay
        the chain into the freshly subscribed servers.
        """
        backend = self.deployment.ledger_backend
        if not isinstance(backend, SqliteLedger) or backend.resumed_from == 0:
            return 0
        self.restarts = 1
        batches = backend.journaled_batches()
        for server in self.deployment.servers:
            store = getattr(server, "store", None)
            if store is not None:
                for batch_hash, items in batches.items():
                    store.register_remote(batch_hash, items)
            shared = getattr(server, "shared_store", None)
            if shared is not None:
                for batch_hash, items in batches.items():
                    shared.register_remote(batch_hash, items)
        blocks = backend.persisted_blocks()
        by_name = {server.name: server for server in self.deployment.servers}
        for block in blocks:
            for tx in block.transactions:
                if isinstance(tx.payload, HashBatch):
                    signer = by_name.get(tx.payload.signer)
                    signed = getattr(signer, "_signed_hashes", None)
                    if signed is not None:
                        signed.add(tx.payload.batch_hash)
        return backend.replay_persisted(blocks)

    # -- ingest -------------------------------------------------------------------

    def submit(self, client: str = "service", size_bytes: int | None = None) -> str:
        """Offer one element for ingestion; returns the backpressure verdict.

        ``"accepted"`` — enqueued with headroom; ``"deferred"`` — enqueued but
        the queue is past its watermark (producers should slow down);
        ``"rejected"`` — the queue is full (or the service is stopped) and the
        submission was dropped.  Element ids are assigned at drain time, so a
        rejected submission costs nothing.
        """
        size = size_bytes if size_bytes is not None else int(
            self.config.workload.element_size_mean)
        if size <= 0:
            raise ConfigurationError("element size must be positive")
        with self._lock:
            if self._stopped or len(self._queue) >= self.queue_limit:
                self.rejected += 1
                return "rejected"
            self._queue.append((client, size))
            if len(self._queue) > self.queue_limit * DEFER_WATERMARK:
                self.deferred += 1
                return "deferred"
            self.accepted += 1
            return "accepted"

    def submit_many(self, count: int, client: str = "service",
                    size_bytes: int | None = None) -> dict[str, int]:
        """Submit ``count`` elements; returns verdict counts for the batch."""
        verdicts = {"accepted": 0, "deferred": 0, "rejected": 0}
        for _ in range(count):
            verdicts[self.submit(client=client, size_bytes=size_bytes)] += 1
        return verdicts

    def load_trace(self, trace: WorkloadTrace | str | Path) -> int:
        """Arm a recorded workload trace to drive ingest through ticks.

        Entry times are interpreted relative to the moment the trace is
        loaded; each tick submits the entries that fall due during it, so
        replayed streams flow through the same backpressure accounting as
        live producers.
        """
        if not isinstance(trace, WorkloadTrace):
            trace = WorkloadTrace.from_json(trace)
        with self._lock:
            self._trace = trace
            self._trace_pos = 0
            self._trace_offset = self.session.now
        return len(trace)

    @property
    def trace_done(self) -> bool:
        """True when no trace is armed or every entry has been submitted."""
        with self._lock:
            return self._trace is None or self._trace_pos >= len(self._trace)

    def _feed_trace(self) -> None:
        if self._trace is None:
            return
        horizon = self.session.now - self._trace_offset + self.tick_duration
        entries = self._trace.entries
        while self._trace_pos < len(entries) and entries[self._trace_pos].time <= horizon + 1e-9:
            entry = entries[self._trace_pos]
            self._trace_pos += 1
            self.submit(client=entry.client, size_bytes=entry.size_bytes)

    # -- advancing ----------------------------------------------------------------

    def tick(self) -> None:
        """One service tick: feed the trace, drain the queue, advance the sim."""
        with self._lock:
            if self._stopped:
                raise SimulationError("service runtime is stopped")
            self._feed_trace()
            self._drain()
            self.session.run_for(self.tick_duration)
            self.ticks += 1
            if (self.db_path is not None
                    and self.ticks % self.checkpoint_every == 0):
                self.checkpoint()

    def run_for(self, duration: float) -> None:
        """Advance the service by ``duration`` simulated seconds of ticks."""
        if duration < 0:
            raise ConfigurationError("duration cannot be negative")
        deadline = self.session.now + duration - 1e-9
        while self.session.now < deadline:
            self.tick()

    def _drain(self) -> None:
        deployment = self.deployment
        budget = self.drain_per_tick if self.drain_per_tick is not None else len(self._queue)
        servers = deployment.servers
        router = deployment.shard_router
        while self._queue and budget > 0:
            if router is not None:
                # Sharded ingress: the element's id fixes its shard, the
                # router round-robins within it.  No active shard (none with
                # a routable quorum) keeps the queue for later, like the
                # all-servers-down case below.
                if not router.active_shards():
                    return
                client, size = self._queue.popleft()
                budget -= 1
                element = make_element(client=client, size_bytes=size,
                                       created_at=deployment.sim.now)
                routed = router.route_round_robin(element.element_id)
                target = routed[0] if routed is not None else None
                if target is not None and target.add(element):
                    deployment.injected_elements.append(element)
                    deployment.metrics.record_injected(element, deployment.sim.now)
                    self.drained += 1
                else:
                    self.server_rejected += 1
                continue
            target = None
            for _ in range(len(servers)):
                candidate = servers[self._rr % len(servers)]
                self._rr += 1
                # Draining servers refuse new adds and bootstrapping joiners
                # are not yet members; route around both, like crashes.
                if (not candidate.crashed and not candidate.draining
                        and not candidate.bootstrapping):
                    target = candidate
                    break
            if target is None:
                return  # every server is down; keep the queue for later
            client, size = self._queue.popleft()
            budget -= 1
            element = make_element(client=client, size_bytes=size,
                                   created_at=deployment.sim.now)
            if target.add(element):
                deployment.injected_elements.append(element)
                deployment.metrics.record_injected(element, deployment.sim.now)
                self.drained += 1
            else:
                self.server_rejected += 1

    # -- operations ---------------------------------------------------------------

    def rolling_restart(self, names: list[str] | None = None,
                        down_for: float = 1.0, between: float = 1.0) -> None:
        """Crash and recover each named server in sequence, ticking throughout."""
        for name in names if names is not None else [s.name for s in self.deployment.servers]:
            self.session.crash(name)
            self.run_for(down_for)
            self.session.recover(name)
            self.run_for(between)

    def add_server(self, name: str | None = None, *,
                   algorithm: str | None = None,
                   region: str | None = None) -> str:
        """Scale out: join a server mid-service; returns its name.

        The joiner bootstraps via state transfer and receives ingress
        traffic (the drain round-robin includes it) once caught up.
        """
        with self._lock:
            if self._stopped:
                raise SimulationError("service runtime is stopped")
            server = self.deployment.add_server(name=name, algorithm=algorithm,
                                                region=region)
            return server.name

    def remove_server(self, name: str, *, drain: bool = True) -> None:
        """Scale in: drain and retire a server mid-service.

        Ingress routes around it immediately; the retirement completes once
        its obligations are handed off (advance ticks to let it finish).
        """
        with self._lock:
            if self._stopped:
                raise SimulationError("service runtime is stopped")
            self.deployment.remove_server(name, drain=drain)

    def checkpoint(self) -> int:
        """Journal every server's batch-store contents to the database.

        Returns the number of batches journaled (0 without a database).
        The chain itself needs no checkpointing — blocks are durable the
        moment they are cut.  Runs whose membership changed journal their
        epoch timeline alongside, so offline audits can verify it.
        """
        backend = self.deployment.ledger_backend
        if not isinstance(backend, SqliteLedger):
            return 0
        membership = self.deployment.membership
        if membership is not None and membership.changed:
            backend.journal_membership(
                [epoch.to_dict() for epoch in membership.epochs])
        batches: dict[str, tuple[object, ...]] = {}
        for server in self.deployment.servers:
            for attr in ("store", "shared_store"):
                store = getattr(server, attr, None)
                if store is not None and hasattr(store, "items"):
                    batches.update(store.items())
        if not batches:
            return 0
        return backend.journal_batches(batches)

    # -- observation --------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def ingress_counters(self) -> dict[str, int]:
        with self._lock:
            return {"accepted": self.accepted, "deferred": self.deferred,
                    "rejected": self.rejected, "drained": self.drained,
                    "server_rejected": self.server_rejected,
                    "queue_depth": len(self._queue),
                    "queue_limit": self.queue_limit}

    def healthz(self) -> dict[str, Any]:
        """Liveness summary: ``ok`` while a commit quorum of servers is up.

        With dynamic membership both sides of the comparison follow the
        *current* epoch: only live current-epoch members count (a
        bootstrapping joiner or a draining leaver is not one), against that
        epoch's quorum — not the build-time f+1.  The payload always carries
        the epoch number (1 until the first membership change).

        A server counts as live only while it can still serve commits: a
        draining leaver refuses new adds, a departed-but-not-yet-retired
        server is already out of the write path, and a bootstrapping joiner
        has no state yet — none of them contribute to the quorum this probe
        answers for.  Sharded deployments additionally report per-shard
        liveness and degrade when *any* shard falls below its quorum.
        """
        with self._lock:
            deployment = self.deployment
            membership = deployment.membership

            def serving(server: Any) -> bool:
                return not (server.crashed or server.draining
                            or server.departed or server.bootstrapping)

            if membership is not None and membership.changed:
                current = membership.current
                members = set(current.members)
                live = sum(1 for s in deployment.servers
                           if s.name in members and serving(s))
                quorum = current.quorum
                epoch = current.index
            else:
                live = sum(1 for s in deployment.servers if serving(s))
                quorum = self.config.setchain.quorum
                epoch = 1
            healthy = live >= quorum
            payload: dict[str, Any] = {
                "live_servers": live, "quorum": quorum,
                "epoch": epoch,
                "stopped": self._stopped,
                "uptime_s": self.session.now}
            router = deployment.shard_router
            if router is not None:
                shards: dict[str, Any] = {}
                for index, servers in enumerate(router.shard_servers):
                    shard_live = sum(1 for s in servers if serving(s))
                    shards[str(index)] = {"live": shard_live,
                                          "quorum": router.quorum}
                    if shard_live < router.quorum:
                        healthy = False
                payload["shards"] = shards
            payload["status"] = ("ok" if healthy and not self._stopped
                                 else "degraded")
            return payload

    def metrics_snapshot(self) -> dict[str, Any]:
        """One JSON-safe scrape of the running deployment.

        Field names follow the :class:`~repro.api.results.RunResult`
        vocabulary (injected / committed / committed_fraction / first_commit
        / label / algorithm) so dashboards built against batch artifacts read
        service scrapes unchanged, plus live-only gauges (queue, backpressure,
        per-server state, ledger height).
        """
        with self._lock:
            deployment = self.deployment
            metrics = deployment.metrics
            now = deployment.sim.now
            commit_times = metrics.commit_times()
            injected_ids = {e.element_id for e in deployment.injected_elements}
            committed_total = metrics.committed_count
            committed_this_run = sum(
                1 for element_id, committed_at in enumerate(
                    metrics.column("committed_at"), metrics.first_id)
                if committed_at == committed_at and element_id in injected_ids)
            injected = len(deployment.injected_elements)
            servers = {
                server.name: {"crashed": server.crashed,
                              "byzantine": server.is_byzantine,
                              "backlog": server.backlog,
                              "epoch": server.get().epoch}
                for server in deployment.servers}
            backend = deployment.ledger_backend
            ledger: dict[str, Any] = {}
            height = getattr(backend, "height", None)
            if height is not None:
                ledger["height"] = height
            pending = getattr(backend, "pending_count", None)
            if callable(pending):
                ledger["pending"] = pending()
            if isinstance(backend, SqliteLedger):
                ledger["durable"] = True
                ledger["db"] = backend.path
                ledger["resumed_from"] = backend.resumed_from
            snapshot: dict[str, Any] = {
                "label": self.config.label,
                "algorithm": self.config.algorithm,
                "now": now,
                "ticks": self.ticks,
                "injected": injected,
                "committed": committed_total,
                "committed_this_run": committed_this_run,
                "recovered_commits": committed_total - committed_this_run,
                "committed_fraction": (committed_this_run / injected
                                       if injected else 0.0),
                "first_commit": commit_times[0] if commit_times else None,
                "rolling_throughput": recent_throughput(commit_times, now),
                "rolling_window_s": PAPER_ROLLING_WINDOW,
                "ingress": {"accepted": self.accepted, "deferred": self.deferred,
                            "rejected": self.rejected, "drained": self.drained,
                            "server_rejected": self.server_rejected,
                            "queue_depth": len(self._queue),
                            "queue_limit": self.queue_limit},
                "servers": servers,
                "ledger": ledger,
                "recovered_blocks": self.recovered_blocks,
            }
            membership = deployment.membership
            if membership is not None and membership.changed:
                # Scrapes of static services keep the earlier shape; elastic
                # ones expose the current epoch's set and quorum.
                current = membership.current
                snapshot["membership"] = {
                    "epoch": current.index,
                    "members": list(current.members),
                    "size": len(current.members),
                    "quorum": current.quorum,
                }
            return snapshot

    def observability_snapshot(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """Metrics snapshot plus health summary under ONE lock acquisition.

        The Prometheus handler renders its text from the returned dicts
        outside the lock, so a scrape costs one bounded critical section no
        matter how slow the scraper's socket is (the lock is re-entrant, so
        the two nested snapshot calls do not re-acquire).
        """
        with self._lock:
            return self.metrics_snapshot(), self.healthz()

    def result(self) -> RunResult:
        """Package the standard batch analyses for the run so far."""
        return self.session.result()

    # -- lifecycle ----------------------------------------------------------------

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Graceful shutdown (idempotent): checkpoint, stop, close the db."""
        with self._lock:
            if self._stopped:
                return
            self.checkpoint()
            self._stopped = True
            self.deployment.stop()
            backend = self.deployment.ledger_backend
            if isinstance(backend, SqliteLedger):
                backend.close()

    def kill(self) -> None:
        """Abrupt termination, as if the process died: no checkpoint, no
        graceful stop, uncommitted writes rolled back — the database keeps
        exactly the blocks already cut."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            backend = self.deployment.ledger_backend
            if isinstance(backend, SqliteLedger):
                backend.abort()

    def __enter__(self) -> "ServiceRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
