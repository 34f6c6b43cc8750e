"""Metrics collection: per-element lifecycle timestamps and system counters.

The paper instruments its deployment by collecting and post-processing logs;
here the :class:`MetricsCollector` is handed to every server and client hook
and records the first time each lifecycle stage is reached *anywhere* in the
deployment (global first-observation semantics, matching log analysis over all
containers):

``injected → added → in_ledger → epoch_assigned → committed``

plus the mempool stages of Fig. 4 which are reconstructed post-run from the
ledger nodes' mempool arrival tables.

The timestamps live in columns, one stdlib ``array('d')`` per stage with NaN
for "not reached", indexed by ``element_id - base`` (ids are handed out by one
counter, so they are dense).  A million-element run then costs a few arrays,
not a million garbage-collected record objects; :class:`ElementRecord` is only
built on demand, by the read-only :attr:`MetricsCollector.elements` view.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Iterator, Mapping

from ..obs.trace import TRACK_LEDGER
from ..workload.elements import Element


#: The lifecycle stages, in order; each is one timestamp column.
STAGES = ("injected_at", "added_at", "in_ledger_at", "epoch_assigned_at",
          "committed_at")

_UNSET = float("nan")
_element_id = attrgetter("element_id")


def _blank_rows(column: array, count: int) -> array:
    """``count`` fresh rows for ``column``: NaN timestamps, zero integers."""
    return array(column.typecode, (_UNSET if column.typecode == "d" else 0,)) * count


def _or_none(value: float) -> float | None:
    return None if value != value else value


def _seen_before(done: set[tuple[int, str]], epoch_number: int,
                 epoch_hash: str | None) -> bool:
    """Whether ``(epoch_number, epoch_hash)`` is in ``done``; adds it if not.
    Without a hash nothing is remembered."""
    if epoch_hash is None:
        return False
    key = (epoch_number, epoch_hash)
    if key in done:
        return True
    done.add(key)
    return False


@dataclass(slots=True)
class ElementRecord:
    """Lifecycle timestamps (simulated seconds) for one element, as read back
    from the collector's columns."""

    element_id: int
    size_bytes: int = 0
    injected_at: float | None = None
    added_at: float | None = None
    in_ledger_at: float | None = None
    epoch_number: int | None = None
    epoch_assigned_at: float | None = None
    committed_at: float | None = None

    @property
    def committed(self) -> bool:
        return self.committed_at is not None

    def commit_latency(self) -> float | None:
        """Injection-to-commit latency, if both endpoints were observed."""
        if self.injected_at is None or self.committed_at is None:
            return None
        return self.committed_at - self.injected_at


@dataclass
class EpochEvent:
    """One epoch creation observed at a server."""

    server: str
    epoch_number: int
    n_elements: int
    time: float


@dataclass
class BatchFlushEvent:
    """One collector flush (batch appended to the ledger in some form)."""

    server: str
    n_items: int
    appended_bytes: int
    time: float


class MetricsCollector:
    """Accumulates raw observations during a run."""

    def __init__(self) -> None:
        # The lifecycle columns: row ``element_id - _base`` for the ids
        # ``_base .. _end - 1``; ``_present`` marks rows some stage reached.
        self._base = 0
        self._end = 0
        self._injected_at = array("d")
        self._added_at = array("d")
        self._in_ledger_at = array("d")
        self._epoch_assigned_at = array("d")
        self._committed_at = array("d")
        self._size_bytes = array("q")
        #: Set together with ``_epoch_assigned_at`` (0 while that is NaN).
        self._epoch_number = array("q")
        self._columns = (self._injected_at, self._added_at, self._in_ledger_at,
                         self._epoch_assigned_at, self._committed_at,
                         self._size_bytes, self._epoch_number)
        self._present = bytearray()
        #: Read-only ``element_id -> ElementRecord`` view of the columns.
        self.elements = ElementRecords(self)
        #: ledger tx_id -> element ids carried by that transaction.
        self.tx_elements: dict[int, list[int]] = {}
        #: Hashchain batch hash -> element ids in the batch behind it.
        self.hash_elements: dict[str, list[int]] = {}
        self.epoch_events: list[EpochEvent] = []
        self.batch_flushes: list[BatchFlushEvent] = []
        #: (server, success) counts of hash-reversal attempts.
        self.hash_reversal_success = 0
        self.hash_reversal_failure = 0
        #: epoch_number -> first commit observation time.
        self.epoch_commit_times: dict[int, float] = {}
        #: Server name -> region name; empty for homogeneous deployments.
        self.region_of: dict[str, str] = {}
        #: region -> elements first added at a server in that region.
        self.region_added: dict[str, int] = {}
        #: region -> elements whose commit was first observed in that region.
        self.region_committed: dict[str, int] = {}
        #: region -> earliest commit observation time in that region.
        self.region_first_commit: dict[str, float] = {}
        #: Server name -> shard index; empty for unsharded deployments.  The
        #: per-shard tallies mirror the region machinery: an element's shard
        #: is wherever it was first added/committed, which — thanks to the
        #: finalize_block origin filter — is always its owning shard.
        self.shard_of: dict[str, int] = {}
        #: shard -> elements first added at a server of that shard.
        self.shard_added: dict[int, int] = {}
        #: shard -> elements whose commit was first observed in that shard.
        self.shard_committed: dict[int, int] = {}
        #: shard -> commit observation times (drives per-shard throughput).
        self.shard_commit_times: dict[int, list[float]] = {}
        #: Byzantine-attribution counters (withheld requests, bogus hashes,
        #: invalid elements appended/refused, ...), aggregated over the run.
        self.byzantine_counters: dict[str, int] = {}
        #: The same counters broken down by server name.
        self.byzantine_by_server: dict[str, dict[str, int]] = {}
        # Incremental tallies behind injected_count/committed_count: each
        # lifecycle stage is recorded at most once per element, so counting at
        # record time replaces an O(elements) scan per poll — and completion
        # polling happens every block at million-element scale.
        self._injected_total = 0
        self._committed_total = 0
        #: Batch hashes whose elements already have ``in_ledger_at`` stamped.
        #: Every server re-reports every ledger batch; after the first report
        #: the remaining ``servers - 1`` are guaranteed no-ops, so they can
        #: skip the per-element pass entirely.
        self._ledger_hash_done: set[str] = set()
        #: (epoch_number, epoch_hash) pairs already stamped; see
        #: :meth:`record_epoch_assigned_many`.
        self._epoch_assigned_done: set[tuple[int, str]] = set()
        self._epoch_committed_done: set[tuple[int, str]] = set()
        #: (committed_total, sorted times) behind :meth:`commit_times`.
        self._commit_times_cache: tuple[int, list[float]] | None = None
        #: (committed_total, sorted latencies) behind :meth:`commit_latencies`.
        self._commit_latencies_cache: tuple[int, list[float]] | None = None
        #: Lifecycle tracer, set by ``build_deployment`` when ``trace_sample``
        #: is configured; ``None`` keeps every hot path to one identity check.
        self.tracer = None

    # -- regions ---------------------------------------------------------------

    def set_region_map(self, region_of: Mapping[str, str]) -> None:
        """Enable per-region breakdowns (server name -> region name)."""
        self.region_of = dict(region_of)
        for region in self.region_of.values():
            self.region_added.setdefault(region, 0)
            self.region_committed.setdefault(region, 0)

    def region_summary(self) -> dict[str, dict[str, Any]] | None:
        """Per-region breakdown, or ``None`` when no region map is set."""
        if not self.region_of:
            return None
        servers: dict[str, int] = {}
        for region in self.region_of.values():
            servers[region] = servers.get(region, 0) + 1
        return {
            region: {
                "servers": servers[region],
                "added": self.region_added.get(region, 0),
                "committed": self.region_committed.get(region, 0),
                "first_commit": self.region_first_commit.get(region),
            }
            for region in sorted(servers)
        }

    # -- shards ----------------------------------------------------------------

    def set_shard_map(self, shard_of: Mapping[str, int]) -> None:
        """Enable per-shard breakdowns (server name -> shard index)."""
        self.shard_of = dict(shard_of)
        for shard in self.shard_of.values():
            self.shard_added.setdefault(shard, 0)
            self.shard_committed.setdefault(shard, 0)
            self.shard_commit_times.setdefault(shard, [])

    def assign_shard(self, server: str, shard: int) -> None:
        """Enroll one server (a runtime joiner) into a shard."""
        self.shard_of[server] = shard
        self.shard_added.setdefault(shard, 0)
        self.shard_committed.setdefault(shard, 0)
        self.shard_commit_times.setdefault(shard, [])

    # -- element lifecycle ------------------------------------------------------

    def _cover(self, element_id: int) -> tuple[int, int]:
        """Grow the columns so ``element_id`` has a row; return ``(base, end)``.

        Rows cover the ids ``base .. end - 1``.  Growth is geometric on both
        sides, so ascending ids cost amortised O(1) and a lower id (the sqlite
        resume path records ids older than the first one seen) re-bases the
        columns by prepending, in place: callers' local column references stay
        valid.
        """
        size = self._end - self._base
        if not size:
            self._base = self._end = element_id
        if element_id >= self._end:
            grow = max(element_id - self._end + 1, size // 2, 64)
            for column in self._columns:
                column.extend(_blank_rows(column, grow))
            self._present.extend(bytes(grow))
            self._end += grow
        elif element_id < self._base:
            grow = max(self._base - element_id, size // 2)
            for column in self._columns:
                column[0:0] = _blank_rows(column, grow)
            self._present[0:0] = bytes(grow)
            self._base -= grow
        return self._base, self._end

    def _stamp_elements(self, column: array, elements: Iterable[Element],
                        time: float) -> int:
        """First-observation stamp of ``column`` (and the size) for each
        element; returns how many were fresh."""
        base, end = self._base, self._end
        sizes = self._size_bytes
        present = self._present
        fresh = 0
        for element in elements:
            element_id = element.element_id
            if not base <= element_id < end:
                base, end = self._cover(element_id)
            row = element_id - base
            sizes[row] = element.size_bytes
            if column[row] != column[row]:
                column[row] = time
                present[row] = 1
                fresh += 1
        return fresh

    def _stamp_ids(self, column: array, element_ids: Iterable[int],
                   time: float, tag: array | None = None, value: int = 0) -> int:
        """First-observation stamp of ``column`` for each id (and ``value``
        into ``tag`` alongside); returns how many were fresh."""
        base, end = self._base, self._end
        present = self._present
        fresh = 0
        for element_id in element_ids:
            if not base <= element_id < end:
                base, end = self._cover(element_id)
            row = element_id - base
            if column[row] != column[row]:
                column[row] = time
                present[row] = 1
                fresh += 1
                if tag is not None:
                    tag[row] = value
        return fresh

    def record_injected(self, element: Element, time: float) -> None:
        self.record_injected_many((element,), time)

    def record_injected_many(self, elements: Iterable[Element],
                             time: float) -> None:
        """Stamp ``injected_at`` for one injection tick."""
        if self.tracer is not None:
            elements = list(elements)
        self._injected_total += self._stamp_elements(self._injected_at,
                                                     elements, time)
        if self.tracer is not None:
            self.tracer.injected_many(
                [element.element_id for element in elements], time)

    def record_added(self, element: Element, server: str, time: float) -> None:
        self.record_added_many((element,), server, time)

    def record_added_many(self, elements: Iterable[Element], server: str,
                          time: float) -> None:
        """Stamp ``added_at``: one pass, one region/shard counter update."""
        fresh = self._stamp_elements(self._added_at, elements, time)
        if not fresh:
            return
        region = self.region_of.get(server)
        if region is not None:
            self.region_added[region] = self.region_added.get(region, 0) + fresh
        shard = self.shard_of.get(server)
        if shard is not None:
            self.shard_added[shard] = self.shard_added.get(shard, 0) + fresh

    def record_tx_elements(self, tx_id: int, element_ids: Iterable[int]) -> None:
        self.tx_elements[tx_id] = list(element_ids)

    def record_batch_hash_elements(self, batch_hash: str,
                                   element_ids: Iterable[int]) -> None:
        self.hash_elements.setdefault(batch_hash, list(element_ids))

    def record_in_ledger(self, element_id: int, time: float) -> None:
        self.record_in_ledger_many((element_id,), time)

    def record_in_ledger_many(self, element_ids: Iterable[int],
                              time: float) -> None:
        """Stamp ``in_ledger_at`` — every server re-observes every ledger
        batch, so this runs ``servers × elements`` times per run."""
        if self.tracer is not None:
            element_ids = list(element_ids)
        self._stamp_ids(self._in_ledger_at, element_ids, time)
        if self.tracer is not None:
            self.tracer.phase_many(element_ids, "in_ledger", time, TRACK_LEDGER)

    def record_in_ledger_by_hash(self, batch_hash: str, time: float) -> None:
        if batch_hash in self._ledger_hash_done:
            return
        ids = self.hash_elements.get(batch_hash)
        if ids:
            self._ledger_hash_done.add(batch_hash)
            self.record_in_ledger_many(ids, time)

    def record_epoch_assigned(self, element_id: int, epoch_number: int,
                              time: float) -> None:
        self.record_epoch_assigned_many((element_id,), epoch_number, time)

    def record_epoch_assigned_many(self, element_ids: Iterable[int],
                                   epoch_number: int, time: float,
                                   epoch_hash: str | None = None) -> None:
        """Stamp ``epoch_assigned_at`` for one epoch creation.

        ``epoch_hash`` is the observer's own hash of the epoch's element set.
        Every server creates every epoch; once one of them has stamped an
        ``(epoch_number, epoch_hash)`` the same set is stamped already, so
        the repeats skip the pass (an equivocating server's different set
        has a different hash and still gets its pass).
        """
        if _seen_before(self._epoch_assigned_done, epoch_number, epoch_hash):
            return
        self._stamp_ids(self._epoch_assigned_at, element_ids, time,
                        self._epoch_number, epoch_number)

    def record_epoch_created(self, server: str, epoch_number: int, n_elements: int,
                             time: float) -> None:
        self.epoch_events.append(EpochEvent(server=server, epoch_number=epoch_number,
                                            n_elements=n_elements, time=time))

    def record_epoch_committed(self, epoch_number: int, elements: Iterable[Element],
                               time: float, observer: str = "?",
                               epoch_hash: str | None = None) -> None:
        """Stamp ``committed_at`` for one epoch's first commit at ``observer``.

        ``epoch_hash`` memoises exactly like :meth:`record_epoch_assigned_many`
        (the tracer still sees every observer).
        """
        if epoch_number not in self.epoch_commit_times:
            self.epoch_commit_times[epoch_number] = time
        if self.tracer is not None:
            elements = list(elements)
            self.tracer.phase_many([e.element_id for e in elements],
                                   "committed", time, observer)
        if _seen_before(self._epoch_committed_done, epoch_number, epoch_hash):
            return
        fresh = self._stamp_ids(self._committed_at,
                                map(_element_id, elements), time)
        if not fresh:
            return
        self._committed_total += fresh
        region = self.region_of.get(observer)
        if region is not None:
            self.region_committed[region] = (
                self.region_committed.get(region, 0) + fresh)
            self.region_first_commit.setdefault(region, time)
        shard = self.shard_of.get(observer)
        if shard is not None:
            self.shard_committed[shard] = self.shard_committed.get(shard, 0) + fresh
            self.shard_commit_times.setdefault(shard, []).extend([time] * fresh)

    def record_batch_flush(self, server: str, n_items: int, appended_bytes: int,
                           time: float) -> None:
        self.batch_flushes.append(BatchFlushEvent(server=server, n_items=n_items,
                                                  appended_bytes=appended_bytes,
                                                  time=time))

    def record_byzantine(self, server: str, counter: str) -> None:
        """Attribute one Byzantine-related action (misbehaviour at a Byzantine
        server, or a refusal of Byzantine garbage at a correct one)."""
        self.byzantine_counters[counter] = (
            self.byzantine_counters.get(counter, 0) + 1)
        per_server = self.byzantine_by_server.setdefault(server, {})
        per_server[counter] = per_server.get(counter, 0) + 1

    def record_hash_reversal(self, server: str, batch_hash: str, success: bool,
                             time: float) -> None:
        if success:
            self.hash_reversal_success += 1
        else:
            self.hash_reversal_failure += 1

    # -- derived summaries ---------------------------------------------------------

    @property
    def injected_count(self) -> int:
        return self._injected_total

    @property
    def committed_count(self) -> int:
        return self._committed_total

    def column(self, stage: str) -> array:
        """The timestamp column of one of :data:`STAGES` (read-only).

        Row ``i`` belongs to element id ``first_id + i``; NaN marks a stage
        not reached (or an id never recorded), so ``x != x`` tests "unset"
        and NaN arithmetic propagates it.
        """
        if stage not in STAGES:
            raise KeyError(stage)
        return getattr(self, "_" + stage)

    @property
    def first_id(self) -> int:
        """Element id of row 0 of every :meth:`column`."""
        return self._base

    def commit_times(self) -> list[float]:
        """Sorted commit times of every committed element.

        The result is cached until another element commits (each element
        commits at most once, so ``_committed_total`` is a change counter) —
        post-run analyses poll this several times per run, and re-sorting a
        million floats per poll is measurable.  Callers must treat the
        returned list as read-only; every existing consumer does.
        """
        cached = self._commit_times_cache
        total = self._committed_total
        if cached is not None and cached[0] == total:
            return cached[1]
        times = sorted([t for t in self._committed_at if t == t])
        self._commit_times_cache = (total, times)
        return times

    def commit_latencies(self) -> list[float]:
        """Sorted injection-to-commit latencies of committed elements.

        Cached exactly like :meth:`commit_times` — ``_committed_total`` only
        grows, and a latency exists once an element commits, so the counter is
        a change key here too.  The resilience and membership reports both
        call this several times per packaging pass; without the cache each
        call re-scans (and re-sorts) every element.  Callers must treat the
        returned list as read-only; every existing consumer does.
        """
        cached = self._commit_latencies_cache
        total = self._committed_total
        if cached is not None and cached[0] == total:
            return cached[1]
        latencies = sorted([committed - injected for committed, injected
                            in zip(self._committed_at, self._injected_at)
                            if committed == committed and injected == injected])
        self._commit_latencies_cache = (total, latencies)
        return latencies

    def records(self) -> list[ElementRecord]:
        """All element records, ordered by injection time (unknown last)."""
        return sorted(self.elements.values(),
                      key=lambda r: (r.injected_at is None, r.injected_at or 0.0))


class ElementRecords(Mapping[int, ElementRecord]):
    """Read-only ``element_id -> ElementRecord`` view of a collector's columns.

    Records are built on access, in element-id order, so ``values()`` streams
    them.  Hot paths read :meth:`MetricsCollector.column` instead.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: MetricsCollector) -> None:
        self._metrics = metrics

    def _row(self, element_id: int) -> int | None:
        metrics = self._metrics
        row = element_id - metrics._base
        if 0 <= row < len(metrics._present) and metrics._present[row]:
            return row
        return None

    def _record(self, row: int) -> ElementRecord:
        metrics = self._metrics
        assigned = _or_none(metrics._epoch_assigned_at[row])
        return ElementRecord(
            element_id=metrics._base + row,
            size_bytes=metrics._size_bytes[row],
            injected_at=_or_none(metrics._injected_at[row]),
            added_at=_or_none(metrics._added_at[row]),
            in_ledger_at=_or_none(metrics._in_ledger_at[row]),
            epoch_number=None if assigned is None else metrics._epoch_number[row],
            epoch_assigned_at=assigned,
            committed_at=_or_none(metrics._committed_at[row]))

    def __getitem__(self, element_id: int) -> ElementRecord:
        row = self._row(element_id)
        if row is None:
            raise KeyError(element_id)
        return self._record(row)

    def __len__(self) -> int:
        return self._metrics._present.count(1)

    def __iter__(self) -> Iterator[int]:
        base = self._metrics._base
        present = self._metrics._present
        return (base + row for row in range(len(present)) if present[row])
