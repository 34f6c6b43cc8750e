"""The fault injector: executes a schedule against a live deployment.

:class:`FaultInjector` is armed by :meth:`Deployment.start`: it schedules one
simulator timer per event at its ``at`` time and hands events a
:class:`FaultContext` — the narrow surface they act through (network hooks,
crash/recover dispatch, target resolution, a derived RNG stream, and the
fault-event record on the metrics collector).  All randomness comes from
``sim.rng.derive("faults")``, so the same ``(scenario, seed)`` produces the
same chaos timeline in any process — ``sweep --jobs 1`` and ``--jobs 4`` stay
byte-identical.

After a run, :meth:`FaultInjector.report` condenses the applied timeline plus
the metrics collector into the resilience block serialised as
``RunResult.faults``: per-window availability, commit latency during/outside
fault windows, recovery time to the first post-heal commit, and the network's
dropped/duplicated counters.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ConfigurationError, did_you_mean
from .events import Targets
from .schedule import FaultScheduleConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.deployment import Deployment
    from ..net.message import Message
    from ..net.network import Network
    from ..sim.rng import DeterministicRNG
    from ..sim.scheduler import Simulator


class FaultContext:
    """What a fault event may touch while applying itself."""

    def __init__(self, deployment: "Deployment",
                 rng: "DeterministicRNG",
                 injector: "FaultInjector") -> None:
        self.deployment = deployment
        self.sim: "Simulator" = deployment.sim
        self.network: "Network" = deployment.network
        self.rng = rng
        self._injector = injector
        #: node name -> claim token of the crash event that owns it.
        self._crash_claims: dict[str, int] = {}
        #: server name -> claim token of the Byzantine event that owns it.
        self._byz_claims: dict[str, int] = {}
        self._claim_counter = 0
        #: normalised cut -> reference count (overlapping Partition events
        #: share Network's idempotent cut; the last release heals it).
        self._partition_claims: dict[frozenset[frozenset[str]], int] = {}

    # -- node pools -------------------------------------------------------------

    def server_names(self) -> list[str]:
        return [server.name for server in self.deployment.servers]

    def validator_names(self) -> list[str]:
        nodes = getattr(self.deployment.ledger_backend, "nodes", None)
        return sorted(nodes) if nodes else []

    def all_nodes(self) -> list[str]:
        """Every process on the simulated network (servers + ledger nodes)."""
        return self.network.node_names()

    def region_of(self, name: str) -> str | None:
        """Region of a node: servers from the deployment map, ledger nodes
        from the regional latency model's co-location map when present."""
        latency = self.network.latency
        region_map = getattr(latency, "region_of", None)
        if region_map and name in region_map:
            return region_map[name]
        return self.deployment.region_of.get(name)

    # -- target resolution -------------------------------------------------------

    def resolve(self, targets: Targets | None) -> list[str]:
        """Deterministically resolve a selector to sorted node names."""
        if targets is None:
            return []
        if targets.nodes:
            known = set(self.all_nodes())
            for name in targets.nodes:
                if name not in known:
                    raise ConfigurationError(
                        f"fault targets unknown node {name!r}"
                        + did_you_mean(name, sorted(known)))
            names = list(targets.nodes)
        else:
            if targets.role == "servers":
                names = self.server_names()
            elif targets.role == "validators":
                names = self.validator_names()
            else:
                names = self.all_nodes()
            if targets.region is not None:
                names = [name for name in names
                         if self.region_of(name) == targets.region]
        if targets.count is not None and targets.count < len(names):
            names = self.sample(names, targets.count)
        return sorted(names)

    def sample(self, pool: list[str], k: int) -> list[str]:
        """A deterministic random ``k``-subset of ``pool``."""
        if k >= len(pool):
            return sorted(pool)
        return sorted(self.rng.sample(sorted(pool), k))

    def name_matcher(self, names: list[str] | None) -> "Callable[[Message], bool]":
        """A message predicate: sender or recipient is in ``names``
        (``None`` matches every message).  Callers resolve selectors once and
        pass the result, so the rule and the recorded targets can never see
        two different random draws."""
        if names is None:
            return lambda message: True
        matched = frozenset(names)
        return lambda message: (message.sender in matched
                                or message.recipient in matched)

    # -- crash/recover dispatch ---------------------------------------------------

    def crash_node(self, name: str) -> None:
        self.deployment.crash_node(name)

    def recover_node(self, name: str) -> None:
        self.deployment.recover_node(name)

    def is_crashed(self, name: str) -> bool:
        return self.deployment.node_crashed(name)

    def live(self, names: list[str]) -> list[str]:
        """Filter out nodes that are already crash-faulted.

        Crash-type events claim only nodes *they* bring down, so overlapping
        schedules never recover another event's victim ahead of its window.
        """
        return [name for name in names if not self.is_crashed(name)]

    def claim_crashes(self, names: list[str]) -> int:
        """Crash ``names`` under a fresh ownership token.

        The paired :meth:`release_crashes` recovers only the nodes this token
        still owns, so a scheduled auto-recover can never bring back a node
        that was explicitly recovered and then re-claimed by a later event.
        """
        self._claim_counter += 1
        token = self._claim_counter
        for name in names:
            self.crash_node(name)
            self._crash_claims[name] = token
        return token

    def release_crashes(self, names: list[str], token: int) -> None:
        """Recover the nodes in ``names`` still owned by ``token``."""
        for name in names:
            if self._crash_claims.get(name) == token:
                del self._crash_claims[name]
                self.recover_node(name)

    def force_recover(self, name: str) -> None:
        """Explicit recovery (the ``Recover`` event): clears any ownership."""
        self._crash_claims.pop(name, None)
        self.recover_node(name)

    # -- Byzantine behaviour dispatch ---------------------------------------------

    def is_server(self, name: str) -> bool:
        """Whether ``name`` is a Setchain server (Byzantine-capable)."""
        return any(server.name == name for server in self.deployment.servers)

    def is_byzantine(self, name: str) -> bool:
        return self.deployment.node_byzantine(name)

    def correct(self, names: list[str]) -> list[str]:
        """Filter out servers that are already Byzantine.

        Byzantine-type events claim only the servers *they* turned, mirroring
        the crash-claim discipline: overlapping schedules never revert another
        event's server ahead of its window.
        """
        return [name for name in names if not self.is_byzantine(name)]

    def claim_byzantine(self, names: list[str], behaviour: str) -> int:
        """Turn ``names`` Byzantine under a fresh ownership token."""
        self._claim_counter += 1
        token = self._claim_counter
        for name in names:
            self.deployment.become_byzantine(name, behaviour)
            self._byz_claims[name] = token
        self._injector.note_byzantine(names)
        return token

    def release_byzantine(self, names: list[str], token: int) -> None:
        """Revert the servers in ``names`` still owned by ``token``."""
        for name in names:
            if self._byz_claims.get(name) == token:
                del self._byz_claims[name]
                self.deployment.become_correct(name)

    def force_correct(self, name: str) -> None:
        """Explicit reversion (the ``BecomeCorrect`` event): clears ownership."""
        self._byz_claims.pop(name, None)
        if self.is_server(name):
            self.deployment.become_correct(name)

    # -- membership dispatch -------------------------------------------------------

    def join(self, node: str | None = None, role: str = "servers",
             region: str | None = None, algorithm: str | None = None) -> str:
        """Admit a new node; returns its (possibly auto-assigned) name."""
        if role == "validators":
            return self.deployment.add_validator(node)
        server = self.deployment.add_server(name=node, algorithm=algorithm,
                                            region=region)
        return server.name

    def can_leave(self, name: str) -> bool:
        """Whether ``name`` is a server currently eligible to depart."""
        for server in self.deployment.servers:
            if server.name == name:
                return (not server.bootstrapping and not server.draining
                        and not server.departed
                        and len(self.deployment.servers) > 1)
        return False

    def leave(self, name: str, drain: bool = True) -> None:
        """Retire a server cleanly (drained by default)."""
        self.deployment.remove_server(name, drain=drain)

    # -- partition ownership -----------------------------------------------------

    @staticmethod
    def _cut_key(group: set[str], rest: set[str]) -> frozenset[frozenset[str]]:
        return frozenset((frozenset(group), frozenset(rest)))

    def claim_partition(self, group: set[str], rest: set[str]) -> None:
        """Install a cut under reference counting.

        ``Network.partition`` is idempotent, so overlapping Partition events
        resolving to the same cut share one underlying partition; counting
        claims makes the cut heal only when its *last* owner releases it.
        """
        key = self._cut_key(group, rest)
        count = self._partition_claims.get(key, 0)
        if count == 0:
            self.network.partition(group, rest)
        self._partition_claims[key] = count + 1

    def release_partition(self, group: set[str], rest: set[str]) -> None:
        """Drop one claim on a cut; the last release heals it."""
        key = self._cut_key(group, rest)
        count = self._partition_claims.get(key, 0)
        if count <= 1:
            self._partition_claims.pop(key, None)
            self.network.heal(group, rest)
        else:
            self._partition_claims[key] = count - 1

    def heal_all_partitions(self) -> None:
        """Explicit global heal (the ``Heal`` event): clears every claim."""
        self._partition_claims.clear()
        self.network.heal()

    # -- bookkeeping --------------------------------------------------------------

    def record(self, kind: str, targets: list[str] | None = None,
               until: float | None = None, note: str = "",
               open_ended: bool = False) -> None:
        """Log one applied fault into the timeline and the metrics collector.

        An entry is a *fault window* when it has an ``until`` or is declared
        ``open_ended`` (active until the end of the run); anything else —
        heals, recoveries, skipped degenerate events — is instantaneous and
        does not count toward the during-faults metrics.
        """
        self._injector.record(kind, targets or [], until, note, open_ended)


class FaultInjector:
    """Schedules a :class:`FaultScheduleConfig` onto a deployment's simulator."""

    def __init__(self, deployment: "Deployment",
                 schedule: FaultScheduleConfig) -> None:
        self.deployment = deployment
        self.schedule = schedule
        self.rng = deployment.sim.rng.derive("faults")
        self.context = FaultContext(deployment, self.rng, self)
        #: Applied-fault timeline (JSON-safe entries, in application order).
        self.applied: list[dict[str, Any]] = []
        #: Active-fault windows as ``(start, end-or-None)``; ``None`` means
        #: open-ended (until the end of the run).  Instantaneous entries
        #: (heal, recover) appear in :attr:`applied` but not here.
        self._windows: list[tuple[float, float | None]] = []
        #: Servers a Byzantine event actually turned.  Gates the ``byzantine``
        #: block of the report: crash-only and fault-free schedules stay
        #: byte-identical to the pre-Byzantine artifact schema.
        self._byzantine_servers: set[str] = set()
        self._armed = False

    def note_byzantine(self, names: list[str]) -> None:
        """Record that a Byzantine event turned ``names``."""
        self._byzantine_servers.update(names)

    @property
    def byzantine_servers(self) -> set[str]:
        """Every server a Byzantine event turned so far (ever, not currently)."""
        return set(self._byzantine_servers)

    def arm(self) -> None:
        """Schedule every event's ``apply`` at its ``at`` time.  Idempotent."""
        if self._armed:
            return
        self._armed = True
        sim = self.deployment.sim
        for event in self.schedule.events:
            sim.call_at(max(event.at, sim.now),
                        lambda e=event: e.apply(self.context))

    def record(self, kind: str, targets: list[str], until: float | None,
               note: str, open_ended: bool = False) -> None:
        entry: dict[str, Any] = {"at": self.deployment.sim.now, "kind": kind,
                                 "targets": list(targets)}
        if until is not None:
            entry["until"] = until
        if note:
            entry["note"] = note
        self.applied.append(entry)
        if until is not None or open_ended:
            self._windows.append((self.deployment.sim.now, until))

    # -- resilience report --------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """The ``RunResult.faults`` block for the run so far (JSON-safe)."""
        deployment = self.deployment
        metrics = deployment.metrics
        network = deployment.network
        horizon = deployment.sim.now

        intervals = [(start, horizon if end is None else end)
                     for start, end in self._windows]
        commit_times = metrics.commit_times()

        # Per-window availability over the injection phase: the fraction of
        # elements injected in each window that eventually committed.
        window = self.schedule.availability_window
        duration = deployment.config.workload.injection_duration
        # Lifecycle columns: NaN marks an unobserved stage and fails every
        # comparison, so unobserved injections drop out of both passes.
        injected = metrics.column("injected_at")
        committed = metrics.column("committed_at")
        buckets: dict[int, list[int]] = {}
        for injected_at, committed_at in zip(injected, committed):
            if not injected_at < duration:
                continue
            bucket = buckets.setdefault(int(injected_at // window), [0, 0])
            bucket[0] += 1
            if committed_at == committed_at:
                bucket[1] += 1
        windows = [{"start": index * window, "injected": count,
                    "committed": done,
                    "availability": (done / count) if count else None}
                   for index, (count, done) in sorted(buckets.items())]

        # Commit latency inside vs outside active fault windows.
        during: list[float] = []
        outside: list[float] = []
        for injected_at, committed_at in zip(injected, committed):
            latency = committed_at - injected_at
            if latency != latency:
                continue
            if any(start <= injected_at < end for start, end in intervals):
                during.append(latency)
            else:
                outside.append(latency)

        def mean(values: list[float]) -> float | None:
            return sum(values) / len(values) if values else None

        # Recovery: time from each fault's end to the first commit observed
        # at or after it (None when nothing committed afterwards).
        recovery = []
        for entry in self.applied:
            end = entry.get("until")
            if end is None:
                continue
            index = bisect_left(commit_times, end)
            first = commit_times[index] if index < len(commit_times) else None
            recovery.append({
                "kind": entry["kind"], "healed_at": end,
                "first_commit_after": first,
                "recovery_s": None if first is None else first - end,
            })

        report = {
            "schedule_events": len(self.schedule.events),
            "events": [dict(entry) for entry in self.applied],
            "messages_dropped": network.messages_dropped,
            "messages_duplicated": network.messages_duplicated,
            "rejected_while_crashed": sum(
                getattr(server, "crashed_rejects", 0)
                for server in deployment.servers),
            "availability": {"window_s": window, "windows": windows},
            "commit_latency_s": {"during_faults": mean(during),
                                 "fault_free": mean(outside)},
            "recovery": recovery,
        }
        if self._byzantine_servers:
            # Only schedules that actually turned a server Byzantine grow
            # this block, so crash-only artifacts keep the PR 4 schema.
            report["byzantine"] = {
                "servers": sorted(self._byzantine_servers),
                "counters": dict(sorted(metrics.byzantine_counters.items())),
                "by_server": {
                    name: dict(sorted(counters.items()))
                    for name, counters
                    in sorted(metrics.byzantine_by_server.items())},
            }
        return report
