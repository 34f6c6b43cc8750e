"""Per-layer tracing of the ``repro`` package, from the benchmark's side.

:func:`install` wraps the public entry points of each layer module (and the
callbacks through which the event loop enters a layer) with spans of a
:class:`~tracer.SpanTracer`.  :func:`layer_metrics` turns the span totals,
plus state read from the finished deployment, into the per-layer metrics
named in ``BENCHMARK.json``.  Nothing under ``src/`` knows about any of this.

Which end-to-end metric each layer metric should move (the bypass workload,
in brackets, should show no change):

* ``workload.*``, ``analysis.*``, ``gc.*``, ``crypto.hash.*`` -> ``el_per_wall_s``
  and ``peak_rss_mb`` on hashchain-bulk [compresschain-signed-crash, whose
  30k elements take about a tenth of its wall time];
* ``sim.*``, ``net.*``, ``ledger.self_s``, ``residual.self_s`` ->
  ``el_per_wall_s`` by at most their share of wall time, under a tenth on
  every workload; most on compresschain-signed-crash, the 10-server
  cluster with the most events [hashchain-bulk];
* ``ledger.mempool_wait_p50_s``, ``ledger.txs_per_block`` -> ``commit_p50_s``
  on compresschain-signed-crash and hashchain-bulk (CometBFT ledgers);
* ``crypto.sign.*``, ``crypto.verify.*``, ``crypto.verify_per_epoch`` ->
  ``el_per_wall_s`` on compresschain-signed-crash [hashchain-bulk, which uses
  simulated signatures];
* ``core.catchup_sim_s`` -> ``commit_p99_s`` and ``committed_frac`` on
  compresschain-signed-crash;
* ``core.backlog_max``, ``core.finalize.self_s``, ``core.reversal_success_frac``
  -> ``goodput_el_per_sim_s``, ``committed_frac`` and ``commit_p50_s`` on
  hashchain-overload.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from tracer import SpanTracer

#: Simulated seconds between backlog / catch-up samples in a traced run.
SAMPLE_STEP = 0.1


def _one(args: tuple, result: Any) -> int:
    return 1


def _install_classes(tracer: SpanTracer) -> None:
    from repro.analysis.metrics import MetricsCollector
    from repro.compressor.base import Compressor
    from repro.compressor.model import ModelCompressor
    from repro.compressor.zlib_compressor import ZlibCompressor
    from repro.core.base import BaseSetchainServer
    from repro.crypto.signatures import Ed25519Scheme, SignatureScheme, SimulatedScheme
    from repro.ledger.cometbft.engine import CometBFTNode
    from repro.ledger.ideal import IdealLedger, IdealLedgerHandle
    from repro.net.network import Network
    from repro.sim.scheduler import Simulator
    from repro.workload.clients import InjectionClient
    from repro.workload.generator import ArbitrumLikeGenerator

    method = tracer.wrap_method
    for name in ("call_at", "call_in", "call_soon",
                 "call_at_storm", "call_in_storm", "call_soon_storm"):
        method(Simulator, name, "sim.schedule")

    method(Network, "transmit", "net.send", _one)
    method(Network, "multicast", "net.send", lambda args, sent: sent)
    method(Network, "_deliver_batch", "net.deliver")

    # Ledger: appends, consensus traffic and timers, block production.  The
    # applications a block is handed to run as core spans inside these.
    method(CometBFTNode, "append", "ledger.append")
    method(CometBFTNode, "deliver", "ledger.consensus")
    method(CometBFTNode, "_maybe_propose", "ledger.consensus")
    method(CometBFTNode, "_on_round_timeout", "ledger.consensus")
    method(IdealLedgerHandle, "append", "ledger.append")
    method(IdealLedger, "_produce_block", "ledger.consensus")

    method(BaseSetchainServer, "add", "core.add")
    method(BaseSetchainServer, "add_many", "core.add")
    method(BaseSetchainServer, "deliver", "core.deliver")
    method(BaseSetchainServer, "finalize_block", "core.finalize")
    method(BaseSetchainServer, "_pipeline_step", "core.finalize")

    # sign/verify are defined on the base class and overridden per scheme.
    for cls in (SignatureScheme, Ed25519Scheme, SimulatedScheme):
        own = vars(cls)
        if "sign" in own:
            method(cls, "sign", "crypto.sign", _one)
        if "sign_many" in own:
            method(cls, "sign_many", "crypto.sign",
                   lambda args, result: len(args[2]))
    method(SignatureScheme, "verify", "crypto.verify", _one)
    method(SignatureScheme, "verify_many", "crypto.verify",
           lambda args, result: len(args[1]))

    method(ModelCompressor, "compress", "compressor")
    method(ZlibCompressor, "compress", "compressor")
    method(Compressor, "decompress", "compressor")

    method(InjectionClient, "_on_tick", "workload.inject")
    method(ArbitrumLikeGenerator, "batch", "workload.generate",
           lambda args, elements: len(elements))

    for name in sorted(vars(MetricsCollector)):
        if name.startswith("record_"):
            method(MetricsCollector, name, "analysis.record")
    method(MetricsCollector, "commit_times", "analysis.report")
    method(MetricsCollector, "commit_latencies", "analysis.report")


def _install_functions(tracer: SpanTracer) -> None:
    import repro.analysis.committime as committime
    import repro.analysis.efficiency as efficiency
    import repro.analysis.throughput as throughput
    import repro.crypto.hashing as hashing
    import repro.experiments.runner as runner

    function = tracer.wrap_function
    for name in ("sha512_hex", "hash_bytes", "hash_batch", "hash_epoch"):
        function(hashing, name, "crypto.hash")
    for module, name in ((throughput, "rolling_throughput"),
                         (throughput, "average_throughput"),
                         (efficiency, "efficiency_profile"),
                         (committime, "commit_time_quantiles"),
                         (runner, "package_result")):
        function(module, name, "analysis.report")


def install(tracer: SpanTracer) -> None:
    """Wrap every layer entry point and start recording GC pauses.

    Must run after ``repro`` is imported and before the deployment is built:
    several components bind methods (timer callbacks, batched adds) at
    construction time.
    """
    import repro.api  # noqa: F401  (loads every module that imports by name)
    _install_classes(tracer)
    _install_functions(tracer)
    tracer.install_gc()


class Sampler:
    """Reads core backlog and crash catch-up between fixed simulated steps."""

    def __init__(self) -> None:
        self.backlog_max = 0
        self.catchup_sim_s = 0.0
        self._crashed: dict[str, bool] = {}
        #: server name -> simulated time it was seen recovered.
        self._recovering: dict[str, float] = {}

    def __call__(self, deployment: Any) -> None:
        now = deployment.sim.now
        servers = deployment.servers
        self.backlog_max = max(self.backlog_max,
                               max(server.backlog for server in servers))
        for server in servers:
            if self._crashed.get(server.name) and not server.crashed:
                self._recovering[server.name] = now
            self._crashed[server.name] = server.crashed
        for server in servers:
            since = self._recovering.get(server.name)
            if since is None:
                continue
            peers = [peer.epoch for peer in servers
                     if peer is not server and not peer.crashed]
            if not peers or server.epoch >= min(peers):
                del self._recovering[server.name]
                self.catchup_sim_s = max(self.catchup_sim_s, now - since)

    def finish(self, now: float) -> None:
        """A server still catching up at the end counts up to the end."""
        for since in self._recovering.values():
            self.catchup_sim_s = max(self.catchup_sim_s, now - since)
        self._recovering.clear()


def run_sampled(deployment: Any, sample: Callable[[Any], None]) -> None:
    """``deployment.run()`` in :data:`SAMPLE_STEP` slices, sampling between.

    Slicing only changes where ``run_until`` returns; no event is added, so
    the simulation is the same as one ``run()`` call (the benchmark checks
    this by comparing outputs with the untraced run).
    """
    horizon = deployment.config.total_duration
    step = 0
    while deployment.sim.now < horizon:
        step += 1
        deployment.run(until=min(step * SAMPLE_STEP, horizon))
        sample(deployment)


def _ledger_chain(backend: Any) -> list:
    """The committed block chain (the longest one for a validator network)."""
    blocks = getattr(backend, "blocks", None)
    if blocks is not None:
        return list(blocks)
    return max((node.committed_blocks for node in backend.nodes.values()),
               key=len)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: SpanTracer, deployment: Any, sampler: Sampler,
                  wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but ``trace.overhead``)."""
    stats = tracer.stats

    def self_s(*labels: str) -> float:
        return sum(stats[label].self_s for label in labels if label in stats)

    def calls(label: str) -> int:
        return stats[label].calls if label in stats else 0

    def items(label: str) -> int:
        return stats[label].items if label in stats else 0

    metrics = deployment.metrics
    injected = len(deployment.injected_elements)
    epochs = len(metrics.epoch_commit_times)
    chain = _ledger_chain(deployment.ledger_backend)
    txs = sum(len(block.transactions) for block in chain)
    waits = [block.timestamp - tx.created_at
             for block in chain for tx in block.transactions]
    reversals = metrics.hash_reversal_success + metrics.hash_reversal_failure
    return {
        "sim.events": deployment.sim.events_executed,
        "sim.schedule.calls": calls("sim.schedule"),
        "sim.schedule.self_s": self_s("sim.schedule"),
        "net.sends": items("net.send"),
        "net.sends_per_el": _ratio(items("net.send"), injected),
        "net.self_s": self_s("net.send", "net.deliver"),
        "ledger.txs": txs,
        "ledger.blocks": len(chain),
        "ledger.txs_per_block": _ratio(txs, len(chain)),
        "ledger.self_s": self_s("ledger.append", "ledger.consensus"),
        "ledger.mempool_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "core.add.self_s": self_s("core.add"),
        "core.finalize.self_s": self_s("core.finalize"),
        "core.deliver.self_s": self_s("core.deliver"),
        "core.epochs": epochs,
        "core.el_per_epoch": _ratio(metrics.committed_count, epochs),
        "core.backlog_max": sampler.backlog_max,
        # No reversal attempted wastes none: report the vacuous 1.0.
        "core.reversal_success_frac": (
            _ratio(metrics.hash_reversal_success, reversals) if reversals else 1.0),
        "core.catchup_sim_s": sampler.catchup_sim_s,
        "crypto.sign.items": items("crypto.sign"),
        "crypto.verify.items": items("crypto.verify"),
        "crypto.sign.self_s": self_s("crypto.sign"),
        "crypto.verify.self_s": self_s("crypto.verify"),
        "crypto.hash.calls": calls("crypto.hash"),
        "crypto.hash.self_s": self_s("crypto.hash"),
        "crypto.verify_per_epoch": _ratio(items("crypto.verify"), epochs),
        "compressor.calls": calls("compressor"),
        "compressor.self_s": self_s("compressor"),
        "workload.elements": items("workload.generate"),
        "workload.self_s": self_s("workload.inject", "workload.generate"),
        "analysis.record.calls": calls("analysis.record"),
        "analysis.record.self_s": self_s("analysis.record"),
        "analysis.report.self_s": self_s("analysis.report"),
        "gc.collections": calls("gc"),
        "gc.pause_s": self_s("gc"),
        "residual.self_s": wall_s - tracer.total_self_s(),
    }
