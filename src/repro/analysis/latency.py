"""Latency CDFs to the five processing stages of Fig. 4.

For every element the paper measures the time from client injection until the
element reaches:

1. the first CometBFT mempool,
2. f+1 CometBFT mempools,
3. all CometBFT mempools,
4. the ledger (inclusion in a finalized block),
5. commit (f+1 epoch-proofs of its epoch in the ledger).

Stages 1-3 are reconstructed post-run from the mempool arrival tables of the
ledger nodes plus the tx→elements mapping recorded at append time; stages 4-5
come directly from the element lifecycle records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .metrics import MetricsCollector

STAGES = ("first_mempool", "quorum_mempools", "all_mempools", "ledger", "committed")


@dataclass(frozen=True)
class LatencyCDF:
    """Empirical CDF of one stage's latencies."""

    stage: str
    latencies: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.latencies)

    def fraction_below(self, threshold: float) -> float:
        """F(threshold): fraction of observed latencies at or below ``threshold``."""
        if not self.latencies:
            return 0.0
        return sum(1 for v in self.latencies if v <= threshold) / len(self.latencies)

    def quantile(self, q: float) -> float:
        """The q-quantile latency (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if not self.latencies:
            return float("nan")
        return float(np.quantile(np.asarray(self.latencies), q))

    def curve(self, points: int = 100) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(x, F(x)) samples of the CDF, suitable for plotting or tabulation."""
        if not self.latencies:
            return (), ()
        values = np.sort(np.asarray(self.latencies))
        xs = np.linspace(0.0, float(values[-1]), points)
        fs = np.searchsorted(values, xs, side="right") / len(values)
        return tuple(float(x) for x in xs), tuple(float(f) for f in fs)


def _mempool_stage_times(metrics: MetricsCollector,
                         mempool_arrivals: Sequence[dict[int, float]],
                         quorum: int) -> dict[int, tuple[float | None, float | None, float | None]]:
    """Per-element (first, quorum-th, all) mempool arrival times."""
    element_arrivals: dict[int, list[float]] = {}
    for arrivals in mempool_arrivals:
        for tx_id, time in arrivals.items():
            for element_id in metrics.tx_elements.get(tx_id, ()):
                element_arrivals.setdefault(element_id, []).append(time)
    n_mempools = len(mempool_arrivals)
    stages: dict[int, tuple[float | None, float | None, float | None]] = {}
    for element_id, times in element_arrivals.items():
        times.sort()
        first = times[0]
        quorum_time = times[quorum - 1] if len(times) >= quorum else None
        all_time = times[-1] if len(times) >= n_mempools else None
        stages[element_id] = (first, quorum_time, all_time)
    return stages


def stage_latencies(metrics: MetricsCollector,
                    mempool_arrivals: Sequence[dict[int, float]] | None = None,
                    quorum: int = 1) -> dict[str, LatencyCDF]:
    """Latency CDFs for every stage that can be computed from the inputs.

    ``mempool_arrivals`` is the list of per-ledger-node ``{tx_id: arrival_time}``
    tables (``Mempool.arrival_times``); when omitted, only the ledger and
    commit stages are produced (e.g. for ideal-ledger runs).
    """
    ledger_latencies: list[float] = []
    commit_latencies: list[float] = []
    first_latencies: list[float] = []
    quorum_latencies: list[float] = []
    all_latencies: list[float] = []

    mempool_stages = ( _mempool_stage_times(metrics, mempool_arrivals, quorum)
                       if mempool_arrivals else {})

    # NaN marks an unobserved stage (``x != x``).
    for element_id, (start, in_ledger, committed) in enumerate(zip(
            metrics.column("injected_at"), metrics.column("in_ledger_at"),
            metrics.column("committed_at")), metrics.first_id):
        if start != start:
            continue
        if in_ledger == in_ledger:
            ledger_latencies.append(in_ledger - start)
        if committed == committed:
            commit_latencies.append(committed - start)
        stage = mempool_stages.get(element_id)
        if stage is not None:
            first, quorum_time, all_time = stage
            if first is not None:
                first_latencies.append(first - start)
            if quorum_time is not None:
                quorum_latencies.append(quorum_time - start)
            if all_time is not None:
                all_latencies.append(all_time - start)

    result = {
        "ledger": LatencyCDF("ledger", tuple(sorted(ledger_latencies))),
        "committed": LatencyCDF("committed", tuple(sorted(commit_latencies))),
    }
    if mempool_arrivals:
        result["first_mempool"] = LatencyCDF("first_mempool", tuple(sorted(first_latencies)))
        result["quorum_mempools"] = LatencyCDF("quorum_mempools", tuple(sorted(quorum_latencies)))
        result["all_mempools"] = LatencyCDF("all_mempools", tuple(sorted(all_latencies)))
    return result


def latency_cdf(latencies: Sequence[float], stage: str = "committed") -> LatencyCDF:
    """Build a :class:`LatencyCDF` directly from raw latencies."""
    return LatencyCDF(stage, tuple(sorted(float(v) for v in latencies)))
