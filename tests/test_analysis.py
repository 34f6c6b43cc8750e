"""Tests for the analysis layer: metrics, analytical model, throughput,
efficiency, latency CDFs, commit times, and report rendering."""

import pytest

from repro.analysis.analytical import (
    AnalyticalParameters,
    blocksize_sweep,
    compresschain_throughput,
    hashchain_throughput,
    paper_analysis_parameters,
    throughput_for,
    vanilla_throughput,
)
from repro.analysis.committime import commit_time_quantiles
from repro.analysis.efficiency import efficiency_at, efficiency_profile
from repro.analysis.latency import latency_cdf, stage_latencies
from repro.analysis.metrics import ElementRecord, MetricsCollector
from repro.analysis.report import render_series, render_table
from repro.analysis.throughput import (
    ThroughputSeries,
    average_throughput,
    instantaneous_throughput,
    rolling_throughput,
)
from repro.errors import ConfigurationError
from repro.workload.elements import Element, make_element


# -- analytical model (Appendix D.1) ------------------------------------------------------

def test_appendix_d1_values_are_reproduced():
    assert vanilla_throughput(paper_analysis_parameters(500)) == pytest.approx(955, rel=0.02)
    assert compresschain_throughput(paper_analysis_parameters(100)) == pytest.approx(2497, rel=0.02)
    assert compresschain_throughput(paper_analysis_parameters(500)) == pytest.approx(3330, rel=0.02)
    assert hashchain_throughput(paper_analysis_parameters(100)) == pytest.approx(27_157, rel=0.02)
    assert hashchain_throughput(paper_analysis_parameters(500)) == pytest.approx(147_857, rel=0.02)


def test_paper_throughput_ratios_hold():
    p500 = paper_analysis_parameters(500)
    assert hashchain_throughput(p500) / vanilla_throughput(p500) == pytest.approx(155, rel=0.03)
    assert (hashchain_throughput(p500) / compresschain_throughput(p500)
            == pytest.approx(44, rel=0.05))


def test_blocksize_sweep_reproduces_fig2_right_shape():
    sizes = [0.5e6, 4e6, 128e6]
    hashchain = blocksize_sweep("hashchain", sizes)
    vanilla = blocksize_sweep("vanilla", sizes)
    assert all(a < b for a, b in zip(hashchain, hashchain[1:]))  # monotone in C
    # Paper: ~10^6 el/s at 4 MB and >3x10^7 el/s at 128 MB for Hashchain.
    assert hashchain[1] == pytest.approx(1.18e6, rel=0.05)
    assert hashchain[2] > 3e7
    assert all(h > v for h, v in zip(hashchain, vanilla))


def test_throughput_for_dispatch_and_validation():
    params = paper_analysis_parameters(500)
    assert throughput_for("hashchain-light", params) == hashchain_throughput(params)
    with pytest.raises(ConfigurationError):
        throughput_for("bitcoin", params)
    with pytest.raises(ConfigurationError):
        AnalyticalParameters(collector_size=5, n_servers=10)


def test_analytical_edge_cases():
    tiny = AnalyticalParameters(block_size_bytes=100, collector_size=500)
    assert vanilla_throughput(tiny) == 0.0  # proofs alone exceed the block


# -- metrics ------------------------------------------------------------------------------

def build_metrics(commits):
    metrics = MetricsCollector()
    for i, (injected, committed) in enumerate(commits):
        element = make_element("c", 100)
        metrics.record_injected(element, injected)
        metrics.record_added(element, "server-0", injected)
        metrics.record_epoch_assigned(element.element_id, 1, committed - 0.5)
        metrics.record_epoch_committed(1, [element], committed)
    return metrics


def test_metrics_first_observation_wins():
    metrics = MetricsCollector()
    element = make_element("c", 100)
    metrics.record_injected(element, 1.0)
    metrics.record_injected(element, 5.0)
    metrics.record_in_ledger(element.element_id, 3.0)
    metrics.record_in_ledger(element.element_id, 9.0)
    metrics.record_epoch_committed(1, [element], 4.0)
    metrics.record_epoch_committed(1, [element], 8.0)
    record = metrics.elements[element.element_id]
    assert record.injected_at == 1.0
    assert record.in_ledger_at == 3.0
    assert record.committed_at == 4.0
    assert record.commit_latency() == pytest.approx(3.0)
    assert metrics.epoch_commit_times[1] == 4.0


def test_metrics_hash_mapping_resolves_elements():
    metrics = MetricsCollector()
    element = make_element("c", 100)
    metrics.record_injected(element, 0.0)
    metrics.record_batch_hash_elements("deadbeef", [element.element_id])
    metrics.record_in_ledger_by_hash("deadbeef", 2.0)
    assert metrics.elements[element.element_id].in_ledger_at == 2.0


def test_metrics_counts_and_ordering():
    metrics = build_metrics([(0.0, 2.0), (1.0, 3.0), (2.0, 10.0)])
    assert metrics.injected_count == 3
    assert metrics.committed_count == 3
    assert metrics.commit_times() == [2.0, 3.0, 10.0]
    assert metrics.commit_latencies() == [2.0, 2.0, 8.0]
    records = metrics.records()
    assert [r.injected_at for r in records] == [0.0, 1.0, 2.0]


# -- lifecycle columns -------------------------------------------------------------------

def _element(element_id, size=100):
    return Element(element_id, "c", size, f"d{element_id}")


def test_columns_keep_each_stages_first_observation():
    metrics = MetricsCollector()
    a, b = _element(10), _element(11, size=7)
    metrics.record_injected_many([a, b], 1.0)
    metrics.record_injected_many([a], 9.0)
    metrics.record_added_many([b], "server-0", 2.0)
    metrics.record_added(b, "server-1", 3.0)
    metrics.record_in_ledger_many([10, 11], 4.0)
    metrics.record_in_ledger(11, 8.0)
    metrics.record_epoch_assigned_many([10, 11], 1, 5.0)
    metrics.record_epoch_assigned(11, 2, 6.0)
    metrics.record_epoch_committed(1, [a, b], 7.0)
    metrics.record_epoch_committed(2, [b], 8.0)
    assert metrics.elements[11] == ElementRecord(
        element_id=11, size_bytes=7, injected_at=1.0, added_at=2.0,
        in_ledger_at=4.0, epoch_number=1, epoch_assigned_at=5.0,
        committed_at=7.0)
    assert metrics.injected_count == 2 and metrics.committed_count == 2
    column = metrics.column("committed_at")
    assert column[:2].tolist() == [7.0, 7.0]
    assert all(t != t for t in column[2:])  # headroom rows are unset
    with pytest.raises(KeyError):
        metrics.column("size_bytes")


def test_duplicate_id_in_one_batch_counts_once():
    metrics = MetricsCollector()
    a = _element(3)
    metrics.record_injected_many([a, a, a], 1.0)
    metrics.record_added_many([a, a], "server-0", 1.5)
    metrics.record_epoch_committed(1, [a, a], 2.0)
    assert metrics.injected_count == 1
    assert metrics.committed_count == 1
    assert metrics.commit_times() == [2.0]
    assert len(metrics.elements) == 1


def test_lower_id_rebases_the_columns_without_loss():
    metrics = MetricsCollector()
    high = [_element(i) for i in range(1000, 1100)]
    metrics.record_injected_many(high, 1.0)
    metrics.record_epoch_committed(1, high[:50], 3.0)
    low = [_element(i) for i in (5, 2)]
    metrics.record_injected_many(low, 2.0)
    metrics.record_in_ledger(0, 4.0)
    assert metrics.first_id <= 0
    assert list(metrics.elements) == [0, 2, 5] + list(range(1000, 1100))
    assert metrics.elements[1000].committed_at == 3.0
    assert metrics.elements[1099].committed_at is None
    assert metrics.elements[5].injected_at == 2.0
    assert metrics.elements[0] == ElementRecord(element_id=0, in_ledger_at=4.0)
    assert 1 not in metrics.elements and 1100 not in metrics.elements
    assert metrics.commit_latencies() == [2.0] * 50
    assert metrics.injected_count == 102


def test_region_and_shard_tallies():
    metrics = MetricsCollector()
    metrics.set_region_map({"server-0": "eu", "server-1": "us", "server-2": "us"})
    metrics.set_shard_map({"server-0": 0, "server-1": 0, "server-2": 1})
    elements = [_element(i) for i in range(6)]
    metrics.record_added_many(elements[:4], "server-0", 1.0)
    metrics.record_added_many(elements[2:], "server-1", 1.5)
    metrics.record_added(elements[5], "server-2", 1.7)
    metrics.record_epoch_committed(1, elements[:3], 5.0, observer="server-1")
    metrics.record_epoch_committed(1, elements[:5], 6.0, observer="server-2")
    metrics.record_epoch_committed(2, elements[5:], 7.0, observer="server-0")
    assert metrics.region_added == {"eu": 4, "us": 2}
    assert metrics.shard_added == {0: 6, 1: 0}
    assert metrics.region_committed == {"eu": 1, "us": 5}
    assert metrics.region_first_commit == {"us": 5.0, "eu": 7.0}
    assert metrics.shard_committed == {0: 4, 1: 2}
    assert metrics.shard_commit_times == {0: [5.0, 5.0, 5.0, 7.0], 1: [6.0, 6.0]}
    assert metrics.region_summary()["us"] == {
        "servers": 2, "added": 2, "committed": 5, "first_commit": 5.0}


def test_elements_view_and_records_read_back_the_columns():
    metrics = MetricsCollector()
    early, late, lost = _element(20, 5), _element(21, 6), _element(22, 8)
    metrics.record_injected_many([late], 2.0)
    metrics.record_injected(early, 1.0)
    metrics.record_added_many([early, late, lost], "server-0", 2.5)
    metrics.record_epoch_assigned_many([20], 4, 3.0)
    metrics.record_epoch_committed(4, [early], 3.5)
    assert metrics.records() == [
        ElementRecord(element_id=20, size_bytes=5, injected_at=1.0,
                      added_at=2.5, epoch_number=4, epoch_assigned_at=3.0,
                      committed_at=3.5),
        ElementRecord(element_id=21, size_bytes=6, injected_at=2.0,
                      added_at=2.5),
        ElementRecord(element_id=22, size_bytes=8, added_at=2.5),
    ]
    assert dict(metrics.elements.items()) == {
        r.element_id: r for r in metrics.records()}
    assert metrics.elements.get(99) is None
    assert metrics.elements[20].commit_latency() == pytest.approx(2.5)


def test_epoch_memo_stamps_one_set_once_and_lets_equivocation_through():
    metrics = MetricsCollector()
    a, b, c = _element(1), _element(2), _element(3)
    metrics.record_epoch_assigned_many([1, 2], 1, 1.0, "h1")
    metrics.record_epoch_assigned_many([1, 2], 1, 2.0, "h1")
    assert metrics._epoch_assigned_done == {(1, "h1")}
    # Equivocation: another set under the same epoch number has its own hash.
    metrics.record_epoch_assigned_many([3], 1, 2.5, "h1-forged")
    assert metrics.elements[3].epoch_assigned_at == 2.5
    metrics.record_epoch_committed(1, [a, b], 3.0, observer="server-0",
                                   epoch_hash="h1")
    # The same (epoch, hash) from another observer skips the element pass...
    metrics.record_epoch_committed(1, [a, b, c], 4.0, observer="server-1",
                                   epoch_hash="h1")
    assert metrics.elements[3].committed_at is None
    # ... while a different hash for the same epoch is stamped.
    metrics.record_epoch_committed(1, [c], 5.0, observer="server-2",
                                   epoch_hash="h1-forged")
    assert [metrics.elements[i].committed_at for i in (1, 2, 3)] == [3.0, 3.0, 5.0]
    assert metrics.committed_count == 3
    assert metrics.epoch_commit_times == {1: 3.0}


# -- throughput ---------------------------------------------------------------------------

def test_rolling_throughput_uses_window_average():
    commits = [float(t) for t in range(1, 91)]  # 1 el/s for 90 s
    series = rolling_throughput(commits, window=9.0, step=1.0)
    assert series.values[20] == pytest.approx(1.0)
    assert series.at(50.0) == pytest.approx(1.0)
    assert series.peak() == pytest.approx(1.0)


def test_rolling_throughput_empty_and_validation():
    assert rolling_throughput([]).times == ()
    with pytest.raises(ConfigurationError):
        rolling_throughput([1.0], window=0)
    with pytest.raises(ConfigurationError):
        ThroughputSeries(times=(1.0,), values=())


def test_average_and_instantaneous_throughput():
    commits = [0.5 + i * 0.1 for i in range(100)]  # 100 commits in ~10 s
    assert average_throughput(commits, up_to=50.0) == pytest.approx(2.0)
    assert average_throughput(commits, up_to=10.0) == pytest.approx(9.5, rel=0.1)
    series = instantaneous_throughput(commits, bin_width=1.0)
    assert sum(series.values) == pytest.approx(100.0)
    with pytest.raises(ConfigurationError):
        average_throughput(commits, up_to=0)


# -- efficiency ---------------------------------------------------------------------------

def test_efficiency_profile_matches_paper_semantics():
    metrics = build_metrics([(1.0, 40.0), (2.0, 60.0), (3.0, 90.0), (4.0, 120.0)])
    assert efficiency_at(metrics, 50.0) == pytest.approx(0.25)
    profile = efficiency_profile(metrics, label="x")
    assert profile.at_50 == pytest.approx(0.25)
    assert profile.at_75 == pytest.approx(0.5)
    assert profile.at_100 == pytest.approx(0.75)
    assert not profile.fully_efficient
    assert profile.as_dict() == {"50s": 0.25, "75s": 0.5, "100s": 0.75}


def test_efficiency_uses_total_added_override():
    metrics = build_metrics([(1.0, 10.0)])
    assert efficiency_at(metrics, 50.0, total_added=4) == pytest.approx(0.25)
    assert efficiency_at(MetricsCollector(), 50.0) == 0.0


# -- latency ------------------------------------------------------------------------------

def test_latency_cdf_quantiles_and_fractions():
    cdf = latency_cdf([1.0, 2.0, 3.0, 4.0])
    assert cdf.count == 4
    assert cdf.fraction_below(2.0) == pytest.approx(0.5)
    assert cdf.fraction_below(10.0) == 1.0
    assert cdf.quantile(0.5) == pytest.approx(2.5)
    xs, fs = cdf.curve(points=10)
    assert len(xs) == 10 and fs[-1] == 1.0
    with pytest.raises(ConfigurationError):
        cdf.quantile(2.0)


def test_stage_latencies_reconstructs_mempool_stages():
    metrics = MetricsCollector()
    element = make_element("c", 100)
    metrics.record_injected(element, 0.0)
    metrics.record_tx_elements(42, [element.element_id])
    metrics.record_in_ledger(element.element_id, 3.0)
    metrics.record_epoch_committed(1, [element], 5.0)
    arrivals = [{42: 1.0}, {42: 1.5}, {42: 2.0}]  # three mempools
    stages = stage_latencies(metrics, arrivals, quorum=2)
    assert stages["first_mempool"].latencies == (1.0,)
    assert stages["quorum_mempools"].latencies == (1.5,)
    assert stages["all_mempools"].latencies == (2.0,)
    assert stages["ledger"].latencies == (3.0,)
    assert stages["committed"].latencies == (5.0,)
    # Without arrival tables only the last two stages exist.
    assert set(stage_latencies(metrics)) == {"ledger", "committed"}


# -- commit times -------------------------------------------------------------------------

def test_commit_time_quantiles():
    metrics = build_metrics([(0.0, t) for t in (5.0, 10.0, 20.0, 40.0, 80.0,
                                                81.0, 82.0, 83.0, 84.0, 85.0)])
    summary = commit_time_quantiles(metrics)
    assert summary.first_element == 5.0
    assert summary.time_for(0.1) == 5.0
    assert summary.time_for(0.5) == 80.0
    assert summary.reached_half
    partial = commit_time_quantiles(metrics, total_added=100)
    assert partial.time_for(0.5) is None
    with pytest.raises(ConfigurationError):
        commit_time_quantiles(metrics, fractions=(0.0,))


# -- report rendering ----------------------------------------------------------------------

def test_render_table_and_series():
    table = render_table(["a", "b"], [[1, 2.5], ["x", 10_000.0]], title="T")
    assert "T" in table and "10,000" in table and "2.5" in table
    series = {"hashchain": rolling_throughput([float(i) for i in range(1, 60)])}
    text = render_series(series, sample_every=10.0)
    assert "hashchain" in text and "10" in text
    assert render_table(["only"], [])
