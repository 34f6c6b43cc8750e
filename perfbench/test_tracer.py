"""Tests for the benchmark's outside-in tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from rep import sim_outputs  # noqa: E402
from tracer import SpanTracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Box:
    def value(self, x):
        return {"got": x}

    def fail(self):
        raise KeyError("boom")


class SubBox(Box):
    pass


def test_wrappers_pass_through_return_values_and_exceptions():
    tracer = SpanTracer()
    tracer.wrap_method(Box, "value", "box")
    tracer.wrap_method(Box, "fail", "box")
    try:
        payload = Box().value([1, 2])
        assert payload == {"got": [1, 2]}
        with pytest.raises(KeyError, match="boom"):
            Box().fail()
        assert tracer.stats["box"].calls == 2
        assert tracer.stats["box"].depth == 0
        assert tracer._stack == []
    finally:
        tracer.uninstall()
    assert Box.value.__qualname__ == "Box.value"
    assert Box().value(3) == {"got": 3}


def test_inherited_method_is_shadowed_and_restored():
    tracer = SpanTracer()
    tracer.wrap_method(SubBox, "value", "sub")
    assert "value" in vars(SubBox)
    Box().value(1)
    SubBox().value(1)
    tracer.uninstall()
    assert "value" not in vars(SubBox)
    assert tracer.stats["sub"].calls == 1


def test_self_times_nest_exactly():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        leaf_span()
        clock.now += 1.0

    def outer():
        clock.now += 0.5
        inner_span()
        inner_span()
        clock.now += 0.5

    leaf_span = tracer.span("leaf", leaf)
    inner_span = tracer.span("inner", inner)
    tracer.span("outer", outer)()
    assert tracer.stats["leaf"].self_s == 4.0
    assert tracer.stats["inner"].self_s == 4.0
    assert tracer.stats["outer"].self_s == 1.0
    assert tracer.total_self_s() == clock.now


def test_reentered_label_counts_calls_and_items_once():
    tracer = SpanTracer()

    def many(items):
        return [one(item) for item in items]

    one = tracer.span("op", lambda item: item, lambda args, result: 1)
    many_span = tracer.span("op", many, lambda args, result: len(args[0]))
    many_span([1, 2, 3])
    assert tracer.stats["op"].calls == 1
    assert tracer.stats["op"].items == 3


def test_self_time_sum_stays_within_wall_time_with_gc_spans():
    tracer = SpanTracer()
    tracer.install_gc()

    def work():
        junk = [[i] for i in range(20_000)]
        gc.collect()
        return len(junk)

    def outer():
        return sum(span() for _ in range(3))

    span = tracer.span("work", work)
    start = time.perf_counter()
    try:
        tracer.span("outer", outer)()
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    assert tracer.stats["gc"].calls >= 3
    assert tracer.stats["gc"].self_s > 0.0
    assert 0.0 < tracer.total_self_s() <= wall
    assert gc.callbacks.count(tracer._gc_callback) == 0


def test_module_functions_are_rebound_where_imported_by_name():
    import repro.core.byzantine as byzantine
    import repro.core.hashchain as hashchain
    import repro.core.validation as validation
    import repro.crypto.hashing as hashing

    original = hashing.hash_batch
    holders = (hashing, hashchain, validation, byzantine)
    assert all(module.hash_batch is original for module in holders)
    tracer = SpanTracer()
    tracer.wrap_function(hashing, "hash_batch", "crypto.hash")
    try:
        wrapper = hashing.hash_batch
        assert wrapper is not original
        assert all(module.hash_batch is wrapper for module in holders)
        assert validation.batch_matches_hash([b"a"], original([b"a"]))
        assert tracer.stats["crypto.hash"].calls == 1
    finally:
        tracer.uninstall()
    assert all(module.hash_batch is original for module in holders)


def test_traced_run_matches_untraced_run():
    from repro import Scenario
    from repro.core.deployment import build_deployment
    from repro.experiments import runner

    config = (Scenario.hashchain().servers(3).rate(300).collector(20)
              .backend("ideal").inject_for(2).drain(3).seed(5).build())
    plain = build_deployment(config, seed=5)
    plain.start()
    plain.run()
    runner.package_result(plain)

    tracer = SpanTracer()
    layers.install(tracer)
    try:
        traced = build_deployment(config, seed=5)
        sampler = layers.Sampler()
        start = time.perf_counter()
        traced.start()
        layers.run_sampled(traced, tracer.span("trace.sample", sampler))
        runner.package_result(traced)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert sim_outputs(traced) == sim_outputs(plain)
    metrics = layers.layer_metrics(tracer, traced, sampler, wall)
    assert metrics["workload.elements"] == len(traced.injected_elements) == 600
    assert metrics["sim.events"] == plain.sim.events_executed
    assert metrics["crypto.hash.calls"] > 0
    assert metrics["residual.self_s"] >= 0.0
