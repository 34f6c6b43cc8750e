"""One benchmark repetition in a fresh process; prints one JSON line.

Modes:

* ``setup``    -- imports + config build + ``build_deployment``, then exit;
* ``untraced`` -- set-up, then the timed run ``start`` -> ``run`` ->
  ``package_result`` with GC at interpreter defaults, as ``repro run`` does;
* ``traced``   -- the same run with every layer entry point wrapped
  (:mod:`layers`); reports per-layer metrics instead of set-up time.

After the timed region, ``--check safety`` checks the safety properties and
``--check full`` Properties 1-8 including liveness.  Every run mode reports
a digest of its simulated-time outputs, which must not differ between
repetitions of one seed, traced or not.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def sim_outputs(deployment) -> dict:  # type: ignore[no-untyped-def]
    """The run's simulated-time metrics plus a digest of everything they
    derive from (deterministic for a seed)."""
    metrics = deployment.metrics
    latencies = metrics.commit_latencies()
    commit_times = metrics.commit_times()
    injected = len(deployment.injected_elements)
    committed = len(latencies)
    epochs = len(metrics.epoch_commit_times)
    digest = hashlib.sha256(repr((
        injected, committed, epochs, deployment.sim.events_executed,
        deployment.sim.now, latencies)).encode()).hexdigest()
    outputs = {"injected": injected, "committed": committed, "digest": digest}
    if committed:
        rank = math.ceil(0.99 * committed)
        first_injection = min(record.injected_at
                              for record in metrics.elements.values()
                              if record.injected_at is not None)
        outputs.update(
            commit_p50_s=statistics.median(latencies),
            commit_p99_s=latencies[rank - 1],
            p99_beyond=committed - rank,
            goodput_el_per_sim_s=committed / (commit_times[-1] - first_injection),
            committed_frac=committed / injected)
    return outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"),
                        required=True)
    parser.add_argument("--check", choices=("none", "safety", "full"),
                        default="none")
    args = parser.parse_args()

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    import repro.api  # noqa: F401  (traced set-up loads it; load it alike)
    from repro.core.deployment import build_deployment
    from repro.experiments import runner

    tracer = None
    if args.mode == "traced":
        import layers
        from tracer import SpanTracer
        tracer = SpanTracer()
        layers.install(tracer)
    config = workload.builder().seed(args.seed).build()
    deployment = build_deployment(config, seed=args.seed)
    record: dict = {"setup_s": time.perf_counter() - _T0}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    if tracer is None:
        start = time.perf_counter()
        deployment.start()
        deployment.run()
        runner.package_result(deployment)
        wall_s = time.perf_counter() - start
    else:
        sampler = layers.Sampler()
        sample = tracer.span("trace.sample", sampler)
        start = time.perf_counter()
        deployment.start()
        layers.run_sampled(deployment, sample)
        runner.package_result(deployment)
        wall_s = time.perf_counter() - start
        tracer.uninstall()
        sampler.finish(deployment.sim.now)
        record["layers"] = layers.layer_metrics(tracer, deployment, sampler,
                                                wall_s)
    record["wall_s"] = wall_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(sim_outputs(deployment))
    if args.check != "none":
        record["violations"] = [str(v) for v in deployment.check_properties(
            include_liveness=args.check == "full")]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    status = main()
    # Skip tearing down the run's heap (hundreds of MiB on the bulk workload):
    # it is no part of what a repetition measures, only time between them.
    sys.stdout.flush()
    os._exit(status)
