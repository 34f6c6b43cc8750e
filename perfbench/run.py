"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload hashchain-bulk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each repetition runs in a fresh process (:mod:`rep`), one at a time, so
set-up time and peak memory are what a user pays and no two runs share the
two cores.  A repetition starts only while it is expected to end within
``--seconds`` (taking at least :data:`MIN_REPS`).  ``el_per_wall_s`` is
injected elements over wall seconds summed across the repetitions' timed
regions; the other host-time metrics are medians over repetitions.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, including ``trace.overhead`` (traced over untraced wall
time, minus one).

Correctness gate (any failure prints ``"correct": false`` and exits 1):
safety properties after every repetition, Properties 1-8 on the workloads
that must fully commit, the expected injected count, and identical
simulated-time outputs across every repetition of the seed, traced or not.

No repetition starts once a workload has run :data:`DEADLINE_S`, and each
must end :data:`BUDGET_S` after the workload began, so one workload ends
within 180 s.  A repetition that cannot end in time is a performance
failure, not a correctness one: the command then prints no result and
exits 3.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
injected elements over all repetitions and ``failed`` those never committed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: The seed later performance claims are developed on, and the one held out
#: to confirm them (a claim must also hold on the held-out seed).
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

#: Repetitions per ``--trace 0`` run, and untraced/traced pairs per
#: ``--trace 1`` run, taken unless :data:`DEADLINE_S` passes first.
MIN_REPS = 3
#: Set-up samples per ``--trace 0`` run; set-up-only processes top up the
#: samples the timed repetitions give.
SETUP_SAMPLES = 11
#: Seconds after a workload began: no repetition starts past the first, and
#: every repetition (set-up samples included) must end by the second.
DEADLINE_S = 120.0
BUDGET_S = 170.0

SIM_METRICS = ("commit_p50_s", "commit_p99_s", "goodput_el_per_sim_s",
               "committed_frac")


class GateFailure(Exception):
    """A correctness check failed."""


class OutOfTime(Exception):
    """A repetition could not end within :data:`BUDGET_S`."""


def host_fingerprint() -> dict:
    """Python, platform, CPU count and a fixed pure-Python loop's speed."""
    start = time.perf_counter()
    value = 0
    for i in range(1_000_000):
        value = (value * 31 + i) & 0xFFFFFFFF
    loop_s = time.perf_counter() - start
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "calibration_mloops_per_s": 1.0 / loop_s}


def run_rep(workload: str, seed: int, mode: str, ends_by: float,
            check: str = "none") -> dict:
    """One repetition in a fresh process, which must end by monotonic time
    ``ends_by``."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--check", check]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(ends_by - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise OutOfTime(f"{mode} repetition of {workload} did not end within "
                        f"{BUDGET_S:g} s of the workload's start") from None
    if proc.returncode != 0:
        raise GateFailure(f"{mode} repetition of {workload} exited "
                          f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_rep(name: str, rep: dict, reference: dict | None) -> None:
    """The per-repetition part of the correctness gate."""
    expected = WORKLOADS[name].injected
    if rep["injected"] != expected:
        raise GateFailure(f"{name}: injected {rep['injected']}, expected {expected}")
    if not 0 < rep["committed"] <= rep["injected"]:
        raise GateFailure(f"{name}: committed {rep['committed']} of {rep['injected']}")
    if rep.get("violations"):
        raise GateFailure(f"{name}: properties violated: {rep['violations'][:3]}")
    if reference is not None and rep["digest"] != reference["digest"]:
        raise GateFailure(f"{name}: simulated-time outputs differ between "
                          "repetitions of one seed")


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """Run repetitions of one workload; returns (metrics, repetitions)."""
    began = time.monotonic()
    ends_by = began + BUDGET_S
    # Every repetition is checked for safety; the first for Properties 1-8
    # where the workload must fully commit.
    first_check = "full" if WORKLOADS[name].full_properties else "safety"
    run_rep(name, seed, "setup", ends_by)  # unmeasured: fills the bytecode cache
    reps: list[dict] = []
    modes = ("untraced", "traced") if trace else ("untraced",)
    #: mode -> seconds each repetition process of that mode took, checks included.
    took: dict[str, list[float]] = {mode: [] for mode in modes}
    while True:
        elapsed = time.monotonic() - began
        if len(reps) >= len(modes) and elapsed >= DEADLINE_S:
            break
        # Only whole untraced/traced pairs end a traced run, and one ends
        # once the next pair would not finish within ``seconds``.
        taken = len(reps) // len(modes)
        if len(reps) % len(modes) == 0 and taken >= MIN_REPS:
            next_s = sum(statistics.median(took[mode]) for mode in modes)
            if elapsed + next_s > seconds:
                break
        # Alternate which mode of a pair goes first so drift hits both alike.
        order = modes if taken % 2 == 0 else modes[::-1]
        mode = order[len(reps) % len(modes)]
        started = time.monotonic()
        rep = run_rep(name, seed, mode, ends_by,
                      "safety" if reps else first_check)
        took[mode].append(time.monotonic() - started)
        check_rep(name, rep, reps[0] if reps else None)
        reps.append(rep)
    taken = len(reps) // len(modes)
    if taken < MIN_REPS:
        print(f"warning: {name}: only {taken} "
              f"{'pairs' if trace else 'repetitions'} within {DEADLINE_S:g} s "
              f"(want {MIN_REPS})", file=sys.stderr)
    if trace:
        # Whole pairs only; an unpaired last repetition is left out.
        reps = reps[:2 * taken]
        traced = [rep for rep in reps if "layers" in rep]
        metrics = {key: statistics.median(rep["layers"][key] for rep in traced)
                   for key in traced[0]["layers"]}
        # Per adjacent (untraced, traced) pair, so host drift between pairs
        # cancels: wall time keyed by whether the repetition was traced.
        pairs = [{"layers" in rep: rep["wall_s"] for rep in reps[i:i + 2]}
                 for i in range(0, len(reps), 2)]
        metrics["trace.overhead"] = statistics.median(
            pair[True] / pair[False] for pair in pairs) - 1.0
        return metrics, reps
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_rep(name, seed, "setup", ends_by)["setup_s"])
    metrics = {
        # Over the summed timed regions: with 3-5 repetitions a run, this
        # spreads less from run to run than the median of their ratios.
        "el_per_wall_s": (sum(rep["injected"] for rep in reps)
                          / sum(rep["wall_s"] for rep in reps)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    metrics.update({key: reps[0][key] for key in SIM_METRICS})
    return metrics, reps


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in declared["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str], fingerprint: dict) -> dict:
    """Measure and gate one workload; prints its table and record."""
    try:
        metrics, reps = measure(name, seed, seconds, trace)
        correct = True
    except GateFailure as error:
        print(f"correctness gate FAILED: {error}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        correct = False
    first = reps[0]
    print(f"== {name}  seed {seed}  ({len(reps)} repetitions, "
          f"{'traced' if trace else 'untraced'})")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:14.6g} {units.get(key, '?')}")
    if not trace:
        print(f"  commit latency samples {first['committed']}, "
              f"{first['p99_beyond']} beyond p99")
    print("# record " + json.dumps({
        "workload": name, "seed": seed, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "trace": trace, "host": fingerprint,
        "reps": [{k: v for k, v in rep.items() if k != "layers"} for rep in reps]}))
    attempted = sum(rep["injected"] for rep in reps)
    return {"correct": correct, "attempted": attempted,
            "failed": attempted - sum(rep["committed"] for rep in reps),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Setchain repository benchmark")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminating a run stops its repetition process too: the exit raised
    # here makes subprocess.run kill its child and wait for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    units = declared_units(bool(args.trace))
    fingerprint = host_fingerprint()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), units, fingerprint)
                   for name in names}
    except OutOfTime as error:
        print(f"out of time (a performance failure, not a correctness "
              f"one): {error}", file=sys.stderr)
        return 3
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}/{key}": value
                               for name, r in results.items()
                               for key, value in r["metrics"].items()}}
    summary["metrics"] = {
        key: {"value": value, "unit": units[key.rsplit("/", 1)[-1]]}
        for key, value in summary["metrics"].items()}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
