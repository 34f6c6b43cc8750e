PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-pytest bench-smoke million million-smoke profile perfbench catalog-gate chaos-smoke byz-smoke membership-smoke shard-smoke service-smoke trace-smoke trace-smoke-core trace-bench-gate list-scenarios clean

# Scenario to profile with `make profile` (override: make profile SCENARIO=...).
SCENARIO ?= bench/hashchain-heavy

test:
	$(PYTHON) -m pytest -q

# Wall-clock perf trajectory on the pinned bench-smoke set (repro.bench).
bench:
	$(PYTHON) -m repro.bench --jobs auto --out results/BENCH.json

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Million-element trajectory (batched algorithms; serial so numbers are clean).
million:
	$(PYTHON) -m repro.bench --set million --jobs 1 --out results/BENCH_MILLION.json

# CI-sized 100k variant of the million set, all three algorithms.
million-smoke:
	$(PYTHON) -m repro.bench --set million-smoke --jobs 1 --out results/BENCH_MILLION_SMOKE.json

# cProfile one scenario (override the target: make profile SCENARIO=bench/vanilla).
profile:
	$(PYTHON) -m repro.bench profile $(SCENARIO) --limit 30 \
	  --out-collapsed results/profile-collapsed.txt

# The repository benchmark (BENCHMARK.json): every workload, end-to-end
# metrics plus the correctness gate.  Per-layer numbers: add --trace 1.
perfbench:
	python3 perfbench/run.py

# Catalog byte-identity gate: re-sweep every catalog scenario at --scale 50
# and diff one sha256 per artifact against tests/golden/catalog_digests.json.
catalog-gate:
	rm -rf results/catalog
	$(PYTHON) -m repro sweep --scale 50 --jobs 2 --quiet --out results/catalog
	$(PYTHON) tools/catalog_digests.py check results/catalog

# One registry scenario through the CLI, persisting its RunResult artifact.
bench-smoke:
	$(PYTHON) -m repro run quickstart --scale 1 --json results/bench-smoke.json
	$(PYTHON) -m repro report results/bench-smoke.json

# One chaos scenario end to end: run it, render the resilience report, and
# prove the fault schedule is byte-identical under serial vs parallel sweeps.
chaos-smoke:
	$(PYTHON) -m repro run chaos/smoke --json results/chaos-smoke.json
	$(PYTHON) -m repro report results/chaos-smoke.json
	$(PYTHON) -m repro sweep --contains chaos/smoke --jobs 1 --quiet --seed 7 --out results/chaos-j1
	$(PYTHON) -m repro sweep --contains chaos/smoke --jobs 4 --quiet --seed 7 --out results/chaos-j4
	cmp results/chaos-j1/chaos__smoke.json results/chaos-j4/chaos__smoke.json
	@echo "chaos/smoke byte-identical under --jobs 1 vs --jobs 4"

# One adversarial scenario end to end: run it, render the resilience and
# Byzantine-attribution reports, and prove the schedule is byte-identical
# under serial vs parallel sweeps.
byz-smoke:
	$(PYTHON) -m repro run byz/smoke --json results/byz-smoke.json
	$(PYTHON) -m repro report results/byz-smoke.json
	$(PYTHON) -m repro sweep --contains byz/smoke --jobs 1 --quiet --seed 7 --out results/byz-j1
	$(PYTHON) -m repro sweep --contains byz/smoke --jobs 4 --quiet --seed 7 --out results/byz-j4
	cmp results/byz-j1/byz__smoke.json results/byz-j4/byz__smoke.json
	@echo "byz/smoke byte-identical under --jobs 1 vs --jobs 4"

# The whole dynamic-membership family (runtime joins with state transfer,
# draining leaves, validator replacement, elastic service shapes) under
# serial vs parallel sweeps: every artifact must be byte-identical, then the
# report renders the membership timelines.
membership-smoke:
	$(PYTHON) -m repro sweep --contains member/ --jobs 1 --quiet --seed 7 --out results/member-j1
	$(PYTHON) -m repro sweep --contains member/ --jobs 4 --quiet --seed 7 --out results/member-j4
	@for artifact in results/member-j1/*.json; do \
	  cmp "$$artifact" "results/member-j4/$$(basename $$artifact)" || exit 1; \
	done
	@echo "member/ family byte-identical under --jobs 1 vs --jobs 4"
	$(PYTHON) -m repro report results/member-j1/member__service__elastic.json \
	  results/member-j1/member__smoke.json

# Sharded scale-out drill: the 2- and 4-shard scale scenarios run and render
# their per-shard tables, the whole shard/ family is byte-identical under
# serial vs parallel sweeps, and Properties 1-8 hold on the merged logical
# view of a sharded run.
shard-smoke:
	mkdir -p results
	$(PYTHON) -m repro run shard/scale/s2 --json results/shard-s2.json --quiet
	$(PYTHON) -m repro run shard/scale/s4 --json results/shard-s4.json --quiet
	$(PYTHON) -m repro report results/shard-s2.json results/shard-s4.json
	$(PYTHON) -m repro sweep --family shard --jobs 1 --quiet --seed 7 --out results/shard-j1
	$(PYTHON) -m repro sweep --family shard --jobs 4 --quiet --seed 7 --out results/shard-j4
	@for artifact in results/shard-j1/*.json; do \
	  cmp "$$artifact" "results/shard-j4/$$(basename $$artifact)" || exit 1; \
	done
	@echo "shard/ family byte-identical under --jobs 1 vs --jobs 4"
	$(PYTHON) -c "from repro import Scenario; \
	  session = (Scenario.hashchain().servers(2).shards(2).rate(300) \
	    .collector(20).inject_for(5).drain(30).backend('ideal').seed(11) \
	    .session().start()); \
	  session.run_to_completion(); \
	  violations = session.check_logical_properties(); \
	  assert violations == [], violations; \
	  print('merged logical view: Properties 1-8 hold over', \
	        len(session.logical_view().the_set), 'elements')"

# Service mode end to end: start a service on a durable sqlite ledger,
# stream 1k elements through the ingress queue while probing /metrics every
# tick (the run fails below 90% probe availability), shut down cleanly, then
# restart on the same database (resume) and audit the persisted chain.
service-smoke:
	mkdir -p results && rm -f results/service-smoke.sqlite
	$(PYTHON) -m repro serve service/smoke --db results/service-smoke.sqlite \
	  --rate 250 --duration 4 --settle 6 --min-availability 0.9
	$(PYTHON) -m repro serve service/smoke --db results/service-smoke.sqlite \
	  --rate 100 --duration 2 --settle 6 --min-availability 0.9
	$(PYTHON) -m repro service inspect results/service-smoke.sqlite

# Observability end to end: trace a chaos and a service scenario (both export
# formats), validate the trace schemas, prove trace files byte-identical
# under serial vs parallel sweeps, validate the Prometheus exposition against
# a live endpoint, and gate a tracing-disabled bench run within 2% of the
# checked-in PR 8 baseline (tracing must cost nothing when off).  The gate
# lives in its own target so CI can run it non-blocking on noisy runners.
trace-smoke: trace-smoke-core trace-bench-gate

trace-smoke-core:
	$(PYTHON) -m repro trace chaos/smoke --seed 7 \
	  --out results/trace-chaos.trace.json
	$(PYTHON) -m repro.obs validate-trace results/trace-chaos.trace.json \
	  --min-tracks 3
	$(PYTHON) -m repro trace service/smoke --seed 7 --format jsonl \
	  --out results/trace-service.trace.jsonl
	$(PYTHON) -m repro.obs validate-trace results/trace-service.trace.jsonl \
	  --min-tracks 3
	$(PYTHON) -m repro sweep --contains chaos/smoke --jobs 1 --quiet --seed 7 \
	  --trace-sample 1.0 --trace-dir results/trace-j1 --out results/trace-j1
	$(PYTHON) -m repro sweep --contains chaos/smoke --jobs 4 --quiet --seed 7 \
	  --trace-sample 1.0 --trace-dir results/trace-j4 --out results/trace-j4
	cmp results/trace-j1/chaos__smoke.trace.json results/trace-j4/chaos__smoke.trace.json
	@echo "chaos/smoke trace byte-identical under --jobs 1 vs --jobs 4"
	$(PYTHON) -m repro.obs prom-smoke

trace-bench-gate:
	$(PYTHON) -m repro.bench run --jobs 1 --repeat 3 --label trace-smoke-untraced \
	  --out results/BENCH_TRACE_SMOKE.json
	$(PYTHON) -m repro.bench compare BENCH_PR8.json results/BENCH_TRACE_SMOKE.json \
	  --max-regression 0.02

list-scenarios:
	$(PYTHON) -m repro list-scenarios

clean:
	rm -rf results .pytest_cache
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
