# Convenience targets for the Nada reproduction.
#
#   make smoke          - quick regression gate: fast tests + the bench-regression
#                         gate (engine A/B and the compiled-generated-design
#                         check, compared against the committed BENCH_*.json
#                         baselines with a tolerance)
#   make test           - the full tier-1 suite (tests + benchmark regenerations)
#   make bench          - the evaluation-engine benchmark, refreshing BENCH_baseline.json
#   make lint           - static analysis gate: the repo contract linter over
#                         src/repro plus the design auditor's self-check corpus
#                         (equivalent to `repro lint --self`); fails on any
#                         contract error or corpus deviation
#   make campaign-smoke - multi-environment examples + CLI campaign at tiny scale,
#                         plus an early-stopping network campaign that must
#                         early-stop at least one design
#   make serve-smoke    - tiny fleet through `repro serve` with telemetry + Chrome
#                         trace: validates the percentile/throughput JSON, the
#                         trace file, and the serving section of `repro report`
#   make chaos-smoke    - the tiny campaign under deterministic fault injection:
#                         every job raises once, workers crash, a store write is
#                         torn and a lease is contended -- the run must heal
#                         (exit 0, zero quarantined) purely via retries
#   make dist-smoke     - the tiny campaign over `--backend remote` (a TCP
#                         coordinator + 2 forked pulled workers) under a
#                         chaos plan (worker crash, connection drop, job
#                         timeout, torn store write): must exit 0 with zero
#                         quarantined jobs
#                         and a store record-for-record identical to the
#                         serial reference run

PYTHON ?= python
export PYTHONPATH := src

.PHONY: smoke test lint bench bench-generated campaign-smoke chaos-smoke serve-smoke dist-smoke

smoke:
	$(PYTHON) -m pytest -q -m "not slow"
	$(PYTHON) benchmarks/bench_regression.py

lint:
	$(PYTHON) -m repro lint --self

test:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) benchmarks/bench_scales.py --json benchmarks/BENCH_baseline.json

bench-generated:
	$(PYTHON) benchmarks/bench_scales.py --mode generated --json benchmarks/BENCH_generated.json

# Tiny end-to-end pass over the multi-environment scenarios: both examples at
# smoke scale, then a two-environment CLI campaign exercising the scheduler
# and the persistent result store (cold pass with telemetry + Chrome trace,
# then warm replay).  The cold pass's `repro report` summary lands in
# campaign-telemetry-summary.txt (uploaded as a CI artifact), and the trace
# JSON is validated as loadable Chrome/Perfetto input.  A last pass runs a
# 4g network-design campaign with early stopping on (each seed of a design
# trains in its own one-seed stack there) and fails unless its summary
# reports at least one early-stopped design.
campaign-smoke:
	$(PYTHON) examples/cellular_5g_streaming.py --dataset-scale 0.02 --num-designs 3 --train-epochs 8 --num-chunks 6
	$(PYTHON) examples/starlink_satellite_abr.py --dataset-scale 0.05 --num-designs 3 --train-epochs 8 --num-chunks 6
	rm -rf .campaign-smoke-store .campaign-smoke-telemetry .campaign-smoke-trace.json
	$(PYTHON) -m repro campaign --environments fcc starlink --num-designs 2 \
	    --dataset-scale 0.02 --num-chunks 6 --train-epochs 6 \
	    --checkpoint-interval 2 --num-seeds 1 --no-early-stopping \
	    --store .campaign-smoke-store \
	    --telemetry .campaign-smoke-telemetry --trace .campaign-smoke-trace.json
	$(PYTHON) -c "import json; t = json.load(open('.campaign-smoke-trace.json'))['traceEvents']; assert t and all({'name', 'ph', 'ts'} <= set(e) for e in t), 'malformed Chrome trace'; print(f'trace OK: {len(t)} events')"
	$(PYTHON) -m repro report .campaign-smoke-telemetry | tee campaign-telemetry-summary.txt
	test -s campaign-telemetry-summary.txt
	$(PYTHON) -m repro campaign --environments fcc starlink --num-designs 2 \
	    --dataset-scale 0.02 --num-chunks 6 --train-epochs 6 \
	    --checkpoint-interval 2 --num-seeds 1 --no-early-stopping \
	    --store .campaign-smoke-store
	rm -rf .campaign-smoke-store .campaign-smoke-telemetry .campaign-smoke-trace.json
	$(PYTHON) -m repro campaign --environments 4g --target network \
	    --num-designs 16 --num-seeds 2 --train-epochs 12 \
	    --checkpoint-interval 4 --dataset-scale 0.02 --num-chunks 8 \
	    > .campaign-smoke-early-stop.txt
	cat .campaign-smoke-early-stop.txt
	grep -Eq '^early stopped +: +[1-9]' .campaign-smoke-early-stop.txt || \
	    { echo 'early-stopping pass stopped no design'; exit 1; }
	rm -f .campaign-smoke-early-stop.txt

# Serving smoke: a tiny fleet driven through `repro serve` with telemetry and
# a Chrome trace, split over two shard processes.  The JSON output is
# validated for the serving contract (p50/p95/p99 decision latency,
# decisions/sec, sessions/sec all present and sane; the decide/emulate split
# present and within the wall time of every shard), the per-session actions
# against a one-shard run, the Chrome trace for loadability, and the
# `repro report` summary for the serving section the fleet's serve.*
# counters feed.
serve-smoke:
	rm -rf .serve-smoke-telemetry .serve-smoke-trace.json
	$(PYTHON) -m repro serve --sessions 32 --dataset-scale 0.03 --num-chunks 6 \
	    --workers 2 --json --telemetry .serve-smoke-telemetry \
	    --trace .serve-smoke-trace.json > serve-smoke-metrics.json
	$(PYTHON) -m repro serve --sessions 32 --dataset-scale 0.03 --num-chunks 6 \
	    --workers 1 --json > serve-smoke-metrics-1shard.json
	$(PYTHON) -c "import json; m = json.load(open('serve-smoke-metrics.json'))['metrics']; \
	    assert m['num_sessions'] == 32 and m['num_decisions'] == 32 * 6; \
	    assert m['decisions_per_s'] > 0 and m['sessions_per_s'] > 0; \
	    assert 0.0 <= m['p50_decision_latency_s'] <= m['p95_decision_latency_s'] <= m['p99_decision_latency_s']; \
	    assert 'emulate_s' in m and m['emulate_s'] > 0, 'emulate_s missing'; \
	    assert m['shards'] == 2, m['shards']; \
	    assert m['decide_s'] + m['emulate_s'] <= m['wall_s'] * m['shards'], 'decide + emulate exceeds wall x shards'; \
	    print(f\"serve metrics OK: {m['decisions_per_s']:.0f} dec/s, p99 {m['p99_decision_latency_s']*1e3:.2f} ms, decide {m['decide_s']:.3f} s + emulate {m['emulate_s']:.3f} s over {m['shards']} shards of {m['wall_s']:.3f} s wall\")"
	$(PYTHON) -c "import json; a, b = (json.load(open(p)) for p in ('serve-smoke-metrics.json', 'serve-smoke-metrics-1shard.json')); \
	    assert a['actions_sha256'] == b['actions_sha256'], 'sharded actions differ from one shard'; \
	    assert b['metrics']['shards'] == 1 and b['metrics']['num_decisions'] == a['metrics']['num_decisions']; \
	    print(f\"shard actions OK: {a['actions_sha256'][:16]} at 2 shards and 1\")"
	$(PYTHON) -c "import json; t = json.load(open('.serve-smoke-trace.json'))['traceEvents']; assert t and all({'name', 'ph', 'ts'} <= set(e) for e in t), 'malformed Chrome trace'; print(f'trace OK: {len(t)} events')"
	$(PYTHON) -c "from repro.core import telemetry; \
	    s = telemetry.summarize(telemetry.load_events('.serve-smoke-telemetry'))['serving']; \
	    assert s['fleet_runs'] == 1 and s['sessions'] == 32 and s['decisions'] == 32 * 6 and s['shards'] == 2, s; \
	    print(f\"report serving section OK: {s['decisions']} decisions in {s['ticks']} ticks\")"
	rm -rf .serve-smoke-telemetry .serve-smoke-trace.json serve-smoke-metrics.json \
	    serve-smoke-metrics-1shard.json

# Chaos smoke: the tiny two-environment campaign again, but with the
# deterministic fault harness armed -- every job's first attempt raises, one
# worker process is killed outright, every record's first write is torn, and
# every key's first lease claim finds a stale foreign holder.  The campaign
# must nevertheless exit 0 with every job healed by retries: the telemetry
# report is asserted to show retries > 0 and zero quarantined jobs or corrupt
# records.  This is the CI guard that the fault-tolerance layer keeps working
# end to end, not just under unit tests.
chaos-smoke:
	rm -rf .chaos-smoke-store .chaos-smoke-telemetry
	$(PYTHON) -m repro campaign --environments fcc starlink --num-designs 2 \
	    --dataset-scale 0.02 --num-chunks 6 --train-epochs 6 \
	    --checkpoint-interval 2 --num-seeds 1 --no-early-stopping \
	    --workers 2 --max-retries 3 \
	    --faults "job.exception:*:1,job.crash:starlink:1,store.torn_write:*:1,store.lease_hold:*:1:120" \
	    --store .chaos-smoke-store --telemetry .chaos-smoke-telemetry
	$(PYTHON) -c "import json, sys; \
	    from repro.core import telemetry; \
	    events = telemetry.load_events('.chaos-smoke-telemetry'); \
	    f = telemetry.summarize(events)['faults']; \
	    print(json.dumps(f, indent=2)); \
	    assert f['retries'] > 0, 'fault plan never fired'; \
	    assert f['torn_writes'] > 0, 'torn-write site never fired'; \
	    assert f['leases_stolen'] > 0, 'stale-lease site never fired'; \
	    assert f['quarantined'] == 0, 'chaos run lost jobs'; \
	    assert f['corrupt_records'] == 0, 'chaos run corrupted the store'; \
	    print('chaos smoke OK: all injected faults healed')"
	rm -rf .chaos-smoke-store .chaos-smoke-telemetry

# Distributed smoke: the tiny two-environment campaign once serially (the
# reference), then over `--backend remote` -- a TCP coordinator feeding two
# pulled workers forked from the campaign process -- with the chaos plan
# armed: one worker is crashed outright mid-job, another drops its
# coordinator connection, a job hangs past --job-timeout (its worker is
# killed and replaced), and a store write is torn.  The remote run must exit
# 0 with zero quarantined jobs, its store must be record-for-record
# identical to the serial reference (the exactly-once + bit-identity
# acceptance gate), and the telemetry report must show the faults actually
# fired (workers lost, requeues, a job timeout), that a lost worker was
# respawned (forked, like the first start) and that the coordinator never
# fell back to local execution.
dist-smoke:
	rm -rf .dist-smoke-serial .dist-smoke-remote .dist-smoke-telemetry
	$(PYTHON) -m repro campaign --environments fcc starlink --num-designs 2 \
	    --dataset-scale 0.02 --num-chunks 6 --train-epochs 6 \
	    --checkpoint-interval 2 --num-seeds 1 --no-early-stopping \
	    --store .dist-smoke-serial
	$(PYTHON) -m repro campaign --environments fcc starlink --num-designs 2 \
	    --dataset-scale 0.02 --num-chunks 6 --train-epochs 6 \
	    --checkpoint-interval 2 --num-seeds 1 --no-early-stopping \
	    --backend remote --remote-workers 2 --max-retries 3 \
	    --job-timeout 5 \
	    --faults "job.crash:fcc|state:1,rpc.conn_drop:starlink|original:1,job.timeout:starlink|state:1:60,store.torn_write:*:1" \
	    --store .dist-smoke-remote --telemetry .dist-smoke-telemetry
	$(PYTHON) -c "import json, os; \
	    snap = lambda root: {os.path.relpath(os.path.join(dp, f), root): json.load(open(os.path.join(dp, f))) for dp, _, fs in os.walk(root) for f in fs if f.endswith('.json')}; \
	    serial = snap('.dist-smoke-serial'); remote = snap('.dist-smoke-remote'); \
	    assert serial, 'serial reference store is empty'; \
	    assert serial == remote, 'remote store diverged from the serial reference'; \
	    print(f'store OK: {len(remote)} records bit-identical to serial')"
	$(PYTHON) -c "import json; \
	    from repro.core import telemetry; \
	    s = telemetry.summarize(telemetry.load_events('.dist-smoke-telemetry')); \
	    d = s['distributed']; f = s['faults']; \
	    print(json.dumps(d, indent=2)); \
	    assert d['workers_lost'] > 0, 'rpc chaos never cost a worker'; \
	    assert d['workers_respawned'] > 0, 'no lost worker was respawned'; \
	    assert d['requeues'] > 0, 'no job was ever requeued'; \
	    assert d['local_fallbacks'] == 0, 'coordinator degraded to local'; \
	    assert f['job_timeouts'] > 0, 'the job timeout never fired'; \
	    assert f['quarantined'] == 0, 'dist chaos run lost jobs'; \
	    assert f['torn_writes'] > 0, 'torn-write site never fired'; \
	    print('dist smoke OK: remote chaos healed, exactly-once held')"
	rm -rf .dist-smoke-serial .dist-smoke-remote .dist-smoke-telemetry
