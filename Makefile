PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: install test test-fast test-slow bench-json bench-e2e lint-forks lint-dead bench-check examples all

# Every committed BENCH_<name>.json has a module repro.bench.<name> on
# the one spine (repro.bench.common.BENCHES).
BENCHES := engine planner exact sim serve batch fleet transport paper

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	python -m pytest -x -q tests/

test-fast:
	python -m pytest -x -q -m "not slow" tests/

test-slow:
	python -m pytest -x -q -m slow tests/

bench-json:
	for b in $(BENCHES); do python -m repro.bench.$$b || exit 1; done

bench-e2e:
	python3 -m benchmarks.e2e

# One virtual-time front door: the legacy simulator adapter stays
# deleted, simulate_scenario is the only caller of the event engine and
# replan_or_degrade the only caller of the degraded-mode plan.
lint-forks:
	test ! -e src/repro/cluster/simulator.py
	! grep -rnIE "cluster\.simulator|simulate_plan|simulate_adaptive|_run_event_loop" src/ benchmarks/ examples/ docs/ README.md
	! grep -rnI "cluster\.simulator" tests/
	test "$$(grep -rnI "run_scenario(" src/repro | grep -vc "def run_scenario")" = 1
	test "$$(grep -rnI "local_fallback_plan(" src/repro --exclude-dir=schemes | wc -l)" = 1
# One Eq. 9: every planner's search asks SegmentTable.stage_total, so the
# scalar stage_time( is called only inside the cost package, by
# plan_cost and by the scalar oracle in repro/testing; the table's
# channel mirror and the exhaustive search's cost-cache parameter stay
# deleted; and the weighted-strip realization is spelled
# once, in partition/strips.py (weighted_strips).
	! grep -rnIE "(^|[^_A-Za-z])stage_time\(" src/repro --exclude-dir=cost --exclude-dir=testing | grep -v "^src/repro/core/plan.py:"
	! grep -rnIE "channel_stage_total|stage_cache" src/ tests/ benchmarks/ examples/ docs/ README.md
	! grep -rnIE "Region\.from_bounds\(iv\.start|Region\(iv, *Interval\(0" src/repro/core src/repro/schemes
# One exhaustive planner: core/exact.py::plan_exact is the paper's BFS
# baseline and the optimality-gap oracle alike; the second search, its
# result type and the device-count ceiling stay deleted.
	test ! -e src/repro/core/bfs.py
	! grep -rnIE "core\.bfs|bfs_optimal\(|BFSResult|MAX_EXACT_DEVICES" src/ tests/ benchmarks/ examples/ docs/ README.md
	test "$$(grep -rnI "def dfs" src/repro/core | wc -l)" = 1

# One bench spine: the protocol, the envelope, --check and the parser
# are spelled once, in repro/bench/common.py, and the two smoke programs
# stay deleted (tests/test_differential.py and tests/test_faults.py make
# their assertions).
	test "$$(grep -rnI "argparse.ArgumentParser(" src/repro/bench | wc -l)" = 1
	test "$$(grep -rnI "json.dump(" src/repro/bench | wc -l)" = 1
	! grep -rnI "def _interleaved_medians" src/ tests/ benchmarks/ examples/
	! grep -rnIE "(trace|fault)[_]smoke" src/ Makefile .github/ docs/ README.md
# A timing-only frame touches no tensor: the zero-tile builder stays
# deleted, the virtual clock is charged by one function whichever the
# compute mode (SimTransport.charge, the one caller of batched_service in
# the runtime core), and the serve bench builds no weights to time it.
	! grep -rnI "_zero_tile" src/
	test "$$(grep -c "def charge(" src/repro/runtime/core.py)" = 1
	test "$$(grep -c "batched_service(" src/repro/runtime/core.py)" = 1
	! grep -nI "Engine(model, seed" src/repro/bench/serve.py
# One wire frame: runtime/transport.py owns the only encoder, decoder
# and array-descriptor parser; socket and shm channels both speak it.
# Its body field names the body (pickled skeleton, or the fixed
# TileTask / TileResult struct), so no codec version, no version sniff,
# no second descriptor parser.
	test "$$(grep -rnI "def decode_message" src/repro/runtime | wc -l)" = 1
	test "$$(grep -rnI "def encode_parts" src/repro/runtime | wc -l)" = 1
	! grep -rnIE "_V2_|_CODEC_VERSION|_read_descriptor|_DESC_" src/
# One tenancy path: FleetServer builds every tenant transport through
# its factory; the clone-a-parent hooks, the pass-through session and
# the PhasedTrace wrapper stay deleted, and RuntimeConfig is the one
# fault-tolerance switch (no recover= flag anywhere).
	! grep -rnIE "open_tenant|_tenant_view|close_tenants|tenant_views|_fleet_shared|TenantSession|PhasedProcess" src/ tests/ benchmarks/ examples/ docs/ README.md
	! grep -rIPzo "DistributedPipeline\((?:[^()]|\([^()]*\))*\brecover=" src/ tests/ benchmarks/ examples/ docs/ README.md
# One failure model: a dead device is a name in the one dead set, found
# by the channel and injected by FaultSchedule on every transport; the
# liveness thread, the per-worker crash counter, the worker idle timeout
# and the transport's private stats lock and connect knob stay deleted.
	! grep -rnIE "heartbeat|fail_after|_pending_dead|worker_idle_timeout|idle_timeout_s|stats_lock=|connect_timeout_s" src/ tests/ examples/ docs/ README.md
	test "$$(grep -rnI "def needs_repartition" src/repro/runtime | wc -l)" = 1
	! grep -nI "threading.Thread(" src/repro/runtime/coordinator.py
# One fan-out of a stacked batch: run_segment splits it into frame
# groups on the shared pool, so neither a worker nor the coordinator
# fans a batch out itself (InProcTransport's per-task fan-out in
# runtime/core.py stays); and a conv gathers its patch in one strided
# copy, so the only per-tap loop left in nn/ops.py is maxpool2d's.
	! grep -nI "run_parallel(" src/repro/runtime/worker.py src/repro/runtime/coordinator.py
	test "$$(grep -c "for i in range(kh)" src/repro/nn/ops.py)" = 1
# One batched GEMM path: conv2d_packed takes one tall sgemm exactly where
# the loaded BLAS was measured to compute it bit-identically to one sgemm
# per frame, so the batch_gemm knob and its env var stay deleted and
# nothing outside nn/ops.py runs the per-frame loop itself.
	! grep -rnIE "batch_gemm|REPRO_BATCH_GEMM" src/ tests/ docs/ examples/ README.md
	! grep -rnI "_gemm_per_frame_(" src/ tests/ examples/ | grep -v "^src/repro/nn/ops.py:"
# One stage loop and one wire exchange: every stage dispatches one frame
# ahead of the one it collects through Transport.dispatch/collect, so the
# scheduler never calls the blocking run_tasks and there is one
# _run_stage; the server's queue_capacity bounds frames in the system
# (the scheduler's capacity), not only the ones waiting at the entrance.
	test "$$(grep -rn "def _run_stage" src/repro/runtime | wc -l)" = 1
	! grep -n "run_tasks(" src/repro/runtime/scheduler.py
	! grep -rnI "entry_capacity" src/ tests/ docs/ README.md
# One re-plan door: PlanDoor.adopt is the only caller of rebind and the
# door the only reader of rebindable, on both clocks; the threaded server
# runs one scheduler, which re-plans in place at a drain boundary, and the
# per-path re-plan helpers stay deleted.
	test "$$(grep -rnI "\.rebind(" src/repro | grep -vc "def rebind")" = 1
	test "$$(grep -rnI "\.rebindable" src/repro | grep -vc "^src/repro/runtime/faults.py:")" = 0
	test "$$(grep -c "\.rebindable" src/repro/runtime/faults.py)" = 1
	! grep -rnIE "_replay_failed|_maybe_switch|_adopt_replan|_maybe_replan|_can_replan" src/ tests/ docs/
	test "$$(grep -c "StageScheduler(" src/repro/serve/server.py)" = 1
# One compiled tile plan: run_segment and Engine.forward_features run
# every program through the plan _build_plan lowers once per tile shape,
# the one function under nn/ that builds one; the chain-mode arenas and
# the per-frame chain runners stay deleted, and so do the per-call
# kernels' output arenas and the gather entry point beside ConvKernel.
	! grep -rnIE "_take_chain_arena|def run_chain|ts\.chain|def _run_steps" src/ tests/ docs/ README.md
	! grep -rnIE "out_scratch|out_arena|def im2col|ops\.im2col" src/ tests/ docs/ README.md
	test "$$(grep -rnI "def _build_plan" src/repro/nn | wc -l)" = 1
	test "$$(grep -rnI "_Plan(" src/repro/nn | grep -vc "class _Plan")" = 1
# One width decision: the transport that launches the workers hands
# each its share of the deployment's threads at the fork, and the worker
# start-up is the one place in the program that sizes a pool (the bench
# modules time widths on purpose).
	test "$$(grep -rnI "set_threads(" src/repro --exclude-dir=bench | grep -v "def set_threads" | cut -d: -f1)" = "src/repro/runtime/worker.py"
# One way a worker gets its role: the one fork in the runtime hands it
# model, program, weights and width as process arguments, so the Setup
# message and the per-worker weight subset stay deleted.
	! grep -rnIE "class Setup|Setup\(|task_weight_names" src/ tests/ docs/ README.md
	test "$$(grep -rnIF 'get_context("fork")' src/repro/runtime | wc -l)" = 1
# One parameter allocator: every weight matrix of at least
# weights._SHARED_MIN_BYTES is a shared anonymous mapping, allocated in
# one place, so a forked worker is resident only in the layers it reads.
	test "$$(grep -rnIF 'mmap.mmap(' src/repro --exclude-dir=bench --exclude-dir=testing | wc -l)" = 1
# One stored form of a batch-norm conv: the weight build folds it in
# place, once (weights.conv_params), so no engine or worker keeps raw
# weights beside a folded copy, and neither the executor nor the
# runtime reads raw BN statistics.
	test "$$(grep -rnIF 'fold_batch_norm(' src/repro --exclude-dir=bench --exclude-dir=testing | grep -v 'def fold_batch_norm' | cut -d: -f1)" = "src/repro/nn/weights.py"
	! grep -rnIE "[\"']gamma[\"']" src/repro/nn/executor.py src/repro/runtime/
# One head draw: init_weights leaves the dense head undrawn and the one
# call of dense_params outside bench/ and testing/ is the lazy draw at
# its first read (weights._LazyHead), so no serving process holds it.
	test "$$(grep -rIF 'dense_params(' src/repro --exclude-dir=bench --exclude-dir=testing | grep -v 'def dense_params' | tr -s ' ')" = "src/repro/nn/weights.py: self[dense.name] = dense_params(dense, self._rng)"
# One way to run a plan on the wall clock: every caller serves through
# PipelineServer.serve; the submit/collect pipeline is left only as the
# e2e benchmark's shim (and the one test that drives it as the workload
# does), and the batch runner and its stats stay deleted.
	test -z "$$(grep -rlI "DistributedPipeline" src/ tests/ examples/ docs/ README.md | grep -vxE "src/repro/runtime/coordinator.py|tests/test_scheduler.py")"
	! grep -rnIE "RuntimeStats|run_batch\(" src/ tests/ examples/ docs/ README.md
# One production engine and one Ts: the oracles (the seed's kernels, the
# reference engine, the scalar Ts memo and its DP, and the test-only
# helpers lint-dead moved out of production) live once, in
# repro/testing, which only the bench modules and the tests import; the
# engine's fast/fold_bn switches and the REPRO_FAST read stay deleted.
	! grep -rnIE "REPRO_FAST|fold_bn|\bfast=|\bfast: *Optional|\.fast\b" src/ tests/ examples/ docs/ README.md
	! grep -rnIE "^\s*(from|import) +repro\.testing|^\s*from +repro +import .*\btesting\b" src/repro --exclude-dir=testing --exclude-dir=bench
	! grep -rnIE "conv2d_reference|maxpool2d_reference|StageTimeTable|plan_homogeneous_reference|ReferenceEngine|run_segment_reference" src/repro --exclude-dir=testing --exclude-dir=bench
	! grep -rnIE "theorem2_literal|homogeneous_stage_time|churn_replanner|\bconv2d\(|\bapply_activation\b|\b(leaky_)?relu6?\(|\brun_unit\b|send_message|load_jsonl|segment_owned_region|program_cache_info|clear_program_cache|(conv|pool)_layer_count" src/repro --exclude-dir=testing --exclude-dir=bench
# One way to run a plan in process: PipelineServer over InProcTransport,
# with Engine as the outputs oracle; the plan executor stays deleted.
	! grep -rnI "LocalPlanExecutor" src/ examples/ docs/ README.md
# One front door to the paper's evaluation: repro.bench.paper writes
# BENCH_paper.json and renders EXPERIMENTS.md's tables; the pytest
# wrappers, the report generator, the CSV export and the experiment /
# report / simulate commands stay deleted.
	test -z "$$(find benchmarks -name '*.py' -not -path 'benchmarks/e2e/*')"
	! grep -rnIE --exclude-dir="*.egg-info" "full[_]report|generate[_]report|rows[_]for|write[_]csv|format[_]table|_cmd[_](experiment|report|simulate)|benchmark[-]only|bench[_]output" src/ tests/ docs/ README.md EXPERIMENTS.md DESIGN.md Makefile .github/
# No dead knobs: the switcher's cross-frame batch score, the per-link
# jitter/loss sampling and the options that had one value in use (the
# retry schedule, the virtual clock's batch amortisation, EFL's shrink
# factor, PICO's Pareto switch) stay deleted; make lint-dead flags any
# defaulted parameter that no production call passes.
	! grep -rnIE "batch_candidates|choose_batch|active_batch|comm_fraction|batched_inference_latency|use_pareto|batch_amortized=|shrink_factor|jitter_s|sample_network|backoff_base_s|backoff_factor" src/ tests/ benchmarks/ examples/ docs/ README.md

# Production code only production uses: every definition under src/repro
# (bench/ and testing/ aside) that no production module refers to, and
# every defaulted parameter no production call passes, is in
# tools/lint_dead_allowlist.txt with its reason, and the list only shrinks.
lint-dead:
	python tools/lint_dead.py

# The fork lint, then every committed BENCH file re-derives itself:
# serve, fleet and paper must reproduce whole, in full mode (the first
# two are virtual time; paper is seeded and virtual time but for the
# fields it declares timings); the rest re-run their --quick
# configuration, compare what a quick run can reproduce and enforce
# their gates on the fresh run.
bench-check: lint-forks
	python -m repro.bench.serve --check BENCH_serve.json
	python -m repro.bench.fleet --check BENCH_fleet.json
	python -m repro.bench.paper --check BENCH_paper.json
	python -m repro.bench.engine --check BENCH_engine.json --quick --repeats 1
	python -m repro.bench.planner --check BENCH_planner.json --quick --repeats 1
	for b in exact sim batch transport; do \
		python -m repro.bench.$$b --check BENCH_$$b.json --quick || exit 1; \
	done

examples:
	python examples/quickstart.py
	python examples/smart_home.py
	python examples/heterogeneous_cluster.py
	python examples/distributed_inference.py
	python examples/deployment.py

all: install test bench-check
