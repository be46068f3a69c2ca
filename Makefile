PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: install test test-fast test-slow bench bench-json bench-serve bench-batch bench-transport bench-fleet bench-sim bench-exact bench-e2e exact-smoke trace-smoke fault-smoke fleet-smoke sim-smoke lint-forks bench-check report examples all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	python -m pytest -x -q tests/

test-fast:
	python -m pytest -x -q -m "not slow" tests/

test-slow:
	python -m pytest -x -q -m slow tests/

bench:
	python -m pytest benchmarks/ --benchmark-only -s

bench-json:
	python -m repro.bench.engine --out BENCH_engine.json
	python -m repro.bench.planner --out BENCH_planner.json
	python -m repro.bench.serve --out BENCH_serve.json
	python -m repro.bench.batch --out BENCH_batch.json
	python -m repro.bench.fleet --out BENCH_fleet.json
	python -m repro.bench.sim --out BENCH_sim.json
	python -m repro.bench.exact --out BENCH_exact.json

bench-serve:
	python -m repro.bench.serve --out BENCH_serve.json

bench-batch:
	python -m repro.bench.batch --out BENCH_batch.json

bench-transport:
	python -m repro.bench.transport --out BENCH_transport.json

bench-fleet:
	python -m repro.bench.fleet --out BENCH_fleet.json

bench-sim:
	python -m repro.bench.sim --out BENCH_sim.json

bench-exact:
	python -m repro.bench.exact --out BENCH_exact.json

bench-e2e:
	python3 -m benchmarks.e2e

exact-smoke:
	python -m repro.bench.exact --quick --out /tmp/BENCH_exact_smoke.json

trace-smoke:
	python -m repro.bench.trace_smoke --hw 64 --frames 2 --devices 4

fault-smoke:
	python -m repro.bench.fault_smoke --frames 4 --devices 4

fleet-smoke:
	python -m repro.bench.fleet --quick --out /tmp/BENCH_fleet_smoke.json

sim-smoke:
	python -m repro.bench.sim --quick --out /tmp/BENCH_sim_smoke.json

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
# scalar stage_time( is called only inside the cost package and by
# plan_cost; the table's channel mirror and the exhaustive search's
# cost-cache parameter stay deleted; and the weighted-strip realization is spelled
# once, in partition/strips.py (weighted_strips).
	! grep -rnIE "(^|[^_A-Za-z])stage_time\(" src/repro --exclude-dir=cost | grep -v "^src/repro/core/plan.py:"
	! grep -rnIE "channel_stage_total|stage_cache" src/ tests/ benchmarks/ examples/ docs/ README.md
	! grep -rnIE "Region\.from_bounds\(iv\.start|Region\(iv, *Interval\(0" src/repro/core src/repro/schemes
# One exhaustive planner: core/exact.py::plan_exact is the paper's BFS
# baseline and the optimality-gap oracle alike; the second search, its
# result type and the device-count ceiling stay deleted.
	test ! -e src/repro/core/bfs.py
	! grep -rnIE "core\.bfs|bfs_optimal\(|BFSResult|MAX_EXACT_DEVICES" src/ tests/ benchmarks/ examples/ docs/ README.md
	test "$$(grep -rnI "def dfs" src/repro/core | wc -l)" = 1

# Every committed BENCH file that can re-derive itself does, plus the
# fork lint: the one line CI calls.  serve/batch/fleet join when they
# grow --check.
bench-check: lint-forks
	python -m repro.bench.sim --check BENCH_sim.json --quick
	python -m repro.bench.exact --check BENCH_exact.json --quick
	python -m repro.bench.planner --check BENCH_planner.json --quick --repeats 1

report:
	python -m repro report --out report.md

examples:
	python examples/quickstart.py
	python examples/smart_home.py
	python examples/heterogeneous_cluster.py
	python examples/distributed_inference.py
	python examples/deployment.py

all: install test bench
