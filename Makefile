# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench bench-json bench-diff fuzz-short twin-validate goldens serve-smoke saturate-smoke ci tables report sweeps examples fmt vet clean

all: build vet test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json runs the benchmark suite and writes the machine-readable
# results committed with each PR (name, ns/op, B/op, allocs/op, and the
# sim-cycles metric). Progress streams to stderr while it runs.
BENCH_JSON ?= BENCH_PR27.json
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem ./... | $(GO) run ./cmd/benchjson -o $(BENCH_JSON)

# bench-diff reruns the suite and diffs it against the committed
# baseline: per-benchmark ns/op deltas plus the sim-cycles metric (which
# must not move in a pure-performance change). Exits non-zero when any
# ns/op regression exceeds BENCH_THRESHOLD percent.
BENCH_THRESHOLD ?= 10
bench-diff:
	$(GO) test -run '^$$' -bench . -benchmem ./... | \
		$(GO) run ./cmd/benchjson -compare $(BENCH_JSON) -threshold $(BENCH_THRESHOLD)

# fuzz-short gives four readers of outside bytes and one simulator
# identity a brief randomized shakedown; the corpus seeds cover real
# payloads plus known-malformed shapes. The experiment-spec parser must
# never panic and must re-parse every spec it accepts, marshalled back
# to JSON, to the same canonical encoding and hash (store recovery drops
# a sidecar that does not). The columnar result decoder must reject
# every malformed blob without panicking. Store recovery, over arbitrary
# sidecar and blob files, must never panic and never serve a blob that
# differs from its sidecar's length and SHA-256; its inputs are files on
# disk, and the default minimisation of a new input stalls on them, so
# it gets 1 s. The fleet router, over arbitrary job IDs in GET
# /v1/jobs/<id>, must never panic, must send "<shard>.<local>" without
# dot segments to exactly that shard, as the one request
# /v1/jobs/<local>..., and must contact no shard for any other ID. The
# simulator's loop kernels, over random programs on random machine
# shapes, must leave the same sums, clock and counters as the per-access
# loops they replace.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzSpecCanonical -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzColumnarDecode -fuzztime 10s ./internal/colres
	$(GO) test -run '^$$' -fuzz FuzzStoreRecover -fuzztime 10s -fuzzminimizetime 1s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzRouteJobID -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzKernelIdentity -fuzztime 10s ./internal/core

# twin-validate runs every analytical twin against a full simulator
# sweep at the fast geometry and fails when any family's median cycles
# error exceeds its documented bound (docs/TWIN.md). The committed
# goldens under internal/twin/validate/testdata pin the full reports.
twin-validate:
	$(GO) run ./cmd/sweep -twin-validate -fast

# goldens is the exactness gate at the paper's sizes: perfbench runs one
# Table 2 grid (n=256) and one Table 1 grid (Class A) and checks every
# cell's simulated result against its committed golden, then perfbench's
# own tests run. perfbench exits 0 on a golden mismatch, so each run's
# last line must carry "correct":true.
goldens:
	@set -e; for args in "--workload mmp-grid --seconds 1" "--workload cg-grid --seed 0 --seconds 1"; do \
		last=$$(bash perfbench/run.sh $$args | tail -n 1); \
		case "$$last" in *'"correct":true'*) echo "goldens: $$args correct";; \
			*) echo "goldens: perfbench $$args failed its goldens: $$last"; exit 1;; esac; \
	done
	$(GO) -C perfbench test ./...

# serve-smoke is the end-to-end check for the experiment service: boot
# impulsed on an ephemeral port, submit a small Table 1 job through
# impulsectl, diff the bytes against the direct cmd/table1 run, verify
# the single-flight dedup path with a concurrent load burst, check that
# the burst populated the Prometheus exposition (typed histograms with
# bucket series), fetch the job's provenance manifest and Perfetto
# timeline, render one `top` frame end-to-end, exercise the analytical
# twin tier (/v1/predict, a tier=twin load burst that must execute
# nothing, the twin metrics), diff a cg sim job against the direct
# cmd/impulse-sim run, check /readyz, then shut the daemon down
# gracefully (SIGTERM -> drain).
serve-smoke:
	@set -e; dir=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/impulsed ./cmd/impulsed; \
	$(GO) build -o $$dir/impulsectl ./cmd/impulsectl; \
	$(GO) build -o $$dir/table1 ./cmd/table1; \
	$(GO) build -o $$dir/impulse-sim ./cmd/impulse-sim; \
	$$dir/impulsed -addr 127.0.0.1:0 -addr-file $$dir/addr 2>$$dir/impulsed.log & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "impulsed never bound"; cat $$dir/impulsed.log; exit 1; }; \
	addr=$$(cat $$dir/addr); echo "impulsed up at $$addr"; \
	id=$$($$dir/impulsectl -addr $$addr submit \
		-spec '{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}' | cut -f1); \
	$$dir/impulsectl -addr $$addr result -wait $$id >$$dir/service.out; \
	$$dir/table1 -n 240 -nonzer 4 -niter 1 -cgits 2 -q >$$dir/direct.out; \
	diff -u $$dir/direct.out $$dir/service.out || { echo "serve-smoke: service output differs from CLI"; exit 1; }; \
	$$dir/impulsectl -addr $$addr load -n 8 \
		-spec '{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}'; \
	$$dir/impulsectl -addr $$addr metrics >$$dir/metrics.out; \
	for want in \
		'# TYPE service_http_request_duration_us histogram' \
		'# TYPE service_job_run_duration_us histogram' \
		'service_job_run_duration_us_count{kind="table1"} 1' \
		'service_http_request_duration_us_bucket{endpoint="submit"' \
		'service_jobs_executed 1'; do \
		grep -qF "$$want" $$dir/metrics.out || \
			{ echo "serve-smoke: /metrics missing: $$want"; cat $$dir/metrics.out; exit 1; }; \
	done; \
	$$dir/impulsectl -addr $$addr manifest $$id >$$dir/manifest.json; \
	grep -qF '"cells_executed": 12' $$dir/manifest.json || \
		{ echo "serve-smoke: bad manifest"; cat $$dir/manifest.json; exit 1; }; \
	$$dir/impulsectl -addr $$addr trace $$id >$$dir/trace.json; \
	grep -qF '"traceEvents"' $$dir/trace.json || \
		{ echo "serve-smoke: bad trace"; cat $$dir/trace.json; exit 1; }; \
	$$dir/impulsectl -addr $$addr top -once >$$dir/top.out; \
	grep -q 'job run duration by kind' $$dir/top.out || \
		{ echo "serve-smoke: top rendered nothing"; cat $$dir/top.out; exit 1; }; \
	$$dir/impulsectl -addr $$addr predict -family sram -fast >$$dir/predict.out; \
	for want in '"tier": "twin"' '"error_bound": 0.1' '"grid"'; do \
		grep -qF "$$want" $$dir/predict.out || \
			{ echo "serve-smoke: /v1/predict missing: $$want"; cat $$dir/predict.out; exit 1; }; \
	done; \
	$$dir/impulsectl -addr $$addr load -n 4 -tier twin >$$dir/twinload.out; \
	grep -qF '0 execution(s)' $$dir/twinload.out || \
		{ echo "serve-smoke: twin load burst ran the simulator"; cat $$dir/twinload.out; exit 1; }; \
	$$dir/impulsectl -addr $$addr metrics >$$dir/metrics2.out; \
	for want in \
		'service_twin_requests 5' \
		'service_twin_ineligible 0' \
		'# TYPE service_twin_latency_us histogram'; do \
		grep -qF "$$want" $$dir/metrics2.out || \
			{ echo "serve-smoke: /metrics missing: $$want"; cat $$dir/metrics2.out; exit 1; }; \
	done; \
	simid=$$($$dir/impulsectl -addr $$addr submit \
		-spec '{"kind":"sim","workload":"cg","n":300,"cgits":2,"mode":"sg","prefetch":"both"}' | cut -f1); \
	$$dir/impulsectl -addr $$addr result -wait $$simid >$$dir/sim.service.out; \
	$$dir/impulse-sim -workload cg -n 300 -cgits 2 -mode sg -prefetch both >$$dir/sim.direct.out; \
	diff -u $$dir/sim.direct.out $$dir/sim.service.out || { echo "serve-smoke: sim job output differs from impulse-sim"; exit 1; }; \
	curl -fsS http://$$addr/readyz >$$dir/readyz.out || \
		{ echo "serve-smoke: /readyz not ready"; cat $$dir/readyz.out; exit 1; }; \
	grep -qF '"status": "ready"' $$dir/readyz.out || \
		{ echo "serve-smoke: bad /readyz body"; cat $$dir/readyz.out; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "impulsed exited non-zero"; cat $$dir/impulsed.log; exit 1; }; \
	echo "serve-smoke OK"

# saturate-smoke is the end-to-end check for the sharded fleet
# (docs/FLEET.md): boot three worker impulsed shards on persistent
# archive dirs, front them with a router
# (impulsed -route), drive a concurrent identical-spec burst through
# the router and assert fleet-wide single-flight by summing
# service_jobs_executed across the shards (exactly one execution),
# run a short `impulsectl saturate` sweep against the warmed router,
# SIGTERM one shard and assert the router reroutes the next
# submission (fleet_submits_rerouted rises, the request still lands),
# then restart the killed shard on its archive dir and assert the
# daemon recovered its archived results from disk.
saturate-smoke:
	@set -e; dir=$$(mktemp -d); trap 'kill $$p0 $$p1 $$p2 $$pf $$p0b 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/impulsed ./cmd/impulsed; \
	$(GO) build -o $$dir/impulsectl ./cmd/impulsectl; \
	for i in 0 1 2; do \
		$$dir/impulsed -addr 127.0.0.1:0 -addr-file $$dir/addr$$i -exec 2 \
			-archive-dir $$dir/arch$$i \
			2>$$dir/shard$$i.log & eval p$$i=$$!; \
	done; \
	for i in 0 1 2; do \
		for t in $$(seq 1 100); do [ -s $$dir/addr$$i ] && break; sleep 0.1; done; \
		[ -s $$dir/addr$$i ] || { echo "shard $$i never bound"; cat $$dir/shard$$i.log; exit 1; }; \
	done; \
	a0=$$(cat $$dir/addr0); a1=$$(cat $$dir/addr1); a2=$$(cat $$dir/addr2); \
	$$dir/impulsed -addr 127.0.0.1:0 -addr-file $$dir/addrF \
		-route "s0=http://$$a0,s1=http://$$a1,s2=http://$$a2" \
		2>$$dir/router.log & pf=$$!; \
	for t in $$(seq 1 100); do [ -s $$dir/addrF ] && break; sleep 0.1; done; \
	[ -s $$dir/addrF ] || { echo "router never bound"; cat $$dir/router.log; exit 1; }; \
	af=$$(cat $$dir/addrF); echo "fleet up: router $$af over $$a0 $$a1 $$a2"; \
	for t in $$(seq 1 50); do curl -fsS http://$$af/readyz >/dev/null 2>&1 && break; sleep 0.1; done; \
	$$dir/impulsectl -addr $$af load -n 24 \
		-spec '{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}' >$$dir/load.out; \
	cat $$dir/load.out; \
	grep -qF 'load ok: 24/24' $$dir/load.out || { echo "saturate-smoke: burst failed"; exit 1; }; \
	total=0; for i in 0 1 2; do \
		n=$$(curl -fsS "http://$$(cat $$dir/addr$$i)/metrics" | \
			awk '$$1=="service_jobs_executed"{print $$2}'); \
		total=$$((total + n)); \
	done; \
	[ "$$total" = 1 ] || { echo "saturate-smoke: fleet-wide single-flight violated: $$total executions"; exit 1; }; \
	echo "fleet single-flight OK: 1 execution across 3 shards"; \
	$$dir/impulsectl -addr $$af saturate -rates 200,500 -duration 1s \
		-spec '{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}' >$$dir/sat.out; \
	cat $$dir/sat.out; \
	grep -q 'saturation' $$dir/sat.out || { echo "saturate-smoke: no saturation summary"; exit 1; }; \
	owner=$$(curl -fsS -X POST -d '{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}' \
		http://$$af/v1/jobs | tr -d ' ",' | awk -F: '/^shard:/{print $$2; exit}'); \
	echo "owner shard: $$owner"; \
	case $$owner in s0) opid=$$p0;; s1) opid=$$p1;; s2) opid=$$p2;; \
		*) echo "saturate-smoke: unroutable owner $$owner"; exit 1;; esac; \
	kill -TERM $$opid; wait $$opid 2>/dev/null || true; \
	code=$$(curl -s -o $$dir/re.out -w '%{http_code}' -X POST \
		-d '{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}' http://$$af/v1/jobs); \
	case $$code in 2*) ;; *) echo "saturate-smoke: reroute submit got $$code"; cat $$dir/re.out; exit 1;; esac; \
	rerouted=$$(curl -fsS "http://$$af/metrics" | \
		awk '$$1=="fleet_submits_rerouted"{print $$2}'); \
	[ "$$rerouted" -ge 1 ] 2>/dev/null || \
		{ echo "saturate-smoke: router never rerouted (fleet_submits_rerouted=$$rerouted)"; exit 1; }; \
	echo "reroute OK after losing $$owner"; \
	case $$owner in s0) archdir=$$dir/arch0;; s1) archdir=$$dir/arch1;; s2) archdir=$$dir/arch2;; esac; \
	$$dir/impulsed -addr 127.0.0.1:0 -addr-file $$dir/addrR -archive-dir $$archdir \
		2>$$dir/restart.log & p0b=$$!; \
	for t in $$(seq 1 100); do [ -s $$dir/addrR ] && break; sleep 0.1; done; \
	recovered=$$(curl -fsS "http://$$(cat $$dir/addrR)/metrics" | \
		awk '$$1=="service_jobs_recovered"{print $$2}'); \
	[ "$$recovered" -ge 1 ] 2>/dev/null || \
		{ echo "saturate-smoke: restarted shard recovered nothing"; cat $$dir/restart.log; exit 1; }; \
	echo "restart durability OK: $$recovered result(s) recovered from $$archdir"; \
	kill -TERM $$p0 $$p1 $$p2 $$pf $$p0b 2>/dev/null || true; \
	echo "saturate-smoke OK"

# ci is the pre-PR gate: formatting, vet, build, full tests, the race
# detector over the short suite, a short fuzz of the spec parser, the
# columnar decoder, store recovery, the router's job-ID routing and the
# simulator's loop kernels, the
# analytical twin validation (fast geometry, hard error bounds), the
# paper-size per-cell goldens, the service and fleet smoke tests, and a
# warn-only benchmark diff
# against the committed baseline. Benchmarks on shared CI hosts are too
# noisy to be a hard gate; a regression warns but does not fail the
# build — see docs/PERF.md. Run it before every PR.
ci:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -short ./...
	$(MAKE) fuzz-short
	$(MAKE) twin-validate
	$(MAKE) goldens
	$(MAKE) serve-smoke
	$(MAKE) saturate-smoke
	@$(MAKE) bench-diff BENCH_THRESHOLD=5 || \
		echo "ci: WARNING: benchmarks regressed vs $(BENCH_JSON) (soft gate; see docs/PERF.md)"

tables:
	$(GO) run ./cmd/table1
	$(GO) run ./cmd/table2

report:
	$(GO) run ./cmd/report -fast

sweeps:
	$(GO) run ./cmd/sweep

examples:
	@for e in quickstart cg tiled recolor ipc lrpc dbscan scripted; do \
		echo "=== examples/$$e ==="; \
		$(GO) run ./examples/$$e || exit 1; \
	done

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
