# The one copy of every CI check: each job in .github/workflows/ci.yml
# provisions a runner and runs `make <target>`, and `make ci` runs them all,
# so a green `make ci` means a green PR. Outside it: the matrix-* jobs,
# inline because only Actions can execute a matrix (`lbbench -grid ...
# -spawn m` runs the same split locally). staticcheck is skipped when not
# installed (CI pins it); ssh-smoke skips without passwordless `ssh
# localhost`. Each recipe is one bash script under -e and pipefail.

GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -eo pipefail -c
.ONESHELL:

.PHONY: build test vet fmt fmt-check staticcheck e2e-test bins bench large-n-smoke round-smoke grid-smoke resume-smoke shard-merge-smoke orchestrator-smoke steal-smoke ssh-smoke scenario-smoke serve-smoke obs-smoke ci

ci: build vet fmt-check staticcheck test e2e-test bench round-smoke grid-smoke large-n-smoke resume-smoke shard-merge-smoke orchestrator-smoke steal-smoke ssh-smoke scenario-smoke serve-smoke obs-smoke

build:
	$(GO) build ./...

# The kernel checksum table and the examples are built !race (minutes under
# the detector), so they get their own plain run.
test:
	$(GO) test -race ./...
	$(GO) test -count=1 -run '^(TestStateChecksumsMatchBaseline|Example_.*)$$' . ./internal/core/

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	out=$$(gofmt -l .)
	if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

staticcheck:
	if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...
	else echo "staticcheck not installed — skipping (CI runs it via honnef.co/go/tools@2025.1.1)" >&2; fi

# e2ebench has its own go.mod, so `go build ./...` never compiles it.
e2e-test:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# The binaries every smoke drives, built once per make invocation.
bins:
	$(GO) build -o /tmp/ ./cmd/lbbench ./cmd/lbserved

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... | tee /tmp/lbbench-bench-smoke.txt

# Million-node gate: TestLargeNSmoke steps a 2^20-node hypercube diffusion
# cell and solves λ₂ of the 2^20-node de Bruijn graph by Lanczos within five
# minutes, failing if the dense eigensolver ran at all. Needs about 2 GB.
large-n-smoke:
	LB_LARGE_N=1 $(GO) test -count=1 -run '^TestLargeNSmoke$$' -v ./internal/core/

# $(call signal_at,JOURNAL,LINES,SIGNAL,SHARD): once JOURNAL holds LINES
# lines (or the background $pid exits), send SIGNAL to shard SHARD/3 of the
# orchestrator, or to $pid itself when SHARD is empty. $cpid is the pid
# signalled, empty if it had already finished (a plain run then).
define signal_at
for i in $$(seq 1 600); do
	{ [ -f $(1) ] && [ "$$(wc -l < $(1))" -ge $(2) ]; } && break
	kill -0 $$pid 2>/dev/null || break
	sleep 0.05
done
cpid=$(if $(4),$$(pgrep -f -- '-shard [$(4)]/3' | head -1 || true),$$pid)
if [ -n "$$cpid" ] && kill -$(3) $$cpid 2>/dev/null; then echo "sent SIG$(3) to pid $$cpid at $$(wc -l < $(1)) lines of $(1)"
else cpid=; echo "note: finished before SIG$(3) — the smoke degrades to a plain run"; fi
endef

# $(call serve_replay,PORT,FLAGS,LOG): start lbserved replaying the
# committed mini-trace at 100× in the background as $pid, require /healthz
# to answer, then wait until the replay queue has drained.
define serve_replay
/tmp/lbserved -addr 127.0.0.1:$(1) -replay testdata/mini-trace.jsonl -speedup 100x $(2) 2> $(3) &
pid=$$!
trap 'kill $$pid 2>/dev/null || true' EXIT
for i in $$(seq 1 100); do curl -fs http://127.0.0.1:$(1)/healthz >/dev/null 2>&1 && break; sleep 0.1; done
curl -fs http://127.0.0.1:$(1)/healthz
for i in $$(seq 1 600); do
	[ "$$(curl -fs http://127.0.0.1:$(1)/metrics | jq .replay_pending)" = 0 ] && break
	sleep 0.1
done
endef

journals3 = $(1)/shard-0.jsonl,$(1)/shard-1.jsonl,$(1)/shard-2.jsonl

# Round-level parallelism: the stepper/scenario packages under -race with 8
# round workers, plus rw1-vs-rw8-vs-auto byte-identity of a real grid sweep.
round-smoke: bins
	LB_TEST_ROUND_WORKERS=8 $(GO) test -race -count=1 ./internal/core/ ./internal/diffusion/ \
		./internal/dimexchange/ ./internal/randpair/ ./internal/scenario/ ./internal/batch/
	for rw in 1 8 auto; do
		/tmp/lbbench -grid -n 64 -seeds 1,2 -parallel 2 -round-workers $$rw -format csv > /tmp/lbbench-rw$$rw.csv
	done
	cmp /tmp/lbbench-rw1.csv /tmp/lbbench-rw8.csv
	cmp /tmp/lbbench-rw1.csv /tmp/lbbench-rwauto.csv

# Grid reports and experiment tables must not depend on the pool width.
grid-smoke: bins
	for w in 1 8; do /tmp/lbbench -grid -n 32 -seeds 1,2 -parallel $$w -format csv > /tmp/lbbench-w$$w.csv; done
	cmp /tmp/lbbench-w1.csv /tmp/lbbench-w8.csv
	for w in 1 8; do /tmp/lbbench -exp all -quick -csv -parallel $$w > /tmp/lbbench-exp-w$$w.csv; done
	cmp /tmp/lbbench-exp-w1.csv /tmp/lbbench-exp-w8.csv

SWEEP_ARGS = -grid -topos cycle,torus,hypercube,star,complete,path \
	-algos diffusion,dimexchange,randpair -modes continuous,discrete \
	-loads spike,uniform -n 160 -seeds 1,2,3 -eps 1e-5 -parallel 4 -format csv

# Crash and resume: SIGINT a journaling sweep partway, resume it in place;
# the report must match the uninterrupted run byte for byte.
resume-smoke: bins
	/tmp/lbbench $(SWEEP_ARGS) -cache-stats > /tmp/lbbench-full.csv
	rm -f /tmp/lbbench-cells.jsonl
	/tmp/lbbench $(SWEEP_ARGS) -out /tmp/lbbench-cells.jsonl > /dev/null &
	pid=$$!
	$(call signal_at,/tmp/lbbench-cells.jsonl,80,INT,)
	wait $$pid || true
	cp /tmp/lbbench-cells.jsonl /tmp/lbbench-cells-at-interrupt.jsonl
	/tmp/lbbench $(SWEEP_ARGS) -resume /tmp/lbbench-cells.jsonl -out /tmp/lbbench-cells.jsonl > /tmp/lbbench-resumed.csv
	cmp /tmp/lbbench-full.csv /tmp/lbbench-resumed.csv

shard-merge-smoke orchestrator-smoke steal-smoke scenario-smoke: export LB_SPECCACHE_DIR = /tmp/lbbench-speccache

# One command plans, spawns, supervises and merges: the -spawn 3 report, the
# -spawn 3 -stream-agg report and the stream-agg render of the journals must
# match the single-process sweep byte for byte, and a merge missing a shard
# must fail loudly.
shard-merge-smoke: bins
	/tmp/lbbench $(SWEEP_ARGS) > /tmp/lbbench-shard-full.csv
	/tmp/lbbench $(SWEEP_ARGS) -stream-agg > /tmp/lbbench-shard-fullagg.csv
	rm -rf /tmp/lbbench-sweep /tmp/lbbench-aggsweep
	/tmp/lbbench $(SWEEP_ARGS) -spawn 3 -out /tmp/lbbench-sweep > /tmp/lbbench-merged.csv
	cmp /tmp/lbbench-shard-full.csv /tmp/lbbench-merged.csv
	/tmp/lbbench $(SWEEP_ARGS) -spawn 3 -stream-agg -out /tmp/lbbench-aggsweep > /tmp/lbbench-spawnedagg.csv
	cmp /tmp/lbbench-shard-fullagg.csv /tmp/lbbench-spawnedagg.csv
	/tmp/lbbench $(SWEEP_ARGS) -merge $(call journals3,/tmp/lbbench-sweep) -stream-agg > /tmp/lbbench-mergedagg.csv
	cmp /tmp/lbbench-shard-fullagg.csv /tmp/lbbench-mergedagg.csv
	code=0; /tmp/lbbench $(SWEEP_ARGS) -merge /tmp/lbbench-sweep/shard-0.jsonl,/tmp/lbbench-sweep/shard-1.jsonl \
		-stream-agg > /dev/null 2> /tmp/lbbench-incomplete.err || code=$$?
	[ $$code -ne 0 ]
	grep -q "never merged in" /tmp/lbbench-incomplete.err

# Supervision under fire: SIGKILL one shard subprocess mid-run; the
# supervisor must restart it with -resume and the auto-merged report must
# still match the single-process sweep. Then the flag-validation contract:
# contradictory combinations exit with their own codes and create no journal.
orchestrator-smoke: bins
	/tmp/lbbench $(SWEEP_ARGS) > /tmp/lbbench-ofull.csv
	rm -rf /tmp/lbbench-osweep
	/tmp/lbbench $(SWEEP_ARGS) -spawn 3 -out /tmp/lbbench-osweep > /tmp/lbbench-ospawned.csv 2> /tmp/lbbench-orch.log &
	pid=$$!
	$(call signal_at,/tmp/lbbench-osweep/shard-2.jsonl,10,KILL,2)
	wait $$pid
	cmp /tmp/lbbench-ofull.csv /tmp/lbbench-ospawned.csv
	[ -z "$$cpid" ] || grep -q "restarting with -resume" /tmp/lbbench-orch.log
	x=/tmp/lbbench-conflict; rm -rf $$x $$x.jsonl
	expect() {
		want=$$1; shift; code=0; /tmp/lbbench "$$@" >/dev/null 2>&1 || code=$$?
		[ $$code -eq $$want ] || { echo "lbbench $$*: exit $$code, want $$want" >&2; return 1; }
	}
	expect 4 -grid -spawn 3 -shard 0/3 -out $$x
	expect 4 -grid -spawn 3 -resume $$x.jsonl -out $$x
	expect 4 -grid -resume $$x.jsonl
	expect 4 -grid -merge a.jsonl -resume $$x.jsonl -out $$x.jsonl
	expect 4 -grid -spawn 3
	expect 4 -emit-matrix github -grid
	expect 2 -grid -spawn 3 -out $$x -emit-matrix slurm
	expect 5 -grid -shard 0/0
	expect 5 -grid -shard 5/3
	expect 5 -grid -spawn -1 -out $$x
	expect 2 -grid -shard banana
	expect 4 -exp E1 -quick -csv -out $$x.jsonl -resume $$x.jsonl -stream-agg
	expect 4 -exp E1 -quick -csv -out $$x.jsonl
	expect 4 -exp E1 -quick -csv -stream-agg
	expect 4 -merge a.jsonl,b.jsonl -stream-agg -out $$x.jsonl
	expect 2 -grid -eps NaN -out $$x.jsonl
	expect 2 -grid -scale Inf -out $$x.jsonl
	expect 4 -explain torus/diffusion/continuous/spike/s1 -grid -out $$x.jsonl
	expect 2 -explain torus/diffusion/continuous/spike/s01
	expect 1 -explain torus/firstorder/discrete/spike/s1
	test ! -e $$x -a ! -e $$x.jsonl

# Work stealing under fire: SIGSTOP one shard subprocess mid-run, a wedged
# process the launcher cannot see die. The supervisor must declare it
# stalled, kill it, run its unstarted units as stolen sub-shards (journal
# headers carrying provenance) and still merge byte-identical. Fixed round
# counts (eps below reach) keep healthy shards inside the steal threshold.
STEAL_ARGS = -grid -topos torus,hypercube -algos diffusion,randpair -modes continuous \
	-loads spike,uniform -n 4096 -seeds 1,2,3,4,5,6 -eps 1e-12 -rounds 4096 -parallel 1 -format csv

steal-smoke: bins
	/tmp/lbbench $(STEAL_ARGS) > /tmp/lbbench-steal-full.csv
	rm -rf /tmp/lbbench-stealsweep
	/tmp/lbbench $(STEAL_ARGS) -spawn 3 -out /tmp/lbbench-stealsweep \
		-steal-after 5s -progress 250ms > /tmp/lbbench-steal-merged.csv 2> /tmp/lbbench-steal.log &
	pid=$$!
	$(call signal_at,/tmp/lbbench-stealsweep/shard-1.jsonl,3,STOP,1)
	wait $$pid
	cmp /tmp/lbbench-steal-full.csv /tmp/lbbench-steal-merged.csv
	if [ -n "$$cpid" ]; then
		grep -q "stalled for 5s — killing it to steal its remaining units" /tmp/lbbench-steal.log
		grep -q "reassigned to .* stolen sub-shard" /tmp/lbbench-steal.log
		ls /tmp/lbbench-stealsweep/shard-1-steal-*.jsonl
		head -1 /tmp/lbbench-stealsweep/shard-1-steal-1.jsonl | grep -q '"origin":"steal:s1"'
		grep "task summary:" /tmp/lbbench-steal.log | tail -1 | grep -q "task summary:.* s1 restarts=0 stolen=[1-9]"
	fi

# The ssh launcher against real ssh: two slots on localhost, merged
# byte-identical. -remote-dir keeps the remote journal off the fetch path,
# which matters when "remote" shares the local filesystem.
SSH_ARGS = -topos torus,hypercube -algos diffusion,randpair \
	-modes continuous -loads spike,uniform \
	-n 1024 -seeds 1,2,3 -eps 1e-12 -rounds 512 -format csv

ssh-smoke: bins
	if ! ssh -o BatchMode=yes -o ConnectTimeout=5 localhost true 2>/dev/null; then
		echo "ssh-smoke needs passwordless 'ssh localhost' — skipping" >&2; exit 0
	fi
	rm -rf /tmp/lbbench-sshsweep /tmp/lbbench-sshremote
	/tmp/lbbench -grid $(SSH_ARGS) -parallel 1 > /tmp/lbbench-ssh-full.csv
	/tmp/lbbench -grid $(SSH_ARGS) -spawn 2 -out /tmp/lbbench-sshsweep \
		-launcher ssh -hosts localhost,localhost \
		-remote-cmd /tmp/lbbench -remote-dir /tmp/lbbench-sshremote \
		-progress 250ms > /tmp/lbbench-ssh-merged.csv 2> /tmp/lbbench-ssh.log
	grep -q "launchers: ssh:localhost, ssh:localhost" /tmp/lbbench-ssh.log
	cmp /tmp/lbbench-ssh-full.csv /tmp/lbbench-ssh-merged.csv

# The scenario dimension rides the whole pipeline: a grid with static,
# adversarial and stochastic-arrival scenarios must be byte-identical across
# worker counts and through a 3-shard spawn with one shard SIGKILLed and
# resumed, streaming aggregates included.
SCENARIO_ARGS = -grid -topos torus,hypercube -algos diffusion,randpair \
	-modes continuous,discrete -loads spike,uniform \
	-scenarios static,adversarial-respike,poisson-arrivals \
	-n 64 -seeds 1,2 -eps 1e-4 -rounds 96 -format csv

scenario-smoke: bins
	for w in 1 8; do /tmp/lbbench $(SCENARIO_ARGS) -parallel $$w > /tmp/lbbench-scen-w$$w.csv; done
	cmp /tmp/lbbench-scen-w1.csv /tmp/lbbench-scen-w8.csv
	rm -rf /tmp/lbbench-ssweep
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 4 -spawn 3 -out /tmp/lbbench-ssweep > /tmp/lbbench-scen-merged.csv 2> /tmp/lbbench-scen-orch.log &
	pid=$$!
	$(call signal_at,/tmp/lbbench-ssweep/shard-1.jsonl,5,KILL,1)
	wait $$pid
	cmp /tmp/lbbench-scen-w1.csv /tmp/lbbench-scen-merged.csv
	[ -z "$$cpid" ] || grep -q "restarting with -resume" /tmp/lbbench-scen-orch.log
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 4 -stream-agg > /tmp/lbbench-scen-fullagg.csv
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 4 -merge $(call journals3,/tmp/lbbench-ssweep) -stream-agg > /tmp/lbbench-scen-mergedagg.csv
	cmp /tmp/lbbench-scen-fullagg.csv /tmp/lbbench-scen-mergedagg.csv

# Service mode end to end: lbserved replays the committed mini-trace (24
# arrivals), records what it injects and drains to exit 0 on SIGTERM; the
# recording must byte-match the source trace and re-run as a trace:<file>
# grid scenario byte-identically across worker counts.
SERVE_ARGS = -grid -topos torus -algos diffusion,randpair -modes continuous,discrete -loads spike \
	-scenarios static,trace:/tmp/lbserved-recorded.jsonl -n 64 -seeds 1,2 -rounds 96 -format csv

serve-smoke: bins
	rm -f /tmp/lbserved-recorded.jsonl
	$(call serve_replay,18080,-record /tmp/lbserved-recorded.jsonl,/tmp/lbserved.log)
	[ "$$(curl -fs http://127.0.0.1:18080/metrics | jq .arrivals_total)" = 24 ]
	kill -TERM $$pid
	wait $$pid
	cmp testdata/mini-trace.jsonl /tmp/lbserved-recorded.jsonl
	for w in 1 8; do /tmp/lbbench $(SERVE_ARGS) -parallel $$w > /tmp/lbserved-w$$w.csv; done
	cmp /tmp/lbserved-w1.csv /tmp/lbserved-w8.csv

# Telemetry end to end: lbserved's Prometheus exposition is well-formed on
# both listeners (every series under its HELP/TYPE header, ground-truth
# counters) and pprof answers; a traced sweep's report is byte-identical to
# the untraced one, its unit spans tile the sweep; sweep profiles parse.
OBS_ARGS = -grid -topos torus,cycle -algos diffusion,randpair -n 256 -seeds 1,2 -format csv -parallel 1

obs-smoke: bins
	$(call serve_replay,18081,-telemetry 127.0.0.1:16060,/tmp/obs-lbserved.log)
	curl -fs http://127.0.0.1:18081/metrics/prom > /tmp/obs-prom.txt
	curl -fs http://127.0.0.1:16060/metrics/prom > /tmp/obs-prom-debug.txt
	curl -fs 'http://127.0.0.1:16060/debug/pprof/goroutine?debug=1' > /dev/null
	kill -TERM $$pid
	wait $$pid
	grep -q '^# HELP lbserved_rounds_total ' /tmp/obs-prom.txt
	grep -q '^# TYPE lbserved_rounds_total counter' /tmp/obs-prom.txt
	grep -q '^lbserved_arrivals_total 24$$' /tmp/obs-prom.txt
	grep -q '^# TYPE lbserved_backlog_depth histogram' /tmp/obs-prom.txt
	grep -q '^lbserved_backlog_depth_bucket{le="+Inf"} ' /tmp/obs-prom.txt
	awk -F ' |{' '/^[a-z]/ && !seen[$$1] { print "series without header: " $$1; exit 1 }
		/^# TYPE / { seen[$$3]=1; seen[$$3"_bucket"]=seen[$$3"_sum"]=seen[$$3"_count"]=1 }' /tmp/obs-prom.txt
	grep -q '^lbserved_rounds_total ' /tmp/obs-prom-debug.txt
	/tmp/lbbench $(OBS_ARGS) > /tmp/obs-plain.csv
	/tmp/lbbench $(OBS_ARGS) -trace-out /tmp/obs-trace.json > /tmp/obs-traced.csv 2> /tmp/obs-trace.log
	cmp /tmp/obs-plain.csv /tmp/obs-traced.csv
	jq -e '.traceEvents | length > 0' /tmp/obs-trace.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat == "unit")] | length == 16' /tmp/obs-trace.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat == "sweep")] | length == 1' /tmp/obs-trace.json > /dev/null
	jq -e '.traceEvents | map(select(.ph == "X")) | all(.ts >= 0 and .dur >= 1 and (.name | length > 0))' /tmp/obs-trace.json > /dev/null
	jq -e '([.traceEvents[] | select(.cat == "unit") | .dur] | add) >= 0.9 * ([.traceEvents[] | select(.cat == "sweep") | .dur] | add)' /tmp/obs-trace.json > /dev/null
	/tmp/lbbench -grid -topos torus -algos diffusion -n 256 -seeds 1,2 \
		-cpuprofile /tmp/obs-cpu.pb.gz -memprofile /tmp/obs-heap.pb.gz > /dev/null
	for p in cpu heap; do $(GO) tool pprof -top -nodecount 3 /tmp/obs-$$p.pb.gz > /dev/null; done
