# The one copy of every CI check: each job in .github/workflows/ci.yml runs
# `make <target>` and `make ci` runs them all, so a green `make ci` means a
# green PR. The checks that drive the built binaries (signals, crashes,
# steals, lbserved) are Go tests in cmd/lbbench, run by `make test`. Outside
# `make ci`: the Actions-only matrix-* jobs (`lbbench -grid ... -spawn m`
# runs the same split locally). staticcheck is skipped when not installed
# (CI pins it); ssh-smoke skips without passwordless `ssh localhost`.

GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -eo pipefail -c
.ONESHELL:

.PHONY: build test vet fmt fmt-check staticcheck e2e-test exp-digest bins bench large-n-smoke ssh-smoke ci

ci: build vet fmt-check staticcheck test e2e-test exp-digest bench large-n-smoke ssh-smoke

build:
	$(GO) build ./...

# The kernel checksum table, the examples, lbserved's flat-heap check and
# the churned round's allocation count are built !race (minutes, shadow
# memory or extra allocations under the detector), so they get their own
# plain run.
# cmd/lbbench's tests drive the lbserved they build, whose sources its test
# binary does not import, so a cached pass could miss a change there: that
# package always runs.
test:
	$(GO) test -race $$($(GO) list ./... | grep -v '/cmd/lbbench$$')
	$(GO) test -race -count=1 ./cmd/lbbench/
	$(GO) test -count=1 -run '^(TestStateChecksumsMatchBaseline|TestServedSessionHeapFlat|TestChurnRoundAllocs|Example_.*)$$' . ./internal/core/ ./internal/serve/

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

# Every experiment table, bit for bit: `lbbench -exp all -format csv` runs twice
# under one fresh speccache spill directory, cold (every Laplacian record
# computed and spilled) and warm (every record loaded from disk), and both
# stdouts must hash to EXP_MD5. Pinned on amd64 only, as TestQuickCSVDigest
# is: other architectures may fuse multiply-adds. About 1 min on 2 vCPUs.
EXP_MD5 = 58666a118d2a858b7e476c6543793186

exp-digest:
	if [ "$$($(GO) env GOARCH)" != amd64 ]; then
		echo "exp-digest is pinned on amd64, not $$($(GO) env GOARCH) — skipping" >&2; exit 0
	fi
	dir=$$(mktemp -d)
	trap 'rm -rf "$$dir"' EXIT
	$(GO) build -o "$$dir/lbbench" ./cmd/lbbench
	for pass in cold warm; do
		sum=$$(LB_SPECCACHE_DIR="$$dir/spill" "$$dir/lbbench" -exp all -format csv -cache-stats 2> "$$dir/$$pass.err" | md5sum | cut -d' ' -f1)
		grep speccache "$$dir/$$pass.err"
		if [ "$$sum" != $(EXP_MD5) ]; then
			echo "exp-digest: $$pass spill: stdout md5 $$sum, want $(EXP_MD5)" >&2; exit 1
		fi
	done
	if ! grep -q "λ₂/λ_max 0 computed/" "$$dir/warm.err"; then
		echo "exp-digest: the warm pass recomputed records it should have loaded from the spill" >&2; exit 1
	fi

# The binaries ssh-smoke drives.
bins:
	$(GO) build -o /tmp/ ./cmd/lbbench ./cmd/lbserved

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... | tee /tmp/lbbench-bench-smoke.txt

# Million-node gate: TestLargeNSmoke steps a 2^20-node hypercube diffusion
# cell and solves λ₂ of the 2^20-node de Bruijn graph by Lanczos within five
# minutes, failing if the dense eigensolver ran at all or if the hypercube
# holds more than its CSR (92.3 MB; 92.2 MB measured) + 10%. Peaks at about
# 1.6 GB resident.
large-n-smoke:
	LB_LARGE_N=1 $(GO) test -count=1 -run '^TestLargeNSmoke$$' -v ./internal/core/

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
