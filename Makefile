# bash -o pipefail so `go test | tee` failures fail the target (a
# panicking benchmark must not publish a silently partial artifact).
SHELL := /bin/bash -o pipefail

GO  ?= go

.PHONY: build test race smoke bench staticcheck stackbench-test loc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The stack benchmark (bench/, see BENCHMARK.json) is a nested module
# that `./...` above does not reach; its self-test runs every workload
# at 1 % size, so a signature change that breaks it fails here.
stackbench-test:
	cd bench && $(GO) test -race .

# Line ledger: non-test Go lines outside bench/, per package and in
# total (28 979 before PR 15, 28 721 before PR 17, 28 549 before PR 18,
# 28 418 before PR 19).
# 28 623 before expressions were lowered at plan time, 28 353 before
# the server-vs-oracle verdict was written once, 28 246 before every
# committed image came from one capture-and-rewind path, 28 908 before
# access paths were read off the lowered tree, 28 715 before static
# errors moved to the compile, 28 713 before a plan variant became a
# run-time choice.
# It counts the working tree: tracked and untracked files git does not
# ignore, less those deleted but still in the index.
# Deletion PRs quote it before and after.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' ':!bench' ':!*_test.go' | \
		while read -r f; do [ -f "$$f" ] && echo "$$f"; done | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Fault-free differential smoke: the generated common dialect subset
# must agree with the oracle on every server; any finding exits 1.
smoke:
	$(GO) run ./cmd/divfuzz -seed 1 -n 2000 -streams 4 -faults=false
	$(GO) run ./cmd/divfuzz -seed 5 -n 2000 -streams 1 -adaptive -maxrows 64 -faults=false
	$(GO) run ./cmd/divfuzz -seed 7 -n 2000 -streams 2 -params -faults=false
	$(GO) run ./cmd/divfuzz -seed 9 -n 2000 -streams 2 -planvariants -faults=false
	$(GO) run ./cmd/divfuzz -seed 11 -n 2000 -streams 2 -params -planvariants -faults=false
	$(GO) run ./cmd/divfuzz -seed 13 -n 2000 -streams 4 -isolation -faults=false
	$(GO) run ./cmd/divfuzz -seed 17 -n 2000 -streams 2 -tlp -norec -cert -faults=false
	$(GO) run ./cmd/divfuzz -seed 19 -n 2000 -streams 2 -tlp -norec -cert -params -planvariants -isolation -faults=false
	$(GO) run ./cmd/divfuzz -seed 23 -n 2000 -streams 4 -shards 2
	$(GO) run ./cmd/divfuzz -seed 29 -n 2000 -streams 4 -shards 2

# The root and wire micro-benchmarks, time-based, five runs each, with
# allocations: compare two trees with stock tooling (benchstat). The
# ledger end to end is the stack benchmark, bench/ (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 5 . ./internal/wire

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...
