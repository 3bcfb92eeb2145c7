# Targets mirror the CI jobs in .github/workflows/ci.yml so a green
# `make check` locally predicts a green pipeline.

GO ?= go
BIN := bin

.PHONY: all build lint vet fmt test race fuzz-smoke deploy-smoke bench profile bench-check check clean

all: build

build:
	$(GO) build ./...
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/...

# Stock vet plus brb-vet, the repo's own invariant analyzers
# (DESIGN.md §12). Both are blocking in CI's lint job. brb-vet loads
# every package into one process, so counterlint sees the whole repo.
lint: vet
	$(GO) run ./cmd/brb-vet ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestSched' ./internal/netstore/
	$(GO) test -race -run 'HotKeyCache|ClusterCache|CacheReplay' ./internal/netstore/
	$(GO) test -race -count=10 -run 'Revival|HintOverflow|Hint|ProbeRace|LiveAddShard|LiveRemoveShard|MidRebalance|CrashRecovery|ReaderAhead|MisconfiguredLayout|Wedged' ./internal/netstore/
	$(GO) test -race -count=20 -run 'TestCancellationMidMultiget|TestMultigetDeadlineAgainstStalledReplica|TestDeadShard|TestSpentBudgetBeforeDone|TestQueuedBatchKeysSurviveFrameReuse|TestMultigetValuesSurviveReuse' ./internal/netstore/
	$(GO) test -race -count=20 -run 'Hedge' ./internal/netstore/
	$(GO) test -race -count=20 -run 'ConnWriter' ./internal/wire/

# Every decoder is fuzzed for a short while beyond its seed corpus (which
# `test` already runs): the spec reader, the wire codec and the WAL
# record reader.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 15s ./internal/loadgen
	$(GO) test -run '^$$' -fuzz FuzzDecodeModes -fuzztime 15s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzParseRecord -fuzztime 15s ./internal/kv

# README's sharded-cluster deployment as separate processes: servers,
# brb-load, brb-controller's bootstrap, add-shard and remove-shard.
deploy-smoke:
	bash scripts/deploy-smoke.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 100x -benchmem ./internal/wire/ ./internal/netstore/

# CPU and allocation profiles of the store's read round trip: the
# saturating many-client benchmark and the one-client pipeline, each
# with the test binary its profiles symbolize against, under profile/
# (git-ignored). Read them with, for example,
#   go tool pprof -top profile/netstore.test profile/saturation.cpu.prof
#   go tool pprof -sample_index=alloc_space -top profile/netstore.test profile/pipeline.mem.prof
PROFILE := profile

profile:
	@mkdir -p $(PROFILE)
	$(GO) test -c -o $(PROFILE)/netstore.test ./internal/netstore/
	$(PROFILE)/netstore.test -test.run '^$$' -test.bench 'BenchmarkServerSaturation$$' -test.benchtime 3s -test.benchmem \
		-test.cpuprofile $(PROFILE)/saturation.cpu.prof -test.memprofile $(PROFILE)/saturation.mem.prof
	$(PROFILE)/netstore.test -test.run '^$$' -test.bench 'BenchmarkServerPipeline$$' -test.benchtime 3s -test.benchmem \
		-test.cpuprofile $(PROFILE)/pipeline.cpu.prof -test.memprofile $(PROFILE)/pipeline.mem.prof

# bench/ is a Go module of its own (BENCHMARK.json's benchmark), which
# the root module's ./... patterns skip: vet and test it from inside.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: fmt lint build test race fuzz-smoke deploy-smoke bench-check

clean:
	rm -rf $(BIN)
