#!/usr/bin/env bash
# Runs README's sharded-cluster deployment as separate processes:
# three brb-server shard groups of two replicas, a brb-load run that must
# verify, an epoch-1 topology push, a live add-shard onto a fourth group,
# a remove-shard that drains it again, and a second brb-load run that
# must verify against the rebalanced cluster. Every step runs under
# timeout; the servers are killed on exit, pass or fail.
#
# Usage: scripts/deploy-smoke.sh   (from the repository root; BASE_PORT
# picks the first of eight consecutive loopback ports, default 7171)
set -euo pipefail

base=${BASE_PORT:-7171}
work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/" ./cmd/brb-server ./cmd/brb-load ./cmd/brb-controller

addr() { echo "127.0.0.1:$((base + $1))"; }

# start_group SHARD: one brb-server process serving both replicas of
# SHARD, on ports base+2·SHARD and base+2·SHARD+1.
start_group() {
	local a b
	a=$(addr $((2 * $1))) b=$(addr $((2 * $1 + 1)))
	"$work/brb-server" -shard "$1" -group-listen "$a,$b" >"$work/server-$1.log" 2>&1 &
	pids+=($!)
	for port in "${a##*:}" "${b##*:}"; do
		for _ in $(seq 100); do
			if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then continue 2; fi
			sleep 0.1
		done
		echo "deploy-smoke: shard $1 never listened on port $port" >&2
		cat "$work/server-$1.log" >&2
		exit 1
	done
}

# load NAME: run brb-load's built-in spec against the three original
# groups and require the verifier's OK.
load() {
	timeout 120 "$work/brb-load" -shards 3 -replication 2 -servers "$cluster" 2>&1 | tee "$work/$1.out"
	grep -E 'verify: OK' "$work/$1.out"
}

for s in 0 1 2; do start_group "$s"; done
cluster=$(addr 0),$(addr 1),$(addr 2),$(addr 3),$(addr 4),$(addr 5)

load first
timeout 60 "$work/brb-controller" -push-topology -shards 3 -replicas 2 -cluster "$cluster"
start_group 3
timeout 60 "$work/brb-controller" -add-shard -cluster "$cluster" -new-addrs "$(addr 6),$(addr 7)"
timeout 60 "$work/brb-controller" -remove-shard 3 -cluster "$cluster"
load second
echo "deploy-smoke: OK"
