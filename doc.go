// Package brb is a reproduction of "BRB: BetteR Batch Scheduling to Reduce
// Tail Latencies in Cloud Data Stores" (Reda, Suresh, Canini, Braithwaite;
// ACM SIGCOMM 2015).
//
// The library lives under internal/: the task-aware scheduling core
// (internal/core), a discrete-event simulation of the paper's evaluation
// (internal/engine and friends), and a real goroutine-based networked data
// store implementing the same scheduling (internal/netstore), deployable
// as a sharded, replica-aware cluster (netstore.Cluster over
// epoch-versioned cluster.ShardTopology, with C3-scored replica selection
// from internal/c3 and live shard rebalancing via netstore.AddShard).
// The request surface is the context-first netstore.Store interface —
// Get/Multiget/Set/Delete with per-call ReadOptions/WriteOptions —
// implemented by the networked Cluster client; caller deadlines
// propagate over the wire as
// remaining budgets and servers shed expired queued work before service.
// The benchmarks in bench_test.go regenerate every figure of the paper;
// see README.md for a quickstart, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for measured results.
package brb
