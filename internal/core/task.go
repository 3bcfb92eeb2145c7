// Package core implements BRB's primary contribution (paper §2.1):
// task-aware scheduling. It defines the task/request model shared by the
// simulator and the real networked store, the service-cost estimator
// ("forecasted service times based on the size of the value they are
// requesting"), task decomposition into per-replica-group sub-tasks,
// bottleneck identification, and the priority-assignment algorithms
// EqualMax and UnifIncr.
package core

import (
	"fmt"

	"github.com/brb-repro/brb/internal/cluster"
)

// Request is one data access (sub-task element) of a task. Lower Priority
// values are scheduled sooner.
type Request struct {
	ID     uint64
	TaskID uint64
	// Client is the application server that issued the task.
	Client int
	// Key is the dense key identifier used by trace generators.
	Key uint64
	// Group is the replica group (partition) holding the key.
	Group cluster.GroupID
	// Size is the size in bytes of the requested value; the client knows
	// it (or a forecast of it) and derives cost estimates from it.
	Size int64
	// EstCost is the forecasted service time in nanoseconds, computed
	// from Size by the cost model. Identical for all strategies.
	EstCost int64
	// Service is the request's actual service demand in nanoseconds,
	// drawn once at trace-generation time so all strategies replay the
	// same demands. The simulated backend consumes it; clients never
	// read it.
	Service int64
	// Priority is the task-aware scheduling priority assigned by an
	// Assigner. Lower is served sooner.
	Priority int64
	// EnqueuedAt is server-side bookkeeping: the simulated time the
	// request entered a server queue (or the shared global queue),
	// used for wait-time accounting. Strategies and backends own it.
	EnqueuedAt int64
}

// Task is a set of logically-related requests (e.g. all tracks in a
// playlist). It is complete only once all its requests complete.
type Task struct {
	ID uint64
	// Client is the issuing application server, in [0, clients).
	Client int
	// ArriveAt is the task's arrival time at the client, ns since run
	// start.
	ArriveAt int64
	// Requests are the task's data accesses. Fan-out = len(Requests).
	Requests []*Request
}

// Fanout returns the number of requests in the task.
func (t *Task) Fanout() int { return len(t.Requests) }

// SubTask is the set of a task's requests destined for one replica group;
// its requests serialize on whichever replica server the client selects.
type SubTask struct {
	Group cluster.GroupID
	// Requests preserves the task's request order.
	Requests []*Request
	// Cost is the sum of the requests' forecasted service times.
	Cost int64
}

// Decompose splits a task into sub-tasks, one per distinct replica group,
// and computes each sub-task's cost (paper §2.1: "clients subdivide it into
// a set of sub-tasks, one for each replica group; a sub-task contains all
// requests for a distinct replica group"). Sub-tasks appear in order of
// first occurrence, so decomposition is deterministic.
func Decompose(t *Task) []SubTask {
	return DecomposeInto(make([]SubTask, 0, 4), t)
}

// DecomposeInto is Decompose into dst's storage: it reuses dst's
// sub-tasks and their Requests arrays, so a caller that keeps the
// result for its next task decomposes without allocating once the
// arrays have grown.
func DecomposeInto(dst []SubTask, t *Task) []SubTask {
	if len(t.Requests) == 0 {
		return nil
	}
	subs := dst[:0]
	for _, r := range t.Requests {
		i := 0
		for i < len(subs) && subs[i].Group != r.Group {
			i++
		}
		if i == len(subs) {
			if i < cap(subs) {
				subs = subs[:i+1]
				subs[i] = SubTask{Group: r.Group, Requests: subs[i].Requests[:0]}
			} else {
				subs = append(subs, SubTask{Group: r.Group})
			}
		}
		subs[i].Requests = append(subs[i].Requests, r)
		subs[i].Cost += r.EstCost
	}
	return subs
}

// Bottleneck returns the cost of the costliest sub-task — the quantity that
// determines the task's best-case makespan.
func Bottleneck(subs []SubTask) int64 {
	var max int64
	for i := range subs {
		if subs[i].Cost > max {
			max = subs[i].Cost
		}
	}
	return max
}

// CostModel forecasts a request's service time from its value size:
// est = Base + PerByte·size. The same affine model generates actual service
// demands in the simulator (with noise), so forecasts are unbiased — the
// paper assumes clients can forecast service times from value sizes.
type CostModel struct {
	// BaseNanos is the size-independent component (lookup, syscall, RPC
	// decode) in nanoseconds.
	BaseNanos int64
	// PerByteNanos is the per-byte transfer/serialization cost, in
	// nanoseconds per byte (fractional values expressed via FixedPoint:
	// cost uses integer math as size*PerBytePico/1000).
	PerBytePico int64 // picoseconds per byte, to allow sub-ns/byte rates
}

// Estimate returns the forecasted service time in nanoseconds for a value
// of the given size.
func (m CostModel) Estimate(sizeBytes int64) int64 {
	if sizeBytes < 0 {
		sizeBytes = 0
	}
	return m.BaseNanos + sizeBytes*m.PerBytePico/1000
}

// Validate reports whether the model produces positive service times.
func (m CostModel) Validate() error {
	if m.BaseNanos <= 0 && m.PerBytePico <= 0 {
		return fmt.Errorf("core: CostModel %+v yields non-positive service times", m)
	}
	if m.BaseNanos < 0 || m.PerBytePico < 0 {
		return fmt.Errorf("core: CostModel %+v has negative components", m)
	}
	return nil
}

// CalibrateCostModel returns a CostModel whose mean service time equals
// meanServiceNanos for values with mean size meanSizeBytes, splitting the
// mean between the size-independent base (baseFraction) and the
// size-proportional part. This is how the experiment config turns the
// paper's "average service rate of 3500 requests/s" into model parameters.
func CalibrateCostModel(meanServiceNanos float64, meanSizeBytes float64, baseFraction float64) CostModel {
	if baseFraction < 0 {
		baseFraction = 0
	}
	if baseFraction > 1 {
		baseFraction = 1
	}
	base := meanServiceNanos * baseFraction
	perByte := 0.0
	if meanSizeBytes > 0 {
		perByte = meanServiceNanos * (1 - baseFraction) / meanSizeBytes
	}
	return CostModel{
		BaseNanos:   int64(base),
		PerBytePico: int64(perByte * 1000),
	}
}
