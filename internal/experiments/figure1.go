package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/brb-repro/brb/internal/backend"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/queue"
	"github.com/brb-repro/brb/internal/sim"
)

// Figure1Result reconstructs the paper's Figure 1: two tasks, three
// servers, and the completion times of each task under a task-oblivious
// (FIFO) schedule versus the task-aware optimal schedule.
//
// The setup is exactly the paper's: client C1 issues T1 = [A, B, C];
// client C2 issues T2 = [D, E]; server S1 holds keys {A, E}, S2 holds
// {B, C}, S3 holds {D}; every operation takes one time unit. Because B
// and C serialize on S2, T1 cannot finish before t=2, so serving E
// before A on S1 lets T2 finish at t=1 without delaying T1 — the optimal
// schedule. A task-oblivious S1 serves A first (arrival order) and T2
// finishes at t=2.
type Figure1Result struct {
	// ObliviousT1, ObliviousT2 are completion times (in unit steps) under
	// the task-oblivious schedule. The paper: T1=2, T2=2.
	ObliviousT1, ObliviousT2 int64
	// OptimalT1, OptimalT2 are completion times under the task-aware
	// schedule. The paper: T1=2, T2=1.
	OptimalT1, OptimalT2 int64
	// ObliviousOrder and OptimalOrder record the per-server service
	// orders, e.g. "S1:[A E] S2:[B C] S3:[D]".
	ObliviousOrder, OptimalOrder string
}

// Figure1 runs both schedules and returns the reconstruction.
func Figure1() Figure1Result {
	var res Figure1Result
	res.ObliviousT1, res.ObliviousT2, res.ObliviousOrder = runFigure1(queue.FIFOFactory[*core.Request], core.Oblivious{})
	res.OptimalT1, res.OptimalT2, res.OptimalOrder = runFigure1(queue.PriorityFactory[*core.Request], core.EqualMax{})
	return res
}

// Matches reports whether the reconstruction reproduces the paper's
// schedule: optimal T2 = 1 unit vs oblivious T2 = 2 units, with T1 = 2
// under both.
func (r Figure1Result) Matches() bool {
	return r.ObliviousT1 == 2 && r.ObliviousT2 == 2 && r.OptimalT1 == 2 && r.OptimalT2 == 1
}

// String renders the comparison like the paper's timeline.
func (r Figure1Result) String() string {
	return fmt.Sprintf(
		"task-oblivious: T1 ends at %d, T2 ends at %d  (%s)\noptimal:        T1 ends at %d, T2 ends at %d  (%s)",
		r.ObliviousT1, r.ObliviousT2, r.ObliviousOrder,
		r.OptimalT1, r.OptimalT2, r.OptimalOrder)
}

// runFigure1 executes the 5-operation scenario under one discipline and
// assigner, returning T1 and T2 completion steps and the service order.
func runFigure1(qf queue.Factory[*core.Request], assigner core.Assigner) (t1End, t2End int64, order string) {
	const unit = int64(1) // one "time unit" = 1ns in engine terms

	// Groups: 0 -> {A, E} on S1; 1 -> {B, C} on S2; 2 -> {D} on S3.
	names := map[uint64]string{0: "A", 1: "B", 2: "C", 3: "D", 4: "E"}
	mk := func(id uint64, task uint64, group cluster.GroupID) *core.Request {
		return &core.Request{ID: id, TaskID: task, Group: group, EstCost: unit, Service: unit}
	}
	t1 := &core.Task{ID: 1, Requests: []*core.Request{
		mk(0, 1, 0), // A
		mk(1, 1, 1), // B
		mk(2, 1, 1), // C
	}}
	t2 := &core.Task{ID: 2, Requests: []*core.Request{
		mk(3, 2, 2), // D
		mk(4, 2, 0), // E
	}}
	core.Prepare(t1, assigner)
	core.Prepare(t2, assigner)

	eng := &sim.Engine{}
	servers := make([]*backend.Server, 3)
	served := make(map[cluster.ServerID][]string)
	done := map[uint64]int64{}
	for i := range servers {
		i := i
		servers[i] = backend.New(eng, cluster.ServerID(i), 1, qf())
		servers[i].OnComplete = func(req *core.Request, _ int, _ sim.Time) {
			served[cluster.ServerID(i)] = append(served[cluster.ServerID(i)], names[req.ID])
			if end := eng.Now(); end > done[req.TaskID] {
				done[req.TaskID] = end
			}
		}
	}
	// Group -> server placement per the figure.
	serverOf := map[cluster.GroupID]int{0: 0, 1: 1, 2: 2}

	// Arrival order: T1's requests are enqueued before T2's (both tasks
	// arrive "simultaneously"; C1's reach the store first), which is what
	// makes the task-oblivious schedule serve A before E.
	eng.At(0, func() {
		for _, r := range t1.Requests {
			servers[serverOf[r.Group]].EnqueueQuiet(r)
		}
		for _, r := range t2.Requests {
			servers[serverOf[r.Group]].EnqueueQuiet(r)
		}
		for _, s := range servers {
			s.Kick()
		}
	})
	eng.Run()

	var parts []string
	ids := make([]int, 0, len(served))
	for s := range served {
		ids = append(ids, int(s))
	}
	sort.Ints(ids)
	for _, s := range ids {
		parts = append(parts, fmt.Sprintf("S%d:[%s]", s+1, strings.Join(served[cluster.ServerID(s)], " ")))
	}
	return done[1], done[2], strings.Join(parts, " ")
}
