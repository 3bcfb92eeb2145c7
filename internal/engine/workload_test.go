package engine

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
)

// defaultWorkload is the paper-default workload (120k tasks), built once
// for the statistical checks below.
var defaultWorkload = sync.OnceValues(func() (*cluster.Topology, []*core.Task) {
	topo, tasks, err := Workload(Defaults())
	if err != nil {
		panic(err)
	}
	return topo, tasks
})

func TestWorkloadGenerateBasic(t *testing.T) {
	cfg := Defaults()
	_, tasks := defaultWorkload()
	if len(tasks) != cfg.Tasks {
		t.Fatalf("%d tasks, want %d", len(tasks), cfg.Tasks)
	}
	for i, task := range tasks {
		if task.ID != uint64(i) || task.Fanout() < 1 {
			t.Fatalf("task %d: id %d fan-out %d", i, task.ID, task.Fanout())
		}
		if task.Client < 0 || task.Client >= cfg.Clients {
			t.Fatalf("task %d: client %d outside [0,%d)", i, task.Client, cfg.Clients)
		}
	}
}

func TestWorkloadArrivalsSorted(t *testing.T) {
	_, tasks := defaultWorkload()
	for i := 1; i < len(tasks); i++ {
		if tasks[i].ArriveAt < tasks[i-1].ArriveAt {
			t.Fatalf("task %d arrives at %d, before task %d at %d", i, tasks[i].ArriveAt, i-1, tasks[i-1].ArriveAt)
		}
	}
}

func TestWorkloadRequestIDsUnique(t *testing.T) {
	_, tasks := defaultWorkload()
	nextID := uint64(0)
	for _, task := range tasks {
		for _, r := range task.Requests {
			if r.ID != nextID {
				t.Fatalf("request id %d, want dense %d", r.ID, nextID)
			}
			nextID++
			if r.TaskID != task.ID || r.Client != task.Client {
				t.Fatal("request/task linkage broken")
			}
		}
	}
}

func TestWorkloadGroupsMatchTopology(t *testing.T) {
	topo, tasks := defaultWorkload()
	for _, task := range tasks {
		for _, r := range task.Requests {
			if r.Group != topo.GroupOfKeyID(r.Key) {
				t.Fatalf("request %d: group %d, key %d maps to %d", r.ID, r.Group, r.Key, topo.GroupOfKeyID(r.Key))
			}
		}
	}
}

// TestWorkloadQuickTraceInvariants: for any seed, every request has a key
// in range, a size inside the size distribution's bounds, a positive
// service time and estimate, and a group the topology has.
func TestWorkloadQuickTraceInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := smallConfig()
		cfg.Tasks = 300
		cfg.Seed = seed
		topo, tasks, err := Workload(cfg)
		if err != nil {
			return false
		}
		sd := cfg.SizeDist()
		for _, task := range tasks {
			if task.Fanout() < 1 {
				return false
			}
			for _, r := range task.Requests {
				if r.Key >= uint64(cfg.Keys) || r.Service < 1 || r.EstCost < 1 {
					return false
				}
				if float64(r.Size) < sd.L || float64(r.Size) > sd.H {
					return false
				}
				if int(r.Group) >= topo.NumPartitions() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	_, a, err := Workload(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Workload(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d tasks", len(a), len(b))
	}
	for i := range a {
		ta, tb := a[i], b[i]
		if ta.ArriveAt != tb.ArriveAt || ta.Client != tb.Client || ta.Fanout() != tb.Fanout() {
			t.Fatalf("task %d differs across identical seeds", i)
		}
		for j := range ta.Requests {
			ra, rb := ta.Requests[j], tb.Requests[j]
			if ra.Key != rb.Key || ra.Size != rb.Size || ra.Service != rb.Service {
				t.Fatalf("request %d/%d differs across identical seeds", i, j)
			}
		}
	}
}

func TestWorkloadSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	_, a, err := Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	_, b, err := Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].ArriveAt != b[i].ArriveAt || a[i].Fanout() != b[i].Fanout() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals and fan-outs")
	}
}

func TestWorkloadMeanFanout(t *testing.T) {
	cfg := Defaults()
	_, tasks := defaultWorkload()
	reqs := 0
	for _, task := range tasks {
		reqs += task.Fanout()
	}
	if got := float64(reqs) / float64(len(tasks)); math.Abs(got-cfg.MeanFanout)/cfg.MeanFanout > 0.03 {
		t.Fatalf("mean fan-out %.3f, want %v ±3%%", got, cfg.MeanFanout)
	}
}

func TestWorkloadBurstShare(t *testing.T) {
	cfg := Defaults()
	_, tasks := defaultWorkload()
	bursts := 0
	for _, task := range tasks {
		// A geometric fan-out of mean ≈ 5 reaches 50 with odds ≈ 1e-4.
		if task.Fanout() >= burstMin {
			bursts++
		}
	}
	if got := float64(bursts) / float64(len(tasks)); math.Abs(got-cfg.BurstProb) > 0.15*cfg.BurstProb {
		t.Fatalf("burst share %.4f, want %v ±15%%", got, cfg.BurstProb)
	}
}

func TestWorkloadNoiseUnbiased(t *testing.T) {
	_, tasks := defaultWorkload()
	var est, svc float64
	for _, task := range tasks {
		for _, r := range task.Requests {
			est += float64(r.EstCost)
			svc += float64(r.Service)
		}
	}
	if math.Abs(svc/est-1) > 0.02 {
		t.Fatalf("mean service / mean estimate = %.4f, want 1 ±2%%", svc/est)
	}
}

// TestWorkloadEffectiveLoad: while every client is still issuing, the
// offered work keeps the tier at Load. (Clients get equal task counts, so
// the last ones to finish thin the final ≈2% of the horizon.)
func TestWorkloadEffectiveLoad(t *testing.T) {
	cfg := Defaults()
	_, tasks := defaultWorkload()
	last := make([]int64, cfg.Clients)
	for _, task := range tasks {
		last[task.Client] = task.ArriveAt
	}
	end := last[0]
	for _, l := range last {
		end = min(end, l)
	}
	var work float64
	for _, task := range tasks {
		if task.ArriveAt > end {
			break
		}
		for _, r := range task.Requests {
			work += float64(r.Service)
		}
	}
	if got := work / float64(end) / float64(cfg.Servers*cfg.Cores); math.Abs(got-cfg.Load) > 0.02 {
		t.Fatalf("effective load %.3f, want %v ±0.02", got, cfg.Load)
	}
}

func TestWorkloadNoNoiseIsExact(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseSigma = 0
	_, tasks, err := Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		for _, r := range task.Requests {
			if r.Service != r.EstCost {
				t.Fatalf("sigma=0 but service %d != estimate %d", r.Service, r.EstCost)
			}
		}
	}
}

func TestCapacityComputation(t *testing.T) {
	cm := core.CostModel{BaseNanos: 285714}
	want := 9.0 * 4 * 3500
	if got := CapacityRequestsPerSec(9, 4, cm, 0); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("capacity = %v, want %v", got, want)
	}
	if got := ArrivalRateForLoad(0.7, 9, 4, cm, 0, 8.6); math.Abs(got-0.7*want/8.6)/(0.7*want/8.6) > 0.01 {
		t.Fatalf("arrival rate = %v", got)
	}
}
