package loadgen

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/netstore"
)

// captureStore records everything the engine issues through it; the
// configurable error lets tests drive the outcome classification.
type captureStore struct {
	mu      sync.Mutex
	gets    int
	sets    int
	dels    int
	keys    int
	biases  map[int64]int // PriorityBias -> read count
	wrote   uint64
	readErr error
	closed  atomic.Bool
}

func newCaptureStore() *captureStore {
	return &captureStore{biases: map[int64]int{}}
}

func (s *captureStore) Get(ctx context.Context, key string, opts netstore.ReadOptions) ([]byte, bool, error) {
	return nil, false, nil
}

func (s *captureStore) Multiget(ctx context.Context, keys []string, opts netstore.ReadOptions) (*netstore.TaskResult, error) {
	s.mu.Lock()
	s.gets++
	s.keys += len(keys)
	s.biases[opts.PriorityBias]++
	err := s.readErr
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	res := &netstore.TaskResult{
		Values: make([][]byte, len(keys)),
		Found:  make([]bool, len(keys)),
		Hedged: 1,
	}
	return res, nil
}

func (s *captureStore) Set(ctx context.Context, key string, value []byte, opts netstore.WriteOptions) error {
	s.mu.Lock()
	s.sets++
	s.wrote += uint64(len(value))
	s.mu.Unlock()
	return nil
}

func (s *captureStore) Delete(ctx context.Context, key string, opts netstore.WriteOptions) error {
	s.mu.Lock()
	s.dels++
	s.mu.Unlock()
	return nil
}

func (s *captureStore) Close() { s.closed.Store(true) }

func runSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(`{
  "name": "run-test",
  "seed": 9,
  "keys": 100,
  "classes": [
    {"name": "gold", "priority": 0},
    {"name": "bronze", "priority": 2}
  ],
  "clients": [
    {"name": "fast", "class": "gold", "workers": 2, "ops": 40,
     "keys": {"dist": "uniform"}, "fanout": {"mean": 2}},
    {"name": "slow", "class": "bronze", "ops": 30,
     "keys": {"dist": "uniform"}, "mix": {"write": 0.3, "delete": 0.1}, "fanout": {"mean": 1}}
  ]
}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return spec
}

func TestRunClosedLoop(t *testing.T) {
	spec := runSpec(t)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var mu sync.Mutex
	stores := map[string]*captureStore{}
	post := map[string]int{}
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			st := newCaptureStore()
			mu.Lock()
			stores[fmt.Sprintf("%s/%d", client, worker)] = st
			mu.Unlock()
			return st, nil
		},
		PostWorker: func(client string, worker int, st netstore.Store) {
			mu.Lock()
			post[fmt.Sprintf("%s/%d", client, worker)]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(stores) != 3 {
		t.Fatalf("dialed %d stores, want 3 (fast/0 fast/1 slow/0)", len(stores))
	}
	if rep.TotalOps != 70 {
		t.Fatalf("TotalOps = %d, want 70", rep.TotalOps)
	}
	// Report rows come most-urgent first.
	if rep.Classes[0].Class != "gold" || rep.Classes[1].Class != "bronze" {
		t.Fatalf("class order: %+v", rep.Classes)
	}
	gold, bronze := rep.Classes[0], rep.Classes[1]
	if gold.Ops != 40 || bronze.Ops != 30 {
		t.Fatalf("per-class ops gold=%d bronze=%d, want 40/30", gold.Ops, bronze.Ops)
	}
	if gold.Errors != 0 || gold.Expired != 0 || bronze.Errors != 0 {
		t.Fatalf("unexpected failures: %+v", rep.Classes)
	}
	// The capture store reports Hedged=1 per read.
	if gold.Hedged != gold.Ops {
		t.Fatalf("gold hedges = %d, want %d", gold.Hedged, gold.Ops)
	}
	if gold.Latency.Count != gold.Ops {
		t.Fatalf("gold latency count %d, want %d", gold.Latency.Count, gold.Ops)
	}
	// Bias plumbing: Run derives each class's bias from classes, so
	// fast's reads carry gold's (0) and slow's carry bronze's (2
	// units); writes don't consult the bias.
	for name, st := range stores {
		wantBias := int64(0)
		if name == "slow/0" {
			wantBias = 2 * ClassBiasUnit
		}
		if st.biases[wantBias] != st.gets {
			t.Fatalf("%s: biases %v over %d reads, want all at %d", name, st.biases, st.gets, wantBias)
		}
		if !st.closed.Load() {
			t.Fatalf("%s: store left open", name)
		}
	}
	slow := stores["slow/0"]
	if slow.sets == 0 || slow.dels == 0 {
		t.Fatalf("slow mix not exercised: sets=%d dels=%d", slow.sets, slow.dels)
	}
	if bronze.BytesWritten != slow.wrote {
		t.Fatalf("bronze bytes written %d, store saw %d", bronze.BytesWritten, slow.wrote)
	}
	for name, n := range post {
		if n != 1 {
			t.Fatalf("PostWorker ran %d times for %s", n, name)
		}
	}
	if len(post) != 3 {
		t.Fatalf("PostWorker covered %d workers, want 3", len(post))
	}
	// The formatted report carries the CI-grepped per-class lines.
	out := rep.String()
	for _, want := range []string{"class gold (prio 0):", "class bronze (prio 2):", "p999="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunClassifiesDeadlineErrors(t *testing.T) {
	spec := runSpec(t)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			st := newCaptureStore()
			if client == "fast" {
				st.readErr = fmt.Errorf("deadline: %w", context.DeadlineExceeded)
			}
			return st, nil
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	gold := rep.Classes[0]
	if gold.Expired != gold.Ops || gold.Errors != 0 {
		t.Fatalf("deadline misses misclassified: %+v", gold)
	}
	if gold.Latency.Count != 0 {
		t.Fatalf("expired reads leaked into the latency histogram: %d", gold.Latency.Count)
	}
}

func TestRunCountsHardErrors(t *testing.T) {
	spec := runSpec(t)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Uint64
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			st := newCaptureStore()
			if client == "slow" {
				st.readErr = fmt.Errorf("wire: connection wedged")
			}
			return st, nil
		},
		OnError: func(client string, worker int, err error) { seen.Add(1) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bronze := rep.Classes[1]
	if bronze.Errors == 0 || bronze.Errors != seen.Load() {
		t.Fatalf("hard errors: counted %d, hook saw %d", bronze.Errors, seen.Load())
	}
}

func TestRunPacedOpenLoop(t *testing.T) {
	// A small paced stream: 40 ops at 10k/s is 4ms of schedule. The
	// point is the paced path (timers), not throughput.
	spec, err := ParseSpec([]byte(`{
  "name": "paced",
  "seed": 11,
  "keys": 50,
  "clients": [
    {"name": "open", "ops": 40, "arrival": {"process": "poisson", "rate": 10000},
     "keys": {"dist": "uniform"}, "fanout": {"mean": 1}}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if ops[i].TS == 0 {
			t.Fatalf("open-loop op %d missing timestamp", i)
		}
	}
	st := newCaptureStore()
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(string, int, int) (netstore.Store, error) { return st, nil },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps != 40 || st.gets != 40 {
		t.Fatalf("paced run issued %d/%d ops", st.gets, rep.TotalOps)
	}
	if rep.Wall < 3*time.Millisecond {
		t.Fatalf("paced run finished in %v — pacing not applied", rep.Wall)
	}
}

// pacedSpec is n reads by one worker, due every 10µs from the
// run's start.
func pacedSpec(t *testing.T, n int) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(fmt.Sprintf(`{
  "name": "paced-%d",
  "seed": 5,
  "keys": 50,
  "clients": [
    {"name": "open", "ops": %d, "arrival": {"process": "fixed", "rate": 100000},
     "keys": {"dist": "uniform"}, "fanout": {"mean": 1}}
  ]
}`, n, n)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// An op the generator issues late still counts the wait: its latency
// runs from when it was due, and the class line reports the lateness.
// Here every op is held back by a dial that takes gap.
func TestRunTimesFromDue(t *testing.T) {
	spec := pacedSpec(t, 8)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const gap = 100 * time.Millisecond
	st := newCaptureStore()
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(string, int, int) (netstore.Store, error) {
			ready := make(chan struct{})
			time.AfterFunc(gap, func() { close(ready) })
			<-ready
			return st, nil
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := rep.Classes[0]
	lastDue := time.Duration(ops[len(ops)-1].TS)
	if c.Ops != 8 || c.Latency.Count != 8 {
		t.Fatalf("%d ops, %d latencies; want 8 of each", c.Ops, c.Latency.Count)
	}
	if min := time.Duration(c.Latency.Min); min < gap-lastDue {
		t.Errorf("fastest read took %v from its due time; the dial alone held every op back %v", min, gap-lastDue)
	}
	m := regexp.MustCompile(`keys=\d+ late_p99=([0-9.]+)ms p50=`).FindStringSubmatch(rep.String())
	if m == nil {
		t.Fatalf("class line reports no lateness:\n%s", rep)
	}
	ms, _ := strconv.ParseFloat(m[1], 64)
	if late := time.Duration(ms * float64(time.Millisecond)); late < gap-lastDue || late > 2*gap {
		t.Errorf("late_p99 = %v, want about the %v hold", late, gap)
	}
}

// barrierStore holds every read until n of them are in flight at once.
type barrierStore struct {
	*captureStore
	n   int32
	in  atomic.Int32
	all chan struct{}
}

func (s *barrierStore) Multiget(ctx context.Context, keys []string, opts netstore.ReadOptions) (*netstore.TaskResult, error) {
	if s.in.Add(1) == s.n {
		close(s.all)
	}
	select {
	case <-s.all:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.captureStore.Multiget(ctx, keys, opts)
}

// A paced stream is open loop: no op waits for an earlier one, however
// many are outstanding. 64 reads that the store answers only once all 64
// are in flight complete well inside the deadline.
func TestRunPacedHasNoInFlightCap(t *testing.T) {
	spec := pacedSpec(t, 64)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st := &barrierStore{captureStore: newCaptureStore(), n: 64, all: make(chan struct{})}
	rep, err := Run(ctx, spec.Classes, ops, RunConfig{
		Dial: func(string, int, int) (netstore.Store, error) { return st, nil },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c := rep.Classes[0]; c.Ops != 64 || c.Latency.Count != 64 || c.Expired != 0 {
		t.Fatalf("ops=%d completed=%d expired=%d; want all 64 reads completed", c.Ops, c.Latency.Count, c.Expired)
	}
}
