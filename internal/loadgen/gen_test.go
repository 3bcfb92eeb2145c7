package loadgen

// Statistical sanity for the generators: each distribution's sample
// statistics must land near its analytic target under a fixed seed.
// Tolerances are generous (these are sanity rails, not hypothesis
// tests) but every check fails loudly if a generator's shape breaks.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/randx"
)

func TestPoissonArrivalRate(t *testing.T) {
	r := randx.New(1)
	g := newGapGen(ArrivalSpec{Process: "poisson", Rate: 1000}, 1)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		gap := float64(g.next(r))
		sum += gap
		sumSq += gap * gap
	}
	mean := sum / n
	want := 1e9 / 1000.0 // 1ms in ns
	if math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("poisson mean gap %.0fns, want %.0fns ±3%%", mean, want)
	}
	// Exponential gaps have CoV 1.
	cov := math.Sqrt(sumSq/n-mean*mean) / mean
	if math.Abs(cov-1) > 0.1 {
		t.Fatalf("poisson gap CoV %.3f, want ~1", cov)
	}
}

func TestFixedArrivalDriftFree(t *testing.T) {
	g := newGapGen(ArrivalSpec{Process: "fixed", Rate: 3000}, 1)
	var total int64
	const n = 30000
	for i := 0; i < n; i++ {
		total += g.next(nil)
	}
	// 30000 ops at 3000/s is exactly 10s; the accumulator must not
	// drift even though 1e9/3000 is not a whole nanosecond.
	want := int64(10 * time.Second)
	if d := total - want; d < -n || d > n {
		t.Fatalf("fixed pacing drifted %dns over %d ops", d, n)
	}
}

func TestOnOffBurstiness(t *testing.T) {
	r := randx.New(2)
	spec := ArrivalSpec{Process: "onoff", Rate: 100000,
		On: Duration(10 * time.Millisecond), Off: Duration(40 * time.Millisecond)}
	g := newGapGen(spec, 1)
	const n = 50000
	var t64, sum, sumSq float64
	on, cycle := float64(spec.On), float64(spec.On+spec.Off)
	inWindow := 0
	for i := 0; i < n; i++ {
		gap := float64(g.next(r))
		t64 += gap
		sum += gap
		sumSq += gap * gap
		if math.Mod(t64, cycle) < on {
			inWindow++
		}
	}
	// Mean rate is Rate·On/(On+Off) = 20k/s.
	rate := n / (t64 / 1e9)
	want := 100000 * on / cycle
	if math.Abs(rate-want)/want > 0.1 {
		t.Fatalf("onoff mean rate %.0f/s, want %.0f/s ±10%%", rate, want)
	}
	// Every arrival lands inside an on window.
	if inWindow != n {
		t.Fatalf("%d/%d arrivals landed outside on windows", n-inWindow, n)
	}
	// Interrupted-Poisson gaps are far burstier than exponential: the
	// off-window jumps push the CoV well above 1.
	mean := sum / n
	cov := math.Sqrt(sumSq/n-mean*mean) / mean
	if cov < 2 {
		t.Fatalf("onoff gap CoV %.2f, want > 2 (bursty)", cov)
	}
}

func TestDiurnalRateAndModulation(t *testing.T) {
	r := randx.New(3)
	period := 100 * time.Millisecond
	g := newGapGen(ArrivalSpec{Process: "diurnal", Rate: 200000,
		Period: Duration(period), Amplitude: 0.8}, 1)
	const n = 100000
	var tns float64
	rising, falling := 0, 0 // arrivals in each half-period
	for i := 0; i < n; i++ {
		tns += float64(g.next(r))
		if math.Mod(tns, float64(period)) < float64(period)/2 {
			rising++
		} else {
			falling++
		}
	}
	// The sinusoid averages out: long-run rate ≈ Rate.
	rate := n / (tns / 1e9)
	if math.Abs(rate-200000)/200000 > 0.1 {
		t.Fatalf("diurnal mean rate %.0f/s, want 200000/s ±10%%", rate)
	}
	// sin is positive over the first half-period, negative over the
	// second: with amplitude 0.8 the rising half must carry well over
	// half the arrivals (analytically (1+2·0.8/π)/2 ≈ 75%).
	frac := float64(rising) / n
	if frac < 0.65 {
		t.Fatalf("diurnal modulation missing: %.1f%% of arrivals in the peak half, want > 65%%", 100*frac)
	}
	_ = falling
}

func TestZipfSkew(t *testing.T) {
	r := randx.New(4)
	const keys, n = 1000, 100000
	p := newKeyPicker(KeySpec{Dist: "zipf", S: 1.1}, keys)
	counts := make([]int, keys)
	for i := 0; i < n; i++ {
		counts[p.pick(r)]++
	}
	// Key 0's analytic share is 1/H where H = Σ 1/(i+1)^1.1.
	h := 0.0
	for i := 0; i < keys; i++ {
		h += 1 / math.Pow(float64(i+1), 1.1)
	}
	want := 1 / h
	got := float64(counts[0]) / n
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("zipf key-0 share %.4f, want %.4f ±10%%", got, want)
	}
	// Top 1% of keys must dominate a uniform's 1% share by an order of
	// magnitude.
	top := 0
	for i := 0; i < keys/100; i++ {
		top += counts[i]
	}
	if share := float64(top) / n; share < 0.3 {
		t.Fatalf("zipf top-1%% share %.3f, want > 0.3", share)
	}
}

func TestHotspotSkewAndChurn(t *testing.T) {
	r := randx.New(5)
	const keys, churn = 10000, 5000
	p := newKeyPicker(KeySpec{Dist: "hotspot", Hot: 100, HotFrac: 0.9, Churn: churn}, keys).(*hotspotPicker)
	// First epoch: measure the hot-set hit share.
	first := map[int]bool{}
	hits := 0
	for i := 0; i < churn; i++ {
		id := p.pick(r)
		if i == 0 {
			for _, k := range p.set {
				first[k] = true
			}
		}
		if first[id] {
			hits++
		}
	}
	// Expected share: HotFrac plus the uniform path leaking in
	// (1-HotFrac)·Hot/Keys ≈ 0.901.
	if share := float64(hits) / churn; math.Abs(share-0.901) > 0.03 {
		t.Fatalf("hotspot hit share %.3f, want ~0.901 ±0.03", share)
	}
	// Next epoch: the churn must re-draw the hot set.
	p.pick(r)
	same := 0
	for _, k := range p.set {
		if first[k] {
			same++
		}
	}
	if same == len(p.set) {
		t.Fatalf("hot set did not churn after %d picks", churn)
	}
}

func TestSizeDistributions(t *testing.T) {
	r := randx.New(6)
	const n = 100000
	t.Run("pareto", func(t *testing.T) {
		z := SizeSpec{Dist: "pareto", Alpha: 1.2, Min: 256, Max: 64 << 10}
		if err := normalizeSizes(&z, "t"); err != nil {
			t.Fatal(err)
		}
		s := newSizer(z)
		var sum float64
		lo, hi := math.MaxInt, 0
		for i := 0; i < n; i++ {
			v := s.size(r)
			sum += float64(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		want := randx.BoundedPareto{Alpha: 1.2, L: 256, H: 64 << 10}.Mean()
		if mean := sum / n; math.Abs(mean-want)/want > 0.1 {
			t.Fatalf("pareto mean %.0f, want %.0f ±10%%", mean, want)
		}
		if lo < 256 || hi > 64<<10 {
			t.Fatalf("pareto escaped bounds: [%d, %d]", lo, hi)
		}
	})
	t.Run("lognormal", func(t *testing.T) {
		z := SizeSpec{Dist: "lognormal", MeanBytes: 4096, Sigma: 0.5}
		if err := normalizeSizes(&z, "t"); err != nil {
			t.Fatal(err)
		}
		s := newSizer(z)
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.size(r))
		}
		if mean := sum / n; math.Abs(mean-4096)/4096 > 0.1 {
			t.Fatalf("lognormal mean %.0f, want 4096 ±10%%", mean)
		}
	})
	t.Run("fixed", func(t *testing.T) {
		s := newSizer(SizeSpec{Dist: "fixed", Bytes: 512})
		for i := 0; i < 10; i++ {
			if v := s.size(r); v != 512 {
				t.Fatalf("fixed size %d, want 512", v)
			}
		}
	})
}

func statSpec() *Spec {
	spec, err := ParseSpec([]byte(specJSON))
	if err != nil {
		panic(err)
	}
	return spec
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(statSpec())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(statSpec())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec+seed produced different op sequences (%d vs %d ops)", len(a), len(b))
	}
	other := statSpec()
	other.Seed++
	c, err := Generate(other)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical op sequences")
	}
}

func TestGenerateShape(t *testing.T) {
	spec := statSpec()
	ops, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ops) != spec.TotalOps() {
		t.Fatalf("got %d ops, want %d", len(ops), spec.TotalOps())
	}
	perClient := map[string]int{}
	writes := 0
	var lastTS int64 = -1
	for i := range ops {
		op := &ops[i]
		perClient[op.Client]++
		if op.TS < lastTS {
			t.Fatalf("op %d out of TS order: %d after %d", i, op.TS, lastTS)
		}
		lastTS = op.TS
		switch op.Kind {
		case OpSet:
			writes++
			if len(op.Keys) != 1 || op.Size <= 0 {
				t.Fatalf("bad set op: %+v", op)
			}
		case OpDel:
			if len(op.Keys) != 1 || op.Size != 0 {
				t.Fatalf("bad del op: %+v", op)
			}
		case OpGet:
			if len(op.Keys) == 0 {
				t.Fatalf("empty get op: %+v", op)
			}
		default:
			t.Fatalf("unknown op kind %q", op.Kind)
		}
		for _, k := range op.Keys {
			if k < 0 || k >= spec.Keys {
				t.Fatalf("key id %d outside keyspace %d", k, spec.Keys)
			}
		}
		if op.Class == "" {
			t.Fatalf("op %d missing class", i)
		}
	}
	for _, c := range spec.Clients {
		if perClient[c.Name] != c.Ops {
			t.Fatalf("client %s: %d ops, want %d", c.Name, perClient[c.Name], c.Ops)
		}
	}
	// web writes 10% of 1000, etl 50% of 200: expect roughly 200 total.
	if writes < 120 || writes > 280 {
		t.Fatalf("write count %d far from expectation ~200", writes)
	}
	// cron's fanout cap must hold.
	for i := range ops {
		if ops[i].Client == "cron" && len(ops[i].Keys) > 64 {
			t.Fatalf("cron fanout %d exceeds max 64", len(ops[i].Keys))
		}
	}
}

func TestSubstreamIsolation(t *testing.T) {
	// Adding a client must not perturb existing clients' streams.
	spec := statSpec()
	base, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	grown := statSpec()
	grown.Clients = append(grown.Clients, ClientSpec{
		Name: "extra", Ops: 50, Fanout: FanoutSpec{Mean: 1},
	})
	more, err := Generate(grown)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(ops []Op, client string) []Op {
		var out []Op
		for _, op := range ops {
			if op.Client == client {
				out = append(out, op)
			}
		}
		return out
	}
	for _, c := range spec.Clients {
		if !reflect.DeepEqual(filter(base, c.Name), filter(more, c.Name)) {
			t.Fatalf("client %s stream changed when an unrelated client was added", c.Name)
		}
	}
}

// goldenSpec is shaped like the bench/ workloads: open-loop Poisson
// clients over Zipf and uniform keys, playlist bursts, three SLO
// classes and a write/delete mix.
func goldenSpec() *Spec {
	return &Spec{
		Name: "golden", Seed: 42, Keys: 2000,
		Classes: []ClassSpec{{Name: "interactive", Priority: 0}, {Name: "batch", Priority: 1}, {Name: "bulk", Priority: 2}},
		Clients: []ClientSpec{
			{Name: "web", Class: "interactive", Workers: 4, Ops: 600,
				Arrival: ArrivalSpec{Process: "poisson", Rate: 500},
				Keys:    KeySpec{Dist: "zipf", S: 0.9},
				Fanout:  FanoutSpec{Mean: 8.6, BurstProb: 0.02, BurstMin: 24, BurstMax: 40}},
			{Name: "mix", Class: "batch", Workers: 2, Ops: 300,
				Arrival: ArrivalSpec{Process: "poisson", Rate: 300},
				Keys:    KeySpec{Dist: "uniform"},
				Sizes:   SizeSpec{Dist: "pareto", Alpha: 1.0, Min: 256, Max: 64 << 10},
				Mix:     MixSpec{Write: 0.5, Delete: 0.05},
				Fanout:  FanoutSpec{Mean: 4}},
			{Name: "cron", Class: "bulk", Workers: 1, Ops: 100,
				Arrival: ArrivalSpec{Process: "poisson", Rate: 50},
				Keys:    KeySpec{Dist: "uniform"},
				Fanout:  FanoutSpec{Mean: 32, Max: 64}},
		},
	}
}

// opStream encodes a spec's ops the way the golden hashes were first
// taken: a header line — format name and version, then the spec's
// name, seed, keyspace, classes and faults — and one JSON line per op.
func opStream(t *testing.T, spec *Spec, ops []Op) []byte {
	t.Helper()
	header := struct {
		Magic   string      `json:"magic"`
		Version int         `json:"version"`
		Name    string      `json:"name"`
		Seed    uint64      `json:"seed"`
		Keys    int         `json:"keys"`
		Classes []ClassSpec `json:"classes"`
		Faults  []FaultSpec `json:"faults,omitempty"`
	}{"brb-trace", 1, spec.Name, spec.Seed, spec.Keys, spec.Classes, spec.Faults}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(header); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if err := enc.Encode(&ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestGenerateGolden pins the encoded bytes of one generated op stream,
// so a change anywhere under Generate (RNG split order, draw order per
// op, a distribution's arithmetic) that would alter what a fixed spec —
// and so every bench/ workload — replays fails here rather than passing
// the same-process determinism check above.
func TestGenerateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds on other architectures, which moves
		// the last bit of the Pareto size draws.
		t.Skipf("golden hash recorded on amd64, not %s", runtime.GOARCH)
	}
	const want = "8b6d96424f9aa7d012614006f6be67d7383c5ac69f90e0a74fc9a258b6730f9e"
	spec := goldenSpec()
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	stream := opStream(t, spec, ops)
	sum := sha256.Sum256(stream)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("op stream of the golden spec changed: sha256 %s, want %s (%d ops, %d bytes)", got, want, len(ops), len(stream))
	}
}

// TestCheckedInSpecsGolden pins the op stream of every spec brb-load's
// CI smokes run, so an edit to a checked-in spec — or to how ParseSpec
// reads one — that would change what the smoke replays fails here. The
// hashes were first recorded from the specs' earlier YAML form.
func TestCheckedInSpecsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"add-shard.json":      "e0d51fe26b0974ba0e6d6bafe4002e002bde9748e363b5b27b042d1902382a58",
		"crash-recovery.json": "faff8471ad9354c2ae4ec3fe73eb17c336908dbe5d4af0802bd031b17715ae83",
		"default-layout.json": "39447e648bbd653cd7e961162aae2262bbd4816b292f7a80d7da5b4859b8bd25",
		"hedged-slow.json":    "26035d91d09597801594952804af7706b8175fb2567a7399d9407ff1db4d1aab",
		"remove-shard.json":   "73ff75821ecc7eb2e2ee92c2961e7170f88e1308089a8a5a6b3d8f65ce9a4a23",
		"saturate.json":       "c98b1d614d89f42c5f93ae0f8fc6f13ebf4805b068caee78581d1b497dde81e5",
		"sever-restore.json":  "25cdac03569b2ebbafabec11ed43412e544e9f00161a30d945321141be4115f4",
		"three-class.json":    "20027780c595b5dd795180587ef093c63c3d5868edbee4f8fa81702224db1539",
	}
	paths, err := filepath.Glob("../../cmd/brb-load/testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("%d checked-in specs, %d pinned: pin every spec", len(paths), len(want))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ops, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sum := sha256.Sum256(opStream(t, spec, ops))
		if got, name := hex.EncodeToString(sum[:]), filepath.Base(path); got != want[name] {
			t.Errorf("%s: op stream sha256 %s, want %s", name, got, want[name])
		}
	}
}
