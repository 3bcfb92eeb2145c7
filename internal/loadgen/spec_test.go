package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// specJSON is a three-way production-shaped workload that exercises
// every arrival process, key distribution and size distribution, and
// every fault verb.
const specJSON = `{
  "name": "three-class",
  "seed": 42,
  "keys": 5000,
  "classes": [
    {"name": "interactive", "priority": 0},
    {"name": "bulk", "priority": 2},
    {"name": "batch", "priority": 1}
  ],
  "clients": [
    {
      "name": "web",
      "class": "interactive",
      "workers": 4,
      "ops": 1000,
      "arrival": {"process": "poisson", "rate": 2000},
      "keys": {"dist": "zipf", "s": 1.1},
      "sizes": {"dist": "pareto"},
      "mix": {"write": 0.1},
      "fanout": {"mean": 4, "burst_prob": 0.02}
    },
    {
      "name": "etl",
      "class": "bulk",
      "ops": 200,
      "arrival": {"process": "onoff", "rate": 500, "on": "100ms", "off": "400ms"},
      "keys": {"dist": "uniform"},
      "sizes": {"dist": "lognormal", "mean_bytes": 4096, "sigma": 0.5},
      "mix": {"write": 0.5, "delete": 0.1},
      "fanout": {"mean": 1}
    },
    {
      "name": "cron",
      "class": "batch",
      "ops": 100,
      "arrival": {"process": "diurnal", "rate": 100, "period": "2s", "amplitude": 0.5},
      "keys": {"dist": "hotspot", "hot": 50, "hot_frac": 0.9, "churn": 1000},
      "sizes": {"dist": "fixed", "bytes": 512},
      "fanout": {"mean": 8, "max": 64}
    }
  ],
  "faults": [
    {"at": "0s", "do": "slow", "target": "0/0", "arg": "2ms"},
    {"at": "100ms", "do": "sever", "target": "1/0"},
    {"at": "150ms", "do": "crash", "target": "0/1"},
    {"at": "150ms", "do": "add-shard"},
    {"at": "300ms", "do": "restore", "target": "1/0"},
    {"at": "1s", "do": "restart", "target": "0/1"},
    {"at": "2s", "do": "remove-shard"}
  ]
}
`

func TestParseSpecThreeClass(t *testing.T) {
	spec, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Name != "three-class" || spec.Seed != 42 || spec.Keys != 5000 {
		t.Fatalf("header mismatch: %+v", spec)
	}
	if len(spec.Classes) != 3 || spec.Classes[2].Name != "batch" || spec.Classes[2].Priority != 1 {
		t.Fatalf("classes mismatch: %+v", spec.Classes)
	}
	if len(spec.Clients) != 3 {
		t.Fatalf("want 3 clients, got %d", len(spec.Clients))
	}
	web := spec.Clients[0]
	if web.Workers != 4 || web.Arrival.Process != "poisson" || web.Arrival.Rate != 2000 {
		t.Fatalf("web mismatch: %+v", web)
	}
	if web.Sizes.Dist != "pareto" || web.Sizes.Min != 256 || web.Sizes.Max != 64<<10 {
		t.Fatalf("pareto defaults not applied: %+v", web.Sizes)
	}
	if web.Fanout.BurstProb != 0.02 || web.Fanout.BurstMin != 50 || web.Fanout.BurstMax != 149 {
		t.Fatalf("burst defaults not applied: %+v", web.Fanout)
	}
	etl := spec.Clients[1]
	if etl.Arrival.On != Duration(100*time.Millisecond) || etl.Arrival.Off != Duration(400*time.Millisecond) {
		t.Fatalf("onoff durations mismatch: %+v", etl.Arrival)
	}
	if etl.Workers != 1 {
		t.Fatalf("workers default not applied: %+v", etl)
	}
	cron := spec.Clients[2]
	if cron.Keys.Dist != "hotspot" || cron.Keys.Hot != 50 || cron.Keys.Churn != 1000 {
		t.Fatalf("cron keys mismatch: %+v", cron.Keys)
	}
	if got := spec.ClassBias("bulk"); got != 2*ClassBiasUnit {
		t.Fatalf("ClassBias(bulk) = %d, want %d", got, 2*ClassBiasUnit)
	}
	if got := spec.TotalOps(); got != 1300 {
		t.Fatalf("TotalOps = %d, want 1300", got)
	}
	if got := spec.TotalWorkers(); got != 6 {
		t.Fatalf("TotalWorkers = %d, want 6", got)
	}
	if len(spec.Faults) != 7 {
		t.Fatalf("want 7 faults, got %+v", spec.Faults)
	}
	slow, crash := spec.Faults[0], spec.Faults[2]
	if slow.Do != "slow" || slow.At != 0 || slow.Arg != Duration(2*time.Millisecond) {
		t.Fatalf("slow fault mismatch: %+v", slow)
	}
	if sh, rep := crash.Replica(); crash.At != Duration(150*time.Millisecond) || sh != 0 || rep != 1 {
		t.Fatalf("crash fault mismatch: %+v → %d/%d", crash, sh, rep)
	}
}

func TestParseSpecJSON(t *testing.T) {
	// A minimal spec gets the default class, and a uint64 seed keeps
	// every bit.
	minimal, err := ParseSpec([]byte(`{"name":"j","seed":18446744073709551615,"keys":10,
	  "clients":[{"name":"a","ops":5,"fanout":{"mean":1}}]}`))
	if err != nil {
		t.Fatalf("ParseSpec(minimal): %v", err)
	}
	if minimal.Clients[0].Class != DefaultClass {
		t.Fatalf("default class not applied: %+v", minimal.Clients[0])
	}
	if minimal.Seed != 18446744073709551615 {
		t.Fatalf("uint64 seed lost precision: %d", minimal.Seed)
	}
}

func TestParseSpecErrors(t *testing.T) {
	const client = `{"name":"a","ops":1,"fanout":{"mean":1}}`
	valid := `{"name":"x","keys":10,"clients":[` + client + `]}`
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"name":"x","seed":1,"keys":10,"clients":[{"name":"a","ops":1,"arrvial":{"process":"closed"},"fanout":{"mean":1}}]}`, "unknown field"},
		{"unknown process", `{"name":"x","keys":10,"clients":[{"name":"a","ops":1,"arrival":{"process":"warp","rate":1},"fanout":{"mean":1}}]}`, "unknown arrival process"},
		{"unknown class", `{"name":"x","keys":10,"classes":[{"name":"gold","priority":0}],"clients":[{"name":"a","class":"silver","ops":1,"fanout":{"mean":1}}]}`, "unknown class"},
		{"dup client", `{"name":"x","keys":10,"clients":[` + client + `,` + client + `]}`, "defined twice"},
		{"no clients", `{"name":"x","keys":10}`, "no clients"},
		{"bad rate", `{"name":"x","keys":10,"clients":[{"name":"a","ops":1,"arrival":{"process":"poisson"},"fanout":{"mean":1}}]}`, "rate > 0"},
		{"dup key", `{"name":"x","keys":10,"keys":20,"clients":[` + client + `]}`, `duplicate key "keys"`},
		{"dup key nested", `{"name":"x","keys":10,"clients":[{"name":"a","ops":1,"fanout":{"mean":1,"Mean":2}}]}`, `duplicate key "Mean"`},
		{"trailing document", valid + ` {"keys":-5}`, "data after the spec"},
		{"fault unknown verb", faultSpec(`{"at":"1s","do":"melt","target":"0/0"}`), "unknown verb"},
		{"fault unknown field", faultSpec(`{"at":"1s","do":"slow","target":"0/0","by":"2ms"}`), "unknown field"},
		{"fault bad target", faultSpec(`{"at":"1s","do":"sever","target":"0-1"}`), "target must be shard/replica"},
		{"fault missing target", faultSpec(`{"at":"1s","do":"crash"}`), "target must be shard/replica"},
		{"fault stray target", faultSpec(`{"at":"1s","do":"add-shard","target":"0/0"}`), "takes no target"},
		{"fault stray arg", faultSpec(`{"at":"1s","do":"sever","target":"0/0","arg":"1ms"}`), "only slow takes an arg"},
		{"fault out of order", faultSpec(`{"at":"2s","do":"sever","target":"0/0"}`, `{"at":"1s","do":"restore","target":"0/0"}`), "time order"},
		{"fault restart without crash", faultSpec(`{"at":"1s","do":"restart","target":"0/1"}`), "no crash of 0/1 is in force"},
		{"fault restore after crash", faultSpec(`{"at":"1s","do":"crash","target":"0/1"}`, `{"at":"2s","do":"restore","target":"0/1"}`), "no sever of 0/1 is in force"},
		{"fault double crash", faultSpec(`{"at":"1s","do":"crash","target":"0/1"}`, `{"at":"2s","do":"sever","target":"0/1"}`), "already down"},
	}
	if _, err := ParseSpec([]byte(valid)); err != nil {
		t.Fatalf("the rows' base spec is rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// faultSpec is a minimal valid spec around the given faults list.
func faultSpec(items ...string) string {
	return `{"name":"x","keys":10,"clients":[{"name":"a","ops":1,"fanout":{"mean":1}}],"faults":[` +
		strings.Join(items, ",") + `]}`
}

// FuzzParseSpec: no input may panic ParseSpec, and every spec it
// accepts must survive json.MarshalIndent — what brb-load -print-spec
// prints — unchanged. Seeded from the specs the CI smokes run.
func FuzzParseSpec(f *testing.F) {
	seeds, _ := filepath.Glob("../../cmd/brb-load/testdata/*.json")
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(specJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		printed, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSpec(printed)
		if err != nil || !reflect.DeepEqual(spec, back) {
			t.Fatalf("accepted spec does not round-trip (%v):\n%s", err, printed)
		}
	})
}
