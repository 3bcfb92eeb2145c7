package loadgen

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const specYAML = `# A three-way production-shaped workload.
name: three-class
seed: 42
keys: 5000
classes:
  - name: interactive
    priority: 0
  - name: bulk
    priority: 2
  - {name: batch, priority: 1}
clients:
  - name: web
    class: interactive
    workers: 4
    ops: 1000
    arrival:
      process: poisson
      rate: 2000
    keys:
      dist: zipf
      s: 1.1
    sizes:
      dist: pareto
    mix: {write: 0.1}
    fanout:
      mean: 4
      burst_prob: 0.02   # playlist bursts
  - name: etl
    class: bulk
    ops: 200
    arrival: {process: onoff, rate: 500, on: 100ms, off: 400ms}
    keys: {dist: uniform}
    sizes: {dist: lognormal, mean_bytes: 4096, sigma: 0.5}
    mix: {write: 0.5, delete: 0.1}
    fanout: {mean: 1}
  - name: cron
    class: batch
    ops: 100
    arrival:
      process: diurnal
      rate: 100
      period: 2s
      amplitude: 0.5
    keys:
      dist: hotspot
      hot: 50
      hot_frac: 0.9
      churn: 1000
    sizes:
      dist: fixed
      bytes: 512
    fanout:
      mean: 8
      max: 64
faults:
  - {at: 0s, do: slow, target: 0/0, arg: 2ms}
  - at: 100ms
    do: sever
    target: 1/0
  - {at: 150ms, do: crash, target: 0/1}
  - {at: 150ms, do: add-shard}
  - {at: 300ms, do: restore, target: 1/0}
  - {at: 1s, do: restart, target: 0/1}
  - {at: 2s, do: remove-shard}
`

func TestParseSpecYAML(t *testing.T) {
	spec, err := ParseSpec([]byte(specYAML))
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
	js := `{"name":"j","seed":7,"keys":10,
	  "clients":[{"name":"a","ops":5,"arrival":{"process":"closed"},
	    "keys":{"dist":"uniform"},"sizes":{"dist":"fixed","bytes":8},
	    "fanout":{"mean":1}}]}`
	spec, err := ParseSpec([]byte(js))
	if err != nil {
		t.Fatalf("ParseSpec(json): %v", err)
	}
	if spec.Clients[0].Class != DefaultClass {
		t.Fatalf("default class not applied: %+v", spec.Clients[0])
	}
}

func TestEncodeYAMLRoundTrip(t *testing.T) {
	spec, err := ParseSpec([]byte(specYAML))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	emitted := EncodeYAML(spec)
	back, err := ParseSpec([]byte(emitted))
	if err != nil {
		t.Fatalf("ParseSpec(EncodeYAML(...)): %v\n%s", err, emitted)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip drifted:\nfirst:  %+v\nsecond: %+v\nyaml:\n%s", spec, back, emitted)
	}
	// And the emitter is a fixed point once normalized.
	if again := EncodeYAML(back); again != emitted {
		t.Fatalf("emitter not idempotent:\n%s\nvs\n%s", emitted, again)
	}
	// The timeline is emitted like any other field, and a spec without
	// one says nothing about faults.
	if !strings.Contains(emitted, "faults:\n  - at: 0s\n    do: slow\n    target: 0/0\n    arg: 2ms\n  - at: 100ms\n") {
		t.Fatalf("faults block missing or misshapen:\n%s", emitted)
	}
	spec.Faults = nil
	if plain := EncodeYAML(spec); strings.Contains(plain, "faults") {
		t.Fatalf("faultless spec mentions faults:\n%s", plain)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", "name: x\nseed: 1\nkeys: 10\nclients:\n  - name: a\n    ops: 1\n    arrvial: {process: closed}\n    fanout: {mean: 1}\n", "unknown field"},
		{"unknown process", "name: x\nkeys: 10\nclients:\n  - name: a\n    ops: 1\n    arrival: {process: warp, rate: 1}\n    fanout: {mean: 1}\n", "unknown arrival process"},
		{"unknown class", "name: x\nkeys: 10\nclasses:\n  - name: gold\n    priority: 0\nclients:\n  - name: a\n    class: silver\n    ops: 1\n    fanout: {mean: 1}\n", "unknown class"},
		{"dup client", "name: x\nkeys: 10\nclients:\n  - name: a\n    ops: 1\n    fanout: {mean: 1}\n  - name: a\n    ops: 1\n    fanout: {mean: 1}\n", "defined twice"},
		{"no clients", "name: x\nkeys: 10\n", "no clients"},
		{"bad rate", "name: x\nkeys: 10\nclients:\n  - name: a\n    ops: 1\n    arrival: {process: poisson}\n    fanout: {mean: 1}\n", "rate > 0"},
		{"tab indent", "name: x\n\tkeys: 10\n", "tab in indentation"},
		{"dup key", "name: x\nname: y\nkeys: 10\n", "duplicate key"},
		{"fault unknown verb", faultSpec("{at: 1s, do: melt, target: 0/0}"), "unknown verb"},
		{"fault unknown field", faultSpec("{at: 1s, do: slow, target: 0/0, by: 2ms}"), "unknown field"},
		{"fault bad target", faultSpec("{at: 1s, do: sever, target: 0-1}"), "target must be shard/replica"},
		{"fault missing target", faultSpec("{at: 1s, do: crash}"), "target must be shard/replica"},
		{"fault stray target", faultSpec("{at: 1s, do: add-shard, target: 0/0}"), "takes no target"},
		{"fault stray arg", faultSpec("{at: 1s, do: sever, target: 0/0, arg: 1ms}"), "only slow takes an arg"},
		{"fault out of order", faultSpec("{at: 2s, do: sever, target: 0/0}\n  - {at: 1s, do: restore, target: 0/0}"), "time order"},
		{"fault restart without crash", faultSpec("{at: 1s, do: restart, target: 0/1}"), "no crash of 0/1 is in force"},
		{"fault restore after crash", faultSpec("{at: 1s, do: crash, target: 0/1}\n  - {at: 2s, do: restore, target: 0/1}"), "no sever of 0/1 is in force"},
		{"fault double crash", faultSpec("{at: 1s, do: crash, target: 0/1}\n  - {at: 2s, do: sever, target: 0/1}"), "already down"},
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

// faultSpec is a minimal valid spec around a faults list whose first
// item is given in flow form (further items ride on "\n  - " lines).
func faultSpec(items string) string {
	return "name: x\nkeys: 10\nclients:\n  - name: a\n    ops: 1\n    fanout: {mean: 1}\nfaults:\n  - " + items + "\n"
}

// FuzzParseSpec: no input may panic the YAML subset reader, and every
// spec it accepts must survive the emitter unchanged. Seeded from the
// specs the CI smokes run.
func FuzzParseSpec(f *testing.F) {
	seeds, _ := filepath.Glob("../../cmd/brb-load/testdata/*.yaml")
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(specYAML))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		back, err := ParseSpec([]byte(EncodeYAML(spec)))
		if err != nil || !reflect.DeepEqual(spec, back) {
			t.Fatalf("accepted spec does not round-trip (%v):\n%s", err, EncodeYAML(spec))
		}
	})
}

func TestYAMLScalars(t *testing.T) {
	in := "name: \"has: colon\"\nseed: 18446744073709551615\nkeys: 3\nclients:\n" +
		"  - name: 'it''s'\n    ops: 2\n    fanout: {mean: 1.5}\n"
	spec, err := ParseSpec([]byte(in))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Name != "has: colon" {
		t.Fatalf("double-quoted name: %q", spec.Name)
	}
	if spec.Seed != 18446744073709551615 {
		t.Fatalf("uint64 seed lost precision: %d", spec.Seed)
	}
	if spec.Clients[0].Name != "it's" {
		t.Fatalf("single-quoted name: %q", spec.Clients[0].Name)
	}
	// The emitter must quote these back into parseable form.
	back, err := ParseSpec([]byte(EncodeYAML(spec)))
	if err != nil {
		t.Fatalf("re-parse emitted: %v", err)
	}
	if back.Name != spec.Name || back.Clients[0].Name != spec.Clients[0].Name {
		t.Fatalf("quoting round trip drifted: %+v", back)
	}
}
