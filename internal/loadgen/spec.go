// Package loadgen is the declarative workload engine behind brb-load:
// a spec (JSON) names multiple clients, each with its own
// arrival process (closed-loop, fixed-rate, open-loop Poisson, bursty
// on/off, diurnal ramp), key popularity (uniform, Zipf, hotspot set
// with churn), value-size distribution (fixed, bounded Pareto,
// lognormal via internal/randx), read/write/delete mix, multiget
// fan-out distribution, and an SLO class that flows into the
// task-aware wire priority (netstore ReadOptions.PriorityBias) and is
// reported separately at run end (per-class p50/p99/p999 plus
// error/expired/hedge counts).
//
// The pipeline is deliberately split in two:
//
//	Generate(spec)  →  []Op            (pure, deterministic from Seed)
//	Run(ctx, classes, ops, cfg)        (executes ops against Stores)
//
// so that a run is reproducible from its spec and seed alone: Generate
// yields the same ops on any machine, and the golden hashes in
// gen_test.go pin them.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms") in specs, and accepts either a string or a nanosecond
// number when unmarshaling.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(int64(x))
		return nil
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("loadgen: bad duration %q: %w", x, err)
		}
		*d = Duration(dd)
		return nil
	}
	return fmt.Errorf("loadgen: duration must be a string or nanosecond number, got %T", v)
}

// ClassBiasUnit is the wire-priority spread between adjacent SLO class
// levels: one second, far wider than any per-request cost estimate, so
// task-aware ordering keeps operating within a class and a lower class
// is served only when nothing of a higher one received within the last
// second is queued (servers rank by receipt time + priority).
const ClassBiasUnit = int64(time.Second)

// ClassSpec names one SLO class. Priority 0 is the most urgent; each
// level adds ClassBiasUnit to the wire priority of the class's reads.
type ClassSpec struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
}

// bias is the wire-priority bias the class's reads carry.
func (c ClassSpec) bias() int64 { return int64(c.Priority) * ClassBiasUnit }

// ArrivalSpec selects a client's arrival process. Rate is the client's
// aggregate target in ops/second, split evenly across its workers.
type ArrivalSpec struct {
	// Process is one of:
	//   closed  — closed loop: each worker issues its next op as soon as
	//             the previous one completes (Rate ignored); the legacy
	//             brb-load behavior.
	//   fixed   — open loop at a constant inter-arrival gap of 1/Rate.
	//   poisson — open loop with exponential gaps (mean 1/Rate).
	//   onoff   — bursty: Poisson at Rate during On windows, silent
	//             during Off windows (mean rate = Rate·On/(On+Off)).
	//   diurnal — Poisson whose instantaneous rate ramps sinusoidally:
	//             Rate·(1 + Amplitude·sin(2πt/Period)).
	Process string  `json:"process"`
	Rate    float64 `json:"rate,omitempty"`
	// On and Off are the onoff window lengths (defaults 100ms / 400ms).
	On  Duration `json:"on,omitempty"`
	Off Duration `json:"off,omitempty"`
	// Period and Amplitude shape the diurnal ramp (defaults 10s / 0.8).
	Period    Duration `json:"period,omitempty"`
	Amplitude float64  `json:"amplitude,omitempty"`
}

// KeySpec selects a client's key popularity over the spec's shared
// keyspace [0, Keys).
type KeySpec struct {
	// Dist is one of:
	//   uniform — every key equally likely.
	//   zipf    — rank r picked ∝ 1/(r+1)^S; rank 0 is key 0.
	//   hotspot — with probability HotFrac pick uniformly inside a hot
	//             set of Hot keys, else uniformly over the whole space;
	//             the hot set is re-drawn every Churn picks (0 = static).
	Dist    string  `json:"dist"`
	S       float64 `json:"s,omitempty"`
	Hot     int     `json:"hot,omitempty"`
	HotFrac float64 `json:"hot_frac,omitempty"`
	Churn   int     `json:"churn,omitempty"`
}

// SizeSpec selects a client's value-size distribution (bytes, for
// writes).
type SizeSpec struct {
	// Dist is one of:
	//   fixed     — every value Bytes long.
	//   pareto    — randx.BoundedPareto{Alpha, Min, Max}.
	//   lognormal — exp(Normal(mu, Sigma)) with mu solved so the mean is
	//               MeanBytes, clamped to [Min, Max].
	Dist      string  `json:"dist"`
	Bytes     int     `json:"bytes,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	Min       int     `json:"min,omitempty"`
	Max       int     `json:"max,omitempty"`
	MeanBytes float64 `json:"mean_bytes,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
}

// MixSpec is the op mix: Write and Delete are fractions of ops; the
// remainder are multiget reads.
type MixSpec struct {
	Write  float64 `json:"write,omitempty"`
	Delete float64 `json:"delete,omitempty"`
}

// FanoutSpec shapes read fan-out: geometric with the given mean,
// optionally truncated at Max, with a playlist-burst mixture drawing
// Uniform[BurstMin, BurstMax] with probability BurstProb (the legacy
// brb-load shape).
type FanoutSpec struct {
	Mean      float64 `json:"mean"`
	Max       int     `json:"max,omitempty"`
	BurstProb float64 `json:"burst_prob,omitempty"`
	BurstMin  int     `json:"burst_min,omitempty"`
	BurstMax  int     `json:"burst_max,omitempty"`
}

// ClientSpec is one named workload client.
type ClientSpec struct {
	Name string `json:"name"`
	// Class names the client's SLO class (must appear in Spec.Classes).
	Class string `json:"class,omitempty"`
	// Workers is the client's concurrency: each worker runs the client's
	// op stream independently with its own RNG substream and (for open
	// loops) its share Rate/Workers of the arrival rate. Default 1.
	Workers int `json:"workers,omitempty"`
	// Ops is the client's total op count, split evenly across workers
	// (remainders to the earliest workers).
	Ops     int         `json:"ops"`
	Arrival ArrivalSpec `json:"arrival"`
	Keys    KeySpec     `json:"keys"`
	Sizes   SizeSpec    `json:"sizes"`
	Mix     MixSpec     `json:"mix,omitempty"`
	Fanout  FanoutSpec  `json:"fanout"`
}

// FaultSpec is one event of a run's fault timeline: at At into the
// measurement phase, Do happens to Target. The verbs:
//
//	sever / restore    — cut, then reconnect, a replica's connectivity
//	                     (the server keeps running and keeps its state)
//	crash / restart    — hard-kill a replica's server process (no flush),
//	                     then restart it from its WAL + snapshot directory
//	slow               — add Arg of service latency per request to a
//	                     replica from now on (Arg 0 clears it)
//	add-shard          — grow the cluster by one shard, live
//	remove-shard       — drain the highest-numbered shard, live
//
// Target is "shard/replica" (replicas of a shard count from 0) for the
// replica verbs and empty for the shard verbs. The timeline is data,
// part of the spec: the same spec injects the same faults at the same
// offsets.
type FaultSpec struct {
	At     Duration `json:"at"`
	Do     string   `json:"do"`
	Target string   `json:"target,omitempty"`
	Arg    Duration `json:"arg,omitempty"`
}

// Replica splits a replica verb's Target into its shard and replica
// (zeros for a Target normalizeFaults would reject).
func (f FaultSpec) Replica() (shard, replica int) {
	if n, _ := fmt.Sscanf(f.Target, "%d/%d", &shard, &replica); n != 2 {
		return 0, 0
	}
	return shard, replica
}

// normalizeFaults validates a timeline on its own terms — verbs, target
// syntax, time order, and that every restore/restart undoes a sever/crash
// still in force. Whether a target exists is for the runner to check: a
// spec does not know the deployment it will meet.
func normalizeFaults(faults []FaultSpec) error {
	held := map[string]string{} // target → the sever/crash holding it down
	var last Duration
	for i, f := range faults {
		where := fmt.Sprintf("loadgen: faults[%d] (%s %s)", i, f.Do, f.Target)
		if f.At < last {
			return fmt.Errorf("%s: at %v is before the previous event's %v (list the timeline in time order)",
				where, time.Duration(f.At), time.Duration(last))
		}
		last = f.At
		if f.Arg != 0 && f.Do != "slow" {
			return fmt.Errorf("%s: only slow takes an arg", where)
		}
		switch f.Do {
		case "add-shard", "remove-shard":
			if f.Target != "" {
				return fmt.Errorf("%s: takes no target (add-shard appends a shard, remove-shard drains the highest)", where)
			}
			continue
		case "sever", "restore", "crash", "restart", "slow":
		default:
			return fmt.Errorf("%s: unknown verb (want sever, restore, crash, restart, slow, add-shard, or remove-shard)", where)
		}
		if shard, replica := f.Replica(); shard < 0 || replica < 0 || f.Target != fmt.Sprintf("%d/%d", shard, replica) {
			return fmt.Errorf("%s: target must be shard/replica, e.g. 0/1", where)
		}
		undoes := map[string]string{"restore": "sever", "restart": "crash"}[f.Do]
		switch {
		case f.Do == "slow":
			if f.Arg < 0 {
				return fmt.Errorf("%s: arg %v must be >= 0", where, time.Duration(f.Arg))
			}
		case undoes != "":
			if held[f.Target] != undoes {
				return fmt.Errorf("%s: no %s of %s is in force", where, undoes, f.Target)
			}
			delete(held, f.Target)
		case held[f.Target] != "":
			return fmt.Errorf("%s: %s is already down (%s)", where, f.Target, held[f.Target])
		default:
			held[f.Target] = f.Do
		}
	}
	return nil
}

// Spec is a complete declarative run: a shared keyspace, the SLO
// classes, the named clients driving it, and the faults injected under
// them.
type Spec struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Keys is the shared keyspace size; ops address keys "key:0" …
	// "key:<Keys-1>", the same namespace brb-load's load phase and
	// convergence scans use.
	Keys    int          `json:"keys"`
	Classes []ClassSpec  `json:"classes,omitempty"`
	Clients []ClientSpec `json:"clients"`
	// Faults is the run's fault timeline, in time order.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// DefaultClass is the class assigned when a spec names none.
const DefaultClass = "default"

// Normalize fills defaults in place and validates; every Generate/Run
// entry point calls it, so hand-built specs need not.
func (s *Spec) Normalize() error {
	if s.Keys <= 0 {
		return fmt.Errorf("loadgen: spec %q: keys must be positive, got %d", s.Name, s.Keys)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("loadgen: spec %q: no clients", s.Name)
	}
	if len(s.Classes) == 0 {
		s.Classes = []ClassSpec{{Name: DefaultClass, Priority: 0}}
	}
	classes := make(map[string]bool, len(s.Classes))
	for _, cl := range s.Classes {
		if cl.Name == "" {
			return fmt.Errorf("loadgen: spec %q: class with empty name", s.Name)
		}
		if cl.Priority < 0 {
			return fmt.Errorf("loadgen: class %q: priority must be >= 0, got %d", cl.Name, cl.Priority)
		}
		if classes[cl.Name] {
			return fmt.Errorf("loadgen: class %q defined twice", cl.Name)
		}
		classes[cl.Name] = true
	}
	names := make(map[string]bool, len(s.Clients))
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Name == "" {
			return fmt.Errorf("loadgen: spec %q: client %d has no name", s.Name, i)
		}
		if names[c.Name] {
			return fmt.Errorf("loadgen: client %q defined twice", c.Name)
		}
		names[c.Name] = true
		if c.Class == "" {
			c.Class = s.Classes[0].Name
		}
		if !classes[c.Class] {
			return fmt.Errorf("loadgen: client %q: unknown class %q", c.Name, c.Class)
		}
		if c.Workers <= 0 {
			c.Workers = 1
		}
		if c.Ops <= 0 {
			return fmt.Errorf("loadgen: client %q: ops must be positive, got %d", c.Name, c.Ops)
		}
		if err := normalizeArrival(&c.Arrival, c.Name); err != nil {
			return err
		}
		if err := normalizeKeys(&c.Keys, c.Name, s.Keys); err != nil {
			return err
		}
		if err := normalizeSizes(&c.Sizes, c.Name); err != nil {
			return err
		}
		if c.Mix.Write < 0 || c.Mix.Delete < 0 || c.Mix.Write+c.Mix.Delete > 1 {
			return fmt.Errorf("loadgen: client %q: mix write=%v delete=%v must be >= 0 and sum <= 1",
				c.Name, c.Mix.Write, c.Mix.Delete)
		}
		if err := normalizeFanout(&c.Fanout, c.Name); err != nil {
			return err
		}
	}
	return normalizeFaults(s.Faults)
}

// ClassBias returns the wire-priority bias of the named class
// (unknown names get the most urgent bias, 0).
func (s *Spec) ClassBias(name string) int64 {
	for _, cl := range s.Classes {
		if cl.Name == name {
			return cl.bias()
		}
	}
	return 0
}

// SortedClasses returns the classes ordered by priority (most urgent
// first), then name — the report order.
func (s *Spec) SortedClasses() []ClassSpec {
	out := append([]ClassSpec(nil), s.Classes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TotalOps returns the spec's total op count across clients.
func (s *Spec) TotalOps() int {
	n := 0
	for _, c := range s.Clients {
		n += c.Ops
	}
	return n
}

// TotalWorkers returns the spec's total worker (connection) count.
func (s *Spec) TotalWorkers() int {
	n := 0
	for _, c := range s.Clients {
		w := c.Workers
		if w <= 0 {
			w = 1
		}
		n += w
	}
	return n
}

func normalizeArrival(a *ArrivalSpec, client string) error {
	if a.Process == "" {
		a.Process = "closed"
	}
	switch a.Process {
	case "closed":
	case "fixed", "poisson", "onoff", "diurnal":
		if !(a.Rate > 0) {
			return fmt.Errorf("loadgen: client %q: arrival process %q needs rate > 0", client, a.Process)
		}
	default:
		return fmt.Errorf("loadgen: client %q: unknown arrival process %q (want closed, fixed, poisson, onoff, or diurnal)", client, a.Process)
	}
	if a.Process == "onoff" {
		if a.On <= 0 {
			a.On = Duration(100 * time.Millisecond)
		}
		if a.Off <= 0 {
			a.Off = Duration(400 * time.Millisecond)
		}
	}
	if a.Process == "diurnal" {
		if a.Period <= 0 {
			a.Period = Duration(10 * time.Second)
		}
		if a.Amplitude == 0 {
			a.Amplitude = 0.8
		}
		if a.Amplitude < 0 || a.Amplitude > 1 {
			return fmt.Errorf("loadgen: client %q: diurnal amplitude %v must be in [0,1]", client, a.Amplitude)
		}
	}
	return nil
}

func normalizeKeys(k *KeySpec, client string, keys int) error {
	if k.Dist == "" {
		k.Dist = "uniform"
	}
	switch k.Dist {
	case "uniform":
	case "zipf":
		if !(k.S > 0) {
			return fmt.Errorf("loadgen: client %q: zipf keys need s > 0", client)
		}
	case "hotspot":
		if k.Hot <= 0 || k.Hot > keys {
			return fmt.Errorf("loadgen: client %q: hotspot size %d must be in [1,%d]", client, k.Hot, keys)
		}
		if k.HotFrac <= 0 || k.HotFrac > 1 {
			return fmt.Errorf("loadgen: client %q: hot_frac %v must be in (0,1]", client, k.HotFrac)
		}
		if k.Churn < 0 {
			return fmt.Errorf("loadgen: client %q: churn %d must be >= 0", client, k.Churn)
		}
	default:
		return fmt.Errorf("loadgen: client %q: unknown key dist %q (want uniform, zipf, or hotspot)", client, k.Dist)
	}
	return nil
}

func normalizeSizes(z *SizeSpec, client string) error {
	if z.Dist == "" {
		z.Dist = "pareto"
	}
	switch z.Dist {
	case "fixed":
		if z.Bytes <= 0 {
			return fmt.Errorf("loadgen: client %q: fixed sizes need bytes > 0", client)
		}
	case "pareto":
		if z.Alpha == 0 {
			z.Alpha = 1.0
		}
		if z.Min <= 0 {
			z.Min = 256
		}
		if z.Max <= 0 {
			z.Max = 64 << 10
		}
		if !(z.Alpha > 0) || z.Max <= z.Min {
			return fmt.Errorf("loadgen: client %q: pareto sizes alpha=%v min=%d max=%d invalid", client, z.Alpha, z.Min, z.Max)
		}
	case "lognormal":
		if !(z.MeanBytes > 0) {
			return fmt.Errorf("loadgen: client %q: lognormal sizes need mean_bytes > 0", client)
		}
		if z.Sigma < 0 {
			return fmt.Errorf("loadgen: client %q: lognormal sigma %v must be >= 0", client, z.Sigma)
		}
		if z.Min <= 0 {
			z.Min = 1
		}
		if z.Max <= 0 {
			z.Max = 1 << 20
		}
		if z.Max <= z.Min {
			return fmt.Errorf("loadgen: client %q: lognormal clamp min=%d max=%d invalid", client, z.Min, z.Max)
		}
	default:
		return fmt.Errorf("loadgen: client %q: unknown size dist %q (want fixed, pareto, or lognormal)", client, z.Dist)
	}
	return nil
}

func normalizeFanout(f *FanoutSpec, client string) error {
	if f.Mean == 0 {
		f.Mean = 1
	}
	if f.Mean < 1 {
		return fmt.Errorf("loadgen: client %q: fanout mean %v must be >= 1", client, f.Mean)
	}
	if f.BurstProb < 0 || f.BurstProb >= 1 {
		return fmt.Errorf("loadgen: client %q: fanout burst_prob %v must be in [0,1)", client, f.BurstProb)
	}
	if f.BurstProb > 0 {
		if f.BurstMin <= 0 {
			f.BurstMin = 50
		}
		if f.BurstMax < f.BurstMin {
			f.BurstMax = f.BurstMin + 99
		}
	}
	if f.Max < 0 {
		return fmt.Errorf("loadgen: client %q: fanout max %d must be >= 0 (0 = uncapped)", client, f.Max)
	}
	return nil
}

// ParseSpec parses a JSON workload spec. An unknown field, a key given
// twice in one object and anything after the spec are errors — a typoed
// or repeated knob must not silently fall back to a default or to the
// last value given.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("loadgen: bad spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("loadgen: bad spec: data after the spec (one spec per file)")
	}
	if err := duplicateKey(json.NewDecoder(bytes.NewReader(data))); err != nil {
		return nil, fmt.Errorf("loadgen: bad spec: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	return spec, nil
}

// duplicateKey walks the next JSON value token by token and reports the
// first object key given twice, which Decode would resolve silently to
// the last. Keys compare the way Decode matches them to fields: without
// case.
func duplicateKey(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('{'):
		var seen []string
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			key := tok.(string)
			for _, k := range seen {
				if strings.EqualFold(k, key) {
					return fmt.Errorf("duplicate key %q", key)
				}
			}
			seen = append(seen, key)
			if err := duplicateKey(dec); err != nil {
				return err
			}
		}
	case json.Delim('['):
		for dec.More() {
			if err := duplicateKey(dec); err != nil {
				return err
			}
		}
	default:
		return nil
	}
	_, err = dec.Token() // the closing delimiter
	return err
}
