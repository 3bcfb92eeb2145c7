package loadgen

import (
	"sort"

	"github.com/brb-repro/brb/internal/randx"
)

// Op is one workload operation — the unit the generator emits and the
// engine executes. The JSON tags define the encoding the golden hashes
// in gen_test.go are taken over, one op per line: changing a tag
// changes every hash.
type Op struct {
	// TS is the op's scheduled issue time in nanoseconds since run
	// start. 0 means "immediately after the worker's previous op
	// completes" — the closed-loop marking.
	TS int64 `json:"ts,omitempty"`
	// Client and Worker identify the issuing stream; Seq is the op's
	// index within it. Together they define the engine's partitioning:
	// ops with the same (Client, Worker) run in Seq order on one
	// connection.
	Client string `json:"c"`
	Worker int    `json:"w,omitempty"`
	Seq    int    `json:"q,omitempty"`
	// Kind is "get" (multiget read), "set", or "del".
	Kind string `json:"op"`
	// Keys are key ids into the run's shared keyspace (the engine
	// formats them as "key:<id>"). Reads carry the full fan-out;
	// writes and deletes carry exactly one.
	Keys []int `json:"k"`
	// Size is the value length in bytes (sets only).
	Size int `json:"s,omitempty"`
	// Class is the op's SLO class.
	Class string `json:"cl,omitempty"`
}

const (
	// OpGet is a multiget read.
	OpGet = "get"
	// OpSet is a single-key write.
	OpSet = "set"
	// OpDel is a single-key delete.
	OpDel = "del"
)

// Generate expands a spec into its full op sequence — pure and
// deterministic: the same spec (same Seed) always yields the same ops,
// so the spec and its seed are the whole statement of a run.
//
// Each (client, worker) stream draws from its own RNG substream keyed
// on (Seed, client name, worker index), so adding a client or a worker
// never perturbs any other stream. Within a stream the draw order per
// op is fixed: arrival gap, op-kind mix, then keys (and size for
// writes) — the contract the statistical tests pin down.
//
// The result is globally ordered by (TS, client, worker, seq): the
// issue schedule for open-loop streams, generation order for
// closed-loop ones.
func Generate(spec *Spec) ([]Op, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	ops := make([]Op, 0, spec.TotalOps())
	for ci := range spec.Clients {
		c := &spec.Clients[ci]
		base, rem := c.Ops/c.Workers, c.Ops%c.Workers
		for w := 0; w < c.Workers; w++ {
			n := base
			if w < rem {
				n++
			}
			if n == 0 {
				continue
			}
			root := randx.New(subSeed(spec.Seed, c.Name, w))
			// Split order is part of the determinism contract; the
			// generators consume their substreams independently.
			arrivalRNG := root.Split()
			mixRNG := root.Split()
			keyRNG := root.Split()
			sizeRNG := root.Split()
			gaps := newGapGen(c.Arrival, c.Workers)
			picker := newKeyPicker(c.Keys, spec.Keys)
			sz := newSizer(c.Sizes)
			fanP := 1 / c.Fanout.Mean
			ts := int64(0)
			for q := 0; q < n; q++ {
				ts += gaps.next(arrivalRNG)
				op := Op{
					Client: c.Name,
					Worker: w,
					Seq:    q,
					Class:  c.Class,
				}
				if c.Arrival.Process != "closed" {
					op.TS = ts
				}
				u := mixRNG.Float64()
				switch {
				case u < c.Mix.Write:
					op.Kind = OpSet
					op.Keys = []int{picker.pick(keyRNG)}
					op.Size = sz.size(sizeRNG)
				case u < c.Mix.Write+c.Mix.Delete:
					op.Kind = OpDel
					op.Keys = []int{picker.pick(keyRNG)}
				default:
					op.Kind = OpGet
					fan := mixRNG.Geometric(fanP)
					if c.Fanout.BurstProb > 0 && mixRNG.Float64() < c.Fanout.BurstProb {
						fan = c.Fanout.BurstMin + mixRNG.Intn(c.Fanout.BurstMax-c.Fanout.BurstMin+1)
					}
					if c.Fanout.Max > 0 && fan > c.Fanout.Max {
						fan = c.Fanout.Max
					}
					op.Keys = make([]int, fan)
					for j := range op.Keys {
						op.Keys[j] = picker.pick(keyRNG)
					}
				}
				ops = append(ops, op)
			}
		}
	}
	sortOps(ops)
	return ops, nil
}

// sortOps orders ops by (TS, client, worker, seq) — the canonical
// issue order. Stable so equal keys (impossible by construction, but
// cheap insurance) keep generation order.
func sortOps(ops []Op) {
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := &ops[i], &ops[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Seq < b.Seq
	})
}

// subSeed derives the RNG substream seed of one worker from the master
// seed, the client's name, and the worker index, finished with a
// SplitMix64 round so adjacent workers land far apart in seed space.
func subSeed(seed uint64, client string, worker int) uint64 {
	s := seed ^ fnv64a(client) ^ (uint64(worker+1) * 0x9e3779b97f4a7c15)
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	return s ^ (s >> 31)
}

// fnv64a is the FNV-1a hash of s (inline to keep loadgen free of
// hash/fnv's interface indirection on the hot path — and because seven
// lines beat an import).
func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
