package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/c3"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/wire"
)

// The child spans of a layerprobe, in the order a multiget passes
// through the layers. Each is one isolated call into that layer's
// exported functions on a sampled op's real keys and stored values.
const (
	lpShardOfKey = "cluster.shard_of_key"
	lpPrepare    = "core.prepare"
	lpC3         = "c3.best"
	lpEncodeReq  = "wire.codec.encode_req"
	lpDecodeReq  = "wire.codec.decode_req"
	lpKVGet      = "kv.store.get"
	lpEncodeResp = "wire.codec.encode_resp"
	lpDecodeResp = "wire.codec.decode_resp"
)

// layerProber runs layerprobes: the client- and server-side layer
// calls of one multiget, back to back on one goroutine while the
// cluster is otherwise idle, so their costs can be summed and set
// against a real round trip of the same task.
type layerProber struct {
	tc     *testCluster
	keys   []string
	cost   core.CostModel
	scorer *c3.Scorer
	start  time.Time
	log    *spanLog

	stepNs    map[string][]float64 // per recorded probe: ns per key (c3.best: ns per cycle)
	wireBytes int                  // encoded request + response bytes of recorded probes
	wireKeys  int
}

func newLayerProber(tc *testCluster, keys []string, start time.Time, log *spanLog) *layerProber {
	return &layerProber{
		tc: tc, keys: keys, cost: clientCostModel(tc.w), start: start, log: log,
		scorer: c3.NewScorer(tc.w.replicas, c3.ScorerOptions{Clients: float64(len(tc.handles)), Concurrency: float64(tc.w.workers)}),
		stepNs: map[string][]float64{},
	}
}

// clientCostModel is the forecast the workload's clients use.
func clientCostModel(w *workload) core.CostModel {
	if w.costModel == (core.CostModel{}) {
		return core.CostModel{BaseNanos: 1000, PerBytePico: 1000} // the client library's default
	}
	return w.costModel
}

// subBatches decomposes a read op the way Cluster.Multiget does and
// returns the per-shard requests with the responses a server would
// build for them (values aliasing the live stores).
func (p *layerProber) subBatches(op *loadgen.Op) (task *core.Task, reqs []*wire.BatchReq, resps []*wire.BatchResp) {
	slab := make([]core.Request, len(op.Keys))
	task = &core.Task{ID: 1, Requests: make([]*core.Request, len(op.Keys))}
	for i, id := range op.Keys {
		size := int64(p.tc.sizes[id])
		slab[i] = core.Request{ID: uint64(i), TaskID: 1, Group: cluster.GroupID(p.tc.topo.ShardOfKey(p.keys[id])), Size: size, EstCost: p.cost.Estimate(size)}
		task.Requests[i] = &slab[i]
	}
	for i, sub := range core.Prepare(task, p.tc.w.assigner) {
		store := p.tc.servers[int(sub.Group)*p.tc.w.replicas].Store()
		n := len(sub.Requests)
		req := &wire.BatchReq{Batch: uint64(i), TaskID: 1, Shard: uint32(sub.Group), Keys: make([]string, n), Priority: make([]int64, n)}
		resp := &wire.BatchResp{Batch: uint64(i), Values: make([][]byte, n), Found: make([]bool, n), Versions: make([]uint64, n)}
		for j, r := range sub.Requests {
			req.Keys[j], req.Priority[j] = p.keys[op.Keys[r.ID]], r.Priority
			resp.Values[j], resp.Versions[j], resp.Found[j] = store.GetVersion(req.Keys[j])
		}
		reqs, resps = append(reqs, req), append(resps, resp)
	}
	return task, reqs, resps
}

// probe runs one layerprobe for a read op and returns the summed time
// of its steps. With record set its spans and per-step costs are kept.
func (p *layerProber) probe(op *loadgen.Op, record bool) time.Duration {
	n := len(op.Keys)
	task, reqs, resps := p.subBatches(op)
	ks := make([]string, n)
	for i, id := range op.Keys {
		ks[i] = p.keys[id]
	}
	reqFrames, respFrames := make([][]byte, len(reqs)), make([][]byte, len(resps))
	for i := range reqs {
		valueBytes := 0
		for _, v := range resps[i].Values {
			valueBytes += len(v)
		}
		reqFrames[i] = make([]byte, 0, 128+32*len(reqs[i].Keys))
		respFrames[i] = make([]byte, 0, 128+32*len(reqs[i].Keys)+valueBytes)
	}

	var total time.Duration
	var root uint64
	if record {
		now := time.Since(p.start).Nanoseconds()
		root = p.log.root("layerprobe", now, now, map[string]any{"client": op.Client, "worker": op.Worker, "seq": op.Seq, "fanout": n})
	}
	step := func(name string, per int, fn func()) {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		total += d
		if record {
			s := t0.Sub(p.start).Nanoseconds()
			p.log.child(root, name, s, s+d.Nanoseconds())
			p.stepNs[name] = append(p.stepNs[name], float64(d.Nanoseconds())/float64(per))
		}
	}

	topo := p.tc.topo
	step(lpShardOfKey, n, func() {
		for _, k := range ks {
			sinkInt += topo.ShardOfKey(k)
		}
	})
	step(lpPrepare, n, func() { sinkInt += len(core.Prepare(task, p.tc.w.assigner)) })
	step(lpC3, len(reqs), func() {
		for _, r := range reqs {
			rep := p.scorer.Best(nil)
			p.scorer.OnSend(rep, len(r.Keys))
			p.scorer.Observe(rep, len(r.Keys), 2e5, 2e4, 1)
		}
	})
	step(lpEncodeReq, n, func() {
		for i, r := range reqs {
			reqFrames[i] = wire.AppendEncode(reqFrames[i], r)
		}
	})
	decoded := make([]*wire.BatchReq, len(reqs))
	step(lpDecodeReq, n, func() {
		for i, f := range reqFrames {
			decoded[i] = mustDecode(f).(*wire.BatchReq)
		}
	})
	step(lpKVGet, n, func() {
		for _, m := range decoded {
			store := p.tc.servers[int(m.Shard)*p.tc.w.replicas].Store()
			for _, k := range m.Keys {
				v, _, _ := store.GetVersion(k)
				sinkInt += len(v)
			}
		}
	})
	step(lpEncodeResp, n, func() {
		for i, r := range resps {
			respFrames[i] = wire.AppendEncode(respFrames[i], r)
		}
	})
	step(lpDecodeResp, n, func() {
		for _, f := range respFrames {
			mustDecode(f)
		}
	})
	if record {
		p.log.spans[root-1].End = time.Since(p.start).Nanoseconds()
		for i := range reqFrames {
			p.wireBytes += len(reqFrames[i]) + len(respFrames[i])
		}
		p.wireKeys += n
	}
	return total
}

// sinkInt keeps the compiler from discarding probed calls.
var sinkInt int

// mustDecode decodes a frame the codec itself just encoded; failing
// that is a bug in the codec, not an input error.
func mustDecode(frame []byte) wire.Message {
	m, err := wire.DecodeAlias(frame[4:])
	if err != nil {
		panic("bench: the wire codec cannot decode its own frame: " + err.Error())
	}
	return m
}

// codecAllocs counts the mallocs the codec makes per message over the
// sample's sub-batches: encode and decode of every request and
// response, into buffers sized beforehand.
func (p *layerProber) codecAllocs(sample []*loadgen.Op) float64 {
	var reqs []*wire.BatchReq
	var resps []*wire.BatchResp
	for _, op := range sample {
		_, rq, rs := p.subBatches(op)
		reqs, resps = append(reqs, rq...), append(resps, rs...)
	}
	if len(reqs) == 0 {
		return 0
	}
	buf := make([]byte, 0, 4<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		buf = wire.AppendEncode(buf[:0], reqs[i])
		mustDecode(buf)
		buf = wire.AppendEncode(buf[:0], resps[i])
		mustDecode(buf)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(4*len(reqs))
}

// countingWriter counts the Write calls that reach a connection.
type countingWriter struct {
	w      io.Writer
	writes int // ConnWriter admits one Write at a time
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.writes++
	return c.w.Write(b)
}

// connWriterProbe sends request frames shaped like the sample's
// sub-batches through a wire.ConnWriter over a loopback connection:
// first from one sender (mean time of a Send), then from `senders`
// concurrent ones (frames coalesced per Write).
func (p *layerProber) connWriterProbe(sample []*loadgen.Op, senders int) (sendNs, framesPerWrite float64, err error) {
	var msgs []*wire.BatchReq
	for _, op := range sample {
		_, rq, _ := p.subBatches(op)
		msgs = append(msgs, rq...)
	}
	if len(msgs) == 0 {
		return 0, 0, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, c) // ends when the sender closes
			c.Close()
		}
	}()
	round := func(senders, frames int) (perSend time.Duration, perWrite float64, err error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0, 0, err
		}
		cw := &countingWriter{w: conn}
		w := wire.NewConnWriter(cw)
		var wg sync.WaitGroup
		errs := make(chan error, senders)
		t0 := time.Now()
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := s; i < frames; i += senders {
					if err := w.Send(msgs[i%len(msgs)]); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		err = w.Flush()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		conn.Close()
		select {
		case serr := <-errs:
			err = serr
		default:
		}
		return elapsed / time.Duration(frames), float64(frames) / float64(max(1, cw.writes)), err
	}
	const frames = 4000
	perSend, _, err := round(1, frames)
	if err != nil {
		return 0, 0, fmt.Errorf("connwriter probe: %w", err)
	}
	_, perWrite, err := round(senders, frames)
	if err != nil {
		return 0, 0, fmt.Errorf("connwriter probe: %w", err)
	}
	ln.Close()
	<-drained
	return float64(perSend.Nanoseconds()), perWrite, nil
}

// kvProbe times kv.Store.SetVersion on a scratch store with the
// sample's value sizes (kv.Store.GetVersion is timed by the
// layerprobes, against the live stores).
func (p *layerProber) kvProbe(sample []*loadgen.Op) (setNs float64) {
	store := kv.New(0)
	var ids []int
	var vals [][]byte
	for _, op := range sample {
		for _, id := range op.Keys {
			ids = append(ids, id)
			vals = append(vals, makeValue(id, p.tc.sizes[id]))
		}
	}
	if len(ids) == 0 {
		return 0
	}
	t0 := time.Now()
	for i, id := range ids {
		store.SetVersion(p.keys[id], vals[i], uint64(i+1))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(ids))
}

// walProbe times single-writer kv.Durable.SetVersion under fsync
// always in a fresh directory beside the workload's data: the cost of
// one logged, synced write with no group commit to share.
func (p *layerProber) walProbe(sample []*loadgen.Op) (appendSyncUs float64, err error) {
	dir, err := os.MkdirTemp(p.tc.dataRoot, "walprobe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, _, err := kv.OpenDurable(dir, kv.New(0), kv.DurableOptions{Fsync: kv.FsyncAlways})
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < 100; i++ {
		id := sample[i%len(sample)].Keys[0]
		v := makeValue(id, p.tc.sizes[id])
		t0 := time.Now()
		if _, err := d.SetVersion(p.keys[id], v, uint64(i+1)); err != nil {
			d.Abort()
			return 0, err
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	return quantile(times, 0.5), nil
}

// unloadedMultiget times 8-key tasks issued by one caller on the
// otherwise idle cluster (median of up to 200 round trips within half
// a second, cycling through the given tasks so a hot-key cache sees
// more than one of them) and, for the same tasks, the summed isolated
// layer costs.
func (p *layerProber) unloadedMultiget(ctx context.Context, tasks []*loadgen.Op) (unloadedUs, layersUs float64, err error) {
	h := p.tc.handles[0]
	var rtts, sums []float64
	deadline := time.Now().Add(500 * time.Millisecond)
	for i := 0; i < 200 && (i < 20 || time.Now().Before(deadline)); i++ {
		op := tasks[i%len(tasks)]
		ks := make([]string, len(op.Keys))
		for j, id := range op.Keys {
			ks[j] = p.keys[id]
		}
		t0 := time.Now()
		if _, err := h.Multiget(ctx, ks, netstore.ReadOptions{Hedge: p.tc.w.hedge}); err != nil {
			return 0, 0, fmt.Errorf("unloaded multiget: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		sums = append(sums, float64(p.probe(op, false).Nanoseconds())/1e3)
	}
	return quantile(rtts, 0.5), quantile(sums, 0.5), nil
}
