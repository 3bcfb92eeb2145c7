// Package netstore is the real, goroutine-based implementation of a
// BRB-scheduled data store: a TCP key-value server whose request scheduler
// drains a priority queue with a bounded worker pool (one goroutine per
// core), a task-aware client library sharing the priority-assignment code
// (internal/core) with the simulator, and the topology and migration
// messages of live rebalancing.
//
// It is the artifact a downstream user would deploy: the simulator
// validates the algorithms at scale, netstore validates that they are
// implementable with the signals a real deployment has (value sizes from
// store metadata, service times from server feedback, priorities on the
// wire).
package netstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/wire"
)

// Discipline selects the order of the server's one run queue; either
// order is total per server (see scheduler).
type Discipline int

// Disciplines.
const (
	// Priority serves the pending key with the earliest virtual finish
	// time first: its batch's receipt time plus its wire priority (BRB's
	// forecast nanoseconds), the stamp of fair queueing. Among keys that
	// arrive together the lowest priority value wins, as the paper orders
	// them; a key that has waited longer than the gap between two
	// priorities overtakes the lower one, so no key waits forever behind
	// a stream of cheaper arrivals.
	Priority Discipline = iota
	// FIFO serves keys in arrival order (task-oblivious baseline).
	FIFO
)

// ServerOptions configure a Server.
type ServerOptions struct {
	// Workers is the number of service goroutines ("cores") draining the
	// server's one run queue, and the only concurrency setting. Default
	// 4, the paper's concurrency level.
	Workers int
	// Discipline selects priority (default) or FIFO scheduling.
	Discipline Discipline
	// ServiceDelay, when non-nil, adds an artificial per-key service
	// time as a function of the value size — used by validation
	// experiments to recreate the simulator's size-dependent service
	// costs on fast hardware. nil means no added delay.
	ServiceDelay func(valueSize int64) time.Duration
	// Shard, with CheckShard set, is the shard group this server belongs
	// to in a sharded cluster: batches whose routing header names a
	// different shard are rejected with wire.FlagMisrouted instead of
	// silently answering "not found" for keys the server never stored.
	Shard int
	// CheckShard enables shard validation. Plain `brb-server -listen`
	// deployments leave it off and the server accepts every batch,
	// whatever routing header the client's topology stamped on it.
	// With a topology installed (SetTopology or a wire push), validation
	// upgrades from the whole-batch header check to per-key ownership:
	// keys the topology assigns elsewhere are rejected as strays
	// (BatchResp.Stray) or NotOwner (writes) instead of trusting the
	// client's routing.
	CheckShard bool
	// TombstoneGCHorizon, when positive, enables tombstone garbage
	// collection on the server's store: tombstones older than the
	// horizon are dropped by a bounded periodic sweep, ticking every
	// horizon/10 (floor 1s) and sweeping 1/NumShards of the store per
	// tick. The horizon must exceed the longest plausible delayed-replay
	// window (see kv.Store.StartTombstoneGC).
	TombstoneGCHorizon time.Duration
	// Fault, when non-nil, injects deterministic service faults into
	// this server — per-request added latency and stall-the-next-N
	// gates (see FaultInjector) — for tests and the load harness's
	// slow-replica experiments. Production servers leave it nil.
	Fault *FaultInjector

	// DataDir, when set, makes the server durable (NewDurableServer):
	// writes go through a segmented WAL in this directory, periodic
	// snapshots truncate it, and the store is recovered from disk at
	// construction — BEFORE Serve, so a restarted replica replays
	// locally first and hinted-handoff only tops up the post-crash tail.
	DataDir string
	// Fsync is the WAL sync policy: always (default; acked ⇒ durable),
	// interval (a 50ms background sync), or never. See kv.FsyncPolicy.
	// WAL segments rotate at 8 MiB.
	Fsync kv.FsyncPolicy
	// SnapshotInterval is the periodic snapshot period (default 1m;
	// every snapshot truncates WAL segments behind it). The tombstone-GC
	// horizon is clamped to at least this interval (kv.ClampGCHorizon).
	SnapshotInterval time.Duration
	// DiskFault injects disk faults (fsync errors, snapshot-rename
	// crashes) into the durability layer for tests. Production servers
	// leave it nil.
	DiskFault *kv.DiskFaultInjector
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// Server is a networked key-value server with task-aware scheduling.
type Server struct {
	opts  ServerOptions
	store *kv.Store
	// dur is the durability layer (nil for memory-only servers). Writes
	// route through it; a WAL failure fail-stops the write path (no ack,
	// connection closed) while reads keep serving from memory.
	dur   *kv.Durable
	sched *scheduler

	// topo is the server's current epoch-versioned topology (nil until
	// installed by SetTopology or a wire Topo push). With CheckShard set
	// it upgrades shard validation to per-key ownership checks.
	topo atomic.Pointer[cluster.ShardTopology]

	// start is the origin of the Priority discipline's receipt times.
	start time.Time

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	gcStop func()

	// The ServerStats counts, each bumped where its event happens.
	served, expiredDrops, notOwnerWrites, strayKeys atomic.Uint64
	staleEpochBatches, durabilityErrors             atomic.Uint64
}

// ServerStats are one Server's counts since it was created.
type ServerStats struct {
	Served uint64 // keys serviced
	// ExpiredDrops counts keys shed because their batch's deadline budget
	// ran out while they queued: service time the deadline-propagation
	// protocol saved from being wasted on answers nobody was still
	// waiting for.
	ExpiredDrops uint64
	// NotOwnerWrites and StrayKeys count writes and read keys refused
	// because this server's topology assigns them elsewhere: clients with
	// stale topologies — normal for a moment after a rebalance, a
	// misconfiguration if it persists.
	NotOwnerWrites, StrayKeys uint64
	// StaleEpochBatches counts epoch-routed batches from clients whose
	// topology lags this server's; elevated briefly around every
	// rebalance, a misconfiguration signal if it persists.
	StaleEpochBatches uint64
	// DurabilityErrors counts writes refused because the WAL could not
	// make them durable (failed fsync, closed log) — each one a dropped
	// connection instead of a false ack — plus a failed close of the WAL
	// at shutdown.
	DurabilityErrors uint64
	// TombstonesSwept counts tombstones the store's GC sweep dropped.
	TombstonesSwept uint64
	// WAL is the durability layer's counts (zero when memory-only).
	WAL kv.DurableStats
}

// Stats returns a snapshot of this server's counts.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Served:            s.served.Load(),
		ExpiredDrops:      s.expiredDrops.Load(),
		NotOwnerWrites:    s.notOwnerWrites.Load(),
		StrayKeys:         s.strayKeys.Load(),
		StaleEpochBatches: s.staleEpochBatches.Load(),
		DurabilityErrors:  s.durabilityErrors.Load(),
		TombstonesSwept:   s.store.TombstonesSwept(),
	}
	if s.dur != nil {
		st.WAL = s.dur.Stats()
	}
	return st
}

// Served returns Stats().Served; the repository benchmark
// (bench/trace.go) calls it.
func (s *Server) Served() uint64 { return s.served.Load() }

// SchedSteals always returns 0: the server has one run queue, so there
// is no foreign queue to steal from. It survives only because the
// repository benchmark (bench/trace.go, frozen for the PR that removed
// the sharded scheduler) still calls it; delete it with that call.
func (s *Server) SchedSteals() uint64 { return 0 }

// NewServer creates a memory-only server over the given store. For a
// durable server (opts.DataDir set) use NewDurableServer, which can
// fail on recovery.
func NewServer(store *kv.Store, opts ServerOptions) *Server {
	if opts.DataDir != "" {
		panic("netstore: DataDir set; use NewDurableServer")
	}
	return newServer(store, nil, opts)
}

// NewDurableServer recovers opts.DataDir into store (newest snapshot,
// then the WAL tail) and returns a server whose writes are logged
// before they are acknowledged. Recovery happens here — before Serve —
// so by the time the revival prober re-admits this replica and hinted
// handoff replays buffered writes, the disk state is already live and
// hints are a strictly newer top-up (versioned LWW absorbs any
// overlap).
func NewDurableServer(store *kv.Store, opts ServerOptions) (*Server, kv.ReplayStats, error) {
	if opts.DataDir == "" {
		return nil, kv.ReplayStats{}, errors.New("netstore: NewDurableServer requires DataDir")
	}
	snapInterval := opts.SnapshotInterval
	if snapInterval <= 0 {
		snapInterval = time.Minute
	}
	dur, stats, err := kv.OpenDurable(opts.DataDir, store, kv.DurableOptions{
		Fsync:            opts.Fsync,
		SnapshotInterval: snapInterval,
		Fault:            opts.DiskFault,
	})
	if err != nil {
		return nil, stats, err
	}
	// A tombstone aged out of memory before a snapshot captured the
	// state around it would make replay diverge from the live store;
	// purge records close that gap, the clamp keeps the horizon from
	// depending on them alone.
	opts.TombstoneGCHorizon = kv.ClampGCHorizon(opts.TombstoneGCHorizon, snapInterval)
	return newServer(store, dur, opts), stats, nil
}

func newServer(store *kv.Store, dur *kv.Durable, opts ServerOptions) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		store: store,
		dur:   dur,
		sched: newScheduler(opts.Discipline),
		start: time.Now(),
		conns: make(map[net.Conn]struct{}),
	}
	if opts.TombstoneGCHorizon > 0 {
		interval := max(opts.TombstoneGCHorizon/10, time.Second)
		s.gcStop = store.StartTombstoneGC(opts.TombstoneGCHorizon, interval)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SetTopology installs a topology if it is newer than the current one
// (a nil current accepts any), reporting whether it was installed. The
// wire Topo push goes through here too.
func (s *Server) SetTopology(t *cluster.ShardTopology) bool {
	for {
		cur := s.topo.Load()
		if cur != nil && (t == nil || t.Epoch() <= cur.Epoch()) {
			return false
		}
		if s.topo.CompareAndSwap(cur, t) {
			return true
		}
	}
}

// Topology returns the server's current topology (nil if none
// installed).
func (s *Server) Topology() *cluster.ShardTopology { return s.topo.Load() }

// TopologyEpoch returns the installed topology's epoch (0 if none).
func (s *Server) TopologyEpoch() uint64 {
	if t := s.topo.Load(); t != nil {
		return t.Epoch()
	}
	return 0
}

// Store exposes the underlying KV store (loaders use it in-process).
func (s *Server) Store() *kv.Store { return s.store }

// Serve accepts connections on ln until Close. It returns nil after Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close the listener too: otherwise a Close/Serve race leaves
		// the kernel accepting connections nobody will ever read.
		_ = ln.Close()
		return errors.New("netstore: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Accepted while shutdown ran: its sweep of s.conns is over, so
			// nobody would close this connection and its handler would hold
			// shutdown's Wait until the peer hung up.
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1) // under mu, so it is ordered before shutdown's Wait
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (after Serve started).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes connections, and stops workers. On a
// durable server it then flushes the WAL and writes a final snapshot —
// the graceful-shutdown path, making the next boot's replay
// O(snapshot).
func (s *Server) Close() { s.shutdown(false) }

// Kill is the crash path: like Close it tears the network and workers
// down, but the durability layer is aborted — pending WAL buffers are
// dropped and no final snapshot is written, the in-process equivalent
// of SIGKILL. Crash-recovery tests use it to prove that acked writes
// survive on disk state alone.
func (s *Server) Kill() { s.shutdown(true) }

func (s *Server) shutdown(kill bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	if s.gcStop != nil {
		s.gcStop()
	}
	s.sched.close()
	if s.opts.Fault != nil {
		// Workers may be parked at the injector's stall gate; they must
		// wake before the Wait below can finish.
		s.opts.Fault.shutdown()
	}
	if s.dur != nil && kill {
		// Abort before waiting: handlers blocked in a WAL append (e.g.
		// behind a stalled injected fsync) must fail out or the Wait
		// below deadlocks — exactly what a real kill does to them.
		s.dur.Abort()
	}
	s.wg.Wait()
	if s.dur != nil && !kill {
		if err := s.dur.Close(); err != nil {
			// Shutdown has no caller to hand the error to; count it so
			// a failed final snapshot/WAL close is visible in Stats.
			s.durabilityErrors.Add(1)
		}
	}
}

// QueueLen returns the current scheduler backlog.
func (s *Server) QueueLen() int { return s.sched.len() }

// connState couples one connection with its coalescing frame writer:
// concurrent workers finishing batches enqueue responses that ride a
// shared Write, instead of serializing one syscall each behind a mutex.
type connState struct {
	conn net.Conn
	w    *wire.ConnWriter
}

func newConnState(conn net.Conn) *connState {
	return &connState{conn: conn, w: wire.NewConnWriter(conn)}
}

// send queues one response frame. Send encodes it, values included,
// before it returns, so the batch state that built it may recycle
// immediately.
func (cs *connState) send(m wire.Message) error {
	return cs.w.Send(m)
}

// reply is send for a response nobody can act on the failure of: the
// writer's error is sticky, so the connection's read loop sees it on its
// next send or read and tears the connection down.
func (cs *connState) reply(m wire.Message) {
	//brb:allow stickyerr response send on a sticky-errored conn is moot: the handle loop tears the conn down
	_ = cs.send(m)
}

// close tears the connection down first so the writer's in-flight Write
// cannot block the drain.
func (cs *connState) close() {
	_ = cs.conn.Close()
	_ = cs.w.Close()
}

// batchState assembles a batch's results as its keys finish service.
// States are pooled: the response's Values/Found slices and the
// work-item slab recycle once the response is encoded.
type batchState struct {
	mu        sync.Mutex
	remaining int
	resp      wire.BatchResp
	enqueued  time.Time
	// deadline is the batch's service deadline, stamped at receipt from
	// the request's remaining Budget (zero = unbounded). Work items still
	// queued past it are shed, not serviced.
	deadline time.Time
	svcNanos int64
	cs       *connState
	// items is the batch's work-item slab: one allocation per batch
	// (reused across batches), not one per key.
	items []workItem
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// newBatchState readies a pooled batchState for a decoded request.
// stray, when non-nil, marks keys the server refused for ownership:
// they are answered in place (found=false, stray=true) and never
// enqueued — only owned keys become work items. epoch is the server's
// topology epoch, piggybacked on the response. Each work item is ranked
// by the batch's receipt time, in nanoseconds since start, plus the
// key's wire priority (see Priority).
func newBatchState(cs *connState, m *wire.BatchReq, stray []bool, epoch uint64, start time.Time) *batchState {
	n := len(m.Keys)
	bs := batchPool.Get().(*batchState)
	bs.enqueued = time.Now()
	received := bs.enqueued.Sub(start).Nanoseconds()
	// The budget is "nanoseconds the client had left at send": the
	// server assumes negligible transfer time and anchors the deadline
	// at receipt. Queue wait — the thing BRB actually bounds — happens
	// after this point, so the check at service pop is what matters.
	if m.Budget > 0 {
		bs.deadline = bs.enqueued.Add(time.Duration(m.Budget))
	} else {
		bs.deadline = time.Time{}
	}
	bs.svcNanos = 0
	bs.cs = cs
	values, found, versions := bs.resp.Values, bs.resp.Found, bs.resp.Versions
	if cap(values) < n {
		values, found, versions = make([][]byte, n), make([]bool, n), make([]uint64, n)
	} else {
		values, found, versions = values[:n], found[:n], versions[:n]
		for i := range values {
			values[i], found[i], versions[i] = nil, false, 0
		}
	}
	bs.resp = wire.BatchResp{Batch: m.Batch, Epoch: epoch, Values: values, Found: found, Versions: versions, Stray: stray}
	owned := n
	if stray != nil {
		for _, st := range stray {
			if st {
				owned--
			}
		}
	}
	bs.remaining = owned
	if cap(bs.items) < owned {
		bs.items = make([]workItem, owned)
	} else {
		bs.items = bs.items[:owned]
	}
	j := 0
	for i := range m.Keys {
		if stray != nil && stray[i] {
			continue
		}
		bs.items[j] = workItem{key: m.Keys[i], priority: received + m.Priority[i], index: i, batch: bs}
		j++
	}
	return bs
}

// release recycles the batch after its response has been encoded: store
// value references are dropped and the state returns to the batch
// pool. The Stray mask is not pooled (it is nil on the hot all-owned
// path, allocated only during topology skew).
func (bs *batchState) release() {
	for i := range bs.resp.Values {
		bs.resp.Values[i] = nil
	}
	bs.resp.Stray = nil
	bs.resp.Expired = nil
	bs.cs = nil
	batchPool.Put(bs)
}

// keyResult is what service produced for one key of a batch: a store
// read, or an expiry shed (expired set, nothing else).
type keyResult struct {
	value    []byte
	version  uint64
	found    bool
	expired  bool
	svcNanos int64
}

// finish records the result of the key at index and, when it was the
// batch's last outstanding key, stamps the feedback fields (qlen is the
// run-queue length the popping worker saw) and responds.
func (bs *batchState) finish(index, qlen int, r keyResult) {
	bs.mu.Lock()
	if r.expired {
		if bs.resp.Expired == nil {
			bs.resp.Expired = make([]bool, len(bs.resp.Values))
		}
		bs.resp.Expired[index] = true
	} else {
		bs.resp.Values[index] = r.value
		bs.resp.Found[index] = r.found
		bs.resp.Versions[index] = r.version
		bs.svcNanos += r.svcNanos
	}
	bs.remaining--
	last := bs.remaining == 0
	if last {
		bs.resp.QueueLen = uint32(qlen)
		bs.resp.WaitNanos = time.Since(bs.enqueued).Nanoseconds()
		bs.resp.ServiceNanos = bs.svcNanos
	}
	bs.mu.Unlock()
	if last {
		bs.respond()
	}
}

// respond sends the assembled response and recycles the batch. Send
// encodes synchronously into the coalescing buffer, so the state
// recycles the moment it returns.
func (bs *batchState) respond() {
	bs.cs.reply(&bs.resp)
	bs.release()
}

// workItem is one key awaiting service.
type workItem struct {
	key string
	// priority is the scheduler's rank, lowest first: receipt time plus
	// wire priority (newBatchState).
	priority int64
	index    int // position within the batch
	batch    *batchState
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	cs := newConnState(conn)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		cs.close()
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		// Decode copies the message out of the frame, so the frame
		// recycles here and nothing below depends on its lifetime.
		frame, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		msg, err := wire.Decode(frame.Bytes())
		frame.Release()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.Ping:
			if cs.send(&wire.Pong{Nonce: m.Nonce}) != nil {
				return
			}
		case *wire.Set:
			if !s.handleWrite(cs, m.Key, m.Value, m.Version, m.Epoch, m.Seq, false) {
				return
			}
		case *wire.Del:
			if !s.handleWrite(cs, m.Key, nil, m.Version, m.Epoch, m.Seq, true) {
				return
			}
		case *wire.TopoGet:
			if cs.send(topoToWire(s.topo.Load(), m.Seq)) != nil {
				return
			}
		case *wire.Topo:
			// A topology push: install if newer, answer with the current
			// one either way (the pusher's ack, and how lagging pushers
			// learn they lost).
			if nt, err := topoFromWire(m); err == nil && nt != nil {
				s.SetTopology(nt)
			}
			if cs.send(topoToWire(s.topo.Load(), m.Seq)) != nil {
				return
			}
		case *wire.Scan:
			if cs.send(s.scanStore(m.Seq, m.Cursor, m.After)) != nil {
				return
			}
		case *wire.BatchReq:
			s.enqueueBatch(cs, m)
		default:
			// Unknown-but-decodable messages are ignored; the protocol
			// is forward-compatible for clients, not servers.
		}
	}
}

// handleWrite serves one Set or Del (del); false means the connection
// is finished.
func (s *Server) handleWrite(cs *connState, key string, value []byte, ver, epoch, seq uint64, del bool) bool {
	// Ownership gate first: with a topology installed, a key this server
	// does not own is rejected, not silently stored where no reader will
	// ever look for it.
	if owner, cur, ok := s.ownsKey(key, epoch); !ok {
		s.notOwnerWrites.Add(1)
		return cs.send(&wire.NotOwner{ID: seq, Epoch: cur, Hint: uint32(owner)}) == nil
	}
	c, err := s.apply(key, value, ver, del)
	return err == nil && s.ackWrite(cs, c, key, epoch, seq, del)
}

// apply applies one write (del: a delete) to the store and, on a durable
// server, buffers its log record; the returned Commit is what ackWrite
// waits on. ver 0 is a local (loader) write that auto-advances the key's
// version, or deletes outright; a non-zero version is a replicated write
// applied last-writer-wins (a delete lays a tombstone), so
// hint replays, catch-up copies and migrations are idempotent. An error
// is a durability failure: fail-stop the write path — no ack is sent and
// the connection drops, so the client marks this replica down and
// hints/reroutes the write, and an acked write is never one the WAL
// refused.
func (s *Server) apply(key string, value []byte, ver uint64, del bool) (c kv.Commit, err error) {
	switch {
	case s.dur != nil && del:
		c, err = s.dur.StageDelete(key, ver)
	case s.dur != nil:
		c, err = s.dur.StageSet(key, value, ver)
	case del && ver == 0:
		s.store.Delete(key)
	case del:
		s.store.DeleteVersion(key, ver)
	case ver == 0:
		s.store.Set(key, value)
	default:
		s.store.SetVersion(key, value, ver)
	}
	if err != nil {
		s.durabilityErrors.Add(1)
	}
	return c, err
}

// ackWrite answers an applied write (del: a delete), reporting false
// when the connection is finished. A logged write is acknowledged from a
// goroutine of its own once the WAL says it is durable, so the
// connection loop goes straight back to reading: the requests behind a
// write — reads above all — do not queue behind its fsync, and writes
// pipelined on one connection share group commits. Acks may therefore
// overtake each other; clients match them by Seq. If the wait fails the
// write path fail-stops as in apply, by closing the connection under
// the loop.
//
// Ownership is re-checked here, AFTER the apply: a topology install
// landing between handle's check and the store write could otherwise
// let a migration's catch-up scan pass this key before the write became
// visible — the donor would then ack a write the new owner never
// receives. Post-apply, either the install came later (the catch-up
// scan, which starts after the push completes, sees the applied write)
// or this recheck sees the new topology and converts the ack into
// NotOwner, making the client re-route the same versioned write to the
// real owner.
func (s *Server) ackWrite(cs *connState, c kv.Commit, key string, epoch, seq uint64, del bool) bool {
	ack := func() wire.Message {
		if owner, cur, ok := s.ownsKey(key, epoch); !ok {
			s.notOwnerWrites.Add(1)
			return &wire.NotOwner{ID: seq, Epoch: cur, Hint: uint32(owner)}
		}
		if del {
			return &wire.DelResp{Seq: seq}
		}
		return &wire.SetResp{Seq: seq}
	}
	if !c.Logged() {
		return cs.send(ack()) == nil
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := c.Wait(); err != nil {
			s.durabilityErrors.Add(1)
			_ = cs.conn.Close()
			return
		}
		cs.reply(ack())
	}()
	return true
}

// srvExpiredDropsTotal is the process-wide mirror of
// ServerStats.ExpiredDrops, kept only because bench/trace.go reads it by
// name (ROADMAP item 12 step 3).
var srvExpiredDropsTotal = metrics.GetCounter("netstore_server_expired_drops_total")

// ownsKey reports whether this server accepts a write for key under its
// current topology. Without CheckShard, or before any topology is
// installed, every key is owned (writes were never ownership-checked
// pre-topology, and servers run without CheckShard must keep working).
//
// writerEpoch is the topology epoch the writer routed under. A writer
// AHEAD of this server — the rebalancer streaming a migration before
// the epoch push, or a client that refreshed faster — is trusted: the
// write is versioned and last-writer-wins makes applying it safe, while
// rejecting it on stale local information would force migration to push
// topologies before data (re-opening a read-missing window on drained
// shards). Writers at or behind our epoch get the full per-key check.
// On rejection it returns the owning shard and the server's epoch for
// the NotOwner hint.
func (s *Server) ownsKey(key string, writerEpoch uint64) (owner int, epoch uint64, ok bool) {
	if !s.opts.CheckShard {
		return 0, 0, true
	}
	t := s.topo.Load()
	if t == nil {
		return 0, 0, true
	}
	epoch = t.Epoch()
	owner = t.ShardOfKey(key)
	if writerEpoch > epoch {
		return owner, epoch, true
	}
	if owner == s.opts.Shard {
		return owner, epoch, true
	}
	return owner, epoch, false
}

// maxScanPageBytes bounds one ScanResp's encoded payload so no page can
// approach wire.MaxFrame (16 MiB) no matter how large a kv shard grows;
// oversized shards split across pages via the After continuation key. A
// single entry always fits alone on a page (its value arrived in a
// ≤16 MiB Set frame, and the 4 MiB bound applies only from the second
// entry on). scanEntryOverhead accounts for the per-entry framing (key
// length, version, dead flag, value length) — without it, a page of
// millions of tiny entries would stay under a key+value-only budget
// while encoding past MaxFrame.
const (
	maxScanPageBytes  = 4 << 20
	scanEntryOverhead = 16
)

// scanStore answers one Scan page: entries (tombstones included) of
// internal store shard cursor with keys > after, in key order, up to
// maxScanPageBytes. NextCursor echoes the same cursor when the shard
// has more (continue with After = the page's last key), advances when
// it is exhausted, and is ScanDone after the last shard. Keys and
// values alias the store — safe because the store never mutates a
// stored value in place.
func (s *Server) scanStore(seq uint64, cursor uint32, after string) *wire.ScanResp {
	resp := &wire.ScanResp{Seq: seq, NextCursor: wire.ScanDone}
	n := s.store.NumShards()
	if int(cursor) >= n {
		return resp
	}
	// Partial selection, not a full collect-and-sort: the page retains
	// only the smallest keys that fit the byte budget (a max-heap evicts
	// the largest key whenever the budget overflows), so a page over a
	// huge shard costs O(K log P) and O(P) memory instead of re-sorting
	// all K remaining entries for every one of K/P pages.
	//
	// The page MUST be a prefix of the shard's key order or the After
	// continuation skips entries: once a key is evicted, no key at or
	// above it may be admitted later — without the bound, a small entry
	// arriving after larger evicted keys would slip back in, After would
	// jump past the evicted keys, and the next page would never see
	// them. Evictions pop the current max, so the bound only tightens.
	var page scanPageHeap
	pageBytes, evicted := 0, false
	bound, haveBound := "", false
	s.store.ScanShard(int(cursor), func(key string, val []byte, ver uint64, dead bool) bool {
		if after != "" && key <= after {
			return true
		}
		if haveBound && key >= bound {
			evicted = true
			return true
		}
		page.push(scanEnt{key: key, val: val, ver: ver, dead: dead})
		pageBytes += len(key) + len(val) + scanEntryOverhead
		for len(page) > 1 && pageBytes > maxScanPageBytes {
			e := page.pop()
			pageBytes -= len(e.key) + len(e.val) + scanEntryOverhead
			evicted = true
			bound, haveBound = e.key, true
		}
		return true
	})
	// Heapsort in place: popping the max into the shrinking tail leaves
	// ents in ascending key order.
	ents := []scanEnt(page)
	for m := len(page); m > 1; m = len(page) {
		ents[m-1] = page.pop()
	}
	for i := range ents {
		e := ents[i]
		resp.Keys = append(resp.Keys, e.key)
		resp.Versions = append(resp.Versions, e.ver)
		resp.Dead = append(resp.Dead, e.dead)
		if e.dead {
			resp.Values = append(resp.Values, nil)
		} else {
			resp.Values = append(resp.Values, e.val)
		}
	}
	switch {
	case evicted:
		resp.NextCursor = cursor // more in this shard; caller continues with After
	case int(cursor)+1 < n:
		resp.NextCursor = cursor + 1
	}
	return resp
}

// scanEnt is one store entry staged for a scan page.
type scanEnt struct {
	key  string
	val  []byte
	ver  uint64
	dead bool
}

// scanPageHeap is a max-heap on key (largest on top), hand-rolled like
// queue.Priority so paging allocates nothing beyond the slice.
type scanPageHeap []scanEnt

func (h *scanPageHeap) push(e scanEnt) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[i].key <= s[parent].key {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *scanPageHeap) pop() scanEnt {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = scanEnt{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		max := i
		if l < n && s[l].key > s[max].key {
			max = l
		}
		if r < n && s[r].key > s[max].key {
			max = r
		}
		if max == i {
			break
		}
		s[i], s[max] = s[max], s[i]
		i = max
	}
	return top
}

// topoToWire encodes a topology (nil → the empty epoch-0 Topo).
func topoToWire(t *cluster.ShardTopology, seq uint64) *wire.Topo {
	tp := &wire.Topo{Seq: seq}
	if t == nil {
		return tp
	}
	tp.Epoch = t.Epoch()
	tp.Replicas = uint32(t.Replicas())
	tp.VNodes = uint32(t.VirtualNodes())
	for _, sa := range t.Assignments() {
		sh := wire.TopoShard{ID: uint32(sa.ID)}
		for i, sid := range sa.Servers {
			sh.Servers = append(sh.Servers, uint32(sid))
			if len(sa.Addrs) != 0 {
				sh.Addrs = append(sh.Addrs, sa.Addrs[i])
			} else {
				sh.Addrs = append(sh.Addrs, "")
			}
		}
		tp.Shards = append(tp.Shards, sh)
	}
	return tp
}

// topoFromWire decodes a wire Topo into a topology (nil for the empty
// epoch-0 form).
func topoFromWire(tp *wire.Topo) (*cluster.ShardTopology, error) {
	if tp.Epoch == 0 || len(tp.Shards) == 0 {
		return nil, nil
	}
	shards := make([]cluster.ShardAssignment, 0, len(tp.Shards))
	for _, sh := range tp.Shards {
		sa := cluster.ShardAssignment{ID: int(sh.ID)}
		for i, sid := range sh.Servers {
			sa.Servers = append(sa.Servers, int(sid))
			sa.Addrs = append(sa.Addrs, sh.Addrs[i])
		}
		shards = append(shards, sa)
	}
	return cluster.AssembleTopology(tp.Epoch, int(tp.Replicas), int(tp.VNodes), shards)
}

// enqueueBatch splits a batch into per-key work items and hands them to
// the scheduler in one pushAll (the ordering guarantee is on the
// scheduler type). The items are one slab owned by the batch's pooled
// state.
//
// Shard validation has two tiers. Before a topology is installed, the
// whole batch is checked against the client's Shard header (the static
// pre-epoch behavior: configuration skew → FlagMisrouted). With a
// topology, ownership is checked per key against the ring — the server
// no longer trusts the client's routing — and keys owned elsewhere are
// answered as strays while the rest are served, so one moved key does
// not fail its whole batch mid-rebalance.
func (s *Server) enqueueBatch(cs *connState, m *wire.BatchReq) {
	var epoch uint64
	var stray []bool
	if s.opts.CheckShard {
		if t := s.topo.Load(); t != nil {
			epoch = t.Epoch()
			if m.Epoch != 0 && m.Epoch < epoch {
				s.staleEpochBatches.Add(1)
			}
			strays := 0
			for i, k := range m.Keys {
				if t.ShardOfKey(k) != s.opts.Shard {
					if stray == nil {
						stray = make([]bool, len(m.Keys))
					}
					stray[i] = true
					strays++
				}
			}
			if strays > 0 {
				s.strayKeys.Add(uint64(strays))
			}
		} else if m.Shard != uint32(s.opts.Shard) {
			cs.reply(&wire.BatchResp{Batch: m.Batch, Flags: wire.FlagMisrouted})
			return
		}
	}
	if len(m.Keys) == 0 {
		cs.reply(&wire.BatchResp{Batch: m.Batch, Epoch: epoch})
		return
	}
	bs := newBatchState(cs, m, stray, epoch, s.start)
	if bs.remaining == 0 {
		// Every key was a stray: nothing to schedule, answer now.
		bs.respond()
		return
	}
	s.sched.pushAll(bs.items)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		it, qlen, ok := s.sched.pop()
		if !ok {
			return
		}
		bs := it.batch
		// Expiry shed, checked at the pop — after the queue wait, before
		// any service work: a key whose deadline budget ran out while it
		// queued is answered with an Expired bit instead of a store read
		// plus service delay the caller has already stopped waiting for.
		if !bs.deadline.IsZero() && time.Now().After(bs.deadline) {
			s.expiredDrops.Add(1)
			srvExpiredDropsTotal.Inc()
			bs.finish(it.index, qlen, keyResult{expired: true})
			continue
		}
		svcStart := time.Now()
		if s.opts.Fault != nil {
			// Inside the measured service window, so injected latency
			// reaches clients as service time (a slow replica must look
			// slow to the C3 scorer and the hedge trigger).
			s.opts.Fault.beforeService()
		}
		v, ver, found := s.store.GetVersion(it.key)
		if s.opts.ServiceDelay != nil {
			time.Sleep(s.opts.ServiceDelay(int64(len(v))))
		}
		svc := time.Since(svcStart).Nanoseconds()
		s.served.Add(1)
		bs.finish(it.index, qlen, keyResult{value: v, version: ver, found: found, svcNanos: svc})
	}
}

// String implements fmt.Stringer for Discipline.
func (d Discipline) String() string {
	switch d {
	case Priority:
		return "priority"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("Discipline(%d)", int(d))
}
