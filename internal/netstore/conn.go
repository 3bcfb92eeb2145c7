package netstore

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/wire"
)

// versionClock issues a client's write versions:
// wall-clock nanoseconds at the write, bumped to stay strictly
// monotonic within the client. Stamping each write with *current* time
// — rather than a dial-time seed plus a counter — keeps versions from
// concurrently running clients comparable, so last-writer-wins resolves
// by when a write happened, not by which client process started later.
// Cross-client writes within clock skew of each other remain arbitrary,
// as in any wall-clock LWW scheme.
type versionClock struct{ last atomic.Uint64 }

func (vc *versionClock) next() uint64 {
	for {
		prev := vc.last.Load()
		v := uint64(time.Now().UnixNano())
		if v <= prev {
			v = prev + 1
		}
		if vc.last.CompareAndSwap(prev, v) {
			return v
		}
	}
}

// learnSize caches a key's observed value size for cost forecasting,
// skipping the store (and its per-call boxing allocation) when the
// cached size is already right — the steady-state case.
func learnSize(sizes *sync.Map, key string, size int64) {
	if v, ok := sizes.Load(key); ok && v.(int64) == size {
		return
	}
	sizes.Store(key, size)
}

// TaskResult is the outcome of one batched task.
type TaskResult struct {
	// Values are the read values, parallel to the requested keys;
	// missing keys yield nil.
	Values [][]byte
	// Found marks which keys existed.
	Found []bool
	// Latency is the task's completion time (issue → last sub-task
	// response).
	Latency time.Duration
	// Bottleneck is the task's forecasted bottleneck cost in
	// nanoseconds.
	Bottleneck int64
	// Hedged counts hedge attempts fired while serving this task.
	// Sub-batches update it with atomic
	// adds while the call is in flight; read it only after the call
	// returns.
	Hedged int32
}

// expiredKeysError reports server-shed keys as a deadline expiry the
// caller can errors.Is-match.
func expiredKeysError(n int) error {
	return fmt.Errorf("netstore: server shed %d expired key(s) before service: %w", n, context.DeadlineExceeded)
}

// NotOwnerError is a write rejection by a server that does not own the
// key under its (newer) topology: the caller should refresh its cached
// topology and re-route. Epoch is the server's topology epoch;
// OwnerShard is where the server believes the key lives.
type NotOwnerError struct {
	Epoch      uint64
	OwnerShard int
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("netstore: server does not own key (its epoch %d says shard %d)", e.Epoch, e.OwnerShard)
}

// writeRoute is the topology routing header stamped on Set/Del frames.
type writeRoute struct {
	shard int
	epoch uint64
}

// serverConn multiplexes batches over one TCP connection. Outbound
// frames ride a coalescing ConnWriter: concurrent sub-task goroutines
// queue their batches into one buffer and share Write syscalls.
type serverConn struct {
	conn net.Conn
	w    *wire.ConnWriter

	mu       sync.Mutex
	nextID   uint64
	pending  map[uint64]chan *wire.BatchResp
	pendAck  map[uint64]chan error      // Set/Del acks (nil) or NotOwner rejections
	pendTopo map[uint64]chan *wire.Topo // TopoGet replies
	closed   bool
	closeErr error
}

func newServerConn(conn net.Conn) *serverConn {
	return newServerConnReader(conn, bufio.NewReaderSize(conn, 64<<10))
}

// newServerConnReader wraps a connection whose read side is already
// buffered — the revival prober hands over the reader it exchanged the
// Ping/Pong on, so no buffered byte is lost in the swap.
func newServerConnReader(conn net.Conn, r *bufio.Reader) *serverConn {
	sc := &serverConn{
		conn:     conn,
		w:        wire.NewConnWriter(conn),
		pending:  make(map[uint64]chan *wire.BatchResp),
		pendAck:  make(map[uint64]chan error),
		pendTopo: make(map[uint64]chan *wire.Topo),
	}
	go sc.readLoop(r)
	return sc
}

func (sc *serverConn) readLoop(r *bufio.Reader) {
	for {
		msg, err := wire.ReadMessage(r)
		if err != nil {
			sc.mu.Lock()
			sc.closed = true
			sc.closeErr = err
			for _, ch := range sc.pending {
				close(ch)
			}
			for _, ch := range sc.pendAck {
				close(ch)
			}
			for _, ch := range sc.pendTopo {
				close(ch)
			}
			sc.pending = map[uint64]chan *wire.BatchResp{}
			sc.pendAck = map[uint64]chan error{}
			sc.pendTopo = map[uint64]chan *wire.Topo{}
			sc.mu.Unlock()
			return
		}
		switch m := msg.(type) {
		case *wire.BatchResp:
			sc.mu.Lock()
			ch, live := sc.pending[m.Batch]
			delete(sc.pending, m.Batch)
			sc.mu.Unlock()
			if !live {
				// The batch was abandoned (its sender saw a write error
				// and gave up): drop the response instead of keeping a
				// channel nobody will receive on.
				continue
			}
			// The waiter's channel is buffered and it receives exactly
			// once, so this send cannot block the read loop; a server
			// double-answering a batch ID would hit the default case.
			select {
			case ch <- m:
			default:
			}
		case *wire.SetResp:
			sc.ack(m.Seq, nil)
		case *wire.DelResp:
			sc.ack(m.Seq, nil)
		case *wire.NotOwner:
			sc.ack(m.ID, &NotOwnerError{Epoch: m.Epoch, OwnerShard: int(m.Hint)})
		case *wire.Topo:
			sc.mu.Lock()
			ch, live := sc.pendTopo[m.Seq]
			delete(sc.pendTopo, m.Seq)
			sc.mu.Unlock()
			if live {
				select {
				case ch <- m:
				default:
				}
			}
		}
	}
}

// batch sends req (Batch is assigned here; all other fields are the
// caller's) and waits for its response, ctx cancellation, or connection
// death — whichever comes first. The ctx deadline is stamped onto the
// request's Budget (unless the caller pre-set one) so the server can
// shed the batch's keys if they queue past it; a budget already spent
// fails before any byte is sent. On ctx termination the waiter
// deregisters, so a late response is dropped by the read loop instead
// of leaking a channel.
func (sc *serverConn) batch(ctx context.Context, req *wire.BatchReq) (*wire.BatchResp, error) {
	id, ch, err := sc.startBatch(ctx, req)
	if err != nil {
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("netstore: connection closed awaiting batch: %v", sc.closeError())
		}
		return resp, nil
	case <-ctx.Done():
		sc.abandonBatch(id)
		return nil, ctxErr(ctx, "batch abandoned")
	}
}

// startBatch is the asynchronous half of batch: it registers a waiter
// channel, stamps the Budget and Batch ID, and sends the frame, but
// does not wait. The caller owns the wait — a hedged read selects over
// several of these channels at once. The channel yields exactly one
// response, or is closed if the connection dies; a caller that stops
// caring must abandonBatch(id) so a late response is dropped instead of
// leaking the pending-map entry.
func (sc *serverConn) startBatch(ctx context.Context, req *wire.BatchReq) (uint64, chan *wire.BatchResp, error) {
	if req.Budget == 0 {
		b, ok := budgetOf(ctx)
		if !ok {
			return 0, nil, ctxErr(ctx, "batch not sent")
		}
		req.Budget = b
	}
	ch := make(chan *wire.BatchResp, 1)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return 0, nil, fmt.Errorf("netstore: connection closed: %v", sc.closeErr)
	}
	sc.nextID++
	id := sc.nextID
	sc.pending[id] = ch
	sc.mu.Unlock()

	req.Batch = id
	if err := sc.w.Send(req); err != nil {
		sc.mu.Lock()
		delete(sc.pending, id)
		sc.mu.Unlock()
		return 0, nil, err
	}
	return id, ch, nil
}

// abandonBatch deregisters a startBatch waiter; the read loop then drops
// the batch's response on arrival (the server still does the work — the
// abandonment is a client-side bookkeeping release, not a wire cancel).
func (sc *serverConn) abandonBatch(id uint64) {
	sc.mu.Lock()
	delete(sc.pending, id)
	sc.mu.Unlock()
}

// ack delivers a write acknowledgment (SetResp/DelResp, result nil) or
// rejection (NotOwner, result non-nil) to its waiter; Set and Del share
// the connection's seq space.
func (sc *serverConn) ack(seq uint64, result error) {
	sc.mu.Lock()
	ch, live := sc.pendAck[seq]
	delete(sc.pendAck, seq)
	sc.mu.Unlock()
	if live {
		select {
		case ch <- result:
		default:
		}
	}
}

// awaitAck registers an ack channel under a fresh seq, sends the message
// built from that seq, and blocks until the server acknowledges or
// rejects it, the connection dies, or ctx ends. Every caller's wait is
// ctx-bounded: foreground writes carry the request deadline, background
// repair traffic (hint replay/re-route, read-repair) derives a
// clientDialTimeout-bounded ctx, so one wedged-but-open server can
// neither hang a caller forever nor capture the prober or a repair slot.
// On ctx termination the waiter deregisters; a late verdict parks
// harmlessly in the buffered channel.
func (sc *serverConn) awaitAck(ctx context.Context, build func(seq uint64) wire.Message, what string) error {
	ch := make(chan error, 1)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return fmt.Errorf("netstore: connection closed: %v", sc.closeErr)
	}
	sc.nextID++
	id := sc.nextID
	sc.pendAck[id] = ch
	sc.mu.Unlock()
	if err := sc.w.Send(build(id)); err != nil {
		sc.mu.Lock()
		delete(sc.pendAck, id)
		sc.mu.Unlock()
		return err
	}
	// A value on the channel is the server's verdict (nil ack or a
	// NotOwner rejection); the read loop closing it instead means the
	// connection died with the write unacknowledged — an error, not
	// success.
	select {
	case result, acked := <-ch:
		if !acked {
			return fmt.Errorf("netstore: connection closed awaiting %s: %v", what, sc.closeError())
		}
		return result
	case <-ctx.Done():
		sc.mu.Lock()
		delete(sc.pendAck, id)
		sc.mu.Unlock()
		return ctxErr(ctx, what+" abandoned")
	}
}

// set writes one versioned key (version 0 = server-assigned local
// version) under the given topology route and waits for the
// acknowledgment until ctx ends. The ctx deadline rides the frame as
// its remaining Budget; a budget already spent fails without sending. A
// *NotOwnerError return means the server rejected the key as not its
// own.
func (sc *serverConn) set(ctx context.Context, key string, value []byte, version uint64, rt writeRoute) error {
	budget, ok := budgetOf(ctx)
	if !ok {
		return ctxErr(ctx, "set not sent")
	}
	return sc.awaitAck(ctx, func(seq uint64) wire.Message {
		return &wire.Set{Seq: seq, Version: version, Shard: uint32(rt.shard), Epoch: rt.epoch, Budget: budget, Key: key, Value: value}
	}, "set")
}

// del deletes one versioned key and waits for the acknowledgment until
// ctx ends.
func (sc *serverConn) del(ctx context.Context, key string, version uint64, rt writeRoute) error {
	budget, ok := budgetOf(ctx)
	if !ok {
		return ctxErr(ctx, "del not sent")
	}
	return sc.awaitAck(ctx, func(seq uint64) wire.Message {
		return &wire.Del{Seq: seq, Version: version, Shard: uint32(rt.shard), Epoch: rt.epoch, Budget: budget, Key: key}
	}, "del")
}

// topoGet asks the server for its current topology and waits for the
// reply (nil Epoch-0 topologies come back as-is; the caller decides
// whether that is useful). The wait is bounded: topology refresh runs
// under the client's single-flight lock, and one wedged server — TCP
// alive, process stalled — must not stall every operation behind it.
// The reply channel is buffered, so a reply racing the timeout parks
// harmlessly instead of blocking the read loop.
func (sc *serverConn) topoGet(timeout time.Duration) (*wire.Topo, error) {
	ch := make(chan *wire.Topo, 1)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, fmt.Errorf("netstore: connection closed: %v", sc.closeErr)
	}
	sc.nextID++
	id := sc.nextID
	sc.pendTopo[id] = ch
	sc.mu.Unlock()
	if err := sc.w.Send(&wire.TopoGet{Seq: id}); err != nil {
		sc.mu.Lock()
		delete(sc.pendTopo, id)
		sc.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case tp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("netstore: connection closed awaiting topology: %v", sc.closeError())
		}
		return tp, nil
	case <-timer.C:
		sc.mu.Lock()
		delete(sc.pendTopo, id)
		sc.mu.Unlock()
		return nil, fmt.Errorf("netstore: topology fetch timed out after %v", timeout)
	}
}

func (sc *serverConn) closeError() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.closeErr
}

func (sc *serverConn) close() {
	// Connection first: a stuck in-flight Write fails instead of
	// blocking the writer drain.
	_ = sc.conn.Close()
	_ = sc.w.Close()
}
