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

// TaskResult is the outcome of one batched task.
type TaskResult struct {
	// Values are the read values, parallel to the requested keys;
	// missing keys yield nil.
	Values [][]byte
	// Found marks which keys existed.
	Found []bool
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

// serverConn is the one way netstore's client side talks to a server.
// Requests multiplex over one TCP connection, each under an id its reply
// echoes, and one read loop hands every reply to the waiter registered
// under that id. Outbound frames go through a ConnWriter: each request
// is one Write, made by the goroutine that sends it, under the writer's
// lock.
type serverConn struct {
	conn net.Conn
	w    *wire.ConnWriter

	mu       sync.Mutex
	nextID   uint64
	waiters  map[uint64]chan wire.Message
	closed   bool
	closeErr error
}

// dialServer dials addr, bounded by clientDialTimeout, and starts a
// serverConn over the connection.
func dialServer(addr string) (*serverConn, error) {
	conn, err := net.DialTimeout("tcp", addr, clientDialTimeout)
	if err != nil {
		return nil, err
	}
	return newServerConn(conn), nil
}

func newServerConn(conn net.Conn) *serverConn {
	sc := &serverConn{
		conn:    conn,
		w:       wire.NewConnWriter(conn),
		waiters: make(map[uint64]chan wire.Message),
	}
	go sc.readLoop(bufio.NewReaderSize(conn, 64<<10))
	return sc
}

// replyID is the request id a server reply echoes; false for a message
// that answers no request.
func replyID(m wire.Message) (uint64, bool) {
	switch m := m.(type) {
	case *wire.BatchResp:
		return m.Batch, true
	case *wire.WriteResp:
		return m.Seq, true
	case *wire.Topo:
		return m.Seq, true
	case *wire.ScanResp:
		return m.Seq, true
	case *wire.Pong:
		return m.Nonce, true
	}
	return 0, false
}

// stamp writes a request's id into the field its reply echoes, and the
// caller's remaining budget into a batch (unless its caller pre-set
// one): the one request that carries a budget.
func stamp(req wire.Message, id uint64, budget int64) {
	switch m := req.(type) {
	case *wire.BatchReq:
		m.Batch = id
		if m.Budget == 0 {
			m.Budget = budget
		}
	case *wire.Write:
		m.Seq = id
	case *wire.TopoGet:
		m.Seq = id
	case *wire.Topo:
		m.Seq = id
	case *wire.Scan:
		m.Seq = id
	case *wire.Ping:
		m.Nonce = id
	}
}

func (sc *serverConn) readLoop(r *bufio.Reader) {
	for {
		f, err := wire.ReadFrame(r)
		var msg wire.Message
		if err == nil {
			msg, err = wire.Decode(f.Bytes())
			f.Release()
		}
		if err != nil {
			sc.mu.Lock()
			sc.closed = true
			sc.closeErr = err
			for _, ch := range sc.waiters {
				close(ch)
			}
			sc.waiters = nil
			sc.mu.Unlock()
			return
		}
		id, ok := replyID(msg)
		if !ok {
			continue
		}
		sc.mu.Lock()
		ch, live := sc.waiters[id]
		delete(sc.waiters, id)
		sc.mu.Unlock()
		// A reply whose waiter gave up is dropped. The waiter's channel is
		// buffered and receives exactly once, so this send cannot block the
		// read loop; a server double-answering an id would hit the default
		// case.
		if live {
			select {
			case ch <- msg:
			default:
			}
		}
	}
}

// start is the one request primitive: it registers a waiter under a
// fresh id, stamps the id and ctx's remaining budget onto req, and sends
// it without waiting. The caller owns the wait — a hedged read selects
// over several of these channels at once. The channel yields exactly one
// reply, or is closed if the connection dies; a caller that stops caring
// must abandon(id) so a late reply is dropped instead of leaking the
// waiter. A budget already spent fails before any byte is sent.
func (sc *serverConn) start(ctx context.Context, req wire.Message, what string) (uint64, chan wire.Message, error) {
	budget, ok := budgetOf(ctx)
	if !ok {
		return 0, nil, ctxErr(ctx, what+" not sent")
	}
	ch := replyChans.Get().(chan wire.Message)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		replyChans.Put(ch)
		return 0, nil, fmt.Errorf("netstore: connection closed: %v", sc.closeErr)
	}
	sc.nextID++
	id := sc.nextID
	sc.waiters[id] = ch
	sc.mu.Unlock()
	stamp(req, id, budget)
	if err := sc.w.Send(req); err != nil {
		sc.abandon(id)
		return 0, nil, err
	}
	return id, ch, nil
}

// replyChans recycles the channels start registers. A channel goes back
// only once its one reply was received: the read loop deregisters a
// waiter before it sends, so a channel that delivered is empty and
// nobody else holds it. One whose wait was abandoned may still receive
// a late reply, and one the read loop closed is spent; both are left to
// the collector.
var replyChans = sync.Pool{New: func() any { return make(chan wire.Message, 1) }}

// abandon deregisters a waiter; the read loop then drops its reply on
// arrival (the server still does the work — the abandonment is a
// client-side bookkeeping release, not a wire cancel).
func (sc *serverConn) abandon(id uint64) {
	sc.mu.Lock()
	delete(sc.waiters, id)
	sc.mu.Unlock()
}

// wait is the one wait: for the reply to a started request, the
// connection's death, or ctx's end, whichever comes first. Every wait is
// ctx-bounded — foreground calls carry the request deadline, background
// traffic a clientDialTimeout-bounded ctx — so one wedged-but-open server
// can hang no caller. On ctx's end the waiter deregisters.
func (sc *serverConn) wait(ctx context.Context, id uint64, ch chan wire.Message, what string) (wire.Message, error) {
	select {
	case m, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("netstore: connection closed awaiting %s: %v", what, sc.closeError())
		}
		replyChans.Put(ch)
		return m, nil
	case <-ctx.Done():
		sc.abandon(id)
		return nil, ctxErr(ctx, what+" abandoned")
	}
}

// call sends req and waits for its reply.
func (sc *serverConn) call(ctx context.Context, req wire.Message, what string) (wire.Message, error) {
	id, ch, err := sc.start(ctx, req, what)
	if err != nil {
		return nil, err
	}
	return sc.wait(ctx, id, ch, what)
}

// replyAs narrows a call's reply to the type its request is answered
// with.
func replyAs[T wire.Message](m wire.Message, err error) (T, error) {
	r, ok := m.(T)
	if err == nil && !ok {
		err = fmt.Errorf("netstore: unexpected reply %T", m)
	}
	return r, err
}

// batch sends req and waits for its response until ctx ends. The ctx
// deadline rides the request as its Budget (unless the caller pre-set
// one) so the server can shed the batch's keys if they queue past it.
func (sc *serverConn) batch(ctx context.Context, req *wire.BatchReq) (*wire.BatchResp, error) {
	return replyAs[*wire.BatchResp](sc.call(ctx, req, "batch"))
}

// writeReq is the frame of one versioned write routed under the
// topology at epoch.
func writeReq(key string, v versioned, epoch uint64) *wire.Write {
	return &wire.Write{Version: v.ver, Epoch: epoch, Key: key, Value: v.val, Dead: v.dead}
}

// ackOf is a write's verdict from its reply: nil for an ack, a
// *NotOwnerError when the server rejected the key as not its own.
func ackOf(m wire.Message, err error) error {
	r, err := replyAs[*wire.WriteResp](m, err)
	if err == nil && r.NotOwner {
		return &NotOwnerError{Epoch: r.Epoch, OwnerShard: int(r.Owner)}
	}
	return err
}

// write sends one versioned write, routed under the topology at epoch,
// and waits for its verdict until ctx ends.
func (sc *serverConn) write(ctx context.Context, key string, v versioned, epoch uint64) error {
	return ackOf(sc.call(ctx, writeReq(key, v, epoch), "write"))
}

// topoGet asks the server for its current topology and waits for the
// reply until ctx ends (Epoch-0 topologies come back as-is; the caller
// decides whether that is useful).
func (sc *serverConn) topoGet(ctx context.Context) (*wire.Topo, error) {
	return replyAs[*wire.Topo](sc.call(ctx, &wire.TopoGet{}, "topology"))
}

// within runs one exchange of background traffic on a connection the
// caller owns, under ctx narrowed to clientDialTimeout. If that ends
// before the exchange does, the connection is closed, so a Send blocked
// on a wedged peer fails along with the wait instead of outliving it. A
// nil return means the exchange completed with the connection open.
func (sc *serverConn) within(ctx context.Context, exchange func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, clientDialTimeout)
	defer cancel()
	stop := context.AfterFunc(ctx, sc.close)
	err := exchange(ctx)
	if !stop() && err == nil {
		err = ctxErr(ctx, "exchange cut short")
	}
	return err
}

func (sc *serverConn) closeError() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.closeErr
}

func (sc *serverConn) close() {
	// Connection first: a stuck in-flight Write fails instead of
	// holding the writer's lock.
	_ = sc.conn.Close()
	_ = sc.w.Close()
}
