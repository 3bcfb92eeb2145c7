package wire

import (
	"errors"
	"io"
	"slices"
	"sync"
)

// ErrWriterClosed is returned by Send after Close.
var ErrWriterClosed = errors.New("wire: ConnWriter closed")

// maxPendingBytes bounds the coalescing buffer: once this much encoded
// data is queued behind an in-flight Write, Send blocks until the
// connection drains — the same backpressure a direct blocking Write
// gave, minus the per-frame syscall.
const maxPendingBytes = 4 << 20

// ConnWriter coalesces frames written to one connection, replacing the
// mutex-guarded one-Write-per-frame pattern the netstore endpoints
// started with.
//
// When the connection is idle, Send writes its frame inline — same
// latency as a direct Write, and the write error surfaces synchronously.
// When a Write is already in flight, Send encodes into a shared pending
// buffer and returns; the sender whose Write is in flight then writes
// everything that accumulated behind it in one Write call, and goes on
// until nothing is queued, so under load many frames ride one syscall.
// No goroutine of its own runs: a frame is written by a sender, never
// handed to another goroutine to write. Frames are always written in
// Send order.
type ConnWriter struct {
	mu      sync.Mutex
	cond    *sync.Cond // backpressure, Flush and Close wait on it
	w       io.Writer
	pending []byte // frames queued behind the in-flight Write
	spare   []byte // recycled buffer for double-buffered swaps
	writing bool   // a sender is writing: its own frame, then the queue
	err     error  // sticky first write error
	closed  bool
}

// NewConnWriter returns a coalescing writer over w (w's Write must be
// safe for one concurrent caller, as net.Conn is).
func NewConnWriter(w io.Writer) *ConnWriter {
	cw := &ConnWriter{w: w}
	cw.cond = sync.NewCond(&cw.mu)
	return cw
}

// Send writes m's frame inline when the connection is idle, and then
// every frame other senders queued meanwhile; when a Write is already in
// flight it queues the frame for that writer instead. A non-nil return
// is a write's own error (inline path), the connection's sticky error,
// or ErrWriterClosed. A nil return on the queued path means the frame
// will be written unless the connection fails first — callers needing
// the stronger guarantee call Flush.
func (cw *ConnWriter) Send(m Message) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for cw.err == nil && !cw.closed && len(cw.pending) > maxPendingBytes {
		cw.cond.Wait()
	}
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return ErrWriterClosed
	}
	n := FrameSize(m)
	if cw.writing {
		cw.pending = AppendEncode(slices.Grow(cw.pending, n), m)
		return nil
	}
	// Idle connection: become the writer, with this frame encoded into
	// the retained buffer — grown once, to the frame's exact size, when
	// the frame does not fit — or, for a frame too large to retain, into
	// a pooled frame buffer, so the retained one survives it.
	cw.writing = true
	if n > maxSpareBytes {
		f := GetFrame(n)
		cw.write(AppendEncode(f.b[:0], m))
		f.Release()
	} else {
		buf := cw.spare
		cw.spare = nil
		if cap(buf) < n {
			buf = make([]byte, 0, max(n, minWriteBuf))
		}
		cw.write(AppendEncode(buf[:0], m))
	}
	cw.drain()
	return cw.err
}

// minWriteBuf is the smallest buffer a ConnWriter allocates, so a
// connection's first small frames do not each grow it.
const minWriteBuf = 4096

// maxSpareBytes bounds the buffer a ConnWriter retains between writes:
// a burst may grow the coalescing buffer toward maxPendingBytes, but
// keeping multi-MiB spares pinned on every idle connection afterwards
// would cost real memory at server connection counts, so oversized
// buffers are dropped to the GC once drained.
const maxSpareBytes = 64 << 10

// write performs one Write outside the lock and publishes its error.
// Called and returns with cw.mu held and cw.writing set.
func (cw *ConnWriter) write(buf []byte) {
	cw.mu.Unlock()
	_, err := cw.w.Write(buf)
	cw.mu.Lock()
	if cap(buf) <= maxSpareBytes && cw.spare == nil {
		cw.spare = buf[:0]
	}
	if err != nil && cw.err == nil {
		cw.err = err
	}
}

// drain writes what queued behind the writer's Write, one coalesced
// Write per accumulation, until nothing is queued or a Write failed,
// and then gives the writer role up. Only a Send blocked on
// backpressure, a Flush or a Close can be waiting, so only a swap out
// of an over-full queue and the end of the drain wake them.
func (cw *ConnWriter) drain() {
	for cw.err == nil && len(cw.pending) > 0 {
		full := len(cw.pending) > maxPendingBytes
		next := cw.spare
		if next == nil {
			next = make([]byte, 0, minWriteBuf)
		}
		buf := cw.pending
		cw.pending, cw.spare = next[:0], nil
		if full {
			cw.cond.Broadcast()
		}
		cw.write(buf)
	}
	cw.writing = false
	cw.cond.Broadcast()
}

// Flush blocks until every frame queued before the call has been handed
// to the connection, returning the sticky error if one occurred.
func (cw *ConnWriter) Flush() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for cw.err == nil && cw.writing {
		cw.cond.Wait()
	}
	return cw.err
}

// Close refuses further Sends and waits until the frames already queued
// are written — the in-flight writer drains them before it returns. It
// does not close the underlying connection; teardown paths that must
// not block close the connection first, which fails the in-flight Write
// and unblocks Close.
func (cw *ConnWriter) Close() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if !cw.closed {
		cw.closed = true
		cw.cond.Broadcast()
	}
	for cw.writing {
		cw.cond.Wait()
	}
	return cw.err
}
