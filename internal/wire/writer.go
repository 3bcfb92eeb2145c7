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
// buffer and returns; the writer goroutine drains everything that
// accumulated into one Write call, so under load many frames ride one
// syscall. Frames are always written in Send order.
type ConnWriter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	w       io.Writer
	pending []byte // frames queued behind the in-flight Write
	spare   []byte // recycled buffer for double-buffered swaps
	writing bool   // a Write (inline or goroutine) is in flight
	err     error  // sticky first write error
	closed  bool
	done    chan struct{}
}

// NewConnWriter starts a coalescing writer over w (w's Write must be
// safe for one concurrent caller, as net.Conn is). Close stops it.
func NewConnWriter(w io.Writer) *ConnWriter {
	cw := &ConnWriter{w: w, done: make(chan struct{})}
	cw.cond = sync.NewCond(&cw.mu)
	go cw.loop()
	return cw
}

// Send writes m's frame inline when the connection is idle, or queues
// it for the writer goroutine's next coalesced Write when one is
// already in flight. A non-nil return is the write's own error (inline
// path), the connection's sticky error, or ErrWriterClosed. A nil
// return on the queued path means the frame will be written unless the
// connection fails first — callers needing the stronger guarantee call
// Flush.
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
	if !cw.writing && len(cw.pending) == 0 {
		// Idle connection: become the writer for this one frame, encoded
		// into the retained buffer — grown once, to the frame's exact
		// size, when the frame does not fit — or, for a frame too large
		// to retain, into a pooled frame buffer, so the retained one
		// survives it.
		if n > maxSpareBytes {
			f := GetFrame(n)
			cw.write(AppendEncode(f.b[:0], m))
			f.Release()
			return cw.err
		}
		buf := cw.spare
		cw.spare = nil
		if cap(buf) < n {
			buf = make([]byte, 0, max(n, minWriteBuf))
		}
		cw.write(AppendEncode(buf[:0], m))
		return cw.err
	}
	cw.pending = AppendEncode(slices.Grow(cw.pending, n), m)
	cw.cond.Broadcast()
	return nil
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

// write performs one Write outside the lock and publishes the result.
// Called with cw.mu held and cw.writing false; returns with cw.mu held.
func (cw *ConnWriter) write(buf []byte) {
	cw.writing = true
	cw.mu.Unlock()
	_, err := cw.w.Write(buf)
	cw.mu.Lock()
	cw.writing = false
	if cap(buf) <= maxSpareBytes && cw.spare == nil {
		cw.spare = buf[:0]
	}
	if err != nil && cw.err == nil {
		cw.err = err
	}
	cw.cond.Broadcast()
}

// Flush blocks until every frame queued before the call has been handed
// to the connection, returning the sticky error if one occurred.
func (cw *ConnWriter) Flush() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for cw.err == nil && (len(cw.pending) > 0 || cw.writing) {
		cw.cond.Wait()
	}
	return cw.err
}

// Close drains queued frames and stops the writer goroutine. It does
// not close the underlying connection; teardown paths that must not
// block close the connection first, which fails the in-flight Write and
// unblocks Close.
func (cw *ConnWriter) Close() error {
	cw.mu.Lock()
	if !cw.closed {
		cw.closed = true
		cw.cond.Broadcast()
	}
	cw.mu.Unlock()
	<-cw.done
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.err
}

// loop drains frames that queued up behind an in-flight Write, one
// coalesced Write per accumulation.
func (cw *ConnWriter) loop() {
	cw.mu.Lock()
	for {
		// Wait while there is nothing to drain or another writer (an
		// inline Send) is in flight; wake on queued frames, writer
		// completion, error, or Close.
		for cw.err == nil && ((len(cw.pending) == 0 && !cw.closed) || cw.writing) {
			cw.cond.Wait()
		}
		if cw.err != nil || len(cw.pending) == 0 {
			// Error, or closed with nothing left to drain.
			break
		}
		buf := cw.pending
		if cw.spare == nil {
			cw.spare = make([]byte, 0, minWriteBuf)
		}
		cw.pending = cw.spare[:0]
		cw.spare = nil
		cw.write(buf)
	}
	cw.mu.Unlock()
	close(cw.done)
}
