package wire

import (
	"errors"
	"io"
	"sync"
)

// ErrWriterClosed is returned by Send after Close.
var ErrWriterClosed = errors.New("wire: ConnWriter closed")

// A ConnWriter retains an encode buffer of at least minWriteBuf bytes,
// so a connection's first small frames do not each grow it, and at most
// maxRetainedBytes: a larger frame is encoded into a pooled frame buffer,
// so an idle connection never pins a multi-MiB buffer.
const (
	minWriteBuf      = 4096
	maxRetainedBytes = 64 << 10
)

// ConnWriter serializes the frames written to one connection: Send
// encodes its frame and writes it in one Write under a mutex, so frames
// never interleave and each Send returns its own Write's error. A Send
// behind an in-flight Write waits for the lock (a client sends one
// request per replica group and a server one response per batch, so
// that is rare); no sender writes another's frame.
type ConnWriter struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte // retained encode buffer, at most maxRetainedBytes
	err    error  // sticky first write error
	closed bool
}

// NewConnWriter returns a writer over w; w's Write is called by one
// goroutine at a time.
func NewConnWriter(w io.Writer) *ConnWriter { return &ConnWriter{w: w} }

// Send encodes m and writes its frame before returning. A non-nil return
// is that Write's error, the connection's sticky error, or
// ErrWriterClosed.
func (cw *ConnWriter) Send(m Message) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return ErrWriterClosed
	}
	n, buf := FrameSize(m), cw.buf
	if n > maxRetainedBytes {
		f := GetFrame(n)
		defer f.Release()
		buf = f.b
	} else if cap(buf) < n {
		buf = make([]byte, 0, max(n, minWriteBuf))
		cw.buf = buf
	}
	_, cw.err = cw.w.Write(AppendEncode(buf[:0], m))
	return cw.err
}

// Flush returns the sticky error. Every Send has written its frame by
// the time it returns, so there is nothing to wait for but the lock.
func (cw *ConnWriter) Flush() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.err
}

// Close refuses further Sends once the in-flight one returns. It does
// not close the underlying connection; teardown paths that must not
// block close the connection first, which fails a blocked Write.
func (cw *ConnWriter) Close() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.closed = true
	return cw.err
}
