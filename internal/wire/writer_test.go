package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/testutil"
)

// blockingWriter counts Write calls and can stall them, so tests can
// hold a Send in its Write while others try to send.
type blockingWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	writes  int
	gate    chan struct{} // non-nil: every Write waits for one token
	started chan struct{} // non-nil: signaled when a Write begins
	err     error
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if w.started != nil {
		w.started <- struct{}{}
	}
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if w.err != nil {
		return 0, w.err
	}
	return w.buf.Write(p)
}

func (w *blockingWriter) snapshot() (int, []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes, append([]byte(nil), w.buf.Bytes()...)
}

func readAllFrames(t *testing.T, data []byte) []Message {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(data))
	var msgs []Message
	for {
		m, err := ReadMessage(r)
		if err == io.EOF {
			return msgs
		}
		if err != nil {
			t.Fatalf("parsing the written stream: %v", err)
		}
		msgs = append(msgs, m)
	}
}

// Concurrent senders over a live pipe: every frame arrives exactly once.
func TestConnWriterConcurrentSenders(t *testing.T) {
	const senders = 8
	const perSender = 200
	var w blockingWriter
	cw := NewConnWriter(&w)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := cw.Send(&Ping{Nonce: uint64(s*perSender + i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	_, data := w.snapshot()
	seen := make(map[uint64]bool)
	for _, m := range readAllFrames(t, data) {
		n := m.(*Ping).Nonce
		if seen[n] {
			t.Fatalf("frame %d delivered twice", n)
		}
		seen[n] = true
	}
	if len(seen) != senders*perSender {
		t.Fatalf("got %d frames, want %d", len(seen), senders*perSender)
	}
}

// A write error is sticky: the failing Send (or the next one) reports
// it, and every Send afterwards fails fast.
func TestConnWriterStickyError(t *testing.T) {
	wantErr := errors.New("boom")
	w := &blockingWriter{err: wantErr}
	cw := NewConnWriter(w)
	// The inline fast path surfaces the error synchronously.
	if err := cw.Send(&Ping{Nonce: 1}); !errors.Is(err, wantErr) {
		t.Fatalf("first Send err = %v, want %v", err, wantErr)
	}
	for i := 0; i < 3; i++ {
		if err := cw.Send(&Ping{Nonce: 2}); !errors.Is(err, wantErr) {
			t.Fatalf("Send after error = %v, want %v", err, wantErr)
		}
	}
	if err := cw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close err = %v, want %v", err, wantErr)
	}
}

// waitBlocked fails the test if done yields within a short window: the
// goroutine behind it is expected to be blocked.
func waitBlocked(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v); want it blocked", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// A Send behind an in-flight Write waits for that Write to return and
// then writes its own frame: it neither returns early nor hands its
// frame to the stalled sender, and both frames arrive whole, in order.
func TestConnWriterSendWaitsForInFlightWrite(t *testing.T) {
	w := &blockingWriter{
		gate:    make(chan struct{}, 2),
		started: make(chan struct{}, 2),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	secondDone := make(chan error, 1)
	go func() { secondDone <- cw.Send(&Ping{Nonce: 1}) }()
	waitBlocked(t, secondDone, "Send behind a stalled Write")
	if n := len(w.started); n != 0 {
		t.Fatalf("%d more Writes began while the first was in flight, want 0", n)
	}
	w.gate <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	<-w.started
	w.gate <- struct{}{}
	if err := <-secondDone; err != nil {
		t.Fatal(err)
	}
	writes, data := w.snapshot()
	msgs := readAllFrames(t, data)
	if writes != 2 || len(msgs) != 2 {
		t.Fatalf("%d Writes carrying %d frames, want 2 and 2", writes, len(msgs))
	}
	for i, m := range msgs {
		if m.(*Ping).Nonce != uint64(i) {
			t.Fatalf("frame %d out of order: nonce %d", i, m.(*Ping).Nonce)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

// startSignal reports each Write as it begins, then hands it on.
type startSignal struct {
	io.Writer
	started chan struct{}
}

func (s startSignal) Write(p []byte) (int, error) {
	s.started <- struct{}{}
	return s.Writer.Write(p)
}

// Teardown closes the connection first: that fails the Send blocked in
// Write, every later Send returns the sticky error or ErrWriterClosed,
// and a Close waiting behind the blocked Send returns.
func TestConnWriterCloseDrains(t *testing.T) {
	conn, peer := net.Pipe() // nobody reads peer: the first Write blocks
	defer peer.Close()
	// Room for Writes that must not happen, so the test counts them
	// instead of blocking on them.
	sig := startSignal{Writer: conn, started: make(chan struct{}, 4)}
	cw := NewConnWriter(sig)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-sig.started
	secondDone := make(chan error, 1)
	go func() { secondDone <- cw.Send(&Ping{Nonce: 1}) }()
	closed := make(chan error, 1)
	go func() { closed <- cw.Close() }()
	waitBlocked(t, closed, "Close behind a blocked Write")

	_ = conn.Close()
	stuckErr := <-firstDone
	if !errors.Is(stuckErr, io.ErrClosedPipe) {
		t.Fatalf("blocked Send err = %v, want %v", stuckErr, io.ErrClosedPipe)
	}
	select {
	case err := <-closed:
		if !errors.Is(err, stuckErr) {
			t.Fatalf("Close err = %v, want the sticky %v", err, stuckErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after the connection closed")
	}
	later := []error{<-secondDone}
	for i := 0; i < 3; i++ {
		later = append(later, cw.Send(&Ping{Nonce: 2}))
	}
	for _, err := range later {
		if !errors.Is(err, stuckErr) && !errors.Is(err, ErrWriterClosed) {
			t.Fatalf("Send after teardown = %v, want %v or ErrWriterClosed", err, stuckErr)
		}
	}
	if n := len(sig.started); n != 0 {
		t.Fatalf("%d Writes began after the connection closed, want 0", n)
	}
}

// A stalled Write of a frame too large to retain holds later Sends back
// until the connection takes it (the blocking Write is the backpressure),
// and the writer keeps no buffer over maxRetainedBytes afterwards.
func TestConnWriterBackpressure(t *testing.T) {
	w := &blockingWriter{
		gate:    make(chan struct{}, 2),
		started: make(chan struct{}, 2),
	}
	cw := NewConnWriter(w)
	big := &Write{Version: 1, Key: "k", Value: make([]byte, 1<<20)}
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(big) }()
	<-w.started
	blocked := make(chan error, 1)
	go func() { blocked <- cw.Send(&Ping{Nonce: 9}) }()
	waitBlocked(t, blocked, "Send behind a stalled 1 MiB Write")
	w.gate <- struct{}{}
	w.gate <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("blocked Send failed after the Write returned: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after the stalled Write returned")
	}
	<-w.started
	_, data := w.snapshot()
	msgs := readAllFrames(t, data)
	if len(msgs) != 2 || len(msgs[0].(*Write).Value) != 1<<20 || msgs[1].(*Ping).Nonce != 9 {
		t.Fatalf("got %d frames, want the 1 MiB write then ping 9", len(msgs))
	}
	cw.mu.Lock()
	retained := cap(cw.buf)
	cw.mu.Unlock()
	if retained > maxRetainedBytes {
		t.Fatalf("writer retains a %d-byte buffer, want at most %d", retained, maxRetainedBytes)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

// A ConnWriter has no goroutine of its own: creating writers starts
// none, and closing an idle one returns at once, twice.
func TestConnWriterStartsNoGoroutine(t *testing.T) {
	const n = 64
	before := runtime.NumGoroutine()
	cws := make([]*ConnWriter, n)
	for i := range cws {
		cws[i] = NewConnWriter(&blockingWriter{})
	}
	if started := runtime.NumGoroutine() - before; started >= n/2 {
		t.Fatalf("%d writers started %d goroutines, want none", n, started)
	}
	for _, cw := range cws {
		if err := cw.Send(&Ping{Nonce: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := cw.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
	}
}

// The steady-state Send path must not allocate beyond the frame append.
func TestConnWriterSendAllocs(t *testing.T) {
	var w blockingWriter
	w.buf.Grow(1 << 20) // sink growth must not count against Send
	cw := NewConnWriter(&w)
	m := &Ping{Nonce: 7}
	if err := cw.Send(m); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := cw.Send(m); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("Send: %.1f allocs/op, want 0", avg)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

// An idle writer flushes a lone frame promptly (no batching delay).
func TestConnWriterIdleFlush(t *testing.T) {
	var w blockingWriter
	cw := NewConnWriter(&w)
	defer cw.Close()
	if err := cw.Send(&Ping{Nonce: 5}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 2*time.Second, "idle frame flush", func() bool {
		_, data := w.snapshot()
		return len(data) > 0
	})
	_, data := w.snapshot()
	if got := readAllFrames(t, data); len(got) != 1 || got[0].(*Ping).Nonce != 5 {
		t.Fatalf("unexpected flushed frames: %v", got)
	}
}
