package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/testutil"
)

// blockingWriter counts Write calls and can stall them, so tests can
// force frames to pile up behind an in-flight Write.
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
			t.Fatalf("parsing coalesced stream: %v", err)
		}
		msgs = append(msgs, m)
	}
}

// Frames queued while a Write is stalled must coalesce into fewer
// Writes, arrive intact, and preserve Send order.
func TestConnWriterCoalesces(t *testing.T) {
	const frames = 100
	w := &blockingWriter{
		gate:    make(chan struct{}, frames+1),
		started: make(chan struct{}, frames+1),
	}
	cw := NewConnWriter(w)

	// The first Send takes the inline path and stalls in Write on
	// another goroutine; the rest queue behind it.
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	for i := 1; i < frames; i++ {
		if err := cw.Send(&Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		w.gate <- struct{}{}
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	for len(w.started) > 0 {
		<-w.started
	}
	w.started = nil
	writes, data := w.snapshot()
	if writes >= frames {
		t.Fatalf("no coalescing: %d writes for %d frames", writes, frames)
	}
	msgs := readAllFrames(t, data)
	if len(msgs) != frames {
		t.Fatalf("got %d frames, want %d", len(msgs), frames)
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

// Close drains everything queued before it.
func TestConnWriterCloseDrains(t *testing.T) {
	w := &blockingWriter{
		gate:    make(chan struct{}, 64),
		started: make(chan struct{}, 64),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	for i := 1; i < 10; i++ {
		if err := cw.Send(&Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		w.gate <- struct{}{}
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for len(w.started) > 0 {
		<-w.started
	}
	w.started = nil
	_, data := w.snapshot()
	if got := len(readAllFrames(t, data)); got != 10 {
		t.Fatalf("Close dropped frames: %d of 10 arrived", got)
	}
	if err := cw.Send(&Ping{Nonce: 99}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Send after Close = %v, want ErrWriterClosed", err)
	}
}

// A write error hit while draining the queue surfaces to writers that
// queued behind the in-flight Write: the first queued Send returned nil
// (frame accepted), but every Send and the Flush after the failure
// report the sticky error.
func TestConnWriterQueuedWriterSeesStickyError(t *testing.T) {
	wantErr := errors.New("pipe burst")
	w := &blockingWriter{
		gate:    make(chan struct{}, 64),
		started: make(chan struct{}, 64),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	// Queued behind the stalled inline Write; accepted without error.
	if err := cw.Send(&Ping{Nonce: 1}); err != nil {
		t.Fatalf("queued Send before failure: %v", err)
	}
	// Fail every Write from now on, then release the stalled one (which
	// fails) and the drain's coalesced Write of the queued frame.
	w.mu.Lock()
	w.err = wantErr
	w.mu.Unlock()
	for i := 0; i < 4; i++ {
		w.gate <- struct{}{}
	}
	if err := <-firstDone; !errors.Is(err, wantErr) {
		t.Fatalf("inline Send err = %v, want %v", err, wantErr)
	}
	// The queued frame's loss is observable: Flush and any later Send
	// report the sticky error instead of pretending delivery.
	waitErr := func(f func() error, what string) {
		testutil.Eventually(t, 2*time.Second, what+" surfacing the sticky error", func() bool {
			return errors.Is(f(), wantErr)
		})
	}
	waitErr(func() error { return cw.Flush() }, "Flush")
	waitErr(func() error { return cw.Send(&Ping{Nonce: 2}) }, "Send")
	if err := cw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close err = %v, want %v", err, wantErr)
	}
}

// Send blocks once maxPendingBytes of encoded frames are queued behind a
// stalled Write, and unblocks when the connection drains — backpressure,
// not unbounded buffering.
func TestConnWriterBackpressure(t *testing.T) {
	w := &blockingWriter{
		gate:    make(chan struct{}, 1024),
		started: make(chan struct{}, 1024),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started

	// Fill the pending buffer to just past maxPendingBytes with large
	// Writes: Send's bound check runs before appending, so each of these
	// still returns, and the last one tips the buffer over the bound.
	big := &Write{Version: 1, Key: "k", Value: make([]byte, 1<<20)}
	for i := 0; i < maxPendingBytes/(1<<20); i++ {
		if err := cw.Send(big); err != nil {
			t.Fatal(err)
		}
	}
	// The buffer is now over the bound: the next Send must block.
	blocked := make(chan error, 1)
	go func() { blocked <- cw.Send(&Ping{Nonce: 9}) }()
	select {
	case err := <-blocked:
		t.Fatalf("Send returned (%v) with %d+ MiB pending; want it to block", err, maxPendingBytes>>20)
	case <-time.After(100 * time.Millisecond):
	}
	// Drain: release every Write; the blocked Send completes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case w.gate <- struct{}{}:
			case <-time.After(50 * time.Millisecond):
				return
			}
		}
	}()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("blocked Send failed after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after the connection drained")
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	<-done
	for len(w.started) > 0 {
		<-w.started
	}
	w.started = nil
	w.gate = nil
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

// The sender whose Write is in flight writes what queued behind it: by
// the time that Send returns, every frame queued meanwhile is on the
// connection, in Send order, in one more Write — no Flush, and no other
// goroutine, needed.
func TestConnWriterSenderDrainsQueue(t *testing.T) {
	const frames = 10
	w := &blockingWriter{
		gate:    make(chan struct{}, frames+1),
		started: make(chan struct{}, frames+1),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	for i := 1; i < frames; i++ {
		if err := cw.Send(&Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		w.gate <- struct{}{}
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	writes, data := w.snapshot()
	if writes != 2 {
		t.Fatalf("%d Writes for one inline frame and %d queued ones, want 2", writes, frames-1)
	}
	msgs := readAllFrames(t, data)
	if len(msgs) != frames {
		t.Fatalf("%d of %d frames written when the in-flight Send returned", len(msgs), frames)
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

// Close during a drain waits for the drain to end: it returns only once
// the frames queued before it are written, a second Close returns too,
// and Sends after it fail fast with ErrWriterClosed — nothing hangs,
// nothing is dropped.
func TestConnWriterDrainShutdown(t *testing.T) {
	w := &blockingWriter{
		gate:    make(chan struct{}, 4),
		started: make(chan struct{}, 4),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	for i := 1; i < 5; i++ {
		if err := cw.Send(&Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 2)
	go func() { closed <- cw.Close() }()
	go func() { closed <- cw.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the drain was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	w.gate <- struct{}{} // the inline Write
	<-w.started
	w.gate <- struct{}{} // the drain's coalesced Write
	for i := 0; i < 2; i++ {
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung after the drain ended")
		}
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	_, data := w.snapshot()
	if got := len(readAllFrames(t, data)); got != 5 {
		t.Fatalf("Close dropped frames: %d of 5 arrived", got)
	}
	for i := 0; i < 3; i++ {
		if err := cw.Send(&Ping{Nonce: 99}); !errors.Is(err, ErrWriterClosed) {
			t.Fatalf("Send after Close = %v, want ErrWriterClosed", err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatalf("Flush after clean Close: %v", err)
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
