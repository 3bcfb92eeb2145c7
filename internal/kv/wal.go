package kv

// Segmented write-ahead log with group commit.
//
// A record is buffered in call order (buffer) and then waited for
// (wait), with group commit: when no flush is in flight, a waiter
// becomes the flusher — one write + one fsync, same latency as a naive
// implementation. When a flush IS in flight, records accumulate in a
// shared pending buffer and their waiters wait; the next flusher drains
// everything that accumulated into one write and one fsync, so under
// concurrent writers many acknowledged records share a single disk
// sync. Records are always written in buffer order. (An fsync takes
// milliseconds, so writers do queue behind one; wire.ConnWriter's
// per-frame Writes take microseconds, and it writes each frame alone.)
//
// Fsync policy:
//
//	FsyncAlways   every wait returns only after an fsync covers its
//	              record (group-committed). Acked ⇒ durable.
//	FsyncInterval waits return once the record reaches the file; a
//	              background ticker fsyncs every fsyncTick (50ms). Acked
//	              ⇒ durable within one tick, unless the process and the
//	              machine die together inside it.
//	FsyncNever    no fsyncs; the OS flushes when it pleases. For
//	              benchmarks and data you can re-derive.
//
// Any write or fsync error is sticky: the WAL fails every subsequent
// buffer and wait, because after a failed sync there is no telling
// which bytes reached the platter — the only honest answer is to stop
// acknowledging. Reads are unaffected (the in-memory store serves on).

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/metrics"
)

// FsyncPolicy selects when the WAL syncs appended records to disk.
type FsyncPolicy string

// Fsync policies (see package comment above).
const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNever    FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy string ("" means FsyncAlways).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "", FsyncAlways:
		return FsyncAlways, nil
	case FsyncInterval:
		return FsyncInterval, nil
	case FsyncNever:
		return FsyncNever, nil
	}
	return "", fmt.Errorf("kv: unknown fsync policy %q (want always, interval, or never)", s)
}

// ErrWALClosed is returned by writes after Close or Abort.
var ErrWALClosed = errors.New("kv: WAL closed")

// Process-wide mirrors of DurableStats.Appends, Bytes and Fsyncs, kept
// only because bench/trace.go reads them by name (ROADMAP item 12 step 3).
var (
	walAppendsTotal = metrics.GetCounter("kv_wal_appends_total")
	walFsyncsTotal  = metrics.GetCounter("kv_wal_fsyncs_total")
	walBytesTotal   = metrics.GetCounter("kv_wal_bytes_total")
)

// fsyncTick is the FsyncInterval policy's background sync period.
const fsyncTick = 50 * time.Millisecond

// walOptions configure a WAL (set through DurableOptions).
type walOptions struct {
	fsync        FsyncPolicy
	segmentBytes int64
	fault        *DiskFaultInjector
}

func (o walOptions) withDefaults() walOptions {
	if o.fsync == "" {
		o.fsync = FsyncAlways
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = 8 << 20
	}
	return o
}

// maxWALSpare bounds the retained pending buffer between flushes, so a
// burst does not pin a large buffer on an idle log.
const maxWALSpare = 256 << 10

// wal is the segmented append-only log. All mutating access goes
// through mu; the write+fsync itself runs outside the lock with
// `writing` as the single-flusher gate.
type wal struct {
	dir  string
	opts walOptions

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	index   uint64 // current segment index
	size    int64  // bytes written to the current segment
	pending []byte // encoded records not yet written to the file
	spare   []byte // recycled pending buffer
	nextSeq uint64 // sequence of the most recently buffered record
	flushed uint64 // last sequence written to the file
	synced  uint64 // last sequence covered by an fsync
	writing bool   // a flush (write[+fsync]) is in flight
	err     error  // sticky first disk error
	closed  bool

	// Records buffered, their encoded bytes and fsyncs issued: the
	// DurableStats counts (atomic: Stats reads them without mu).
	appends, bytes, fsyncs atomic.Uint64

	tickStop chan struct{}
	tickWG   sync.WaitGroup
}

// openWAL opens dir's log for appending, always starting a fresh
// segment after the highest existing one — never appending to a
// possibly-torn tail.
func openWAL(dir string, opts walOptions) (*wal, error) {
	opts = opts.withDefaults()
	segs, err := listIndexed(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	f, err := os.OpenFile(segmentPath(dir, next), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, opts: opts, f: f, index: next}
	w.cond = sync.NewCond(&w.mu)
	if opts.fsync == FsyncInterval {
		w.tickStop = make(chan struct{})
		w.tickWG.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

// wait blocks until record seq has the durability the policy promises:
// an fsync covering it (FsyncAlways) or its write reaching the file
// (FsyncInterval/FsyncNever). The first waiter to find no flush in
// flight performs one for everything buffered so far.
func (w *wal) wait(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	wantSync := w.opts.fsync == FsyncAlways
	for {
		if w.err != nil {
			return w.err
		}
		if wantSync {
			if w.synced >= seq {
				return nil
			}
		} else if w.flushed >= seq {
			return nil
		}
		if w.closed {
			return ErrWALClosed
		}
		if !w.writing {
			w.flushLocked(wantSync)
			continue
		}
		w.cond.Wait()
	}
}

// buffer encodes one record into the pending buffer, in call order,
// and returns its sequence for wait. It never touches the disk.
func (w *wal) buffer(op byte, key string, value []byte, ver uint64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWALClosed
	}
	before := len(w.pending)
	w.pending = appendRecord(w.pending, op, key, value, ver)
	w.nextSeq++
	n := uint64(len(w.pending) - before)
	w.appends.Add(1)
	w.bytes.Add(n)
	walAppendsTotal.Inc()
	walBytesTotal.Add(n)
	return w.nextSeq, nil
}

// flushLocked drains the pending buffer with one write (and, when sync
// is set, one fsync) outside the lock. Called with mu held and writing
// false; returns with mu held. All records buffered at entry share the
// flush — the group-commit amortization.
func (w *wal) flushLocked(sync bool) {
	buf := w.pending
	target := w.nextSeq
	if w.spare != nil {
		w.pending = w.spare[:0]
		w.spare = nil
	} else {
		w.pending = nil
	}
	w.writing = true
	f := w.f
	w.mu.Unlock()
	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
	}
	if err == nil && sync {
		err = w.fsync(f)
	}
	w.mu.Lock()
	w.writing = false
	if cap(buf) <= maxWALSpare && w.spare == nil {
		w.spare = buf[:0]
	}
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else {
		if target > w.flushed {
			w.flushed = target
		}
		w.size += int64(len(buf))
		if sync && target > w.synced {
			w.synced = target
		}
		if w.size >= w.opts.segmentBytes {
			if rerr := w.rotateLocked(); rerr != nil && w.err == nil {
				w.err = rerr
			}
		}
	}
	w.cond.Broadcast()
}

// fsync syncs f, running the fault-injection hook first. Callable with
// or without mu held (rotateLocked holds it; flushLocked does not).
func (w *wal) fsync(f *os.File) error {
	if fi := w.opts.fault; fi != nil {
		if err := fi.beforeFsync(); err != nil {
			return err
		}
	}
	w.fsyncs.Add(1)
	walFsyncsTotal.Inc()
	return syncFile(f)
}

// rotate cuts the log over to a fresh segment, returning the new (tail)
// segment's index: every record appended before the call is in a
// segment with a smaller index, flushed, and — unless the policy is
// FsyncNever — fsynced. Snapshots call this to get a clean cut.
func (w *wal) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.writing {
		w.cond.Wait()
	}
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWALClosed
	}
	if err := w.rotateLocked(); err != nil {
		if w.err == nil {
			w.err = err
		}
		return 0, err
	}
	return w.index, nil
}

// rotateLocked flushes pending to the current segment, syncs and closes
// it, and opens the next one. Called with mu held, no flush in flight.
// File I/O runs under the lock — rotation is rare and appenders would
// be waiting on the flush anyway.
func (w *wal) rotateLocked() error {
	if len(w.pending) > 0 {
		if _, err := w.f.Write(w.pending); err != nil {
			return err
		}
		w.flushed = w.nextSeq
		w.size += int64(len(w.pending))
		if cap(w.pending) <= maxWALSpare && w.spare == nil {
			w.spare = w.pending[:0]
		}
		w.pending = nil
	}
	if w.opts.fsync != FsyncNever {
		if err := w.fsync(w.f); err != nil {
			return err
		}
		w.synced = w.nextSeq
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(segmentPath(w.dir, w.index+1), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.index++
	w.size = 0
	return nil
}

// syncLoop is the FsyncInterval ticker: periodically flush+fsync
// whatever has accumulated.
func (w *wal) syncLoop() {
	defer w.tickWG.Done()
	ticker := time.NewTicker(fsyncTick)
	defer ticker.Stop()
	for {
		select {
		case <-w.tickStop:
			return
		case <-ticker.C:
		}
		w.mu.Lock()
		if !w.writing && w.err == nil && !w.closed && (len(w.pending) > 0 || w.flushed > w.synced) {
			w.flushLocked(true)
		}
		w.mu.Unlock()
	}
}

// close flushes pending records, syncs (unless FsyncNever), and closes
// the segment. Further appends fail with ErrWALClosed.
func (w *wal) close() error {
	w.stopTicker()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	for w.writing {
		w.cond.Wait()
	}
	w.closed = true
	w.cond.Broadcast()
	if w.err == nil && len(w.pending) > 0 {
		if _, err := w.f.Write(w.pending); err != nil {
			w.err = err
		} else {
			w.flushed = w.nextSeq
			w.pending = nil
		}
	}
	if w.err == nil && w.opts.fsync != FsyncNever && w.flushed > w.synced {
		if err := w.fsync(w.f); err != nil {
			w.err = err
		} else {
			w.synced = w.flushed
		}
	}
	if cerr := w.f.Close(); cerr != nil && w.err == nil {
		w.err = cerr
	}
	if fi := w.opts.fault; fi != nil {
		fi.shutdown()
	}
	return w.err
}

// abort hard-stops the WAL without flushing: buffered-but-unwritten
// records are dropped and the file descriptor is closed as-is — the
// in-process simulation of a crash. Data already write(2)'n survives in
// the page cache exactly as it would a real process kill.
func (w *wal) abort() {
	w.stopTicker()
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.pending = nil
		if w.err == nil {
			w.err = ErrWALClosed
		}
		_ = w.f.Close()
		w.cond.Broadcast()
	}
	w.mu.Unlock()
	if fi := w.opts.fault; fi != nil {
		fi.shutdown()
	}
}

func (w *wal) stopTicker() {
	w.mu.Lock()
	stop := w.tickStop
	w.tickStop = nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		w.tickWG.Wait()
	}
}
