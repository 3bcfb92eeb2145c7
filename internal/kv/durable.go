package kv

// Durable wraps a Store with the WAL + snapshot machinery: mutations go
// to memory first, then to the log, and OpenDurable rebuilds the store
// from the newest snapshot plus the WAL tail.
//
// Memory-before-log is safe here because replay is versioned
// last-writer-wins: if two concurrent writers' records land in the log
// in the opposite order of their memory application, replay still
// converges to the higher version — exactly what memory holds. Only
// applied mutations are logged (a SetVersion that lost its LWW race
// writes nothing), so the log is a faithful mutation history, not a
// request history.
//
// Snapshot protocol (Snapshot):
//
//  1. Rotate the WAL → every prior record is in segments < N, synced;
//     new appends go to segment N.
//  2. Scan the store into snap-N.db.tmp, fsync, rename to snap-N.db,
//     fsync the directory. Writes racing the scan are at worst ALSO in
//     segment N — replay is idempotent, double-apply is a no-op.
//  3. Delete segments < N and snapshots < N. Safe because the snapshot
//     scan happened entirely after those segments' records applied to
//     memory (memory-before-log), so it is a superset of them.
//
// A crash at any point leaves a recoverable directory: before the
// rename, the old snapshot + all segments are intact (the tmp file is
// garbage, removed at next open); after the rename, snap-N.db + any
// not-yet-deleted older files are a superset, and replay idempotence
// absorbs the overlap.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Fsync is the WAL sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SegmentBytes triggers WAL rotation (default 8 MiB).
	SegmentBytes int64
	// SnapshotInterval starts a periodic snapshot loop when > 0.
	SnapshotInterval time.Duration
	// Fault injects disk faults for tests; nil in production.
	Fault *DiskFaultInjector
}

// ReplayStats reports what OpenDurable recovered.
type ReplayStats struct {
	SnapshotIndex   uint64 // 0 if no snapshot was loaded
	SnapshotEntries uint64
	WALRecords      uint64
	CorruptRecords  uint64 // bad records that stopped a segment's replay
}

// DurableStats are one Durable's counts since OpenDurable. What the open
// itself replayed is its ReplayStats.
type DurableStats struct {
	Appends uint64 // records appended to the WAL
	Bytes   uint64 // encoded bytes of those records
	Fsyncs  uint64 // fsyncs the WAL issued
	// PurgeDrops counts tombstone purges the fail-stopped WAL could not
	// log: each at worst resurrects a tombstone on replay.
	PurgeDrops     uint64
	SnapshotWrites uint64 // snapshots written, periodic and final
	// SnapshotErrors counts failed periodic snapshots: a persistently
	// broken snapshot path shows here before boot-time replay grows.
	SnapshotErrors uint64
}

// Durable is a Store bound to an on-disk WAL and snapshot set. Writes
// must go through it (Set/SetVersion/Delete/DeleteVersion); reads go
// straight to the Store, which serves even after a disk fault has
// fail-stopped the write path.
type Durable struct {
	store *Store
	dir   string
	w     *wal
	fault *DiskFaultInjector

	// snapMu serializes Snapshot/Close so two snapshot attempts cannot
	// interleave their rotate/truncate phases.
	snapMu sync.Mutex

	snapStop chan struct{}
	snapWG   sync.WaitGroup

	purgeDrops, snapshotWrites, snapshotErrors atomic.Uint64
}

// OpenDurable recovers dir into store and returns the durability
// handle. The store should be freshly created: recovery applies the
// newest valid snapshot, then replays every WAL segment it does not
// cover, stopping a segment at its first torn or corrupt record (the
// expected shape of a crashed tail — counted in
// ReplayStats.CorruptRecords). Appends always open a brand-new
// segment, never extending a possibly-torn one.
func OpenDurable(dir string, store *Store, opts DurableOptions) (*Durable, ReplayStats, error) {
	var stats ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}
	// A crash mid-snapshot leaves a .tmp file; it was never part of the
	// recoverable state, so clear it before anything else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, stats, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	snapIdx, _, err := loadNewestSnapshot(dir, store)
	if err != nil {
		return nil, stats, err
	}
	stats.SnapshotIndex = snapIdx
	if snapIdx > 0 {
		// The store is fresh at boot, so its population IS the snapshot's.
		stats.SnapshotEntries = uint64(store.Len() + store.TombstoneCount())
	}

	segs, err := listIndexed(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, stats, err
	}
	for _, idx := range segs {
		if idx < snapIdx {
			continue // covered by the snapshot; pending deletion
		}
		n, corrupt, rerr := replaySegment(segmentPath(dir, idx), func(rec walRecord) {
			switch rec.op {
			case opSet:
				store.SetVersion(rec.key, rec.value, rec.ver)
			case opDel:
				store.DeleteVersion(rec.key, rec.ver)
			case opRawDel:
				store.Delete(rec.key)
			case opPurge:
				store.purgeTombstone(rec.key, rec.ver)
			}
		})
		if rerr != nil {
			return nil, stats, rerr
		}
		stats.WALRecords += n
		if corrupt {
			stats.CorruptRecords++
			// A torn tail is only expected on the LAST segment; a bad
			// record mid-history means everything after it in that
			// segment is unreachable, but later segments may still hold
			// good (group-committed) records — keep replaying them.
			// LWW versioning keeps any resulting partial order safe.
		}
	}

	w, err := openWAL(dir, walOptions{
		fsync:        opts.Fsync,
		segmentBytes: opts.SegmentBytes,
		fault:        opts.Fault,
	})
	if err != nil {
		return nil, stats, err
	}
	d := &Durable{store: store, dir: dir, w: w, fault: opts.Fault}
	// GC sweeps must reach the log or replay will remember tombstones
	// the live store forgot. Losing a purge record on crash is safe
	// (replay resurrects a tombstone, which only re-suppresses already-
	// dead writes), so purges ride the next flush without waiting.
	store.setPurgeHook(func(key string, ver uint64) {
		if err := w.appendAsync(opPurge, key, nil, ver); err != nil {
			// The WAL has fail-stopped, so foreground writes are
			// already erroring; an unlogged purge at worst resurrects
			// a tombstone on replay. Count it so the drop is visible.
			d.purgeDrops.Add(1)
		}
	})
	if opts.SnapshotInterval > 0 {
		d.snapStop = make(chan struct{})
		d.snapWG.Add(1)
		go d.snapshotLoop(opts.SnapshotInterval, d.snapStop)
	}
	return d, stats, nil
}

// Store returns the wrapped in-memory store (reads go here directly).
func (d *Durable) Store() *Store { return d.store }

// Set applies a local write and logs it at its assigned version.
func (d *Durable) Set(key string, value []byte) error {
	ver := d.store.Set(key, value)
	return d.w.append(opSet, key, value, ver)
}

// SetVersion applies a replicated write; only an applied (LWW-winning)
// write is logged.
func (d *Durable) SetVersion(key string, value []byte, ver uint64) (bool, error) {
	if !d.store.SetVersion(key, value, ver) {
		return false, nil
	}
	return true, d.w.append(opSet, key, value, ver)
}

// Delete applies a local delete-outright and logs it.
func (d *Durable) Delete(key string) error {
	d.store.Delete(key)
	return d.w.append(opRawDel, key, nil, 0)
}

// DeleteVersion applies a replicated tombstone; only an applied delete
// is logged.
func (d *Durable) DeleteVersion(key string, ver uint64) (bool, error) {
	if !d.store.DeleteVersion(key, ver) {
		return false, nil
	}
	return true, d.w.append(opDel, key, nil, ver)
}

// Commit is a mutation that is applied to memory and buffered in the
// log but whose durability has not been waited for. The zero Commit (a
// replicated mutation that lost its LWW race, so nothing was logged)
// has nothing to wait for.
type Commit struct {
	w   *wal
	seq uint64
}

// Logged reports whether the mutation produced a log record, i.e.
// whether Wait may block on the disk.
func (c Commit) Logged() bool { return c.w != nil }

// Wait blocks until the mutation has the durability the fsync policy
// promises. Commits staged back to back share flushes: one fsync covers
// every record buffered before it started.
func (c Commit) Wait() error {
	if c.w == nil {
		return nil
	}
	return c.w.wait(c.seq)
}

// StageSet is Set (ver 0) or SetVersion (ver > 0) split at the disk:
// the write is applied and its record buffered in call order, and the
// caller owes the returned Commit a Wait before acknowledging the write
// to anyone. A server's connection loop stages and hands the Wait to
// another goroutine, so the reads behind a write on the same connection
// do not queue behind its fsync.
func (d *Durable) StageSet(key string, value []byte, ver uint64) (Commit, error) {
	if ver == 0 {
		ver = d.store.Set(key, value)
	} else if !d.store.SetVersion(key, value, ver) {
		return Commit{}, nil
	}
	seq, err := d.w.buffer(opSet, key, value, ver)
	return Commit{w: d.w, seq: seq}, err
}

// StageDelete is Delete (ver 0) or DeleteVersion (ver > 0), split like
// StageSet.
func (d *Durable) StageDelete(key string, ver uint64) (Commit, error) {
	op := opDel
	if ver == 0 {
		d.store.Delete(key)
		op = opRawDel
	} else if !d.store.DeleteVersion(key, ver) {
		return Commit{}, nil
	}
	seq, err := d.w.buffer(op, key, nil, ver)
	return Commit{w: d.w, seq: seq}, err
}

// Snapshot writes a snapshot now and truncates the log behind it. See
// the package comment for the crash-safety argument.
func (d *Durable) Snapshot() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	tail, err := d.w.rotate()
	if err != nil {
		return err
	}
	if err := writeSnapshot(d.dir, tail, d.store, d.fault); err != nil {
		return err
	}
	d.snapshotWrites.Add(1)
	return d.truncate(tail)
}

// truncate deletes WAL segments and snapshots older than tail (all
// covered by snap-<tail>.db). Deletion failures are reported but leave
// only redundant files behind.
func (d *Durable) truncate(tail uint64) error {
	var errs []error
	segs, err := listIndexed(d.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx < tail {
			if rerr := os.Remove(segmentPath(d.dir, idx)); rerr != nil {
				errs = append(errs, rerr)
			}
		}
	}
	snaps, err := listIndexed(d.dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return err
	}
	for _, idx := range snaps {
		if idx < tail {
			if rerr := os.Remove(snapshotPath(d.dir, idx)); rerr != nil {
				errs = append(errs, rerr)
			}
		}
	}
	return errors.Join(errs...)
}

func (d *Durable) snapshotLoop(interval time.Duration, stop <-chan struct{}) {
	defer d.snapWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			// Periodic snapshots are best-effort; a failure (e.g. an
			// injected rename crash) leaves the WAL intact and the next
			// tick tries again. Count failures so a persistently broken
			// snapshot path shows up before boot-time replay blows up.
			if err := d.Snapshot(); err != nil {
				d.snapshotErrors.Add(1)
			}
		}
	}
}

// Close stops the snapshot loop, writes a final snapshot, and closes
// the WAL — the graceful-shutdown path. The final snapshot makes the
// next boot's replay O(snapshot) instead of O(log).
func (d *Durable) Close() error {
	d.stopLoops()
	snapErr := d.Snapshot()
	if snapErr != nil {
		snapErr = fmt.Errorf("kv: final snapshot: %w", snapErr)
	}
	return errors.Join(snapErr, d.w.close())
}

// Abort is the crash path: stop loops, drop any un-written WAL buffer,
// and close file descriptors without flushing or snapshotting — the
// in-process equivalent of SIGKILL. Bytes already write(2)'n survive
// (page cache), exactly as they would a real process kill.
func (d *Durable) Abort() {
	d.stopLoops()
	d.w.abort()
}

func (d *Durable) stopLoops() {
	d.store.setPurgeHook(nil)
	d.snapMu.Lock()
	stop := d.snapStop
	d.snapStop = nil
	d.snapMu.Unlock()
	if stop != nil {
		close(stop)
		d.snapWG.Wait()
	}
}

// Stats returns a snapshot of this Durable's counts.
func (d *Durable) Stats() DurableStats {
	return DurableStats{
		Appends:        d.w.appends.Load(),
		Bytes:          d.w.bytes.Load(),
		Fsyncs:         d.w.fsyncs.Load(),
		PurgeDrops:     d.purgeDrops.Load(),
		SnapshotWrites: d.snapshotWrites.Load(),
		SnapshotErrors: d.snapshotErrors.Load(),
	}
}
