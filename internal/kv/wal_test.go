package kv

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// openTestDurable opens a Durable over a fresh store in dir.
func openTestDurable(t *testing.T, dir string, opts DurableOptions) (*Durable, ReplayStats) {
	t.Helper()
	store := New(8)
	d, stats, err := OpenDurable(dir, store, opts)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return d, stats
}

// waitFor spins until cond() is true — a deterministic rendezvous on
// store/WAL state, not a timing assumption. Gosched keeps it from
// starving the goroutines it is waiting on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, stats := openTestDurable(t, dir, DurableOptions{})
	if stats.WALRecords != 0 || stats.SnapshotIndex != 0 {
		t.Fatalf("fresh dir replayed something: %+v", stats)
	}
	if err := d.Set("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if applied, err := d.SetVersion("b", []byte("beta"), 7); err != nil || !applied {
		t.Fatalf("SetVersion: applied=%v err=%v", applied, err)
	}
	// A losing replicated write must not be logged.
	if applied, err := d.SetVersion("b", []byte("stale"), 3); err != nil || applied {
		t.Fatalf("stale SetVersion: applied=%v err=%v", applied, err)
	}
	if applied, err := d.DeleteVersion("c", 9); err != nil || !applied {
		t.Fatalf("DeleteVersion: applied=%v err=%v", applied, err)
	}
	if err := d.Delete("a"); err != nil {
		t.Fatal(err)
	}
	d.Abort() // crash: no snapshot, recovery is pure WAL replay

	d2, stats2 := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if stats2.WALRecords != 4 {
		t.Fatalf("replayed %d records, want 4 (stale write must not be logged)", stats2.WALRecords)
	}
	if stats2.CorruptRecords != 0 {
		t.Fatalf("clean log replayed with %d corrupt records", stats2.CorruptRecords)
	}
	st := d2.Store()
	if _, ok := st.Get("a"); ok {
		t.Fatal("deleted key a resurrected")
	}
	if v, ver, ok := st.GetVersion("b"); !ok || string(v) != "beta" || ver != 7 {
		t.Fatalf("b = %q v%d ok=%v, want beta v7", v, ver, ok)
	}
	if _, ver, ok := st.GetVersion("c"); ok || ver != 9 {
		t.Fatalf("c tombstone: ok=%v ver=%d, want dead at v9", ok, ver)
	}
}

func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	fi := NewDiskFaultInjector()
	d, _ := openTestDurable(t, dir, DurableOptions{Fault: fi})

	// Hold the first append's fsync at the gate, queue three more
	// appenders behind it, then release: the three must share ONE fsync.
	fi.StallFsyncs(1)
	errs := make(chan error, 4)
	go func() { errs <- d.Set("k0", []byte("v")) }()
	waitFor(t, "first fsync stalled", func() bool { return fi.StalledFsyncs() == 1 })
	for i := 0; i < 3; i++ {
		key := string(rune('a' + i))
		go func() { errs <- d.Set(key, []byte("v")) }()
	}
	waitFor(t, "3 appends buffered behind the stalled flush", func() bool {
		d.w.mu.Lock()
		defer d.w.mu.Unlock()
		return d.w.nextSeq == 4
	})
	fi.Release()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := d.Stats().Fsyncs; got != 2 {
		t.Fatalf("4 concurrent appends took %d fsyncs, want 2 (1 stalled + 1 group)", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALFsyncErrorFailStop(t *testing.T) {
	dir := t.TempDir()
	fi := NewDiskFaultInjector()
	d, _ := openTestDurable(t, dir, DurableOptions{Fault: fi})
	defer d.Abort()
	if err := d.Set("pre", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	fi.FailFsyncs(1)
	if err := d.Set("k", []byte("v")); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("append over failed fsync: %v, want ErrInjectedFsync", err)
	}
	// The error is sticky: no later append may be acknowledged, because
	// the disk's state is unknown after a failed sync.
	if err := d.Set("k2", []byte("v")); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("append after sticky error: %v, want ErrInjectedFsync", err)
	}
	// Reads still serve from memory (fail-stop is write-side only).
	if v, ok := d.Store().Get("pre"); !ok || string(v) != "ok" {
		t.Fatalf("read after write-path failure: %q ok=%v", v, ok)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDurable(t, dir, DurableOptions{})
	for _, k := range []string{"a", "b", "c"} {
		if err := d.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	d.Abort()

	// Simulate a torn write: a crash mid-append leaves a partial record
	// at the end of the last segment.
	segs, err := listIndexed(dir, segmentPrefix, segmentSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	last := segmentPath(dir, segs[len(segs)-1])
	torn := appendRecord(nil, opSet, "torn-key", []byte("torn-value"), 99)
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	d2, stats := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if stats.WALRecords != 3 || stats.CorruptRecords != 1 {
		t.Fatalf("replay stats %+v, want 3 records + 1 corrupt (torn tail)", stats)
	}
	for _, k := range []string{"a", "b", "c"} {
		if v, ok := d2.Store().Get(k); !ok || string(v) != "v-"+k {
			t.Fatalf("%s = %q ok=%v after torn-tail replay", k, v, ok)
		}
	}
	if _, ok := d2.Store().Get("torn-key"); ok {
		t.Fatal("half-written record was replayed")
	}
	// The store still serves writes: the torn segment is left behind and
	// appends go to a brand-new segment.
	if err := d2.Set("d", []byte("post")); err != nil {
		t.Fatalf("write after torn-tail recovery: %v", err)
	}
}

func TestWALCorruptCRCMidSegment(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDurable(t, dir, DurableOptions{})
	for _, k := range []string{"a", "b", "c"} {
		if err := d.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	d.Abort()

	// Flip one payload byte of the SECOND record: replay must apply the
	// first record, stop at the bad one, and not guess at the rest.
	segs, _ := listIndexed(dir, segmentPrefix, segmentSuffix)
	path := segmentPath(dir, segs[len(segs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := appendRecord(nil, opSet, "a", []byte("v-a"), 1)
	data[len(rec1)+recordHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, stats := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if stats.WALRecords != 1 || stats.CorruptRecords != 1 {
		t.Fatalf("replay stats %+v, want 1 record + 1 corrupt", stats)
	}
	if v, ok := d2.Store().Get("a"); !ok || string(v) != "v-a" {
		t.Fatalf("a = %q ok=%v, want the record before the corruption", v, ok)
	}
	if _, ok := d2.Store().Get("b"); ok {
		t.Fatal("record after corruption was replayed")
	}
	if v, ok := d2.Store().Get("c"); ok {
		t.Fatalf("c = %q replayed past a corrupt record", v)
	}
}

func TestWALSnapshotRotateTruncate(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDurable(t, dir, DurableOptions{})
	for i := 0; i < 50; i++ {
		if err := d.Set(string(rune('a'+i%26))+string(rune('0'+i/26)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.DeleteVersion("dead", 100); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listIndexed(dir, segmentPrefix, segmentSuffix)
	snaps, _ := listIndexed(dir, snapshotPrefix, snapshotSuffix)
	if len(snaps) != 1 || len(segs) != 1 || segs[0] != snaps[0] {
		t.Fatalf("after snapshot: segments %v snapshots %v, want one of each at the same index", segs, snaps)
	}
	// Writes after the snapshot land in the new tail segment.
	if err := d.Set("post-snap", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	d.Abort()

	d2, stats := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if stats.SnapshotIndex != snaps[0] {
		t.Fatalf("recovered from snapshot %d, want %d", stats.SnapshotIndex, snaps[0])
	}
	if stats.SnapshotEntries != 51 { // 50 live + 1 tombstone
		t.Fatalf("snapshot restored %d entries, want 51", stats.SnapshotEntries)
	}
	if stats.WALRecords != 1 {
		t.Fatalf("replayed %d tail records, want 1", stats.WALRecords)
	}
	if v, ok := d2.Store().Get("post-snap"); !ok || string(v) != "tail" {
		t.Fatalf("post-snapshot write lost: %q ok=%v", v, ok)
	}
	if got := d2.Store().Len(); got != 51 {
		t.Fatalf("recovered %d live keys, want 51", got)
	}
	if _, ver, ok := d2.Store().GetVersion("dead"); ok || ver != 100 {
		t.Fatalf("tombstone not restored from snapshot: ok=%v ver=%d", ok, ver)
	}
}

func TestWALSnapshotRenameCrash(t *testing.T) {
	dir := t.TempDir()
	fi := NewDiskFaultInjector()
	d, _ := openTestDurable(t, dir, DurableOptions{Fault: fi})
	for _, k := range []string{"a", "b"} {
		if err := d.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	fi.FailSnapshotRenames(1)
	if err := d.Snapshot(); !errors.Is(err, ErrInjectedRenameCrash) {
		t.Fatalf("Snapshot: %v, want ErrInjectedRenameCrash", err)
	}
	// Crash at the worst moment: tmp written, rename never happened. No
	// snapshot must be visible and no WAL segment may have been deleted.
	if snaps, _ := listIndexed(dir, snapshotPrefix, snapshotSuffix); len(snaps) != 0 {
		t.Fatalf("snapshot visible after rename crash: %v", snaps)
	}
	d.Abort()

	d2, stats := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if stats.SnapshotIndex != 0 {
		t.Fatalf("loaded snapshot %d after rename crash, want none", stats.SnapshotIndex)
	}
	for _, k := range []string{"a", "b"} {
		if v, ok := d2.Store().Get(k); !ok || string(v) != "v-"+k {
			t.Fatalf("%s lost after rename crash: %q ok=%v", k, v, ok)
		}
	}
	// The stale tmp file was cleared at open.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if len(e.Name()) > len(tmpSuffix) && e.Name()[len(e.Name())-len(tmpSuffix):] == tmpSuffix {
			t.Fatalf("stale tmp file survived reopen: %s", e.Name())
		}
	}
}

func TestWALSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDurable(t, dir, DurableOptions{SegmentBytes: 256})
	val := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if err := d.Set(string(rune('a'+i)), val); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listIndexed(dir, segmentPrefix, segmentSuffix)
	if len(segs) < 3 {
		t.Fatalf("1000 bytes over 256-byte segments left %d segments, want ≥3", len(segs))
	}
	d.Abort()
	d2, stats := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if stats.WALRecords != 10 {
		t.Fatalf("replayed %d records across segments, want 10", stats.WALRecords)
	}
	if got := d2.Store().Len(); got != 10 {
		t.Fatalf("recovered %d keys, want 10", got)
	}
}

func TestWALTombstonePurgeReplay(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDurable(t, dir, DurableOptions{})
	if _, err := d.SetVersion("k", []byte("v"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteVersion("k", 8); err != nil {
		t.Fatal(err)
	}
	// Age the tombstone out the way the GC ticker would: sweep every
	// shard with a cutoff in the future. The purge hook logs the sweep.
	st := d.Store()
	cutoff := time.Now().Add(time.Hour).UnixNano()
	for i := 0; i < st.NumShards(); i++ {
		st.sweepShard(i, cutoff)
	}
	if st.TombstoneCount() != 0 {
		t.Fatal("sweep left the tombstone")
	}
	// The live store now accepts a write older than the swept delete —
	// the documented consequence of aging a tombstone out.
	if !st.SetVersion("k", []byte("old"), 6) {
		t.Fatal("live store rejected post-sweep write")
	}
	if err := d.w.append(opSet, "k", []byte("old"), 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay must make the same decision: purge record forgets the
	// tombstone, so the v6 write applies on replay too.
	d2, _ := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if v, ver, ok := d2.Store().GetVersion("k"); !ok || string(v) != "old" || ver != 6 {
		t.Fatalf("k = %q v%d ok=%v after purge replay, want old v6 (replay diverged from live store)", v, ver, ok)
	}
}

func TestWALClampGCHorizon(t *testing.T) {
	cases := []struct {
		horizon, snap, want time.Duration
	}{
		{time.Hour, time.Minute, time.Hour}, // already safe
		{time.Minute, time.Hour, time.Hour}, // raised to snapshot interval
		{0, time.Hour, 0},                   // GC disabled stays disabled
		{time.Minute, 0, time.Minute},       // no snapshots: nothing to clamp against
		{30 * time.Second, 30 * time.Second, 30 * time.Second},
	}
	for _, c := range cases {
		if got := ClampGCHorizon(c.horizon, c.snap); got != c.want {
			t.Errorf("ClampGCHorizon(%v, %v) = %v, want %v", c.horizon, c.snap, got, c.want)
		}
	}
}

func TestWALAbortDropsUnwrittenOnly(t *testing.T) {
	// Abort must behave like a kill: acked (group-committed) writes
	// survive, buffered-but-unflushed async records may not — and
	// nothing else is flushed on the way down.
	dir := t.TempDir()
	d, _ := openTestDurable(t, dir, DurableOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		key := string(rune('a' + i))
		go func() {
			defer wg.Done()
			_ = d.Set(key, []byte("v"))
		}()
	}
	wg.Wait() // all 8 acked ⇒ all fsynced
	d.Abort()
	d2, _ := openTestDurable(t, dir, DurableOptions{})
	defer d2.Abort()
	if got := d2.Store().Len(); got != 8 {
		t.Fatalf("recovered %d of 8 acked writes after Abort", got)
	}
	// Appends after Abort fail closed.
	if err := d.Set("late", nil); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("append after Abort: %v, want ErrWALClosed", err)
	}
}

func TestWALParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"", "always", "interval", "never"} {
		if _, err := ParseFsyncPolicy(s); err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", s, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}
