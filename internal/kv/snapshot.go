package kv

// Snapshot files: a full dump of the store (live entries AND
// tombstones), written through ScanShard and installed with an atomic
// rename. A snapshot is named by the WAL segment index it does NOT
// cover — snap-N.db plus segments ≥ N reproduce the store, so segments
// < N (and older snapshots) can be deleted once snap-N.db is durable.
//
// File layout (little-endian):
//
//	magic   8 bytes  "BRBSNAP1"
//	entries, each framed like a WAL record:
//	  crc   uint32   CRC32C of the payload
//	  size  uint32   payload length
//	  payload: flags u8 | ver u64 | klen u32 | key | value
//	    flags bit0 = tombstone (value empty)
//	trailer: one frame with flags=0xFF and ver=entry count
//
// The trailer is how a loader tells a complete snapshot from one
// truncated by a crash mid-write: without it, a cleanly-cut-short file
// would load as a silently smaller store. A snapshot missing its
// trailer (or failing any CRC) is discarded and the loader falls back
// to the next older one.

import (
	"bufio"
	"fmt"
	"os"
)

const snapshotMagic = "BRBSNAP1"

// snapshot entry flags.
const (
	snapFlagDead    byte = 1
	snapFlagTrailer byte = 0xFF
)

// writeSnapshot dumps store into dir as snap-<tailIndex>.db via
// tmp-write + fsync + rename + dirsync. The caller must have rotated
// the WAL so tailIndex's segment holds only records newer than this
// scan can miss.
func writeSnapshot(dir string, tailIndex uint64, store *Store, fault *DiskFaultInjector) error {
	final := snapshotPath(dir, tailIndex)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	werr := func() error {
		if _, err := bw.WriteString(snapshotMagic); err != nil {
			return err
		}
		var count uint64
		var frame []byte
		for i := 0; i < store.NumShards(); i++ {
			// Collect the shard under its read lock, write outside it.
			// Values alias stored slices, which is safe: the store never
			// mutates a stored value in place.
			type snapEntry struct {
				key  string
				val  []byte
				ver  uint64
				dead bool
			}
			var entries []snapEntry
			store.ScanShard(i, func(key string, val []byte, ver uint64, dead bool) bool {
				entries = append(entries, snapEntry{key, val, ver, dead})
				return true
			})
			for _, e := range entries {
				flags := byte(0)
				val := e.val
				if e.dead {
					flags = snapFlagDead
					val = nil
				}
				frame = appendRecord(frame[:0], flags, e.key, val, e.ver)
				if _, err := bw.Write(frame); err != nil {
					return err
				}
				count++
			}
		}
		frame = appendRecord(frame[:0], snapFlagTrailer, "", nil, count)
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	if fault != nil {
		if err := fault.beforeSnapshotRename(); err != nil {
			// Simulated crash between tmp-write and rename: leave the tmp
			// file exactly as a real crash would.
			return err
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readSnapshot loads one snapshot file into store via restoreEntry. It
// returns an error for any structural problem — bad magic, CRC failure,
// or a missing/inconsistent trailer — in which case the caller should
// fall back to an older snapshot. Entries applied before the error was
// detected are harmless: restoreEntry is last-writer-wins, and a
// subsequent good load simply wins or ties.
func readSnapshot(path string, store *Store) (entries uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return 0, fmt.Errorf("kv: snapshot %s: bad magic", path)
	}
	data = data[len(snapshotMagic):]
	for len(data) > 0 {
		rec, rest, ok := parseFrame(data)
		if !ok {
			return entries, fmt.Errorf("kv: snapshot %s: corrupt frame after %d entries", path, entries)
		}
		if rec.op == snapFlagTrailer {
			if rec.ver != entries {
				return entries, fmt.Errorf("kv: snapshot %s: trailer count %d != %d entries", path, rec.ver, entries)
			}
			if len(rest) != 0 {
				return entries, fmt.Errorf("kv: snapshot %s: %d trailing bytes", path, len(rest))
			}
			return entries, nil
		}
		store.restoreEntry(rec.key, rec.value, rec.ver, rec.op&snapFlagDead != 0)
		entries++
		data = rest
	}
	return entries, fmt.Errorf("kv: snapshot %s: missing trailer", path)
}

// loadNewestSnapshot loads the newest structurally valid snapshot in
// dir, falling back to older ones on corruption. It returns the loaded
// snapshot's index (0 if none loaded) and the indices of all snapshot
// files present.
func loadNewestSnapshot(dir string, store *Store) (loaded uint64, all []uint64, err error) {
	all, err = listIndexed(dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return 0, nil, err
	}
	for i := len(all) - 1; i >= 0; i-- {
		if _, rerr := readSnapshot(snapshotPath(dir, all[i]), store); rerr == nil {
			return all[i], all, nil
		}
		// Corrupt or truncated: ignore and try the next older snapshot.
		// The WAL segments it would have replaced are still on disk —
		// truncation only runs after a snapshot write fully succeeds.
	}
	return 0, all, nil
}
