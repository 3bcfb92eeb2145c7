package kv

// WAL segment files: append-only runs of CRC32C-framed mutation
// records. A segment is the unit of rotation and truncation — the WAL
// appends to exactly one segment at a time, rotates to a fresh one when
// it grows past the configured size (or when a snapshot wants a clean
// cut), and deletes whole segments once a snapshot covers them.
//
// Record layout (little-endian):
//
//	crc   uint32  CRC32C (Castagnoli) of the payload bytes
//	size  uint32  payload length
//	payload:
//	  op    uint8   opSet | opDel | opPurge
//	  ver   uint64  write version
//	  klen  uint32  key length
//	  key   klen bytes
//	  value size-13-klen bytes (opSet only; empty otherwise)
//
// The CRC is what makes replay safe against torn writes: a crash mid
// append leaves a record whose frame is short or whose checksum does
// not match, and replay stops there — everything before the tear was
// written (and, under FsyncAlways, synced) in full. A record with an op
// the writer never emits (op 3 was an unversioned delete) is corrupt
// the same way.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WAL record opcodes. 3 is retired.
const (
	// opSet is a versioned set.
	opSet byte = 1
	// opDel is a versioned delete: replay lays a tombstone at ver.
	opDel byte = 2
	// opPurge records a tombstone-GC sweep: replay forgets the tombstone
	// for key if it still sits at exactly ver. Without purge records,
	// replay would remember deletes the live store had aged out and
	// resolve later last-writer-wins checks differently than the live
	// store did (see Store.StartTombstoneGC).
	opPurge byte = 4
)

// recordHeaderSize is the frame overhead (crc + size) before the payload.
const recordHeaderSize = 8

// recordPayloadFixed is the fixed part of a payload (op + ver + klen).
const recordPayloadFixed = 1 + 8 + 4

// maxRecordPayload bounds a single record so a corrupt length field
// cannot make replay allocate gigabytes. Values arrive over the wire in
// ≤16 MiB frames, so 64 MiB is generous.
const maxRecordPayload = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends one framed record to buf and returns it.
func appendRecord(buf []byte, op byte, key string, value []byte, ver uint64) []byte {
	n := recordPayloadFixed + len(key) + len(value)
	start := len(buf)
	buf = append(buf, make([]byte, recordHeaderSize)...)
	buf = append(buf, op)
	buf = binary.LittleEndian.AppendUint64(buf, ver)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	payload := buf[start+recordHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(n))
	return buf
}

// walRecord is one decoded record. Key and Value alias the segment
// buffer they were parsed from.
type walRecord struct {
	op    byte
	ver   uint64
	key   string
	value []byte
}

// parseFrame decodes the first CRC-framed record in data, returning the
// remainder. ok=false means data does not start with a whole,
// checksum-valid frame — a torn tail or corruption. WAL segments and
// snapshots share the framing; their first payload byte is a WAL op or
// snapshot flags respectively.
func parseFrame(data []byte) (rec walRecord, rest []byte, ok bool) {
	if len(data) < recordHeaderSize {
		return rec, data, false
	}
	crc := binary.LittleEndian.Uint32(data)
	n := binary.LittleEndian.Uint32(data[4:])
	if n < recordPayloadFixed || n > maxRecordPayload || uint64(len(data)-recordHeaderSize) < uint64(n) {
		return rec, data, false
	}
	payload := data[recordHeaderSize : recordHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return rec, data, false
	}
	klen := binary.LittleEndian.Uint32(payload[9:])
	if uint64(recordPayloadFixed)+uint64(klen) > uint64(n) {
		return rec, data, false
	}
	rec.op = payload[0]
	rec.ver = binary.LittleEndian.Uint64(payload[1:])
	rec.key = string(payload[recordPayloadFixed : recordPayloadFixed+klen])
	rec.value = payload[recordPayloadFixed+klen : n]
	return rec, data[recordHeaderSize+n:], true
}

// parseRecord is parseFrame for a WAL segment, where a record whose op
// the writer never emits is corrupt too; len(data)==0 is the clean
// end-of-segment.
func parseRecord(data []byte) (walRecord, []byte, bool) {
	rec, rest, ok := parseFrame(data)
	switch rec.op {
	case opSet, opDel, opPurge:
		return rec, rest, ok
	}
	return walRecord{}, data, false
}

// Segment and snapshot file naming: zero-padded indices so
// lexicographic order is numeric order.
const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".seg"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".db"
	tmpSuffix      = ".tmp"
)

func segmentPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segmentPrefix, index, segmentSuffix))
}

func snapshotPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapshotPrefix, index, snapshotSuffix))
}

// parseIndexed extracts the index from a name like prefix0000…17suffix.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var idx uint64
	if _, err := fmt.Sscanf(mid, "%d", &idx); err != nil || len(mid) != 16 {
		return 0, false
	}
	return idx, true
}

// listIndexed returns the sorted indices of dir entries matching
// prefix/suffix (segments or snapshots).
func listIndexed(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), prefix, suffix); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// replaySegment reads one segment file and applies every valid record
// in order. It returns the number of records applied and whether the
// segment ended at a bad record (torn tail or corruption) rather than a
// clean boundary. Replay never errors on content — a missing file is
// the only error.
func replaySegment(path string, apply func(rec walRecord)) (records uint64, corrupt bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	for len(data) > 0 {
		rec, rest, ok := parseRecord(data)
		if !ok {
			return records, true, nil
		}
		apply(rec)
		records++
		data = rest
	}
	return records, false, nil
}

// syncDir fsyncs a directory so a rename or unlink inside it is
// durable. Errors are returned for the caller to judge — some
// filesystems refuse directory syncs.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
