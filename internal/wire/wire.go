// Package wire defines the binary protocol of the networked BRB store:
// length-prefixed frames carrying batched read requests with task-aware
// priorities, their responses, writes, liveness probes, and the topology
// and scan messages of rebalancing.
//
// Frame layout: 4-byte big-endian payload length, 1-byte message type,
// payload. All integers are big-endian; strings and byte slices are
// length-prefixed (uint16 for keys, uint32 for values).
//
// The hot path allocates little: AppendEncode appends frames to
// caller-owned buffers, ReadFrame views the reader's buffer (or fills a
// pooled Frame for a frame too large for it), Decode copies a message
// out of its frame (one slab for a batch's keys or values, so the frame
// recycles as soon as it is decoded) into a batch message shell that
// Release hands back for the next decode, and ConnWriter encodes each
// frame into a retained buffer and writes it in one Write call.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MsgType discriminates frame payloads.
type MsgType uint8

// Message types.
const (
	// TBatchReq is a client→server batched read: all requests of one
	// sub-task destined for this server, carrying per-key priorities.
	TBatchReq MsgType = 1
	// TBatchResp is the server→client response to a TBatchReq.
	TBatchResp MsgType = 2
	// Types 3, 4, 9, 10 and 11 are retired (Set, SetResp, Del, DelResp
	// and NotOwner, which Write and WriteResp replaced), and so are 5 and
	// 6 (the store's credits controller's demand reports and grants): no
	// message may reuse them, so a frame from an old peer decodes as an
	// unknown type.

	// TPing/TPong are liveness probes; the cluster client's revival
	// prober uses them to verify a redialed replica actually serves
	// before swapping the connection in.
	TPing MsgType = 7
	TPong MsgType = 8
	// TTopoGet asks a server for its current topology.
	TTopoGet MsgType = 12
	// TTopo carries a full epoch-versioned topology: the reply to
	// TTopoGet, and — sent unsolicited — the rebalancer's topology push
	// (the receiver installs it if newer and replies with its current
	// topology).
	TTopo MsgType = 13
	// TScan asks a server to enumerate one internal store shard,
	// tombstones included — the migration stream's read side.
	TScan MsgType = 14
	// TScanResp answers a TScan.
	TScanResp MsgType = 15
	// TWrite is a client→server versioned write: a value, or a
	// tombstone.
	TWrite MsgType = 16
	// TWriteResp answers a TWrite: its ack, or its rejection by a server
	// that does not own the key.
	TWriteResp MsgType = 17
)

// MaxFrame bounds frame payloads (16 MiB) to fail fast on corrupt length
// prefixes.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// BatchReq is one sub-task's worth of reads for a single server.
type BatchReq struct {
	// Batch identifies the batch within the issuing client connection.
	Batch uint64
	// TaskID is the end-user task the batch belongs to (telemetry).
	TaskID uint64
	// Shard and Replica are the routing header of the sharded cluster
	// layer: the shard group the keys hash to and the replica index the
	// client selected within it. Shard-checking servers reject batches
	// whose Shard does not match their own (BatchResp FlagMisrouted);
	// single-tier deployments leave both zero and servers accept all.
	Shard   uint32
	Replica uint32
	// Epoch is the topology epoch the client routed this batch under
	// (0 = not epoch-routed). Servers holding a topology check ownership
	// per key regardless; the epoch is telemetry that lets both sides
	// notice skew early.
	Epoch uint64
	// Budget is the caller's remaining deadline budget in nanoseconds at
	// send time (0 = unbounded). The server stamps its local deadline at
	// receipt (arrival + Budget) and sheds work items still queued past
	// it — expired work is answered with per-key Expired bits instead of
	// wasting service time the caller has already given up on.
	Budget int64
	// Priority is the task-aware scheduling priority of each key (lower
	// is served sooner), parallel to Keys.
	Priority []int64
	// Keys are the keys to read.
	Keys []string
}

// BatchResp flag bits.
const (
	// FlagMisrouted marks a batch rejected by a shard-checking server
	// because the routing header named a different shard; Values/Found
	// are empty and the client must not treat the keys as missing.
	FlagMisrouted uint8 = 1 << 0
)

// BatchResp answers a BatchReq.
type BatchResp struct {
	Batch uint64
	// Flags carries response status bits (FlagMisrouted).
	Flags uint8
	// Epoch is the serving server's topology epoch (0 when it holds no
	// topology). A client seeing an epoch newer than its own should
	// refresh its cached topology.
	Epoch uint64
	// Values are the read results, parallel to the request's Keys; a
	// missing key yields a nil value and Found[i] == false.
	Values [][]byte
	Found  []bool
	// Versions carries the stored write version of each key, parallel to
	// Values: 0 for keys the server never stored, the delete version for
	// tombstoned keys (which read as not-found). Clients validate their
	// hot-key caches against them, and convergence scans compare them
	// across replicas — missed deletes included.
	Versions []uint64
	// Stray, when non-nil, marks keys the server refused because it does
	// not own them under its current topology (the per-key form of
	// NotOwner): the client must re-route them after a topology refresh,
	// never treat them as missing. nil means every key was owned.
	Stray []bool
	// Expired, when non-nil, marks keys the server shed because the
	// batch's deadline budget ran out while they queued: they were never
	// serviced, and the client must surface them as deadline expiry, not
	// as missing keys. nil means nothing expired.
	Expired []bool
	// QueueLen and WaitNanos piggyback server state for client-side
	// feedback (queue length at service start of the batch's last key,
	// aggregate time the batch waited).
	QueueLen  uint32
	WaitNanos int64
	// ServiceNanos is the summed actual service time of the batch's keys,
	// piggybacked so replica scorers (internal/c3) can maintain
	// service-time EWMAs from real measurements.
	ServiceNanos int64
}

// Misrouted reports whether the serving server rejected the batch's
// routing header.
func (m *BatchResp) Misrouted() bool { return m.Flags&FlagMisrouted != 0 }

// Write is the one write on the wire, from every writer — a client,
// hint replay, catch-up, migration: key at Version, holding Value, or
// a tombstone when Dead. The server applies it only if Version exceeds
// the key's stored version (last-writer-wins), which makes replays and
// copies idempotent. Version 0 is never sent: Decode rejects it.
type Write struct {
	Seq     uint64
	Version uint64
	// Epoch is the topology epoch the writer routed under (0 = none). A
	// server holding a topology at or past it rejects a key it does not
	// own with a NotOwner WriteResp.
	Epoch uint64
	Key   string
	// Value is empty, and not encoded, when Dead.
	Value []byte
	Dead  bool
}

// WriteResp answers a Write echoing its Seq: an ack, or, when NotOwner
// is set, a rejection of a key the server does not own under its
// current topology. The client must refresh its topology (Epoch, the
// server's, tells it how stale it is) and re-route to Owner, the shard
// that owns the key there. Batched reads mark strays per key instead
// (BatchResp.Stray).
type WriteResp struct {
	Seq      uint64
	NotOwner bool
	Epoch    uint64
	Owner    uint32
}

// Ping is a liveness probe.
type Ping struct{ Nonce uint64 }

// Pong answers a Ping.
type Pong struct{ Nonce uint64 }

// TopoGet asks a server for its current topology; the reply is a Topo
// with the same Seq (Epoch 0 and no shards when the server holds none).
type TopoGet struct{ Seq uint64 }

// TopoShard is one shard row of a Topo: the shard's stable ID and its
// replica servers (stable server IDs) with their dial addresses.
type TopoShard struct {
	ID      uint32
	Servers []uint32
	Addrs   []string
}

// Topo is a full epoch-versioned topology on the wire. As a reply it
// echoes the TopoGet's Seq; as a push (rebalancer → server) Seq is the
// sender's correlation ID and the receiver installs the topology if its
// epoch is newer, always answering with its (possibly just-updated)
// current topology.
type Topo struct {
	Seq      uint64
	Epoch    uint64
	Replicas uint32
	VNodes   uint32
	Shards   []TopoShard
}

// ScanDone is the NextCursor value marking an exhausted scan.
const ScanDone = ^uint32(0)

// Scan asks a server to enumerate internal store shard Cursor of its
// key-value store — live entries and tombstones alike. Cursor starts at
// 0; each response names the next cursor (ScanDone when exhausted).
// Pages are size-bounded: a response echoing the SAME cursor means the
// shard continues — resend with After set to the page's last key.
// Migration streams owned ranges off donors with it.
type Scan struct {
	Seq    uint64
	Cursor uint32
	// After, when non-empty, resumes within the cursor's shard: only
	// keys lexicographically greater are returned.
	After string
}

// ScanResp answers a Scan: every entry of the scanned store shard, with
// versions and tombstone markers so replaying them as Writes is
// idempotent.
type ScanResp struct {
	Seq        uint64
	NextCursor uint32
	Keys       []string
	Versions   []uint64
	// Dead marks tombstoned entries; their Values entry is nil.
	Dead   []bool
	Values [][]byte
}

// --- encoding helpers ---
//
// Encoders are append-style (take and return the destination slice)
// rather than methods on a shared writer struct: a pointer receiver
// passed through the Message interface escapes to the heap at every
// encode, while appended slices stay escape-free — this is what makes
// AppendEncode truly zero-allocation.

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendKey(b []byte, s string) []byte {
	if len(s) > 0xffff {
		panic("wire: key longer than 64 KiB")
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}
func appendVal(b, v []byte) []byte {
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}

type reader struct {
	b   []byte
	off int
	err error
	// keys or vals, when a decoder armed one (decodeBatchReq keys,
	// decodeBatchResp vals), is one copy of b from offset at on: key()
	// returns substrings of keys and val() capacity-capped windows of
	// vals instead of allocating per key or value (a caller appending to
	// a decoded value reallocates instead of clobbering its neighbor).
	keys string
	vals []byte
	at   int
}

func (r *reader) need(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}
func (r *reader) u8() uint8 {
	s := r.need(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (r *reader) u16() uint16 {
	s := r.need(2)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint16(s)
}
func (r *reader) u32() uint32 {
	s := r.need(4)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}
func (r *reader) u64() uint64 {
	s := r.need(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}
func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) key() string {
	n := int(r.u16())
	off := r.off
	s := r.need(n)
	if s == nil || n == 0 {
		return ""
	}
	if r.keys != "" {
		return r.keys[off-r.at : off-r.at+n]
	}
	return string(s)
}
func (r *reader) val() []byte {
	n := int(r.u32())
	if r.err == nil && n > MaxFrame {
		r.err = ErrFrameTooLarge
		return nil
	}
	off := r.off - r.at
	s := r.need(n)
	if s == nil {
		return nil
	}
	if r.vals != nil {
		return r.vals[off : off+n : off+n]
	}
	cp := make([]byte, n)
	copy(cp, s)
	return cp
}

// count reads a u32 element count and validates it against the bytes
// actually remaining in the frame given each element's minimum encoded
// size, so decoders can preallocate exactly-sized slices without a
// corrupt count turning into a giant allocation.
func (r *reader) count(minElem int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > (len(r.b)-r.off)/minElem {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	return n
}
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// --- pooled frame buffers ---

// Frame is the payload of one wire message (type byte + body) as read
// off a connection: a view of the reader's buffer, or a pooled buffer
// for a frame too large for it. Release recycles it; after Release the
// Frame may not be used (messages Decode made from it own copies and
// stay valid).
type Frame struct {
	b []byte
	// r, when non-nil, is the reader whose buffer b views (ReadFrame):
	// Release consumes the frame from it.
	r *bufio.Reader
}

// Bytes is the frame payload, valid until Release.
func (f *Frame) Bytes() []byte { return f.b }

// viewFrames recycles the Frames ReadFrame hands out as views.
var viewFrames = sync.Pool{New: func() any { return new(Frame) }}

// The frame pool is tiered by power-of-two capacity class (512 B … 1
// MiB) so that connections carrying different frame sizes — tiny batch
// requests, KB-scale responses — do not hand each other buffers that
// are too small to reuse. Oversized frames (rare huge values) are
// garbage-collected instead of pinned.
const (
	minFrameClass   = 9 // 1<<9 = 512 B
	maxFrameClass   = 20
	maxPooledFrame  = 1 << maxFrameClass
	numFrameClasses = maxFrameClass - minFrameClass + 1
)

var framePools [numFrameClasses]sync.Pool

func init() {
	for i := range framePools {
		framePools[i].New = func() any { return new(Frame) }
	}
}

// frameClass is the pool index whose buffers hold n bytes, or -1 for
// frames too large to pool.
func frameClass(n int) int {
	if n > maxPooledFrame {
		return -1
	}
	c := 0
	for n > 1<<(minFrameClass+c) {
		c++
	}
	return c
}

// GetFrame returns a length-n frame buffer drawn from the pool.
func GetFrame(n int) *Frame {
	c := frameClass(n)
	if c < 0 {
		return &Frame{b: make([]byte, n)}
	}
	f := framePools[c].Get().(*Frame)
	if cap(f.b) < n || cap(f.b) == 0 {
		f.b = make([]byte, n, 1<<(minFrameClass+c))
	} else {
		f.b = f.b[:n]
	}
	return f
}

// Release recycles the frame. The caller must no longer reference the
// frame's bytes.
func (f *Frame) Release() {
	if f.r != nil {
		_, _ = f.r.Discard(len(f.b))
		f.b, f.r = nil, nil
		viewFrames.Put(f)
		return
	}
	c := frameClass(cap(f.b))
	if c < 0 {
		return
	}
	framePools[c].Put(f)
}
