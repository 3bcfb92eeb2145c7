package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// preallocCount bounds decode-slice preallocation: exact for any
// realistic batch, capped so a corrupt or hostile count inside an
// otherwise valid frame cannot amplify into a huge allocation (the
// per-element floor in reader.count bounds n by frame size, but a
// 16 MiB frame could still claim ~16M one-byte elements). Beyond the
// cap, append grows the slice in proportion to data actually parsed.
func preallocCount(n int) int {
	const maxPrealloc = 4096
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// Message is any protocol message.
type Message interface {
	msgType() MsgType
	// appendBody appends the message body (everything after the type
	// byte) to dst and returns the extended slice.
	appendBody(dst []byte) []byte
	// bodySize is the number of bytes appendBody appends.
	bodySize() int
}

// FrameSize is the encoded size of m's frame: length prefix, type byte
// and body — what AppendEncode appends.
func FrameSize(m Message) int { return 5 + m.bodySize() }

func (m *BatchReq) msgType() MsgType { return TBatchReq }
func (m *BatchReq) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Batch)
	dst = appendU64(dst, m.TaskID)
	dst = appendU32(dst, m.Shard)
	dst = appendU32(dst, m.Replica)
	dst = appendU64(dst, m.Epoch)
	dst = appendI64(dst, m.Budget)
	if len(m.Priority) != len(m.Keys) {
		panic("wire: BatchReq Priority/Keys length mismatch")
	}
	dst = appendU32(dst, uint32(len(m.Keys)))
	for i, k := range m.Keys {
		dst = appendI64(dst, m.Priority[i])
		dst = appendKey(dst, k)
	}
	return dst
}

func (m *BatchReq) bodySize() int {
	n := 44
	for _, k := range m.Keys {
		n += 10 + len(k)
	}
	return n
}

// Decoded batch messages come from these pools, and go back to them by
// Release.
var (
	batchReqs  = sync.Pool{New: func() any { return new(BatchReq) }}
	batchResps = sync.Pool{New: func() any { return new(BatchResp) }}
)

// Release hands a request Decode returned back to Decode, which reuses
// the struct and its Keys and Priority arrays for a later request. The
// caller must hold no reference to m or its slices afterwards; the key
// strings themselves stay valid.
func (m *BatchReq) Release() {
	clear(m.Keys)
	batchReqs.Put(m)
}

func decodeBatchReq(r *reader) (*BatchReq, error) {
	m := batchReqs.Get().(*BatchReq)
	prios, keys := m.Priority[:0], m.Keys[:0]
	*m = BatchReq{Batch: r.u64(), TaskID: r.u64(), Shard: r.u32(), Replica: r.u32(), Epoch: r.u64(), Budget: r.i64()}
	n := r.count(10) // 8-byte priority + 2-byte key length floor
	if n > 1 {
		// One string copy of the rest of the frame backs every key, the
		// way decodeBatchResp's slab backs its values: 8 keys cost 1
		// allocation, not 8 (the priorities ride along in the copy), and
		// retaining any one key pins the whole copy.
		r.keys, r.at = string(r.b[r.off:]), r.off
	}
	if c := preallocCount(n); c > 0 {
		if cap(keys) < c {
			prios, keys = make([]int64, 0, c), make([]string, 0, c)
		}
		m.Priority, m.Keys = prios, keys
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.Priority = append(m.Priority, r.i64())
		m.Keys = append(m.Keys, r.key())
	}
	return m, r.done()
}

// Per-key flag bits in a BatchResp entry.
const (
	keyFound   uint8 = 1 << 0
	keyStray   uint8 = 1 << 1
	keyExpired uint8 = 1 << 2
)

func (m *BatchResp) msgType() MsgType { return TBatchResp }
func (m *BatchResp) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Batch)
	dst = append(dst, m.Flags)
	dst = appendU64(dst, m.Epoch)
	dst = appendU32(dst, m.QueueLen)
	dst = appendI64(dst, m.WaitNanos)
	dst = appendI64(dst, m.ServiceNanos)
	if len(m.Values) != len(m.Found) {
		panic("wire: BatchResp Values/Found length mismatch")
	}
	if m.Versions != nil && len(m.Versions) != len(m.Values) {
		panic("wire: BatchResp Versions/Values length mismatch")
	}
	if m.Stray != nil && len(m.Stray) != len(m.Values) {
		panic("wire: BatchResp Stray/Values length mismatch")
	}
	if m.Expired != nil && len(m.Expired) != len(m.Values) {
		panic("wire: BatchResp Expired/Values length mismatch")
	}
	dst = appendU32(dst, uint32(len(m.Values)))
	for i, v := range m.Values {
		// The version is carried for missing keys too: a tombstoned key
		// reads as not-found but its delete version must reach clients,
		// or cache validation and convergence scans could not tell
		// "deleted at v" from "never stored".
		var ver uint64
		if m.Versions != nil {
			ver = m.Versions[i]
		}
		var flags uint8
		if m.Found[i] {
			flags |= keyFound
		}
		if m.Stray != nil && m.Stray[i] {
			flags |= keyStray
		}
		if m.Expired != nil && m.Expired[i] {
			flags |= keyExpired
		}
		dst = append(dst, flags)
		dst = appendU64(dst, ver)
		if m.Found[i] {
			dst = appendVal(dst, v)
		}
	}
	return dst
}

func (m *BatchResp) bodySize() int {
	n := 41 + 9*len(m.Values)
	for i, v := range m.Values {
		if m.Found[i] {
			n += 4 + len(v)
		}
	}
	return n
}

// Release hands a response Decode returned back to Decode, which reuses
// the struct and its Values, Found and Versions arrays for a later
// response. The caller must hold no reference to m or its slices
// afterwards; the values themselves stay valid (they live in the
// response's slab, which is never reused).
func (m *BatchResp) Release() {
	clear(m.Values)
	batchResps.Put(m)
}

func decodeBatchResp(r *reader) (*BatchResp, error) {
	m := batchResps.Get().(*BatchResp)
	vals, found, vers := m.Values[:0], m.Found[:0], m.Versions[:0]
	*m = BatchResp{Batch: r.u64(), Flags: r.u8(), Epoch: r.u64(), QueueLen: r.u32(), WaitNanos: r.i64(), ServiceNanos: r.i64()}
	n := r.count(9) // 1-byte flag + 8-byte version floor
	if n > 1 {
		// One copy of the rest of the frame backs every value in the batch
		// (~13 metadata bytes per key ride along). Copying 8 values costs
		// 1 allocation, not 8, and an append copy is not zeroed first; the
		// trade is that retaining any one value pins the batch's slab.
		r.vals, r.at = append([]byte(nil), r.b[r.off:]...), r.off
	}
	if c := preallocCount(n); c > 0 {
		if cap(vals) < c || cap(found) < c || cap(vers) < c {
			vals, found, vers = make([][]byte, 0, c), make([]bool, 0, c), make([]uint64, 0, c)
		}
		m.Values, m.Found, m.Versions = vals, found, vers
	}
	for i := 0; i < n && r.err == nil; i++ {
		flags := r.u8()
		found := flags&keyFound != 0
		if flags&keyStray != 0 {
			// Lazily materialized (and grown in proportion to data actually
			// parsed): the common all-owned response pays no per-batch
			// Stray allocation, and a corrupt count cannot amplify.
			for len(m.Stray) < i {
				m.Stray = append(m.Stray, false)
			}
			m.Stray = append(m.Stray, true)
		} else if m.Stray != nil {
			m.Stray = append(m.Stray, false)
		}
		if flags&keyExpired != 0 {
			// Lazy like Stray: the common in-deadline response pays no
			// per-batch Expired allocation.
			for len(m.Expired) < i {
				m.Expired = append(m.Expired, false)
			}
			m.Expired = append(m.Expired, true)
		} else if m.Expired != nil {
			m.Expired = append(m.Expired, false)
		}
		m.Versions = append(m.Versions, r.u64())
		m.Found = append(m.Found, found)
		if found {
			m.Values = append(m.Values, r.val())
		} else {
			m.Values = append(m.Values, nil)
		}
	}
	return m, r.done()
}

func (m *Write) msgType() MsgType { return TWrite }
func (m *Write) bodySize() int {
	if m.Dead {
		return 27 + len(m.Key)
	}
	return 31 + len(m.Key) + len(m.Value)
}
func (m *Write) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Seq)
	dst = appendU64(dst, m.Version)
	dst = appendU64(dst, m.Epoch)
	if m.Dead {
		dst = append(dst, 1)
		return appendKey(dst, m.Key)
	}
	dst = append(dst, 0)
	dst = appendKey(dst, m.Key)
	return appendVal(dst, m.Value)
}

// errVersionZero rejects a Write without a version: every writer stamps
// one, and last-writer-wins has nothing to order a zero by.
var errVersionZero = errors.New("wire: write at version 0")

func decodeWrite(r *reader) (*Write, error) {
	m := &Write{Seq: r.u64(), Version: r.u64(), Epoch: r.u64(), Dead: r.u8() == 1, Key: r.key()}
	if !m.Dead {
		m.Value = r.val()
	}
	if err := r.done(); err != nil {
		return m, err
	}
	if m.Version == 0 {
		return m, errVersionZero
	}
	return m, nil
}

func (m *WriteResp) msgType() MsgType { return TWriteResp }
func (m *WriteResp) bodySize() int {
	if m.NotOwner {
		return 21
	}
	return 9
}
func (m *WriteResp) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Seq)
	if !m.NotOwner {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendU64(dst, m.Epoch)
	return appendU32(dst, m.Owner)
}

func decodeWriteResp(r *reader) (*WriteResp, error) {
	m := &WriteResp{Seq: r.u64(), NotOwner: r.u8() == 1}
	if m.NotOwner {
		m.Epoch, m.Owner = r.u64(), r.u32()
	}
	return m, r.done()
}

func (m *Ping) msgType() MsgType             { return TPing }
func (m *Ping) bodySize() int                { return 8 }
func (m *Ping) appendBody(dst []byte) []byte { return appendU64(dst, m.Nonce) }

func decodePing(r *reader) (*Ping, error) {
	m := &Ping{Nonce: r.u64()}
	return m, r.done()
}

func (m *Pong) msgType() MsgType             { return TPong }
func (m *Pong) bodySize() int                { return 8 }
func (m *Pong) appendBody(dst []byte) []byte { return appendU64(dst, m.Nonce) }

func decodePong(r *reader) (*Pong, error) {
	m := &Pong{Nonce: r.u64()}
	return m, r.done()
}

func (m *TopoGet) msgType() MsgType             { return TTopoGet }
func (m *TopoGet) bodySize() int                { return 8 }
func (m *TopoGet) appendBody(dst []byte) []byte { return appendU64(dst, m.Seq) }

func decodeTopoGet(r *reader) (*TopoGet, error) {
	m := &TopoGet{Seq: r.u64()}
	return m, r.done()
}

func (m *Topo) msgType() MsgType { return TTopo }
func (m *Topo) bodySize() int {
	n := 28
	for _, sh := range m.Shards {
		n += 8
		for _, a := range sh.Addrs {
			n += 6 + len(a)
		}
	}
	return n
}
func (m *Topo) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Seq)
	dst = appendU64(dst, m.Epoch)
	dst = appendU32(dst, m.Replicas)
	dst = appendU32(dst, m.VNodes)
	dst = appendU32(dst, uint32(len(m.Shards)))
	for _, sh := range m.Shards {
		if len(sh.Addrs) != len(sh.Servers) {
			panic("wire: TopoShard Servers/Addrs length mismatch")
		}
		dst = appendU32(dst, sh.ID)
		dst = appendU32(dst, uint32(len(sh.Servers)))
		for i, sid := range sh.Servers {
			dst = appendU32(dst, sid)
			dst = appendKey(dst, sh.Addrs[i])
		}
	}
	return dst
}

func decodeTopo(r *reader) (*Topo, error) {
	m := &Topo{Seq: r.u64(), Epoch: r.u64(), Replicas: r.u32(), VNodes: r.u32()}
	n := r.count(8) // 4-byte ID + 4-byte server count floor
	if c := preallocCount(n); c > 0 {
		m.Shards = make([]TopoShard, 0, c)
	}
	for i := 0; i < n && r.err == nil; i++ {
		sh := TopoShard{ID: r.u32()}
		k := r.count(6) // 4-byte server ID + 2-byte addr length floor
		if c := preallocCount(k); c > 0 {
			sh.Servers = make([]uint32, 0, c)
			sh.Addrs = make([]string, 0, c)
		}
		for j := 0; j < k && r.err == nil; j++ {
			sh.Servers = append(sh.Servers, r.u32())
			sh.Addrs = append(sh.Addrs, r.key())
		}
		m.Shards = append(m.Shards, sh)
	}
	return m, r.done()
}

func (m *Scan) msgType() MsgType { return TScan }
func (m *Scan) bodySize() int    { return 14 + len(m.After) }
func (m *Scan) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Seq)
	dst = appendU32(dst, m.Cursor)
	return appendKey(dst, m.After)
}

func decodeScan(r *reader) (*Scan, error) {
	m := &Scan{Seq: r.u64(), Cursor: r.u32(), After: r.key()}
	return m, r.done()
}

func (m *ScanResp) msgType() MsgType { return TScanResp }
func (m *ScanResp) bodySize() int {
	n := 16
	for i, k := range m.Keys {
		n += 11 + len(k)
		if !m.Dead[i] {
			n += 4 + len(m.Values[i])
		}
	}
	return n
}
func (m *ScanResp) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Seq)
	dst = appendU32(dst, m.NextCursor)
	if len(m.Versions) != len(m.Keys) || len(m.Dead) != len(m.Keys) || len(m.Values) != len(m.Keys) {
		panic("wire: ScanResp parallel slice length mismatch")
	}
	dst = appendU32(dst, uint32(len(m.Keys)))
	for i, k := range m.Keys {
		dst = appendKey(dst, k)
		dst = appendU64(dst, m.Versions[i])
		if m.Dead[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
			dst = appendVal(dst, m.Values[i])
		}
	}
	return dst
}

func decodeScanResp(r *reader) (*ScanResp, error) {
	m := &ScanResp{Seq: r.u64(), NextCursor: r.u32()}
	n := r.count(11) // 2-byte key length + 8-byte version + 1-byte dead floor
	if c := preallocCount(n); c > 0 {
		m.Keys = make([]string, 0, c)
		m.Versions = make([]uint64, 0, c)
		m.Dead = make([]bool, 0, c)
		m.Values = make([][]byte, 0, c)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.Keys = append(m.Keys, r.key())
		m.Versions = append(m.Versions, r.u64())
		dead := r.u8() == 1
		m.Dead = append(m.Dead, dead)
		if dead {
			m.Values = append(m.Values, nil)
		} else {
			m.Values = append(m.Values, r.val())
		}
	}
	return m, r.done()
}

// AppendEncode appends m's framed encoding (length prefix, type byte,
// body) to dst and returns the extended slice. It is the allocation-free
// encode path: callers that reuse dst across messages pay only the
// appends.
func AppendEncode(dst []byte, m Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.msgType()))
	dst = m.appendBody(dst)
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(dst)-start-4))
	return dst
}

// Encode serializes a message into a fresh framed byte slice (the
// convenience form of AppendEncode).
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, FrameSize(m)), m)
}

// Decode parses one frame payload (type byte + body, without the length
// prefix). Every byte of the result is copied out of frame, so the
// frame buffer may be reused immediately.
func Decode(frame []byte) (Message, error) {
	if len(frame) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	r := &reader{b: frame[1:]}
	switch MsgType(frame[0]) {
	case TBatchReq:
		return decodeBatchReq(r)
	case TBatchResp:
		return decodeBatchResp(r)
	case TPing:
		return decodePing(r)
	case TPong:
		return decodePong(r)
	case TTopoGet:
		return decodeTopoGet(r)
	case TTopo:
		return decodeTopo(r)
	case TScan:
		return decodeScan(r)
	case TScanResp:
		return decodeScanResp(r)
	case TWrite:
		return decodeWrite(r)
	case TWriteResp:
		return decodeWriteResp(r)
	}
	return nil, fmt.Errorf("wire: unknown message type %d", frame[0])
}

// DecodeAlias is Decode, kept under this name for callers that still
// use it.
func DecodeAlias(frame []byte) (Message, error) { return Decode(frame) }

// WriteMessage frames and writes a message through a pooled encode
// buffer (one Write, no per-message allocation).
func WriteMessage(w io.Writer, m Message) error {
	f := GetFrame(FrameSize(m))
	f.b = AppendEncode(f.b[:0], m)
	_, err := w.Write(f.b)
	f.Release()
	return err
}

// ReadFrame reads one length-prefixed frame. A frame that fits r's
// buffer is not copied: the Frame views the buffer, and Release consumes
// it from r. A larger one is read into a pooled buffer. Either way the
// caller must Release the frame before it reads from r again.
func ReadFrame(r *bufio.Reader) (*Frame, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, midFrame(err, len(hdr))
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	_, _ = r.Discard(4) // Peek buffered them
	if n <= r.Size() {
		b, err := r.Peek(n)
		if err != nil {
			return nil, midFrame(err, 1)
		}
		f := viewFrames.Get().(*Frame)
		f.b, f.r = b, r
		return f, nil
	}
	f := GetFrame(n)
	if _, err := io.ReadFull(r, f.b); err != nil {
		f.Release()
		return nil, midFrame(err, 1)
	}
	return f, nil
}

// midFrame is the error of a read that hit the end of the stream: a
// clean io.EOF when it ended between frames (read no bytes of a frame),
// io.ErrUnexpectedEOF when it cut a frame short.
func midFrame(err error, read int) error {
	if err == io.EOF && read > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadMessage reads one framed message. The frame is recycled before
// returning; the decoded message owns copies of everything it
// references.
func ReadMessage(r *bufio.Reader) (Message, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	m, err := Decode(f.b)
	f.Release()
	return m, err
}
