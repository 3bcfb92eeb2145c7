package wire

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	enc := Encode(m)
	if len(enc) != FrameSize(m) {
		t.Fatalf("%T encodes to %d bytes, FrameSize says %d", m, len(enc), FrameSize(m))
	}
	got, err := Decode(enc[4:])
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	return got
}

func TestBatchReqRoundTrip(t *testing.T) {
	m := &BatchReq{
		Batch:    42,
		TaskID:   7,
		Shard:    3,
		Replica:  1,
		Epoch:    9,
		Budget:   250_000_000,
		Priority: []int64{100, -5, 0},
		Keys:     []string{"track:1", "track:2", ""},
	}
	got := roundTrip(t, m).(*BatchReq)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
	}
}

func TestBatchRespRoundTrip(t *testing.T) {
	m := &BatchResp{
		Batch:  42,
		Epoch:  4,
		Values: [][]byte{[]byte("abc"), nil, {}},
		Found:  []bool{true, false, true},
		// The not-found entry carries a nonzero version: tombstoned keys
		// read as missing but their delete version must survive the wire.
		Versions:     []uint64{7, 99, 12},
		QueueLen:     9,
		WaitNanos:    12345,
		ServiceNanos: 6789,
	}
	got := roundTrip(t, m).(*BatchResp)
	if got.Batch != 42 || got.Epoch != 4 || got.QueueLen != 9 || got.WaitNanos != 12345 || got.ServiceNanos != 6789 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Misrouted() {
		t.Fatal("Misrouted set without FlagMisrouted")
	}
	if got.Stray != nil {
		t.Fatalf("stray slice materialized for an all-owned response: %v", got.Stray)
	}
	if !got.Found[0] || got.Found[1] || !got.Found[2] {
		t.Fatalf("found mismatch: %v", got.Found)
	}
	if string(got.Values[0]) != "abc" || got.Values[1] != nil || len(got.Values[2]) != 0 {
		t.Fatalf("values mismatch: %q", got.Values)
	}
	if !reflect.DeepEqual(got.Versions, m.Versions) {
		t.Fatalf("versions mismatch: %v", got.Versions)
	}
}

// Stray markers survive the wire per key — a stray key is not "missing",
// and trailing non-stray keys keep the slice parallel.
func TestBatchRespStrayRoundTrip(t *testing.T) {
	m := &BatchResp{
		Batch:    1,
		Epoch:    3,
		Values:   [][]byte{[]byte("v"), nil, nil, []byte("w")},
		Found:    []bool{true, false, false, true},
		Versions: []uint64{5, 0, 0, 6},
		Stray:    []bool{false, true, true, false},
	}
	got := roundTrip(t, m).(*BatchResp)
	if !reflect.DeepEqual(got.Stray, m.Stray) {
		t.Fatalf("stray mismatch: %v, want %v", got.Stray, m.Stray)
	}
	if !got.Found[0] || got.Found[1] || string(got.Values[3]) != "w" {
		t.Fatalf("stray marking corrupted values: %+v", got)
	}
}

// Expired markers survive the wire per key — a shed key is not
// "missing", and trailing in-deadline keys keep the slice parallel.
func TestBatchRespExpiredRoundTrip(t *testing.T) {
	m := &BatchResp{
		Batch:    2,
		Epoch:    1,
		Values:   [][]byte{[]byte("v"), nil, nil, []byte("w")},
		Found:    []bool{true, false, false, true},
		Versions: []uint64{5, 0, 0, 6},
		Expired:  []bool{false, true, true, false},
	}
	got := roundTrip(t, m).(*BatchResp)
	if !reflect.DeepEqual(got.Expired, m.Expired) {
		t.Fatalf("expired mismatch: %v, want %v", got.Expired, m.Expired)
	}
	if got.Stray != nil {
		t.Fatalf("stray materialized for an all-owned response: %v", got.Stray)
	}
	if !got.Found[0] || got.Found[1] || string(got.Values[3]) != "w" {
		t.Fatalf("expired marking corrupted values: %+v", got)
	}
}

// A BatchResp encoded without Versions (legacy server) decodes with
// all-zero versions, never a length mismatch.
func TestBatchRespNilVersions(t *testing.T) {
	m := &BatchResp{Batch: 1, Values: [][]byte{[]byte("v")}, Found: []bool{true}}
	got := roundTrip(t, m).(*BatchResp)
	if len(got.Versions) != 1 || got.Versions[0] != 0 {
		t.Fatalf("versions = %v, want [0]", got.Versions)
	}
}

func TestMisroutedRoundTrip(t *testing.T) {
	m := &BatchResp{Batch: 7, Flags: FlagMisrouted}
	got := roundTrip(t, m).(*BatchResp)
	if !got.Misrouted() {
		t.Fatalf("misrouted flag lost: %+v", got)
	}
	if len(got.Values) != 0 || len(got.Found) != 0 {
		t.Fatalf("misrouted response carries values: %+v", got)
	}
}

func TestSetRoundTrip(t *testing.T) {
	m := &Write{Seq: 1, Version: 77, Epoch: 8, Key: "k", Value: bytes.Repeat([]byte{0xAB}, 1000)}
	if got := roundTrip(t, m).(*Write); !reflect.DeepEqual(m, got) {
		t.Fatalf("write mismatch: %+v vs %+v", m, got)
	}
	ack := &WriteResp{Seq: 5}
	if got := roundTrip(t, ack).(*WriteResp); !reflect.DeepEqual(ack, got) {
		t.Fatalf("ack mismatch: %+v vs %+v", ack, got)
	}
}

func TestDelRoundTrip(t *testing.T) {
	m := &Write{Seq: 3, Version: 41, Epoch: 2, Key: "gone", Dead: true}
	if got := roundTrip(t, m).(*Write); !reflect.DeepEqual(m, got) {
		t.Fatalf("dead write mismatch: %+v vs %+v", m, got)
	}
	// A tombstone carries no value: one set beside Dead is not encoded.
	if got := roundTrip(t, &Write{Seq: 3, Version: 41, Key: "gone", Dead: true, Value: []byte("x")}).(*Write); got.Value != nil {
		t.Fatalf("dead write decoded with value %q", got.Value)
	}
}

// Every writer stamps a version, so a version-0 write is malformed.
func TestWriteVersionZeroRejected(t *testing.T) {
	for _, m := range []*Write{{Seq: 1, Key: "k", Value: []byte("v")}, {Seq: 2, Key: "k", Dead: true}} {
		if _, err := Decode(Encode(m)[4:]); !errors.Is(err, errVersionZero) {
			t.Fatalf("Decode(%+v): err %v, want %v", m, err, errVersionZero)
		}
	}
}

func TestPingPong(t *testing.T) {
	if got := roundTrip(t, &Ping{Nonce: 99}).(*Ping); got.Nonce != 99 {
		t.Fatal("ping mismatch")
	}
	if got := roundTrip(t, &Pong{Nonce: 100}).(*Pong); got.Nonce != 100 {
		t.Fatal("pong mismatch")
	}
}

func TestNotOwnerRoundTrip(t *testing.T) {
	m := &WriteResp{Seq: 12, NotOwner: true, Epoch: 5, Owner: 3}
	if got := roundTrip(t, m).(*WriteResp); !reflect.DeepEqual(m, got) {
		t.Fatalf("notowner mismatch: %+v vs %+v", m, got)
	}
}

func TestTopoRoundTrip(t *testing.T) {
	if got := roundTrip(t, &TopoGet{Seq: 77}).(*TopoGet); got.Seq != 77 {
		t.Fatal("topoget mismatch")
	}
	m := &Topo{
		Seq:      9,
		Epoch:    4,
		Replicas: 2,
		VNodes:   128,
		Shards: []TopoShard{
			{ID: 0, Servers: []uint32{0, 1}, Addrs: []string{"h0:1", "h0:2"}},
			{ID: 3, Servers: []uint32{6, 7}, Addrs: []string{"h3:1", "h3:2"}},
		},
	}
	if got := roundTrip(t, m).(*Topo); !reflect.DeepEqual(m, got) {
		t.Fatalf("topo mismatch:\n%+v\n%+v", m, got)
	}
	// The empty topology (a server that holds none) round-trips too.
	empty := &Topo{Seq: 1}
	if got := roundTrip(t, empty).(*Topo); got.Epoch != 0 || len(got.Shards) != 0 {
		t.Fatalf("empty topo mismatch: %+v", got)
	}
}

func TestScanRoundTrip(t *testing.T) {
	if got := roundTrip(t, &Scan{Seq: 5, Cursor: 9, After: "key:41"}).(*Scan); got.Seq != 5 || got.Cursor != 9 || got.After != "key:41" {
		t.Fatal("scan mismatch")
	}
	m := &ScanResp{
		Seq:        5,
		NextCursor: 10,
		Keys:       []string{"a", "b", "c"},
		Versions:   []uint64{3, 9, 1},
		Dead:       []bool{false, true, false},
		Values:     [][]byte{[]byte("va"), nil, {}},
	}
	got := roundTrip(t, m).(*ScanResp)
	if got.Seq != 5 || got.NextCursor != 10 || !reflect.DeepEqual(got.Keys, m.Keys) ||
		!reflect.DeepEqual(got.Versions, m.Versions) || !reflect.DeepEqual(got.Dead, m.Dead) {
		t.Fatalf("scanresp mismatch: %+v", got)
	}
	if string(got.Values[0]) != "va" || got.Values[1] != nil || len(got.Values[2]) != 0 {
		t.Fatalf("scanresp values mismatch: %q", got.Values)
	}
	done := &ScanResp{Seq: 6, NextCursor: ScanDone, Keys: []string{}, Versions: []uint64{}, Dead: []bool{}, Values: [][]byte{}}
	if got := roundTrip(t, done).(*ScanResp); got.NextCursor != ScanDone {
		t.Fatal("ScanDone cursor lost")
	}
}

func TestUnknownType(t *testing.T) {
	// 5 and 6 are retired (the store's credits controller spoke them): a
	// stray frame of either type must be refused, not misparsed.
	for _, typ := range []byte{0xFF, 5, 6} {
		_, err := Decode([]byte{typ, 0, 0, 0, 0})
		if err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("type %d: err %v, want unknown message type", typ, err)
		}
	}
}

func TestEmptyFrame(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestTruncatedPayload(t *testing.T) {
	enc := Encode(&BatchReq{Batch: 1, TaskID: 2, Priority: []int64{1}, Keys: []string{"abc"}})
	for cut := 5; cut < len(enc)-1; cut++ {
		if _, err := Decode(enc[4:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	enc := Encode(&Ping{Nonce: 1})
	frame := append(enc[4:], 0xEE)
	if _, err := Decode(frame); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Ping{Nonce: 1},
		&BatchReq{Batch: 2, TaskID: 3, Priority: []int64{9}, Keys: []string{"x"}},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("msg %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := ReadMessage(r); err == nil {
		t.Fatal("read past end succeeded")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length
	buf.WriteByte(byte(TPing))
	if _, err := ReadMessage(bufio.NewReader(&buf)); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestMismatchedBatchReqPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Priority/Keys did not panic")
		}
	}()
	Encode(&BatchReq{Priority: []int64{1}, Keys: nil})
}

// Property: BatchReq round-trips for arbitrary keys and priorities.
func TestQuickBatchReqRoundTrip(t *testing.T) {
	f := func(batch, task uint64, prios []int64, rawKeys [][]byte) bool {
		n := len(prios)
		if len(rawKeys) < n {
			n = len(rawKeys)
		}
		m := &BatchReq{Batch: batch, TaskID: task}
		for i := 0; i < n; i++ {
			k := rawKeys[i]
			if len(k) > 0xffff {
				k = k[:0xffff]
			}
			m.Priority = append(m.Priority, prios[i])
			m.Keys = append(m.Keys, string(k))
		}
		enc := Encode(m)
		got, err := Decode(enc[4:])
		if err != nil {
			return false
		}
		gb := got.(*BatchReq)
		if gb.Batch != m.Batch || gb.TaskID != m.TaskID || len(gb.Keys) != len(m.Keys) {
			return false
		}
		for i := range m.Keys {
			if gb.Keys[i] != m.Keys[i] || gb.Priority[i] != m.Priority[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte garbage never panics the decoder.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(frame []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("decoder panicked")
			}
		}()
		_, _ = Decode(frame)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func benchBatchReq() *BatchReq {
	return &BatchReq{Batch: 1, TaskID: 2,
		Priority: []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Keys:     []string{"a", "b", "c", "d", "e", "f", "g", "h"}}
}

// BenchmarkEncodeBatchReq measures the encode hot path as the netstore
// endpoints use it: AppendEncode into a reused buffer (this is what
// ConnWriter.Send does under its lock). Zero allocs/op expected.
func BenchmarkEncodeBatchReq(b *testing.B) {
	m := benchBatchReq()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
}

// BenchmarkEncodeBatchReqAlloc measures the convenience Encode form
// that allocates a fresh framed slice per message (the pre-pooling
// behavior every frame used to pay).
func BenchmarkEncodeBatchReqAlloc(b *testing.B) {
	m := benchBatchReq()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

// BenchmarkDecodeBatchReq measures the decode hot path as the server
// uses it: a copying decode out of a (pooled, here reused) frame buffer,
// with exact-size slice preallocation and one slab for the keys.
func BenchmarkDecodeBatchReq(b *testing.B) {
	enc := Encode(benchBatchReq())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatchResp() *BatchResp {
	vals := make([][]byte, 8)
	found := make([]bool, 8)
	for i := range vals {
		vals[i] = bytes.Repeat([]byte{byte(i)}, 128)
		found[i] = true
	}
	return &BatchResp{Batch: 1, Values: vals, Found: found, QueueLen: 3, WaitNanos: 100, ServiceNanos: 200}
}

// BenchmarkEncodeBatchResp is the server's response-encode hot path.
func BenchmarkEncodeBatchResp(b *testing.B) {
	m := benchBatchResp()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
}

// BenchmarkDecodeBatchResp is the client's response-decode path; the
// values are copied out because they escape to the application.
func BenchmarkDecodeBatchResp(b *testing.B) {
	enc := Encode(benchBatchResp())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
