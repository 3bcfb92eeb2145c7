package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// randomBatchReq builds a BatchReq from quick-generated raw material.
func randomBatchReq(batch uint64, prios []int64, rawKeys [][]byte) *BatchReq {
	n := len(prios)
	if len(rawKeys) < n {
		n = len(rawKeys)
	}
	m := &BatchReq{Batch: batch}
	for i := 0; i < n; i++ {
		k := rawKeys[i]
		if len(k) > 0xffff {
			k = k[:0xffff]
		}
		m.Priority = append(m.Priority, prios[i])
		m.Keys = append(m.Keys, string(k))
	}
	return m
}

func sameBatchReq(a, b *BatchReq) bool {
	if a.Batch != b.Batch || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Priority[i] != b.Priority[i] {
			return false
		}
	}
	return true
}

// Property: a pooled-frame round trip through AppendEncode → Decode
// matches the original, and stays correct after the frame is recycled
// and reused (the keys share one slab, which must not be the frame).
func TestQuickPooledAliasRoundTrip(t *testing.T) {
	f := func(batch uint64, prios []int64, rawKeys [][]byte) bool {
		m := randomBatchReq(batch, prios, rawKeys)
		enc := AppendEncode(nil, m)

		frame := GetFrame(len(enc) - 4)
		copy(frame.Bytes(), enc[4:])

		copied, err := Decode(frame.Bytes())
		if err != nil {
			return false
		}
		if !sameBatchReq(m, copied.(*BatchReq)) {
			return false
		}

		// Recycle the frame and scribble over a reused buffer: the
		// copied message must be unaffected.
		frame.Release()
		reused := GetFrame(len(enc) - 4)
		for i := range reused.Bytes() {
			reused.Bytes()[i] = 0xEE
		}
		ok := sameBatchReq(m, copied.(*BatchReq))
		reused.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Decode must never alias the frame: corrupting the frame after
// decoding cannot change the message.
func TestCopyDecodeDoesNotAliasFrame(t *testing.T) {
	m := &Write{Seq: 9, Version: 1, Key: "playlist:42", Value: bytes.Repeat([]byte{0xAB}, 512)}
	enc := Encode(m)
	frame := append([]byte(nil), enc[4:]...)
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	gs := got.(*Write)
	if gs.Key != "playlist:42" || !bytes.Equal(gs.Value, m.Value) {
		t.Fatal("decode aliased the frame buffer")
	}
}

// Hammer the frame pool from many goroutines, each encoding into pooled
// frames, decoding safely, recycling, and then verifying its message
// against buffers other goroutines have since reused. Catches both
// cross-goroutine recycling races (under -race) and any decode output
// that secretly aliases pooled memory.
func TestPooledRecycleAcrossGoroutines(t *testing.T) {
	const goroutines = 8
	const rounds = 500
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				want := &Write{
					Seq:     uint64(g)<<32 | uint64(r),
					Version: 1,
					Key:     fmt.Sprintf("key:%d:%d", g, r),
					Value:   bytes.Repeat([]byte{byte(g), byte(r)}, 64),
				}
				enc := AppendEncode(nil, want)
				frame := GetFrame(len(enc) - 4)
				copy(frame.Bytes(), enc[4:])
				got, err := Decode(frame.Bytes())
				if err != nil {
					errCh <- err
					return
				}
				frame.Release() // recycled before the message is checked
				gs := got.(*Write)
				if gs.Seq != want.Seq || gs.Key != want.Key || !bytes.Equal(gs.Value, want.Value) {
					errCh <- fmt.Errorf("goroutine %d round %d: message corrupted after frame recycle", g, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// The hot paths stay cheap: AppendEncode into a reused buffer allocates
// nothing, and decoding a BatchReq costs the message struct, its two
// exactly-sized slices and one slab for all of its keys — not one
// string per key.
func TestHotPathAllocs(t *testing.T) {
	m := benchBatchReq()
	buf := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendEncode(buf[:0], m)
	}); avg != 0 {
		t.Errorf("AppendEncode into reused buffer: %.1f allocs/op, want 0", avg)
	}
	// Multi-byte keys: the runtime interns one-byte strings, so
	// benchBatchReq's keys would cost nothing even copied one by one.
	m = &BatchReq{Priority: make([]int64, 8)}
	for i := 0; i < 8; i++ {
		m.Keys = append(m.Keys, fmt.Sprintf("user:%04d", i))
	}
	enc := Encode(m)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := Decode(enc[4:]); err != nil {
			t.Fatal(err)
		}
	}); avg > 4 {
		t.Errorf("Decode(BatchReq): %.1f allocs/op, want ≤ 4", avg)
	}
}

// Fuzz Decode on arbitrary bytes: no panics, and whatever it accepts is
// a fixed point — re-encoding the message and decoding that again
// succeeds and yields the same message.
func FuzzDecodeModes(f *testing.F) {
	f.Add(Encode(benchBatchReq())[4:])
	f.Add(Encode(benchBatchResp())[4:])
	f.Add(Encode(&Write{Seq: 1, Version: 1, Key: "k", Value: []byte{1}})[4:])
	f.Add([]byte{0xFF, 0, 1, 2})
	f.Add(Encode(&Write{Seq: 2, Version: 9, Epoch: 3, Key: "k", Dead: true})[4:])
	f.Add(Encode(&WriteResp{Seq: 1})[4:])
	f.Add(Encode(&WriteResp{Seq: 2, NotOwner: true, Epoch: 4, Owner: 1})[4:])
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Decode(frame)
		if err != nil {
			return
		}
		enc := Encode(m)
		if len(enc) != FrameSize(m) {
			t.Fatalf("%+v encodes to %d bytes, FrameSize says %d", m, len(enc), FrameSize(m))
		}
		again, err := Decode(enc[4:])
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if fmt.Sprintf("%+v", m) != fmt.Sprintf("%+v", again) {
			t.Fatalf("decode is not a fixed point:\nfirst:  %+v\nsecond: %+v", m, again)
		}
	})
}

// ReadFrame hands out views of the reader's buffer for frames that fit
// it and pooled copies for frames that do not. Either way a response
// decoded from a frame keeps its values once the frame is released, the
// reader's buffer has moved on and Release has handed the response's
// shell back to Decode for the next one.
func TestReadFrameValuesOutliveFrameAndShell(t *testing.T) {
	var stream bytes.Buffer
	var want []*BatchResp
	for i, size := range []int{0, 3, 100, 300, 5000, 20, 1} {
		m := &BatchResp{
			Batch:    uint64(i),
			Values:   [][]byte{bytes.Repeat([]byte{byte(i + 1)}, size), nil, bytes.Repeat([]byte{byte(i + 100)}, size/2)},
			Found:    []bool{true, false, true},
			Versions: []uint64{uint64(i), 2, 3},
		}
		want = append(want, m)
		stream.Write(Encode(m))
	}
	r := bufio.NewReaderSize(&stream, 256) // the 5000-byte frames do not fit
	var got []*BatchResp
	for range want {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decode(f.Bytes())
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		resp := m.(*BatchResp)
		got = append(got, &BatchResp{Batch: resp.Batch, Values: slices.Clone(resp.Values), Found: slices.Clone(resp.Found), Versions: slices.Clone(resp.Versions)})
		resp.Release()
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("read past the last frame: err %v, want io.EOF", err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("response %d changed after later frames:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// A stream that ends inside a frame, in its length prefix or in its
// body, is a truncated frame; one that ends between frames is io.EOF.
func TestReadFrameTruncated(t *testing.T) {
	enc := Encode(&Ping{Nonce: 3})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc[:cut]))); err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d of %d bytes: err %v, want io.ErrUnexpectedEOF", cut, len(enc), err)
		}
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: err %v, want io.EOF", err)
	}
}
