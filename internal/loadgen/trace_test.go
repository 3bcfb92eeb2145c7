package loadgen

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func traceFixture(t *testing.T) (*Spec, []Op) {
	t.Helper()
	spec := statSpec()
	ops, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return spec, ops
}

func TestTraceRoundTripBytes(t *testing.T) {
	spec, ops := traceFixture(t)
	var first bytes.Buffer
	if err := WriteTrace(&first, NewTraceHeader(spec), ops); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	h, back, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if h.Name != spec.Name || h.Seed != spec.Seed || h.Keys != spec.Keys {
		t.Fatalf("header drifted: %+v", h)
	}
	if !reflect.DeepEqual(ops, back) {
		t.Fatalf("ops drifted through the trace (%d vs %d)", len(ops), len(back))
	}
	// Re-recording the read-back ops must be byte-identical — the
	// property the record→replay determinism check rests on.
	var second bytes.Buffer
	if err := WriteTrace(&second, h, back); err != nil {
		t.Fatalf("re-WriteTrace: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-recorded trace differs byte-for-byte from the original")
	}
}

func TestTraceFileGzipRoundTrip(t *testing.T) {
	spec, ops := traceFixture(t)
	for _, name := range []string{"trace.jsonl", "trace.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := WriteTraceFile(path, NewTraceHeader(spec), ops); err != nil {
			t.Fatalf("WriteTraceFile(%s): %v", name, err)
		}
		_, back, err := ReadTraceFile(path)
		if err != nil {
			t.Fatalf("ReadTraceFile(%s): %v", name, err)
		}
		if !reflect.DeepEqual(ops, back) {
			t.Fatalf("%s: ops drifted through the file", name)
		}
	}
}

func TestTraceTornTail(t *testing.T) {
	spec, ops := traceFixture(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, NewTraceHeader(spec), ops); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	// Tear mid-op: drop the tail of the final line.
	torn := buf.Bytes()[:buf.Len()-7]
	h, back, err := ReadTrace(bytes.NewReader(torn))
	if !errors.Is(err, ErrTruncatedTrace) {
		t.Fatalf("torn tail: err = %v, want ErrTruncatedTrace", err)
	}
	if back != nil {
		t.Fatalf("torn tail returned %d ops; replay must be all-or-nothing", len(back))
	}
	if h.Magic != traceMagic {
		t.Fatalf("header should still parse before the tear: %+v", h)
	}
}

func TestTraceTornGzip(t *testing.T) {
	spec, ops := traceFixture(t)
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	if err := WriteTraceFile(path, NewTraceHeader(spec), ops); err != nil {
		t.Fatalf("WriteTraceFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, back, err := ReadTraceFile(path)
	if !errors.Is(err, ErrTruncatedTrace) {
		t.Fatalf("torn gzip: err = %v, want ErrTruncatedTrace", err)
	}
	if back != nil {
		t.Fatalf("torn gzip returned %d ops; replay must be all-or-nothing", len(back))
	}
}

func TestTraceRejectsForeignHeader(t *testing.T) {
	if _, _, err := ReadTrace(strings.NewReader(`{"magic":"not-a-trace","version":1}` + "\n")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("foreign magic: %v", err)
	}
	if _, _, err := ReadTrace(strings.NewReader(`{"magic":"brb-trace","version":99}` + "\n")); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
	if _, _, err := ReadTrace(strings.NewReader("")); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty trace: %v", err)
	}
}

// A fault timeline rides in the header, and traces recorded before
// timelines existed (no "faults" member) still replay.
func TestTraceHeaderFaults(t *testing.T) {
	spec, ops := traceFixture(t)
	timeline := spec.Faults
	if len(timeline) == 0 {
		t.Fatal("fixture spec lost its faults")
	}
	spec.Faults = nil
	var plain bytes.Buffer
	if err := WriteTrace(&plain, NewTraceHeader(spec), ops); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	headerLine, _, _ := strings.Cut(plain.String(), "\n")
	if strings.Contains(headerLine, "faults") {
		t.Fatalf("faultless header mentions faults: %s", headerLine)
	}
	if h, back, err := ReadTrace(bytes.NewReader(plain.Bytes())); err != nil || len(back) != len(ops) || h.Faults != nil {
		t.Fatalf("pre-timeline trace: err=%v ops=%d faults=%+v", err, len(back), h.Faults)
	}

	spec.Faults = timeline
	var first, second bytes.Buffer
	if err := WriteTrace(&first, NewTraceHeader(spec), ops); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	h, back, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil || !reflect.DeepEqual(h.Faults, spec.Faults) {
		t.Fatalf("faults drifted through the header: %+v (%v)", h.Faults, err)
	}
	if err := WriteTrace(&second, h, back); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-recorded trace with faults differs (%v)", err)
	}
	// A hand-edited header is validated like a spec.
	bad := strings.Replace(first.String(), `"do":"restart"`, `"do":"restore"`, 1)
	if bad == first.String() {
		t.Fatal("fixture timeline has no restart to corrupt")
	}
	if _, ops, err := ReadTrace(strings.NewReader(bad)); err == nil || ops != nil || !strings.Contains(err.Error(), "no sever of 0/1") {
		t.Fatalf("bad timeline in header: ops=%d err=%v", len(ops), err)
	}
}
