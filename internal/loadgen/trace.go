package loadgen

// Trace record/replay: a run's op sequence persisted as timestamped
// JSONL — one header line, then one op per line — so any run can be
// reproduced bit-for-bit later, on a different topology, or diffed
// against a re-generation of its spec. A path ending in .gz is
// transparently gzip-compressed; the line-oriented layout compresses
// well and still streams.
//
// Torn tails are a fact of life for traces recorded up to a crash: a
// trailing line that is not valid JSON (or a gzip stream cut mid-block)
// reads back as ErrTruncatedTrace, and ReadTrace returns NO ops in that
// case — a replay must be all-or-nothing, never a silent prefix.

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// traceMagic identifies a BRB op trace; traceVersion gates format
// evolution (readers reject versions they don't know).
const (
	traceMagic   = "brb-trace"
	traceVersion = 1
)

// ErrTruncatedTrace reports a trace whose tail is torn — typically a
// recorder that died mid-write. Replays refuse such traces outright
// rather than applying a partial op.
var ErrTruncatedTrace = errors.New("loadgen: truncated trace (torn tail)")

// TraceHeader is the trace's first JSONL line: everything a replay
// needs that is not an op — the keyspace the ids index, the SLO classes
// the ops name, and the fault timeline played under them (omitted when
// empty, so traces recorded before timelines existed read back as is).
type TraceHeader struct {
	Magic   string      `json:"magic"`
	Version int         `json:"version"`
	Name    string      `json:"name"`
	Seed    uint64      `json:"seed"`
	Keys    int         `json:"keys"`
	Classes []ClassSpec `json:"classes"`
	Faults  []FaultSpec `json:"faults,omitempty"`
}

// NewTraceHeader builds the header describing a spec's generated ops.
func NewTraceHeader(spec *Spec) TraceHeader {
	return TraceHeader{
		Magic:   traceMagic,
		Version: traceVersion,
		Name:    spec.Name,
		Seed:    spec.Seed,
		Keys:    spec.Keys,
		Classes: spec.Classes,
		Faults:  spec.Faults,
	}
}

// ClassBias mirrors Spec.ClassBias for replayed runs, which have a
// header instead of a spec.
func (h *TraceHeader) ClassBias(name string) int64 {
	for _, cl := range h.Classes {
		if cl.Name == name {
			return int64(cl.Priority) * ClassBiasUnit
		}
	}
	return 0
}

// WriteTrace writes the header and ops to w as JSONL. Encoding is
// deterministic (fixed field order, omitted zero fields), so recording
// the same op sequence twice yields identical bytes — the property the
// record→replay CI check leans on.
func WriteTrace(w io.Writer, h TraceHeader, ops []Op) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("loadgen: write trace header: %w", err)
	}
	for i := range ops {
		if err := enc.Encode(&ops[i]); err != nil {
			return fmt.Errorf("loadgen: write trace op %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteTraceFile records to path, gzip-compressed when the path ends
// in .gz. The file is written via a temp-and-rename so a crash never
// leaves a half-written trace under the final name (the torn-tail
// reader guards the cases rename can't).
func WriteTraceFile(path string, h TraceHeader, ops []Op) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err = WriteTrace(w, h, ops); err != nil {
		return err
	}
	if gz != nil {
		if err = gz.Close(); err != nil {
			return err
		}
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadTrace parses a JSONL trace. On any tear — an op line that is not
// valid JSON, or a truncated gzip stream — it returns ErrTruncatedTrace
// and no ops.
func ReadTrace(r io.Reader) (TraceHeader, []Op, error) {
	var h TraceHeader
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return h, nil, readTearErr(err)
		}
		return h, nil, fmt.Errorf("loadgen: empty trace")
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return h, nil, fmt.Errorf("loadgen: bad trace header: %w", err)
	}
	if h.Magic != traceMagic {
		return h, nil, fmt.Errorf("loadgen: not a brb trace (magic %q)", h.Magic)
	}
	if h.Version != traceVersion {
		return h, nil, fmt.Errorf("loadgen: unsupported trace version %d (reader knows %d)", h.Version, traceVersion)
	}
	if err := normalizeFaults(h.Faults); err != nil {
		return h, nil, fmt.Errorf("loadgen: bad trace header: %w", err)
	}
	var ops []Op
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var op Op
		if err := json.Unmarshal(line, &op); err != nil {
			return h, nil, fmt.Errorf("%w: op line %d: %v", ErrTruncatedTrace, len(ops)+1, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return h, nil, readTearErr(err)
	}
	return h, ops, nil
}

// ReadTraceFile reads a trace from path, transparently decompressing
// when the path ends in .gz.
func ReadTraceFile(path string) (TraceHeader, []Op, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceHeader{}, nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return TraceHeader{}, nil, readTearErr(err)
		}
		defer gz.Close()
		r = gz
	}
	return ReadTrace(r)
}

// readTearErr maps low-level stream tears (a gzip body cut mid-block
// surfaces as io.ErrUnexpectedEOF or a flate corruption error) onto
// ErrTruncatedTrace so callers have one sentinel to test.
func readTearErr(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) ||
		strings.Contains(err.Error(), "flate") || strings.Contains(err.Error(), "gzip") {
		return fmt.Errorf("%w: %v", ErrTruncatedTrace, err)
	}
	return err
}
