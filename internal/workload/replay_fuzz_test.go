package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// traceBytes builds a raw trace: the magic, an empty stream name, the
// claimed entry count, then the given uvarint fields (an entry is
// offset, class, tenant length and bytes, chain length, expert IDs).
func traceBytes(count uint64, fields ...uint64) []byte {
	b := append([]byte(traceMagic), 0)
	b = binary.AppendUvarint(b, count)
	for _, v := range fields {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// The three corrupt inputs ReadTrace must refuse without a large
// up-front allocation or a silently wrapped value.
var (
	// A 13-byte header claiming DrainCap entries, then EOF.
	traceClaimsDrainCap = traceBytes(DrainCap)
	// One entry whose arrival offset does not fit a time.Duration.
	traceOffsetOverflow = traceBytes(1, 1<<63, 0, 0, 1, 1)
	// One entry whose expert ID wraps to 1 as an int32.
	traceExpertOverflow = traceBytes(1, 0, 0, 0, 1, 1<<33+1)
	// One entry whose class does not fit an int.
	traceClassOverflow = traceBytes(1, 0, 1<<63, 0, 1, 1)
)

// TestReadTraceBoundsPresize: a short file whose entry count claims the
// cap fails at EOF without first allocating room for every claimed
// entry (about 235 MB at DrainCap).
func TestReadTraceBoundsPresize(t *testing.T) {
	if n := len(traceClaimsDrainCap); n != 13 {
		t.Fatalf("header is %d bytes, want 13", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(traceClaimsDrainCap))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadTrace accepted a trace with no entries after a DrainCap count")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("ReadTrace allocated %d bytes before failing, want under 1 MiB", got)
	}
}

// TestReadTraceRejectsOverflow: values that do not fit their Go types
// are errors, not negative offsets or wrapped expert IDs.
func TestReadTraceRejectsOverflow(t *testing.T) {
	for name, data := range map[string][]byte{
		"offset": traceOffsetOverflow,
		"expert": traceExpertOverflow,
		"class":  traceClassOverflow,
	} {
		if tr, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadTrace accepted %+v", name, tr.Entries)
		}
	}
	// The largest values that fit still read; a class is bounded by int.
	tr, err := ReadTrace(bytes.NewReader(traceBytes(1, 1<<63-1, math.MaxInt, 0, 1, 1<<31-1)))
	if err != nil {
		t.Fatal(err)
	}
	if e := tr.Entries[0]; e.At != 1<<63-1 || e.Class != math.MaxInt || e.Chain[0] != 1<<31-1 {
		t.Errorf("read %+v, want the maximum offset, class and expert", e)
	}
}

// FuzzReadTrace: ReadTrace never panics, and whatever it accepts
// writes back out and reads in again as an equal trace.
func FuzzReadTrace(f *testing.F) {
	board, err := BoardA().Build()
	if err != nil {
		f.Fatal(err)
	}
	var tenants []Source
	for i, name := range []string{"a", "b"} {
		src, err := Poisson{Name: name, Board: board, Rate: 10, N: 8, Seed: int64(i + 1)}.NewSource()
		if err != nil {
			f.Fatal(err)
		}
		tenants = append(tenants, src)
	}
	mix, err := Mix{Name: "seed", Tenants: tenants}.NewSource()
	if err != nil {
		f.Fatal(err)
	}
	rec := Record(mix)
	Drain(rec)
	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{buf.Bytes(), traceClaimsDrainCap, traceOffsetOverflow, traceExpertOverflow, traceClassOverflow} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("Write of a trace ReadTrace accepted: %v", err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("ReadTrace of Write's output: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}
