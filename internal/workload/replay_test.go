package workload

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/coe"
)

// drainTimed materializes a source as comparable tuples.
type timedTuple struct {
	ID     int64
	Class  int
	At     time.Duration
	Tenant string
	Chain  []coe.ExpertID
}

func drainTuples(t *testing.T, src Source) []timedTuple {
	t.Helper()
	var out []timedTuple
	for {
		tr, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, timedTuple{
			ID: tr.Req.ID, Class: tr.Req.Class, At: tr.At, Tenant: tr.Req.Tenant,
			Chain: append([]coe.ExpertID(nil), tr.Req.Chain...),
		})
	}
}

// TestRecordReplayBitForBit: recording a Poisson stream and replaying
// the trace yields the identical stream — IDs, classes, offsets, and
// chains.
func TestRecordReplayBitForBit(t *testing.T) {
	board, err := BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := Poisson{Name: "p", Board: board, Rate: 25, N: 400, Seed: 42}
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(src)
	want := drainTuples(t, rec)

	replay, err := rec.Trace().Replay(board.Model)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Name() != "replay(p)" {
		t.Errorf("replay name = %q", replay.Name())
	}
	got := drainTuples(t, replay)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed stream differs from recorded one (%d vs %d entries)", len(got), len(want))
	}
}

// TestRecordReplayMixTenants: tenant tags survive the round trip
// through a multi-tenant mix.
func TestRecordReplayMixTenants(t *testing.T) {
	board, err := BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Poisson{Name: "t1", Board: board, Rate: 10, N: 50, Seed: 1}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Poisson{Name: "t2", Board: board, Rate: 10, N: 50, Seed: 2}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	mix, err := Mix{Name: "m", Tenants: []Source{t1, t2}}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(mix)
	want := drainTuples(t, rec)
	replay, err := rec.Trace().Replay(board.Model)
	if err != nil {
		t.Fatal(err)
	}
	got := drainTuples(t, replay)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed mix differs from recorded one")
	}
	tenants := map[string]bool{}
	for _, tu := range got {
		tenants[tu.Tenant] = true
	}
	if !tenants["t1"] || !tenants["t2"] {
		t.Errorf("replay lost tenant tags: %v", tenants)
	}
}

// TestTraceFileRoundTrip: Write then ReadTrace reproduces the trace
// exactly, and the format is compact.
func TestTraceFileRoundTrip(t *testing.T) {
	board, err := BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	src, err := Poisson{Name: "file", Board: board, Rate: 50, N: 1000, Seed: 7}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(src)
	drainTuples(t, rec)
	want := rec.Trace()

	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if per := buf.Len() / len(want.Entries); per > 16 {
		t.Errorf("trace encodes at %d bytes/entry, want compact (<=16)", per)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("trace file round trip differs")
	}

	// And the decoded trace replays identically to the in-memory one.
	a, err := want.Replay(board.Model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Replay(board.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drainTuples(t, a), drainTuples(t, b)) {
		t.Fatal("decoded trace replays differently")
	}
}

// TestReadTraceRejectsGarbage: bad magic and truncated bodies fail
// cleanly.
func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Error("ReadTrace accepted garbage magic")
	}
	board, err := BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	src, err := Poisson{Name: "x", Board: board, Rate: 10, N: 20, Seed: 1}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(src)
	drainTuples(t, rec)
	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("ReadTrace accepted a truncated trace")
	}
}

// TestReplayValidatesModel: a trace routed over board A must not replay
// against a model lacking its experts.
func TestReplayValidatesModel(t *testing.T) {
	board, err := BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	trace := &ArrivalTrace{Name: "bad", Entries: []ArrivalEntry{
		{At: 0, Class: 0, Chain: []coe.ExpertID{coe.ExpertID(board.Model.NumExperts())}},
	}}
	if _, err := trace.Replay(board.Model); err == nil {
		t.Error("Replay accepted an out-of-range expert")
	}
	if _, err := (&ArrivalTrace{Name: "e", Entries: []ArrivalEntry{{}}}).Replay(board.Model); err == nil {
		t.Error("Replay accepted an empty chain")
	}
}

// TestRecordIsTransparent: a recorded unbounded source still reports
// unbounded, and forwards its model.
func TestRecordIsTransparent(t *testing.T) {
	board, err := BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	steady, err := Steady{Name: "s", Board: board, Rate: 5, Seed: 3}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(steady)
	if !IsUnbounded(rec) {
		t.Error("recorded steady source lost its unboundedness")
	}
	if rec.Model() != board.Model {
		t.Error("recorded source lost its model")
	}
	// Recording through a horizon bounds it again.
	if IsUnbounded(Record(Horizon(steady, time.Second))) {
		t.Error("recorded horizon source claims unbounded")
	}
}
