package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/coe"
)

// ArrivalTrace is a recorded arrival log: everything needed to replay a
// served stream bit-for-bit — each request's arrival offset, class,
// tenant tag, and routed expert chain (the chain is recorded because it
// encodes the router's seeded pass/fail draws, which a (time, class)
// pair alone cannot reproduce). Traces persist to a compact varint
// binary format via Write/ReadTrace, so production arrival logs can be
// captured once and replayed against any build or configuration.
type ArrivalTrace struct {
	// Name is the recorded stream's name; the replay source reports
	// "replay(<name>)".
	Name    string
	Entries []ArrivalEntry
}

// ArrivalEntry is one recorded arrival.
type ArrivalEntry struct {
	// At is the arrival offset from the start of the stream.
	At time.Duration
	// Class is the request's component class.
	Class int
	// Tenant is the multi-tenant tag (empty for single-tenant streams).
	Tenant string
	// Chain is the request's routed expert chain.
	Chain []coe.ExpertID
}

// Record wraps a source so that every arrival it yields is also copied
// into an arrival trace: serve the wrapped source as usual, then
// collect the trace with Trace. The wrapper is transparent — it
// forwards Name, Model, and unboundedness — so recording changes
// nothing about the served stream.
func Record(src Source) *RecordingSource {
	return &RecordingSource{src: src, trace: &ArrivalTrace{Name: src.Name()}}
}

// RecordingSource tees a source into an ArrivalTrace; see Record.
type RecordingSource struct {
	src   Source
	trace *ArrivalTrace
}

// Name forwards the wrapped source's name.
func (r *RecordingSource) Name() string { return r.src.Name() }

// Model forwards the wrapped source's model, if it exposes one.
func (r *RecordingSource) Model() *coe.Model { return modelOf(r.src) }

// Unbounded forwards the wrapped source's unboundedness.
func (r *RecordingSource) Unbounded() bool { return IsUnbounded(r.src) }

// Next forwards the wrapped source, recording what it yields.
func (r *RecordingSource) Next() (TimedRequest, bool) {
	tr, ok := r.src.Next()
	if !ok {
		return tr, false
	}
	r.trace.Entries = append(r.trace.Entries, ArrivalEntry{
		At:     tr.At,
		Class:  tr.Req.Class,
		Tenant: tr.Req.Tenant,
		Chain:  append([]coe.ExpertID(nil), tr.Req.Chain...),
	})
	return tr, true
}

// Trace returns the arrivals recorded so far. It is complete once the
// wrapped source is exhausted (after the serving layer drained it).
func (r *RecordingSource) Trace() *ArrivalTrace { return r.trace }

// Replay returns a source that re-yields the trace bit-for-bit against
// the model: the same arrival offsets, classes, tenants, and expert
// chains, with request IDs renumbered sequentially from zero — exactly
// the IDs the recorded stream carried, since every arrival process
// numbers sequentially. It fails if the trace names an expert the model
// does not have (a trace only replays against the model that produced
// it, or one extending it).
func (t *ArrivalTrace) Replay(m *coe.Model) (Source, error) {
	if m == nil {
		return nil, fmt.Errorf("workload: replay of %q needs a model", t.Name)
	}
	for i, e := range t.Entries {
		if len(e.Chain) == 0 {
			return nil, fmt.Errorf("workload: trace %q entry %d has an empty chain", t.Name, i)
		}
		for _, id := range e.Chain {
			if id < 0 || int(id) >= m.NumExperts() {
				return nil, fmt.Errorf("workload: trace %q entry %d routes to expert %d outside model %q (%d experts)",
					t.Name, i, id, m.Name(), m.NumExperts())
			}
		}
	}
	return &replaySource{trace: t, model: m}, nil
}

type replaySource struct {
	trace *ArrivalTrace
	model *coe.Model
	pos   int
}

func (s *replaySource) Name() string { return "replay(" + s.trace.Name + ")" }

// Model reports the model the trace replays against.
func (s *replaySource) Model() *coe.Model { return s.model }

func (s *replaySource) Next() (TimedRequest, bool) {
	if s.pos >= len(s.trace.Entries) {
		return TimedRequest{}, false
	}
	e := s.trace.Entries[s.pos]
	r := coe.NewRequest(int64(s.pos), e.Class, e.Chain)
	r.Tenant = e.Tenant
	s.pos++
	return TimedRequest{Req: r, At: e.At}, true
}

// traceMagic heads the binary trace format; the trailing digit is the
// format version.
const traceMagic = "COSVTR1\n"

// Write persists the trace in the compact binary format: the magic
// header, then the stream name and entries as uvarint-framed records.
// A 10k-request Poisson trace lands around 60 KB.
func (t *ArrivalTrace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	writeUvarint := func(v uint64) {
		var buf [binary.MaxVarintLen64]byte
		bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	writeString := func(s string) {
		writeUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	writeString(t.Name)
	writeUvarint(uint64(len(t.Entries)))
	for i, e := range t.Entries {
		if e.At < 0 {
			return fmt.Errorf("workload: trace %q entry %d has negative arrival offset %v", t.Name, i, e.At)
		}
		writeUvarint(uint64(e.At))
		writeUvarint(uint64(e.Class))
		writeString(e.Tenant)
		writeUvarint(uint64(len(e.Chain)))
		for _, id := range e.Chain {
			writeUvarint(uint64(id))
		}
	}
	return bw.Flush()
}

// Sanity bounds for ReadTrace: a corrupt length prefix must not turn
// into an absurd allocation.
const (
	maxTraceString = 1 << 12 // stream / tenant name bytes
	maxTraceChain  = 1 << 10 // stages per request
	// maxTracePresize caps the entry slice ReadTrace allocates up front:
	// the count is only a claim until the entries are read, so a longer
	// trace grows by append.
	maxTracePresize = 1 << 12
)

// ReadTrace reads a trace in the format Write produces.
func ReadTrace(r io.Reader) (*ArrivalTrace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("workload: not an arrival trace (bad magic %q)", magic)
	}
	readUvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("workload: reading trace %s: %w", what, err)
		}
		return v, nil
	}
	// readBounded reads a value that must fit its signed Go type: a
	// larger one would wrap, so it reads back as a different trace.
	readBounded := func(what string, max uint64) (uint64, error) {
		v, err := readUvarint(what)
		if err == nil && v > max {
			err = fmt.Errorf("workload: trace %s %d exceeds %d", what, v, max)
		}
		return v, err
	}
	readString := func(what string) (string, error) {
		n, err := readUvarint(what + " length")
		if err != nil {
			return "", err
		}
		if n > maxTraceString {
			return "", fmt.Errorf("workload: trace %s length %d exceeds %d", what, n, maxTraceString)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", fmt.Errorf("workload: reading trace %s: %w", what, err)
		}
		return string(buf), nil
	}

	t := &ArrivalTrace{}
	var err error
	if t.Name, err = readString("name"); err != nil {
		return nil, err
	}
	count, err := readUvarint("entry count")
	if err != nil {
		return nil, err
	}
	if count > DrainCap {
		return nil, fmt.Errorf("workload: trace claims %d entries, above the %d cap", count, DrainCap)
	}
	t.Entries = make([]ArrivalEntry, 0, min(count, maxTracePresize))
	for i := uint64(0); i < count; i++ {
		var e ArrivalEntry
		at, err := readBounded("arrival offset", math.MaxInt64)
		if err != nil {
			return nil, err
		}
		e.At = time.Duration(at)
		class, err := readBounded("class", math.MaxInt)
		if err != nil {
			return nil, err
		}
		e.Class = int(class)
		if e.Tenant, err = readString("tenant"); err != nil {
			return nil, err
		}
		stages, err := readUvarint("chain length")
		if err != nil {
			return nil, err
		}
		if stages == 0 || stages > maxTraceChain {
			return nil, fmt.Errorf("workload: trace entry %d chain length %d outside [1,%d]", i, stages, maxTraceChain)
		}
		e.Chain = make([]coe.ExpertID, stages)
		for j := range e.Chain {
			id, err := readBounded("chain expert", math.MaxInt32)
			if err != nil {
				return nil, err
			}
			e.Chain[j] = coe.ExpertID(id)
		}
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}
