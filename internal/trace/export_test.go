package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Test-only accessors: nothing outside this package's tests needs them.

// Len reports the number of retained events.
func (l *Log) Len() int { return len(l.events) }

// Filter returns the retained events of one kind.
func (l *Log) Filter(kind Kind) []Event {
	var out []Event
	for _, ev := range l.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// WriteCSV exports the log as CSV with a header row.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_us", "kind", "actor", "request", "expert", "n", "dur_us", "detail"}); err != nil {
		return err
	}
	for _, ev := range l.Events() {
		rec := []string{
			strconv.FormatInt(ev.At.Microseconds(), 10),
			string(ev.Kind),
			ev.Actor,
			strconv.FormatInt(ev.Request, 10),
			strconv.FormatInt(int64(ev.Expert), 10),
			strconv.Itoa(ev.N),
			strconv.FormatInt(ev.Dur.Microseconds(), 10),
			ev.Detail,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports the log as a JSON array.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l.Events())
}

// Summary renders a one-line digest of the log.
func (l *Log) Summary() string {
	return fmt.Sprintf("trace: %d events (%d assigns, %d switches, %d batches, %d completions)",
		len(l.events), l.Count(KindAssign), l.Count(KindSwitch), l.Count(KindBatch), l.Count(KindComplete))
}

// Count reports the number of retained events of one kind.
func (l *Log) Count(kind Kind) int {
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
