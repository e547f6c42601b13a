package cluster

import (
	"strconv"
	"testing"
)

// formatInterconnect writes a model in ParseInterconnect's text form:
// the inverse the fuzz target checks the parser against.
func formatInterconnect(ic Interconnect) string {
	if ic == (Interconnect{}) {
		return ""
	}
	s := ic.Dispatch.String() + "/" + ic.IntraBoard.String() + "/" + ic.InterNode.String()
	if ic.BoardSize > 0 {
		s += "@" + strconv.Itoa(ic.BoardSize)
	}
	return s
}

// FuzzParseInterconnect: any text parses to a model or an error, never
// a panic; a model that parses validates against fleets of 1 to 8 nodes
// without a panic, and its text form parses back to the same model.
func FuzzParseInterconnect(f *testing.F) {
	for _, seed := range []string{
		// The CLI golden's and README's model.
		"200us/100us/600us@2",
		// Inputs the CLI rejects.
		"2562047h/0s/0s", "1s/2s", "1s/2s/3s@0", "1s/2s/3s@x",
		// Edge shapes.
		"", "0s/0s/0s", " 1ms / 2ms / 3ms @ 4 ", "-1s/1s/1s", "1s/1s/1s@", "1s/1s/1s@2@3", "1m/1m/1m@1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ic, err := ParseInterconnect(spec)
		if err != nil {
			return
		}
		text := formatInterconnect(ic)
		again, err := ParseInterconnect(text)
		if err != nil {
			t.Fatalf("%q: formatted as %q, which does not parse: %v", spec, text, err)
		}
		if again != ic {
			t.Fatalf("%q: round trip through %q gave %+v, want %+v", spec, text, again, ic)
		}
		for n := 1; n <= 8; n++ {
			_ = ic.validate(n)
		}
	})
}
