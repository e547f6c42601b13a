package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Error("New(0) produced a pool with no workers")
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("Workers() = %d, want 7", got)
	}
}

func TestMapCollectsInSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		out, err := Map(p, 100, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // jitter completion order
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNilPoolAndEmptyInput(t *testing.T) {
	out, err := Map(nil, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 || out[2] != 2 {
		t.Errorf("nil pool: out=%v err=%v", out, err)
	}
	if out, err := Map(New(4), 0, func(i int) (int, error) { return i, nil }); out != nil || err != nil {
		t.Errorf("empty map: out=%v err=%v", out, err)
	}
}

func TestMapAggregatesErrorsInIndexOrder(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(New(4), 10, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if ran.Load() != 10 {
		t.Errorf("only %d of 10 jobs ran; failures must not cancel siblings", ran.Load())
	}
	text := err.Error()
	if !strings.Contains(text, "job 3 failed") || !strings.Contains(text, "job 7 failed") {
		t.Errorf("error %q missing a job failure", text)
	}
	if strings.Index(text, "job 3") > strings.Index(text, "job 7") {
		t.Errorf("errors not in index order: %q", text)
	}
}

func TestMapCapturesPanics(t *testing.T) {
	out, err := Map(New(4), 4, func(i int) (string, error) {
		if i == 2 {
			panic("boom")
		}
		return "ok", nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T does not unwrap to *PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic payload not captured: %+v", pe)
	}
	if out[0] != "ok" || out[3] != "ok" {
		t.Error("healthy jobs' results lost")
	}
}

// TestNestedMapDoesNotDeadlock exercises the caller-participates design:
// outer jobs holding every pool token fan out again and must still
// complete (inline if necessary).
func TestNestedMapDoesNotDeadlock(t *testing.T) {
	p := New(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err := Map(p, 8, func(i int) (int, error) {
			inner, err := Map(p, 8, func(j int) (int, error) { return i*10 + j, nil })
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, v := range inner {
				sum += v
			}
			return sum, nil
		})
		if err != nil {
			t.Error(err)
		}
		for i, v := range out {
			want := i*80 + 28
			if v != want {
				t.Errorf("out[%d] = %d, want %d", i, v, want)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

func TestSweep(t *testing.T) {
	items := []string{"a", "bb", "ccc"}
	out, err := Sweep(New(4), items, func(i int, s string) (int, error) { return i * len(s), nil })
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 2 || out[2] != 6 {
		t.Errorf("sweep results %v", out)
	}
}

func TestMemoBuildsOncePerKey(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int64
	_, err := Map(New(8), 64, func(i int) (int, error) {
		return m.Do(fmt.Sprintf("key-%d", i%4), func() (int, error) {
			builds.Add(1)
			time.Sleep(time.Millisecond) // widen the race window
			return i % 4, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 4 {
		t.Errorf("built %d times, want 4 (one per key)", builds.Load())
	}
	if m.Len() != 4 {
		t.Errorf("memo holds %d keys, want 4", m.Len())
	}
}

func TestMemoMemoizesErrors(t *testing.T) {
	var m Memo[int, int]
	var builds int
	build := func() (int, error) { builds++; return 0, errors.New("offline phase failed") }
	if _, err := m.Do(1, build); err == nil {
		t.Fatal("error not returned")
	}
	if _, err := m.Do(1, build); err == nil {
		t.Fatal("error not memoized")
	}
	if builds != 1 {
		t.Errorf("failed build retried %d times", builds)
	}
}

func TestMemoPanickedBuildLeavesError(t *testing.T) {
	var m Memo[int, int]
	func() {
		defer func() { recover() }()
		m.Do(1, func() (int, error) { panic("mid-build") })
	}()
	if _, err := m.Do(1, func() (int, error) { return 42, nil }); err == nil {
		t.Error("waiters of a panicked build must see an error, not a zero value")
	}
}
