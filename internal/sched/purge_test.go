package sched

import (
	"testing"

	"repro/internal/coe"
	"repro/internal/sim"
)

// TestPurgeReturnsBacklogInOrder pins the crash path: Purge hands back
// every queued request — the started head group's undrained tail
// included — in queue order, and leaves the queue truly empty (indexes
// reset, pending zero) so a restarted node starts from scratch.
func TestPurgeReturnsBacklogInOrder(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	for i, e := range []coe.ExpertID{1, 1, 2, 2, 1} {
		push(q, expert(e), req(int64(i), e))
	}
	// Start the head group (expert 1: requests 0,1,4) and drain one item,
	// as a crashed-mid-batch executor would have.
	if batch := q.TakeFromHead(nil, 1); len(batch) != 1 || batch[0].ID != 0 {
		t.Fatalf("TakeFromHead = %v", batch)
	}
	got := q.Purge()
	want := []int64{1, 4, 2, 3} // head tail first, then the expert-2 group
	if len(got) != len(want) {
		t.Fatalf("purged %d requests, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.ID != want[i] {
			t.Errorf("purge[%d] = request %d, want %d", i, r.ID, want[i])
		}
	}
	if q.Len() != 0 || q.Groups() != 0 || q.Pending() != 0 {
		t.Errorf("after purge: len=%d groups=%d pending=%v, want all zero", q.Len(), q.Groups(), q.Pending())
	}
	if q.Purge() != nil {
		t.Error("purging an empty queue returned requests")
	}

	// The expert index was reset: a post-purge enqueue opens a fresh
	// group instead of merging into a purged one, and drains normally.
	push(q, expert(1), req(10, 1))
	if q.Len() != 1 || q.Groups() != 1 {
		t.Fatalf("post-purge enqueue: len=%d groups=%d", q.Len(), q.Groups())
	}
	if batch := q.TakeFromHead(nil, 4); len(batch) != 1 || batch[0].ID != 10 {
		t.Fatalf("post-purge drain = %v", batch)
	}
}

// TestCountIntoTracksBacklog: two queues sharing one owner counter keep
// it equal to the sum of their lengths, and its idle bit equal to the
// sum being 0, through Enqueue, TakeFromHead and Purge; a detached queue
// keeps working but stops moving either. The idle word's other bits are
// left alone.
func TestCountIntoTracksBacklog(t *testing.T) {
	env := sim.NewEnv()
	a, b := testQueue(t, env, ModeGrouped), testQueue(t, env, ModeFIFO)
	var backlog int
	const others = 0b1011 << 60
	idle := uint64(others)
	owner := Backlog{N: &backlog, Idle: &idle, Mask: 1 << 5}
	a.CountInto(&owner)
	b.CountInto(&owner)
	owner.Set(0)
	attached := []*Queue{a, b}
	want := func(step string, n int) {
		t.Helper()
		held := 0
		for _, q := range attached {
			held += q.Len()
		}
		if backlog != n || backlog != held {
			t.Fatalf("%s: counter = %d, want %d (attached queues hold %d)", step, backlog, n, held)
		}
		if wantIdle := uint64(others) | map[bool]uint64{true: 1 << 5}[n == 0]; idle != wantIdle {
			t.Fatalf("%s: idle word %#x with counter %d, want %#x", step, idle, n, wantIdle)
		}
	}
	want("attach", 0)
	for i, e := range []coe.ExpertID{1, 1, 2, 3} {
		push(a, expert(e), req(int64(i), e))
		push(b, expert(e), req(int64(10+i), e))
	}
	want("enqueue", 8)
	a.TakeFromHead(nil, 1)
	want("take one", 7)
	a.TakeFromHead(nil, 4) // the rest of the expert-1 group: one request
	b.TakeFromHead(nil, 2)
	want("take groups", 4)
	if got := len(a.Purge()); got != 2 {
		t.Fatalf("purged %d requests, want 2", got)
	}
	want("purge", 2)
	b.TakeFromHead(nil, 1)
	b.TakeFromHead(nil, 1)
	want("drained", 0)
	push(b, expert(4), req(19, 4))
	want("refilled", 1)
	b.Purge()
	want("purge to empty", 0)

	push(b, expert(4), req(22, 4))
	b.CountInto(nil)
	attached = attached[:1]
	owner.Set(backlog - b.Len()) // the owner recounts without b
	want("detach", 0)
	push(b, expert(4), req(20, 4))
	b.TakeFromHead(nil, 1)
	b.Purge()
	want("detached queue moves", 0)
	push(a, expert(5), req(21, 5))
	want("attached queue's enqueue", 1)
}
