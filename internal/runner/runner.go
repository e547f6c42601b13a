// Package runner is the parallel run engine for independent simulation
// jobs: a bounded worker pool (Pool) with deterministic, submission-order
// result collection (Map, Sweep) and per-key once-only memoization of
// shared expensive state (Memo).
//
// The engine is built for fan-outs whose jobs are independent,
// deterministic functions of their inputs — sweep points of an
// experiment grid, each owning its own simulation environment. Because
// results are collected by submission index, output is byte-identical no
// matter how many workers execute the jobs or in which order they
// finish; Workers(1) degenerates to a plain sequential loop.
//
// Nesting is safe: the goroutine that calls Map always executes jobs
// itself and helper goroutines are only spawned when a pool token is
// available (a non-blocking acquire), so a job that fans out again can
// never deadlock the pool — worst case it just runs its sub-jobs
// inline.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of goroutines a set of (possibly nested) Map
// and Sweep calls may occupy. The zero worker count (or any n <= 0)
// resolves to runtime.GOMAXPROCS(0). A Pool is safe for concurrent use.
type Pool struct {
	workers int
	tokens  atomic.Int64 // helper-goroutine tokens still available
}

// New returns a pool of n workers; n <= 0 means runtime.GOMAXPROCS(0).
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: n}
	// The calling goroutine of every Map is itself a worker, so only
	// n-1 helpers are ever needed at once.
	p.tokens.Store(int64(n - 1))
	return p
}

// Workers reports the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// tryAcquire takes one helper token without blocking.
func (p *Pool) tryAcquire() bool {
	for {
		n := p.tokens.Load()
		if n <= 0 {
			return false
		}
		if p.tokens.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (p *Pool) release() { p.tokens.Add(1) }

// PanicError is a captured job panic, carried as an error so one
// panicking sweep point fails its sweep instead of the whole process.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job panicked: %v\n%s", e.Value, e.Stack)
}

// Map runs fn(0..n-1) on up to p.Workers() goroutines and returns the
// results in index order. Jobs execute in any order; collection order is
// fixed, so callers observe identical output at every worker count. A
// job that panics contributes a *PanicError. All jobs run regardless of
// individual failures; the returned error joins every job error in
// index order (nil when all jobs succeed). A nil pool runs sequentially.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	runJob := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		out[i], errs[i] = fn(i)
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			runJob(i)
		}
		return out, errors.Join(errs...)
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			runJob(i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1 && p.tryAcquire(); spawned++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.release()
			work()
		}()
	}
	work() // the caller is always a worker: nested Maps make progress even with zero tokens
	wg.Wait()
	return out, errors.Join(errs...)
}

// Sweep is Map over a slice of inputs: it runs fn over every item and
// collects the outputs in item order.
func Sweep[In, Out any](p *Pool, items []In, fn func(i int, item In) (Out, error)) ([]Out, error) {
	return Map(p, len(items), func(i int) (Out, error) { return fn(i, items[i]) })
}

// Memo is a per-key once-only memoization table: concurrent Do calls
// for the same key block until the single builder finishes, then share
// its result — the pattern that lets parallel sweep points share one
// offline phase instead of recomputing or racing on it. The zero Memo
// is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// errBuildPanicked is what waiters of a memoized build observe when the
// builder panicked: the panic itself propagates on the builder's
// goroutine (and is captured by Map), while other keys' users see a
// plain error instead of a zero value masquerading as a result.
var errBuildPanicked = errors.New("runner: memoized build panicked")

// Do returns the memoized value for key, running build at most once per
// key across all goroutines. Errors are memoized alongside values: a
// failed build is not retried.
func (m *Memo[K, V]) Do(key K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e := m.m[key]
	if e == nil {
		e = &memoEntry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.err = errBuildPanicked // overwritten on normal return
		v, err := build()
		e.val, e.err = v, err
	})
	return e.val, e.err
}

// Len reports the number of memoized keys (including failed builds).
//
//detlint:allow unused the experiments tests count the grid cells a run filled; nothing else reports a memo's size
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
