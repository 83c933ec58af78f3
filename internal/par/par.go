// Package par provides the process-wide bounded worker pool behind
// every parallel hot path in the repository: residue-level fan-out in
// internal/ring, kernel-level rotation/diagonal fan-out in
// internal/core and internal/apps/distance, and anything else that
// wants cheap data-parallel loops without oversubscribing the machine.
//
// The pool is token-based. A budget of Parallelism()-1 helper tokens is
// shared by the whole process; every For call tries to borrow helpers
// from that budget and always degrades gracefully to running on the
// calling goroutine when the budget is exhausted. The caller itself is
// the one worker that needs no token, so:
//
//   - a single caller fans out to at most Parallelism() concurrent
//     workers;
//   - nested For calls (a core kernel fanning out rotations whose ring
//     ops fan out across residues) never multiply: inner calls find the
//     tokens already borrowed and run serially in place;
//   - many independent callers (internal/serve's per-session workers)
//     share the same budget, so heavy multi-session traffic cannot
//     oversubscribe the CPU with helpers — total helper goroutines
//     stay bounded by the budget regardless of session count.
//
// Acquisition never blocks (a token is taken only if instantly
// available), so the pool cannot deadlock under any nesting.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolState is the immutable configuration snapshot For operates on;
// SetParallelism swaps the whole snapshot atomically so in-flight For
// calls keep releasing tokens into the channel they borrowed from.
type poolState struct {
	parallelism int
	// tokens holds the helper budget: parallelism-1 buffered slots.
	// Sending acquires, receiving releases. Nil when parallelism <= 1.
	tokens chan struct{}
}

var state atomic.Pointer[poolState]

// helperSpawns counts helper goroutines ever spawned; tests use it to
// prove the zero-goroutine fallback really spawns nothing.
var helperSpawns atomic.Int64

func init() { SetParallelism(runtime.GOMAXPROCS(0)) }

// Parallelism returns the configured worker-pool width (the maximum
// number of concurrent workers a single For call may use, caller
// included).
func Parallelism() int { return state.Load().parallelism }

// SetParallelism resizes the pool to n concurrent workers (n-1 helper
// tokens). n <= 1 disables helper goroutines entirely: every For runs
// serially on its caller. The default is GOMAXPROCS at init; the
// chocoserver -parallelism flag and benchmarks are the intended
// callers.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	s := &poolState{parallelism: n}
	if n > 1 {
		s.tokens = make(chan struct{}, n-1)
	}
	state.Store(s)
}

// MaxWorkers returns the worker-count upper bound a ForWorker(n, ...)
// call may use right now: min(n, Parallelism()), at least 1. Callers
// size per-worker scratch with it.
func MaxWorkers(n int) int {
	p := Parallelism()
	if n < 1 {
		n = 1
	}
	if n < p {
		return n
	}
	return p
}

// For runs fn(i) for every i in [0, n), potentially concurrently, and
// returns when all iterations are done. Iterations are distributed
// dynamically (an atomic cursor), so uneven iteration costs balance
// across workers.
//
// If n <= 1, the helper budget is exhausted, or the pool is disabled,
// every iteration runs in order on the calling goroutine with no
// goroutine spawned. If any iteration panics, remaining iterations are
// abandoned, all workers are joined, and the first panic value is
// re-raised on the caller.
func For(n int, fn func(i int)) {
	ForWorker(n, func(_, i int) { fn(i) })
}

// ForWorker is For with a stable worker index: fn(w, i) runs iteration
// i on worker w, where w is in [0, MaxWorkers(n)) and the caller is
// always worker 0. Iterations sharing a worker index run sequentially,
// so callers can give each worker private scratch (e.g. a partial-sum
// accumulator) indexed by w and reduce the scratch after ForWorker
// returns. Because every reduction in this codebase is exact modular
// arithmetic, worker-grouped partial sums recombine to bit-identical
// results regardless of how iterations were distributed.
func ForWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	s := state.Load()
	extra := s.acquire(n - 1)
	if extra == 0 {
		// Zero-goroutine fallback: serial, in order, on the caller.
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}

	var (
		cursor   atomic.Int64
		panicked atomic.Pointer[workerPanic]
		wg       sync.WaitGroup
	)
	work := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &workerPanic{value: r})
				// Abandon remaining iterations so other workers drain.
				cursor.Store(int64(n))
			}
		}()
		for {
			i := cursor.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(w, int(i))
		}
	}

	wg.Add(extra)
	helperSpawns.Add(int64(extra))
	for w := 1; w <= extra; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() { <-s.tokens }()
			work(w)
		}(w)
	}
	work(0) // the caller is worker 0
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.value)
	}
}

// workerPanic carries the first recovered panic value from a worker to
// the caller.
type workerPanic struct{ value any }

// acquire borrows up to max helper tokens, as many as are free right
// now, and returns how many it took.
func (s *poolState) acquire(max int) int {
	if s.tokens == nil {
		return 0
	}
	if max > s.parallelism-1 {
		max = s.parallelism - 1
	}
	n := 0
	for n < max {
		select {
		case s.tokens <- struct{}{}:
			n++
		default:
			return n
		}
	}
	return n
}

// Serial runs fn on the calling goroutine while holding every helper
// token that is free when it starts, so the For and ForWorker calls fn
// makes find the budget exhausted and run in place, in order. A code
// path that must take the same time whether or not the machine has a
// spare core uses it: a fan-out joins on its slowest worker, so it
// slows by up to the fan-out width when a co-tenant holds one core. The
// tokens are the process-wide budget, so other goroutines' loops run in
// place too until fn returns. It never blocks: tokens another caller
// holds when Serial starts and returns while fn runs are free for fn's
// For calls to take.
func Serial(fn func()) {
	s := state.Load()
	held := s.acquire(s.parallelism - 1)
	defer func() {
		for ; held > 0; held-- {
			<-s.tokens
		}
	}()
	fn()
}
