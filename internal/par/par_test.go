package par

import (
	"sync/atomic"
	"testing"
)

// setParallelism configures the pool for one test and restores the
// default afterwards (other packages' tests share the process-global
// pool).
func setParallelism(t *testing.T, n int) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(old) })
}

// TestTokenBudgetNestedFor proves the pool never exceeds its token
// budget even when every iteration fans out again: concurrent fn
// executions are counted with an atomic gauge and the observed maximum
// must stay within Parallelism(). Run under -race (make race) this
// also shakes out synchronization bugs in the cursor/token paths.
func TestTokenBudgetNestedFor(t *testing.T) {
	const p = 4
	setParallelism(t, p)

	var active, peak atomic.Int64
	enter := func() {
		a := active.Add(1)
		for {
			old := peak.Load()
			if a <= old || peak.CompareAndSwap(old, a) {
				break
			}
		}
	}
	leave := func() { active.Add(-1) }

	var done atomic.Int64
	For(64, func(i int) {
		enter()
		defer leave()
		For(16, func(j int) {
			enter()
			defer leave()
			done.Add(1)
		})
	})

	if got := done.Load(); got != 64*16 {
		t.Fatalf("ran %d inner iterations, want %d", got, 64*16)
	}
	// A single root caller can put at most p goroutines to work; each
	// nested body executes on one of those goroutines. The gauge counts
	// the outer and inner frames of the same goroutine separately, so
	// the bound is 2p, and the helper-goroutine bound is what matters:
	// at most p concurrent workers existed at any instant.
	if got := peak.Load(); got > 2*p {
		t.Fatalf("observed %d concurrent frames, budget allows at most %d", got, 2*p)
	}
}

// TestBudgetExhaustedRunsSerial proves that once the helpers are all
// borrowed, an inner For runs serially in place: with parallelism 2 the
// single helper token is held by the outer loop, so inner loops must
// observe in-order execution.
func TestBudgetExhaustedRunsSerial(t *testing.T) {
	setParallelism(t, 2)

	outerDone := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		// Hold the only helper token by keeping a 2-iteration For alive.
		For(2, func(i int) {
			if i == 1 {
				close(acquired)
				<-outerDone
			} else {
				<-outerDone
			}
		})
	}()
	<-acquired

	before := helperSpawns.Load()
	var order []int
	For(8, func(i int) { order = append(order, i) })
	close(outerDone)

	if got := helperSpawns.Load(); got != before {
		t.Fatalf("spawned %d helper(s) with the budget exhausted, want 0", got-before)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback ran out of order: %v", order)
		}
	}
}

// TestZeroGoroutineFallback pins the no-spawn cases: n==1, n==0, and a
// disabled pool all run on the caller without goroutines.
func TestZeroGoroutineFallback(t *testing.T) {
	setParallelism(t, 8)
	before := helperSpawns.Load()
	ran := 0
	For(1, func(i int) { ran++ })
	For(0, func(i int) { t.Error("For(0) ran an iteration") })
	if ran != 1 {
		t.Fatalf("For(1) ran %d iterations", ran)
	}
	if got := helperSpawns.Load(); got != before {
		t.Fatalf("For(1)/For(0) spawned %d helper(s)", got-before)
	}

	setParallelism(t, 1)
	var order []int
	For(16, func(i int) { order = append(order, i) })
	if got := helperSpawns.Load(); got != before {
		t.Fatalf("disabled pool spawned %d helper(s)", got-before)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("disabled pool ran out of order: %v", order)
		}
	}
}

// TestPanicPropagation proves a panic in any worker is re-raised on the
// caller with the original value, in both the parallel and the serial
// fallback regimes, and that the pool is still usable afterwards
// (tokens were returned).
func TestPanicPropagation(t *testing.T) {
	for _, p := range []int{1, 4} {
		setParallelism(t, p)
		func() {
			defer func() {
				r := recover()
				if r != "boom-7" {
					t.Fatalf("parallelism %d: recovered %v, want boom-7", p, r)
				}
			}()
			For(32, func(i int) {
				if i == 7 {
					panic("boom-7")
				}
			})
			t.Fatalf("parallelism %d: For returned instead of panicking", p)
		}()

		// The budget must be fully released: a follow-up parallel For
		// must complete all iterations.
		var n atomic.Int64
		For(32, func(i int) { n.Add(1) })
		if n.Load() != 32 {
			t.Fatalf("parallelism %d: post-panic For ran %d/32", p, n.Load())
		}
	}
}

// TestForWorkerScratchPartition proves worker indices are stable and in
// range so per-worker scratch never races: every iteration lands on a
// worker < MaxWorkers(n), and per-worker counters sum to n.
func TestForWorkerScratchPartition(t *testing.T) {
	setParallelism(t, 4)
	const n = 1024
	mw := MaxWorkers(n)
	if mw != 4 {
		t.Fatalf("MaxWorkers(%d) = %d, want 4", n, mw)
	}
	// Iterations are claimed from a shared cursor, so which worker runs
	// how many is scheduling-dependent — on a loaded machine the helper
	// goroutines can occasionally drain every iteration before the
	// caller claims one. The caller-participates property is therefore
	// checked across attempts, while the invariants (index range, total
	// coverage) hold on every single run.
	callerWorked := false
	for attempt := 0; attempt < 10 && !callerWorked; attempt++ {
		counts := make([]int64, mw)
		ForWorker(n, func(w, i int) {
			if w < 0 || w >= mw {
				t.Errorf("worker index %d out of range [0,%d)", w, mw)
				return
			}
			atomic.AddInt64(&counts[w], 1)
		})
		var total int64
		for _, c := range counts {
			total += c
		}
		if total != n {
			t.Fatalf("per-worker counts sum to %d, want %d", total, n)
		}
		callerWorked = counts[0] > 0
	}
	if !callerWorked {
		t.Error("caller (worker 0) did no work in any attempt")
	}

	if got := MaxWorkers(2); got != 2 {
		t.Fatalf("MaxWorkers(2) = %d, want 2 (clamped by n)", got)
	}
	setParallelism(t, 1)
	if got := MaxWorkers(100); got != 1 {
		t.Fatalf("MaxWorkers with disabled pool = %d, want 1", got)
	}
}

// TestSerialRunsInPlace proves that loops inside Serial run on the
// caller, in order, without a helper, and that Serial hands its tokens
// back on return and on panic.
func TestSerialRunsInPlace(t *testing.T) {
	setParallelism(t, 4)
	before := helperSpawns.Load()
	var order []int
	Serial(func() {
		For(16, func(i int) { order = append(order, i) })
		ForWorker(8, func(w, i int) {
			if w != 0 {
				t.Errorf("ForWorker inside Serial ran iteration %d on worker %d", i, w)
			}
		})
	})
	if got := helperSpawns.Load(); got != before {
		t.Fatalf("spawned %d helper(s) inside Serial, want 0", got-before)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("For inside Serial ran out of order: %v", order)
		}
	}

	func() {
		defer func() { _ = recover() }()
		Serial(func() { panic("boom") })
	}()
	For(4, func(int) {})
	if got := helperSpawns.Load() - before; got != 3 {
		t.Fatalf("For(4) after Serial spawned %d helpers, want 3 (tokens not returned)", got)
	}
}
