package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
)

// The server's per-frame deadlines, as serve.Config defaults them. The
// traced accept loops build their serve.TimedTransport with these.
const (
	idleTimeout = 2 * time.Minute
	ioTimeout   = 30 * time.Second
)

// derive turns the run's seed into an independent 32-byte seed per use,
// so every generated input depends on -seed and nothing else.
func derive(seed int64, label string, i int) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%s/%d", seed, label, i)))
}

// rngFor is a deterministic generator for one use of the seed.
func rngFor(seed int64, label string) *rand.Rand {
	s := derive(seed, label, 0)
	return rand.New(rand.NewPCG(binary.LittleEndian.Uint64(s[:8]), binary.LittleEndian.Uint64(s[8:16])))
}

// reqSample is what one timed request measured on the client.
type reqSample struct {
	lat, compute time.Duration
	traced       bool
	ok           bool // completed with the expected output
	up, down     int64
	framesUp     int
	framesDown   int
	// Client-side HE call counts of a LeNet inference (core.Stats).
	encryptions, decryptions int
}

// record adds a request to the outcome. Failed and wrong requests count
// against error_rate; only completed ones enter the latency sample.
func (o *outcome) record(r reqSample, err error, what string) {
	o.attempted++
	if err != nil {
		o.fail("%s: %v", what, err)
		return
	}
	o.lat = append(o.lat, ms(r.lat))
	o.compute = append(o.compute, ms(r.compute))
	o.latTraced = append(o.latTraced, r.traced)
	o.upBytes += r.up
	o.downBytes += r.down
	o.framesUp += r.framesUp
	o.framesDown += r.framesDown
	if r.ok {
		o.okReqs++
	} else {
		o.fail("%s: output differs from the plaintext reference", what)
	}
}

// timedCall runs one request on t, as a root span named name when
// traced, and measures it from the client's side.
func timedCall(rec *Recorder, t *clientTransport, name, tag string, traced bool, call func() error) (reqSample, error) {
	var id int64
	if traced {
		id = rec.NewID()
	}
	t.begin(id, tag)
	recv0, up0, down0, fu0, fd0 := t.recvBlocked, t.bytesUp, t.bytesDown, t.framesUp, t.framesDown
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	t.begin(0, "")
	if traced {
		rec.Record(id, 0, name, tag, t0, t1)
	}
	wall := t1.Sub(t0)
	return reqSample{
		lat: wall, compute: wall - (t.recvBlocked - recv0), traced: traced,
		up: t.bytesUp - up0, down: t.bytesDown - down0,
		framesUp: t.framesUp - fu0, framesDown: t.framesDown - fd0,
	}, err
}

// The open phase times openReps sessions after openWarmup untimed ones.
const (
	openWarmup = 2
	openReps   = 40
)

// measureOpens is the open phase behind session_open_p50_ms. It runs
// after the timed phase on a deployment of its own: open(k) opens a
// session under a session ID not used before, so that it uploads its
// key bundle, closes it and returns once the server has installed the
// keys. The opens run one after another with nothing else running, so
// the samples do not depend on another client's requests. The phase
// starts on a collected heap with its free memory returned to the OS:
// otherwise the first dozen opens run up to half again slower while the
// collector and scavenger work through the timed phase's garbage. A
// traced run reports no end-to-end metrics, so its workloads skip the
// phase. peak_rss_mb is read before it, so it stays the peak of the
// set-ups and the timed phase.
func measureOpens(o *outcome, open func(k int) (openSample, error)) error {
	o.peakRSS = peakRSSMB()
	freeMemory()
	uploads := 0
	for k := 0; k < openWarmup+openReps; k++ {
		s, err := open(k)
		o.attempted++
		if err != nil {
			return fmt.Errorf("open phase: %w", err)
		}
		if !s.cached {
			uploads++
		}
		if k >= openWarmup {
			o.openMs = append(o.openMs, s.ms)
		}
	}
	o.check("open phase: every open uploads its keys", uploads == openWarmup+openReps, "%d of %d", uploads, openWarmup+openReps)
	return nil
}

// merge folds one client's part of a multi-client timed phase in.
func (o *outcome) merge(p *outcome) {
	o.lat = append(o.lat, p.lat...)
	o.compute = append(o.compute, p.compute...)
	o.latTraced = append(o.latTraced, p.latTraced...)
	o.okReqs += p.okReqs
	o.upBytes += p.upBytes
	o.downBytes += p.downBytes
	o.framesUp += p.framesUp
	o.framesDown += p.framesDown
	o.opens = append(o.opens, p.opens...)
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		if len(o.failures) < 8 {
			o.failures = append(o.failures, f)
		}
	}
}

// memDelta measures allocation and GC pause over the timed phase.
type memDelta struct{ before, after runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }
func (m *memDelta) stop()  { runtime.ReadMemStats(&m.after) }

func (m *memDelta) setLayers(o *outcome, reqs int) {
	alloc := float64(m.after.TotalAlloc-m.before.TotalAlloc) / 1e6
	pause := float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
	gcs := m.after.NumGC - m.before.NumGC
	o.setLayer("runtime.alloc_mb_per_req", Value{Value: perReq(alloc, reqs), N: reqs,
		Note: fmt.Sprintf("%.1f MB allocated in the timed phase", alloc)})
	o.setLayer("runtime.gc_pause_ms_per_req", Value{Value: perReq(pause, reqs), N: reqs,
		Note: fmt.Sprintf("%d GC cycles, %.2f ms stop-the-world", gcs, pause)})
}

// turnstile orders the fleet's session opens: visit v of client c opens
// on turn 2v+c, so the key registry sees the same sequence of lookups
// and installs on every run of a seed, whatever the timing. Once the
// deadline has passed, the client whose turn it is closes the
// turnstile and both clients stop opening sessions.
type turnstile struct {
	mu      sync.Mutex
	next    int
	closed  bool
	changed chan struct{}
}

func newTurnstile() *turnstile { return &turnstile{changed: make(chan struct{})} }

// wait blocks until it is turn's turn; false means stop.
func (t *turnstile) wait(turn int, deadline time.Time) bool {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return false
		}
		if t.next == turn {
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				t.closeLocked()
				t.mu.Unlock()
				return false
			}
			t.mu.Unlock()
			return true
		}
		ch := t.changed
		t.mu.Unlock()
		<-ch
	}
}

// advance hands the turn on.
func (t *turnstile) advance() {
	t.mu.Lock()
	t.next++
	close(t.changed)
	t.changed = make(chan struct{})
	t.mu.Unlock()
}

func (t *turnstile) close() {
	t.mu.Lock()
	t.closeLocked()
	t.mu.Unlock()
}

func (t *turnstile) closeLocked() {
	if !t.closed {
		t.closed = true
		close(t.changed)
		t.changed = make(chan struct{})
	}
}
