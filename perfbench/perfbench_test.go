package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"choco/internal/apps/distance"
	"choco/internal/protocol"
	"choco/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the selection must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for n := 0; n <= MinBeyond; n++ {
		if tail, ok := TailPercentile(seq(n)); ok || tail.N != n {
			t.Errorf("n=%d: got ok=%v n=%d, want no percentile with %d beyond", n, ok, tail.N, MinBeyond)
		}
	}
	cases := []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 100.0 / 11}, // the smallest sample is the only one with 10 beyond
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	}
	for _, c := range cases {
		tail, ok := TailPercentile(seq(c.n))
		if !ok || tail.Value != c.value || math.Abs(tail.Percentile-c.pct) > 1e-9 || tail.Beyond != MinBeyond || tail.N != c.n {
			t.Errorf("n=%d: got %+v ok=%v, want value %v at p%.3f with %d beyond", c.n, tail, ok, c.value, c.pct, MinBeyond)
		}
	}
	// Ties: the order statistic is taken by position, so a block of equal
	// values still leaves exactly MinBeyond samples after it.
	xs := append(slices.Repeat([]float64{5}, 15), seq(10)...)
	if tail, _ := TailPercentile(xs); tail.Value != 5 || tail.Beyond != MinBeyond {
		t.Errorf("ties: got %+v, want value 5", tail)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{seq(10), 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3, ok := Quartiles(c.xs)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "nn.Infer", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "protocol.recv", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "serve.request", Start: 20, End: 30},  // nested one level deeper
		{ID: 4, Parent: 1, Name: "protocol.recv", Start: 50, End: 70},  // overlaps span 2
		{ID: 5, Parent: 1, Name: "protocol.send", Start: 95, End: 130}, // reaches past its parent
		{ID: 6, Parent: 1, Name: "protocol.send", Start: 52, End: 58},  // inside two siblings
		{ID: 7, Name: "bfv.keygen", Start: 0, End: 40},                 // a root with no children
	}
	got := SelfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - (70 - 10) - (100 - 95), // children cover [10,70] and [95,100]
		2: 50 - 10,
		3: 10,
		4: 20,
		5: 35,
		6: 6,
		7: 40,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}

	rows := SelfTable(append(spans, Span{ID: 8, Name: "protocol.recv", Req: "setup", Start: 0, End: 9}), 2)
	for _, r := range rows {
		if r.Name == "protocol.recv" {
			// 40+20 from the request spans; the set-up span's 9 counts in
			// SelfMS but not per request.
			if r.Count != 3 || math.Abs(r.SelfMS-69e-6) > 1e-15 || math.Abs(r.SelfMSPerReq-30e-6) > 1e-15 {
				t.Errorf("protocol.recv row %+v", r)
			}
		}
	}
}

func TestRatiosWithZeroDenominator(t *testing.T) {
	if r := NewRatio(0, 0); r.Value != 0 || r.Den != 0 {
		t.Errorf("0/0: %+v", r)
	}
	if r := NewRatio(3, 4); r.Value != 0.75 || r.Num != 3 || r.Den != 4 {
		t.Errorf("3/4: %+v", r)
	}
	// lenet-solo: one-item rounds only, no session opened while timed.
	var before, after serve.Stats
	after.Inferences = 10
	after.Batching.Items, after.Batching.Rounds = 30, 30
	after.Batching.PlainCache.Hits = 100
	o := &outcome{}
	statsDelta{before, after}.setLayers(o)
	for name, want := range map[string]Value{
		"serve.batch_coalesced_ratio": {Value: 0, N: 30},
		"serve.keycache_hit_ratio":    {Value: 0, N: 0},
		"serve.plaincache_hit_ratio":  {Value: 1, N: 100},
		"serve.batch_rounds":          {Value: 30, N: 30},
		"core.rotations_per_req":      {Value: 0, N: 10},
	} {
		got := o.layer[name]
		if got.Value != want.Value || got.N != want.N {
			t.Errorf("%s: %+v, want value %v n %d", name, got, want.Value, want.N)
		}
	}
	// No inferences at all: per-request counts are 0, never NaN.
	o = &outcome{}
	statsDelta{}.setLayers(o)
	if _, err := json.Marshal(o.layer); err != nil {
		t.Errorf("metrics of an idle server do not encode: %v", err)
	}
}

func TestFiniteReplacesNaN(t *testing.T) {
	m := map[string]Value{"a": sampleValue(nil, "ms", "x"), "b": {Value: 2}}
	finite(m)
	if m["a"].Value != 0 || m["a"].N != 0 || m["b"].Value != 2 {
		t.Errorf("%+v", m)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Error(err)
	}
}

// loopback returns both ends of a TCP connection.
func loopback(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestTransportWrappersCountAsConn(t *testing.T) {
	cc, sc := loopback(t)
	rec := NewRecorder()
	var peers peerTable
	tr := peers.register(cc.LocalAddr().String())
	ct := newClientTransport(protocol.NewConn(cc), rec)
	tt := serve.NewTimedTransport(protocol.NewConn(sc), time.Minute, time.Minute)
	st := newServerTransport(tt, rec, &peers, sc.RemoteAddr().String(), "test.open", "test.request")

	// The server answers each frame with one twice its size, plus an
	// extra empty frame after each request's last frame.
	const frames = 3
	done := make(chan error, 1)
	go func() {
		for {
			tt.MarkRequest()
			for i := 0; i < frames; i++ {
				msg, err := st.Recv()
				if err != nil {
					done <- nil
					return
				}
				if err := st.Send(append(msg, msg...)); err != nil {
					done <- err
					return
				}
			}
			if err := st.Send(nil); err != nil {
				done <- err
				return
			}
		}
	}()
	tr.setOpen(reqTag{"r/open", true})
	for req := 0; req < 3; req++ {
		traced := req != 1
		tag := []string{"r/open", "r/1", "r/2"}[req]
		if req > 0 {
			tr.addRequest(reqTag{tag, traced})
		}
		s, err := timedCall(rec, ct, "test.call", tag, traced, func() error {
			for i := 0; i < frames; i++ {
				if err := ct.Send(make([]byte, 1000*(i+1))); err != nil {
					return err
				}
				if _, err := ct.Recv(); err != nil {
					return err
				}
			}
			_, err := ct.Recv()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.framesUp != frames || s.framesDown != frames+1 || s.up != 6000+4*frames || s.down != 12000+4*(frames+1) {
			t.Errorf("request %d measured %+v", req, s)
		}
	}
	ct.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ct.bytesUp != ct.SentBytes() || ct.bytesDown != ct.ReceivedBytes() {
		t.Errorf("client wrapper counted %d/%d B, Conn %d/%d", ct.bytesUp, ct.bytesDown, ct.SentBytes(), ct.ReceivedBytes())
	}
	if st.ReceivedBytes() != ct.SentBytes() || st.SentBytes() != ct.ReceivedBytes() {
		t.Errorf("server end %d/%d B, client end %d/%d", st.ReceivedBytes(), st.SentBytes(), ct.SentBytes(), ct.ReceivedBytes())
	}

	// The open and request 2 are traced; request 1 left no server spans.
	count := map[string]int{}
	for _, s := range rec.Spans() {
		count[s.Name+" "+s.Req]++
	}
	want := map[string]int{
		"test.open r/open": 1, "test.request r/2": 1,
		"protocol.server_recv r/open": frames - 1, "protocol.server_send r/open": frames + 1,
		"protocol.server_recv r/2": frames - 1, "protocol.server_send r/2": frames + 1,
		"test.call r/open": 1, "test.call r/2": 1,
		"protocol.send r/open": frames, "protocol.recv r/open": frames + 1,
		"protocol.send r/2": frames, "protocol.recv r/2": frames + 1,
	}
	for k, n := range want {
		if count[k] != n {
			t.Errorf("%d spans %q, want %d", count[k], k, n)
		}
	}
	if len(count) != len(want) {
		t.Errorf("span kinds %v, want exactly %v", count, want)
	}
}

func TestTurnstileOrdersAndStops(t *testing.T) {
	ts := newTurnstile()
	var order []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 0; v < 3; v++ {
			if !ts.wait(2*v+1, time.Time{}) {
				t.Error("client 1 stopped early")
				return
			}
			order = append(order, 2*v+1)
			ts.advance()
		}
	}()
	for v := 0; v < 3; v++ {
		if !ts.wait(2*v, time.Time{}) {
			t.Fatal("client 0 stopped early")
		}
		order = append(order, 2*v)
		ts.advance()
	}
	<-done
	if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("turns taken in order %v", order)
	}
	past := time.Now().Add(-time.Second)
	if ts.wait(6, past) {
		t.Error("a turn after the deadline was granted")
	}
	if ts.wait(7, time.Time{}) {
		t.Error("the turnstile stayed open after the deadline")
	}
}

func TestMeasureOpensSkipsWarmUpAndChecksUploads(t *testing.T) {
	o := &outcome{}
	err := measureOpens(o, func(k int) (openSample, error) {
		return openSample{ms: float64(k), cached: k == openReps}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.openMs) != openReps || o.attempted != openWarmup+openReps {
		t.Fatalf("got %d samples, %d attempted; want %d samples, %d attempted", len(o.openMs), o.attempted, openReps, openWarmup+openReps)
	}
	if o.openMs[0] != openWarmup {
		t.Errorf("first timed open is open %v, want the one after the %d warm-up opens", o.openMs[0], openWarmup)
	}
	if len(o.checks) != 1 || o.checks[0].OK {
		t.Errorf("an open that found cached keys passed the upload check: %+v", o.checks)
	}
	if o.peakRSS <= 0 {
		t.Errorf("peak RSS %v, want it read before the opens", o.peakRSS)
	}
	if err := measureOpens(&outcome{}, func(int) (openSample, error) { return openSample{}, net.ErrClosed }); err == nil {
		t.Error("a failed open did not fail the phase")
	}
}

func TestFleetScheduleIsSeeded(t *testing.T) {
	a, b, c := fleetSchedule(1), fleetSchedule(1), fleetSchedule(2)
	for i := range a {
		if a[i].roles != b[i].roles || !slices.EqualFunc(a[i].images, b[i].images, slices.Equal) {
			t.Fatalf("client %d: one seed gave two schedules", i)
		}
		roles := []int{a[i].roles[0], a[i].roles[2]}
		sort.Ints(roles)
		if a[i].roles[0] != a[i].roles[1] || !slices.Equal(roles, []int{2 * i, 2*i + 1}) {
			t.Errorf("client %d roles %v, want X X Y over its own half", i, a[i].roles)
		}
		for v := 0; v+fleetMaxInf <= len(a[i].images); v += fleetMaxInf {
			var block []int
			for _, imgs := range a[i].images[v : v+fleetMaxInf] {
				block = append(block, len(imgs))
			}
			slices.Sort(block)
			if !slices.Equal(block, []int{1, 2, 3, 4}) {
				t.Fatalf("client %d visits %d..: inferences %v are not a permutation of 1..4", i, v, block)
			}
		}
	}
	if slices.EqualFunc(a[0].images, c[0].images, slices.Equal) && slices.EqualFunc(a[1].images, c[1].images, slices.Equal) {
		t.Error("two seeds gave the same schedule")
	}
}

func TestKNNVoteMatchesPlainKNN(t *testing.T) {
	points, labels, queries := knnInputs(7)
	for _, q := range queries {
		if got := knnVote(q.dists, labels, knnK); got != q.label {
			t.Errorf("vote %d, PlainKNN %d", got, q.label)
		}
		if want := distance.PlainKNN(points, labels, q.q, knnK); want != q.label {
			t.Errorf("recorded label %d, PlainKNN %d", q.label, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, at the
// repository root, in step with the metrics and workloads defined here.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
