package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"choco/internal/apps/distance"
	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
	"choco/internal/serve"
)

// The KNN deployment: CKKS at the distance preset (N = 8192), 32 server
// points of 4 dimensions, queried with the collapsed point-major
// packing — one ciphertext up and one down per query.
const (
	knnPoints  = 32
	knnDims    = 4
	knnLabels  = 4
	knnK       = 3
	knnQueries = 16 // distinct seeded queries the client cycles through
	knnWarmup  = 2
	// knnTolerance bounds |HE distance − plaintext distance|. Points and
	// queries lie in [-2, 2]^4, so distances are at most 64; CKKS at
	// the distance preset errs by about 1e-6.
	knnTolerance = 1e-3
)

func knnParams() ckks.Parameters { return distance.PresetDistance() }

type knnQuery struct {
	q     []float64
	dists []float64
	label int
}

// knnInputs draws the labelled point set and the queries with their
// plaintext distances and k-NN labels.
func knnInputs(seed int64) (points [][]float64, labels []int, queries []knnQuery) {
	r := rngFor(seed, "knn")
	coord := func() float64 { return r.Float64()*4 - 2 }
	points = make([][]float64, knnPoints)
	labels = make([]int, knnPoints)
	for i := range points {
		points[i] = make([]float64, knnDims)
		for j := range points[i] {
			points[i][j] = coord()
		}
		labels[i] = r.IntN(knnLabels)
	}
	queries = make([]knnQuery, knnQueries)
	for i := range queries {
		q := make([]float64, knnDims)
		for j := range q {
			q[j] = coord()
		}
		queries[i] = knnQuery{q: q, dists: distance.PlainDistances(points, q), label: distance.PlainKNN(points, labels, q, knnK)}
	}
	return points, labels, queries
}

// knnVote is the client's non-linear step on the decrypted distances:
// the majority label of the k nearest, ties to the label reached first
// — the rule distance.PlainKNN applies to plaintext distances.
func knnVote(dists []float64, labels []int, k int) int {
	idx := make([]int, len(dists))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] })
	votes := map[int]int{}
	best, bestVotes := labels[idx[0]], 0
	for _, i := range idx[:k] {
		votes[labels[i]]++
		if votes[labels[i]] > bestVotes {
			best, bestVotes = labels[i], votes[labels[i]]
		}
	}
	return best
}

// packCollapsed lays a query out as Client.Query does for the
// collapsed point-major packing: one copy per padded block.
func packCollapsed(q []float64, slots int) []float64 {
	d := 1
	for d < len(q) {
		d <<= 1
	}
	out := make([]float64, slots)
	for b := 0; b+d <= slots; b += d {
		copy(out[b:], q)
	}
	return out
}

// knnServer serves distance queries on a loopback listener, one
// connection at a time (distance.Server holds one client's keys).
type knnServer struct {
	srv   *distance.Server
	ln    net.Listener
	done  chan struct{}
	rec   *Recorder
	peers peerTable

	mu     sync.Mutex
	ended  int64 // connections served to their end
	served int64
	ops    core.OpCounts
	errs   []string
}

func startKNNServer(srv *distance.Server, rec *Recorder) (*knnServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &knnServer{srv: srv, ln: ln, done: make(chan struct{}), rec: rec}
	go func() {
		defer close(s.done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.serveConn(c)
			s.mu.Lock()
			s.ended++
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *knnServer) serveConn(c net.Conn) {
	defer c.Close()
	tt := serve.NewTimedTransport(protocol.NewConn(c), idleTimeout, ioTimeout)
	var t protocol.Transport = tt
	if s.rec != nil {
		t = newServerTransport(tt, s.rec, &s.peers, c.RemoteAddr().String(), "distance.AcceptSetup", "distance.ServeOne")
	}
	if err := s.srv.AcceptSetup(t); err != nil {
		s.fail(fmt.Errorf("accept setup: %w", err))
		return
	}
	for {
		tt.MarkRequest()
		ops, err := s.srv.ServeOne(t)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.fail(err)
			}
			return
		}
		s.mu.Lock()
		s.served++
		s.ops.Add(ops)
		s.mu.Unlock()
	}
}

func (s *knnServer) fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench: knn server:", err)
	s.mu.Lock()
	s.errs = append(s.errs, err.Error())
	s.mu.Unlock()
}

func (s *knnServer) counts() (int64, core.OpCounts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.ops
}

// stop waits for the served connection to end; the client closes it.
func (s *knnServer) stop() {
	_ = s.ln.Close() // ends the accept loop after the current connection
	<-s.done
}

// awaitEnded waits until the server has served n connections to their end.
func (s *knnServer) awaitEnded(n int64) error {
	deadline := time.Now().Add(ioTimeout)
	for {
		s.mu.Lock()
		ended := s.ended
		s.mu.Unlock()
		if ended >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server ended %d of %d connections", ended, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// knnOpens runs the open phase (measureOpens) for cli on a new listener
// over dsrv, which installs each uploaded bundle in place of the last.
func knnOpens(e *env, o *outcome, dsrv *distance.Server, cli *distance.Client) error {
	if e.traced() {
		return nil
	}
	srv, err := startKNNServer(dsrv, nil)
	if err != nil {
		return err
	}
	err = measureOpens(o, func(k int) (openSample, error) {
		c, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			return openSample{}, err
		}
		t := newClientTransport(protocol.NewConn(c), nil)
		s, err := timedCall(nil, t, "distance.Setup", "", false, func() error { return cli.Setup(t) })
		_ = t.Close()
		if err != nil {
			return openSample{}, err
		}
		return openSample{ms: ms(s.lat), upload: s.up}, srv.awaitEnded(int64(k + 1))
	})
	srv.stop()
	if err == nil && len(srv.errs) > 0 {
		err = fmt.Errorf("open phase: %v", srv.errs)
	}
	return err
}

// knnCapture keeps the frames of the first traced query and the key
// upload for the replays.
type knnCapture struct {
	seed          [32]byte
	keyFrame      []byte
	q             []float64
	query, result []byte
}

// knnRig is one set-up of the KNN deployment.
type knnRig struct {
	srv     *knnServer
	cli     *distance.Client
	t       *clientTransport
	tr      *connTrace
	queries int64
}

func (r *knnRig) close() {
	if r.t != nil {
		_ = r.t.Close() // ends the server's session
	}
	if r.srv != nil {
		r.srv.stop()
	}
}

func (r *knnRig) query(e *env, q knnQuery, labels []int, tag string, traced bool, kc *knnCapture) (reqSample, error) {
	if r.tr != nil {
		r.tr.addRequest(reqTag{tag, traced})
	}
	if traced && kc.query == nil {
		kc.q = q.q
		r.t.capture = func(up bool, frame []byte) {
			switch {
			case up && len(frame) > 4: // the ciphertext, not the 4-byte request header
				kc.query = frame
			case !up:
				kc.result = frame
			}
		}
	}
	var dists []float64
	s, err := timedCall(e.rec, r.t, "distance.Query", tag, traced, func() (err error) {
		dists, _, err = r.cli.Query(q.q, distance.CollapsedPointMajor, r.t)
		return err
	})
	r.t.capture = nil
	if err != nil {
		return s, err
	}
	r.queries++
	s.ok = maxAbsDiff(dists, q.dists) <= knnTolerance && knnVote(dists, labels, knnK) == q.label
	return s, nil
}

// runKNN is knn-ckks. One client queries the split CKKS distance
// deployment (distance.NewServer and NewClient at PresetDistance,
// collapsed point-major packing, 32 points of 4 dimensions) in a closed
// loop and classifies each query by its 3 nearest neighbours. It is the
// benchmark's only CKKS path and runs no nn, core, serve or bfv code, so
// a change to code the schemes share (key switching, the ring) has to
// hold here as well as on the BFV workloads.
func runKNN(e *env) (*outcome, error) {
	o := &outcome{openPhase: "set-up (the workload keeps one session per set-up)"}
	points, labels, queries := knnInputs(e.seed)
	params := knnParams()
	kc := &knnCapture{seed: derive(e.seed, "knn-client", 0)}
	var rig *knnRig
	for rep := 0; rep < e.setupReps; rep++ {
		if rig != nil {
			rig.close()
			rig = nil
			freeMemory()
		}
		t0 := time.Now()
		var err error
		rig, err = setupKNN(e, params, points, labels, queries, kc, rep, o)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}

	served0, ops0 := rig.srv.counts()
	var mem memDelta
	mem.start()
	start := time.Now()
	deadline := start.Add(e.duration())
	for k := 0; time.Now().Before(deadline); k++ {
		traced := e.traced() && k%2 == 0
		r, err := rig.query(e, queries[k%len(queries)], labels, fmt.Sprintf("knn/r%d", k), traced, kc)
		o.record(r, err, fmt.Sprintf("query %d", k))
		if err != nil {
			break
		}
	}
	o.elapsed = time.Since(start)
	mem.stop()
	rig.close()
	served, ops := rig.srv.counts()
	o.check("distance server queries served", served == rig.queries, "server %d, client %d", served, rig.queries)
	if err := knnOpens(e, o, rig.srv.srv, rig.cli); err != nil {
		return nil, err
	}
	o.check("distance server errors", len(rig.srv.errs) == 0, "%v", rig.srv.errs)

	if e.traced() {
		n := int(served - served0)
		per := func(x, y int) Value {
			return Value{Value: perReq(float64(x-y), n), N: n, Note: "ServeOne operation counts"}
		}
		o.setLayer("distance.rotations_per_query", per(ops.Rotations, ops0.Rotations))
		o.setLayer("distance.ct_mults_per_query", per(ops.CtMults, ops0.CtMults))
		o.setLayer("distance.plain_mults_per_query", per(ops.PlainMults, ops0.PlainMults))
		spans := e.rec.Spans()
		o.setLayer("distance.server_ms_per_query", spanValue(spans, "distance.ServeOne", "first request frame received to reply sent (median)"))
		o.setLayer("ckks.keygen_ms", spanValue(spans, "ckks.keygen", "distance.NewClient per set-up (median)"))
		mem.setLayers(o, len(o.lat))
		nreq := len(o.lat)
		o.setLayer("protocol.frames_up_per_req", Value{Value: perReq(float64(o.framesUp), nreq), N: nreq})
		o.setLayer("protocol.frames_down_per_req", Value{Value: perReq(float64(o.framesDown), nreq), N: nreq})
		if err := knnReplays(o, e.rec, kc, points); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// setupKNN builds one KNN deployment: the server over the point set,
// the client's keys, the session (its 71 MB key upload) and a warm-up.
func setupKNN(e *env, params ckks.Parameters, points [][]float64, labels []int, queries []knnQuery, kc *knnCapture, rep int, o *outcome) (*knnRig, error) {
	dsrv, err := distance.NewServer(params, points)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	rig := &knnRig{}
	if rig.srv, err = startKNNServer(dsrv, e.rec); err != nil {
		return nil, err
	}
	m, _, rawD := dsrv.Geometry()
	e.rec.Time("ckks.keygen", "setup", func() { rig.cli, err = distance.NewClient(params, m, rawD, kc.seed) })
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("keygen: %w", err)
	}
	c, err := net.Dial("tcp", rig.srv.ln.Addr().String())
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.t = newClientTransport(protocol.NewConn(c), e.rec)
	tag := fmt.Sprintf("knn/s%d/open", rep)
	if e.traced() {
		rig.tr = rig.srv.peers.register(c.LocalAddr().String())
		rig.tr.setOpen(reqTag{tag, true})
		rig.t.capture = func(up bool, frame []byte) { kc.keyFrame = frame }
	}
	s, err := timedCall(e.rec, rig.t, "distance.Setup", tag, e.traced(), func() error { return rig.cli.Setup(rig.t) })
	rig.t.capture = nil
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("session open: %w", err)
	}
	o.opens = append(o.opens, openSample{ms: ms(s.lat), upload: s.up})
	for k := 0; k < knnWarmup; k++ {
		r, err := rig.query(e, queries[k%len(queries)], labels, fmt.Sprintf("knn/s%d/w%d", rep, k), false, kc)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
		if !r.ok {
			o.fail("warm-up query %d: distances or label differ from the plaintext reference", k)
		}
	}
	return rig, nil
}
