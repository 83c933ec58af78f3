package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"choco/internal/core"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/serve"
)

// LeNet-Sm at 4-bit weights and activations under BFV preset B, as
// cmd/chocoserver and cmd/chococlient serve it: the only Table 5
// network that runs through real HE today.
const (
	lenetBits   = 4
	lenetImages = 8 // distinct seeded images a client cycles through
	lenetWarmup = 3 // inferences after the set-up's session open
	fleetCap    = 2 // lenet-fleet's KeyCacheCap: below its 4 identities
	fleetIdents = 4 // two per client
	fleetMaxInf = 4 // inferences per visit are a seeded permutation of 1..fleetMaxInf
	replayReps  = 5 // timed repetitions per replayed call (median reported)
	captureReqs = 2 // traced requests whose frames the replays reuse
)

type lenetInput struct {
	img  [][]int64
	want []int64
}

// lenetInputs draws the seeded images and their plaintext logits.
func lenetInputs(seed int64, model *nn.QuantizedModel) ([]lenetInput, error) {
	ins := make([]lenetInput, lenetImages)
	for i := range ins {
		img := nn.SynthesizeImage(model.Net, lenetBits, derive(seed, "image", i))
		want, err := nn.PlainInference(model, img)
		if err != nil {
			return nil, fmt.Errorf("plaintext reference: %w", err)
		}
		ins[i] = lenetInput{img: img, want: want}
	}
	return ins, nil
}

// lenetServer is a serve.Server on a loopback listener. An untraced run
// serves through Server.Serve, the production accept loop. A traced run
// accepts connections itself and hands each to Server.ServeTransport
// wrapped in a serverTransport, which records the server's side of
// every traced request.
type lenetServer struct {
	srv    *serve.Server
	ln     net.Listener
	cancel context.CancelFunc
	done   chan struct{}
	rec    *Recorder
	peers  peerTable

	mu    sync.Mutex
	conns map[*serve.TimedTransport]struct{}
}

func startLenetServer(backend *nn.InferenceServer, cfg serve.Config, rec *Recorder) (*lenetServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &lenetServer{srv: serve.New(backend, cfg), ln: ln, cancel: cancel, done: make(chan struct{}), rec: rec,
		conns: map[*serve.TimedTransport]struct{}{}}
	if rec == nil {
		go func() {
			defer close(s.done)
			if err := s.srv.Serve(ctx, ln); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
			}
		}()
		return s, nil
	}
	go s.acceptTraced(ctx)
	return s, nil
}

func (s *lenetServer) acceptTraced(ctx context.Context) {
	defer close(s.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		tt := serve.NewTimedTransport(protocol.NewConn(c), idleTimeout, ioTimeout)
		s.mu.Lock()
		s.conns[tt] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			st := newServerTransport(tt, s.rec, &s.peers, c.RemoteAddr().String(), "serve.open", "serve.request")
			if err := s.srv.ServeTransport(ctx, st); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
			}
			s.mu.Lock()
			delete(s.conns, tt)
			s.mu.Unlock()
		}()
	}
}

// stop shuts the server down and waits until every session has ended,
// so its Stats are final.
func (s *lenetServer) stop() {
	s.cancel()
	if s.rec != nil {
		_ = s.ln.Close() // ends acceptTraced; Serve closes it itself
		s.mu.Lock()
		for tt := range s.conns {
			if tt.Idle() {
				tt.Conn.Interrupt()
			}
		}
		s.mu.Unlock()
	}
	<-s.done
}

// awaitEnded waits until n sessions have started and none is active.
func (s *lenetServer) awaitEnded(n int64) error {
	deadline := time.Now().Add(ioTimeout)
	for {
		st := s.srv.Stats()
		if st.SessionsTotal >= n && st.SessionsActive == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server has %d of %d sessions, %d still active", st.SessionsTotal, n, st.SessionsActive)
		}
		time.Sleep(time.Millisecond)
	}
}

// lenetOpens runs the open phase (measureOpens) for ident on a server
// of its own over backend. Its registry holds one bundle, so each open
// installs one and evicts the one before.
func lenetOpens(e *env, o *outcome, backend *nn.InferenceServer, ident *identity) error {
	if e.traced() {
		return nil
	}
	srv, err := startLenetServer(backend, serve.Config{KeyCacheCap: 1}, nil)
	if err != nil {
		return err
	}
	defer srv.stop()
	return measureOpens(o, func(k int) (openSample, error) {
		id := *ident
		id.id = fmt.Sprintf("%s/open%d", ident.id, k)
		v := &visit{srv: srv, ident: &id, tag: id.id}
		s, err := v.open()
		v.close()
		if err != nil {
			return s, err
		}
		return s, srv.awaitEnded(int64(k + 1))
	})
}

// dial opens a client connection; in a traced run it also registers the
// connection's tags for the server end.
func (s *lenetServer) dial() (*clientTransport, *connTrace, error) {
	c, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	t := newClientTransport(protocol.NewConn(c), s.rec)
	var tr *connTrace
	if s.rec != nil {
		tr = s.peers.register(c.LocalAddr().String())
	}
	return t, tr, nil
}

// identity is one device: a session ID and its client key material.
type identity struct {
	id   string
	seed [32]byte
	cli  *nn.InferenceClient
}

func newIdentity(rec *Recorder, net *nn.Network, seed int64, i int) (*identity, error) {
	id := &identity{id: fmt.Sprintf("device-%d-%d", seed, i), seed: derive(seed, "identity", i)}
	var err error
	rec.Time("bfv.keygen", "setup", func() { id.cli, err = nn.NewInferenceClient(net, id.seed) })
	if err != nil {
		return nil, fmt.Errorf("keygen for %s: %w", id.id, err)
	}
	return id, nil
}

// tally is the client side's count of what the server should have
// counted, checked against serve.Stats once every session has closed.
type tally struct {
	inferences   int64
	up, down     int64
	hits, misses int64
}

func (t *tally) add(o tally) {
	t.inferences += o.inferences
	t.up += o.up
	t.down += o.down
	t.hits += o.hits
	t.misses += o.misses
}

// lenetCapture keeps the wire frames of one identity's first traced
// key upload and requests, which the per-layer replays reuse.
type lenetCapture struct {
	ident    *identity
	keyFrame []byte
	reqs     []capturedReq
}

type capturedReq struct {
	frames []capturedFrame
	want   []int64 // the plaintext logits of the request's image
}

type capturedFrame struct {
	up   bool
	data []byte
}

// visit is one connection of an identity: open, some inferences, close.
type visit struct {
	srv    *lenetServer
	rec    *Recorder
	ident  *identity
	t      *clientTransport
	tr     *connTrace
	traced bool
	tag    string
	tally  tally
	cap    *lenetCapture // nil: capture nothing
}

func (v *visit) open() (openSample, error) {
	var err error
	v.t, v.tr, err = v.srv.dial()
	if err != nil {
		return openSample{}, err
	}
	tag := v.tag + "/open"
	if v.tr != nil {
		v.tr.setOpen(reqTag{tag, v.traced})
	}
	if v.cap != nil && v.cap.ident == v.ident && v.cap.keyFrame == nil {
		v.t.capture = func(up bool, frame []byte) {
			if up && protocol.IsKeyBundle(frame) {
				v.cap.keyFrame = frame
			}
		}
	}
	var cached bool
	s, err := timedCall(v.rec, v.t, "nn.SetupSession", tag, v.traced, func() error {
		var err error
		cached, err = v.ident.cli.SetupSession(v.t, v.ident.id)
		return err
	})
	v.t.capture = nil
	v.tally.up += s.up
	v.tally.down += s.down
	if err != nil {
		return openSample{}, fmt.Errorf("open %s: %w", v.ident.id, err)
	}
	if cached {
		v.tally.hits++
	} else {
		v.tally.misses++
	}
	hello, _ := protocol.MarshalHello(v.ident.id) // the same call SetupSession just made successfully
	return openSample{ms: ms(s.lat), cached: cached, upload: s.up - int64(len(hello)) - 4}, nil
}

func (v *visit) infer(in lenetInput, tag string, traced bool) (reqSample, error) {
	if v.tr != nil {
		v.tr.addRequest(reqTag{tag, traced})
	}
	var frames []capturedFrame
	if traced && v.cap != nil && v.cap.ident == v.ident && len(v.cap.reqs) < captureReqs {
		v.t.capture = func(up bool, frame []byte) { frames = append(frames, capturedFrame{up, frame}) }
	}
	var logits []int64
	var st core.Stats
	s, err := timedCall(v.rec, v.t, "nn.Infer", tag, traced, func() error {
		var err error
		logits, st, err = v.ident.cli.Infer(in.img, v.t)
		return err
	})
	v.t.capture = nil
	v.tally.up += s.up
	v.tally.down += s.down
	if err != nil {
		return s, err
	}
	v.tally.inferences++
	if frames != nil {
		v.cap.reqs = append(v.cap.reqs, capturedReq{frames, in.want})
	}
	s.ok = slices.Equal(logits, in.want)
	s.encryptions, s.decryptions = st.Encryptions, st.Decryptions
	return s, nil
}

func (v *visit) close() {
	if v.t != nil {
		_ = v.t.Close() // the session is over either way
	}
}

// lenetRig is one set-up of a LeNet workload.
type lenetRig struct {
	srv     *lenetServer
	backend *nn.InferenceServer
	idents  []*identity
}

func (r *lenetRig) close() {
	if r.srv != nil {
		r.srv.stop()
	}
}

// statsDelta is what the server counted during the timed phase.
type statsDelta struct{ before, after serve.Stats }

func (d statsDelta) setLayers(o *outcome) {
	b, a := d.before, d.after
	inf := a.Inferences - b.Inferences
	per := func(x, y int) Value {
		return Value{Value: perReq(float64(x-y), int(inf)), N: int(inf), Note: "serve.Stats.ServerOps over inferences"}
	}
	o.setLayer("core.rotations_per_req", per(a.ServerOps.Rotations, b.ServerOps.Rotations))
	o.setLayer("core.plain_mults_per_req", per(a.ServerOps.PlainMults, b.ServerOps.PlainMults))
	o.setLayer("core.adds_per_req", per(a.ServerOps.Adds, b.ServerOps.Adds))
	ratio := func(r Ratio, what string) Value {
		return Value{Value: r.Value, N: int(r.Den), Note: fmt.Sprintf("%s: %d of %d", what, r.Num, r.Den)}
	}
	hits, misses := a.KeyCacheHits-b.KeyCacheHits, a.KeyCacheMisses-b.KeyCacheMisses
	o.setLayer("serve.keycache_hit_ratio", ratio(NewRatio(hits, hits+misses), "hits over hits+misses"))
	o.setLayer("serve.keycache_evictions", Value{Value: float64(a.KeyCacheEvictions - b.KeyCacheEvictions), N: int(hits + misses)})
	ab, bb := a.Batching, b.Batching
	o.setLayer("serve.batch_coalesced_ratio", ratio(NewRatio(ab.CoalescedItems-bb.CoalescedItems, ab.Items-bb.Items), "coalesced items over items"))
	o.setLayer("serve.batch_rounds", Value{Value: float64(ab.Rounds - bb.Rounds), N: int(ab.Items - bb.Items)})
	pcHits, pcMisses := ab.PlainCache.Hits-bb.PlainCache.Hits, ab.PlainCache.Misses-bb.PlainCache.Misses
	o.setLayer("serve.plaincache_hit_ratio", ratio(NewRatio(pcHits, pcHits+pcMisses), "weight-plaintext hits over lookups"))
	o.setLayer("serve.sessions_rejected", Value{Value: float64(a.SessionsRejected), N: int(a.SessionsTotal + a.SessionsRejected),
		Note: "whole run of the last set-up"})
}

// checkCounters compares the server's final Stats with the client
// side's tallies. A disagreement fails the run's correctness.
func checkCounters(o *outcome, st serve.Stats, t tally) {
	o.check("serve.Stats.Inferences", st.Inferences == t.inferences, "server %d, clients %d", st.Inferences, t.inferences)
	o.check("serve.Stats.BytesUp", st.BytesUp == t.up, "server %d, clients %d", st.BytesUp, t.up)
	o.check("serve.Stats.BytesDown", st.BytesDown == t.down, "server %d, clients %d", st.BytesDown, t.down)
	o.check("serve.Stats.KeyCacheHits", st.KeyCacheHits == t.hits, "server %d, clients %d", st.KeyCacheHits, t.hits)
	o.check("serve.Stats.KeyCacheMisses", st.KeyCacheMisses == t.misses, "server %d, clients %d", st.KeyCacheMisses, t.misses)
	o.check("serve.Stats.SessionsRejected", st.SessionsRejected == 0, "%d sessions refused", st.SessionsRejected)
}

// lenetRequestLayers derives the per-request layer metrics of the
// traced requests from their spans.
func lenetRequestLayers(o *outcome, spans []Span, opens map[string]bool) {
	self := SelfTimes(spans)
	type reqSpans struct {
		server     *Span
		clientRecv time.Duration
	}
	byReq := map[string]*reqSpans{}
	get := func(req string) *reqSpans {
		r := byReq[req]
		if r == nil {
			r = &reqSpans{}
			byReq[req] = r
		}
		return r
	}
	var openCached, openUpload []float64
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "serve.request":
			get(s.Req).server = s
		case "protocol.recv":
			get(s.Req).clientRecv += time.Duration(s.End - s.Start)
		case "serve.open":
			cached, ok := opens[s.Req]
			switch {
			case !ok:
			case cached:
				openCached = append(openCached, ms(time.Duration(s.End-s.Start)))
			default:
				openUpload = append(openUpload, ms(time.Duration(s.End-s.Start)))
			}
		}
	}
	var server, wait []float64
	for _, r := range byReq {
		if r.server == nil {
			continue
		}
		server = append(server, ms(time.Duration(r.server.End-r.server.Start)))
		wait = append(wait, ms(r.clientRecv-self[r.server.ID]))
	}
	o.setLayer("serve.server_ms_per_req", sampleValue(server, "", "first request frame received to last reply sent (median)"))
	o.setLayer("serve.wait_ms_per_req", sampleValue(wait, "", "client time blocked in Recv minus server busy time (median)"))
	o.setLayer("serve.open_cached_ms", sampleValue(openCached, "", "server: hello received to ready for the first request (median)"))
	o.setLayer("serve.open_upload_ms", sampleValue(openUpload, "", "server: hello received to keys installed (median)"))
}

// clientCountLayers sets the per-request counts every traced LeNet run
// reports from the client side.
func clientCountLayers(o *outcome, enc, dec int) {
	n := len(o.lat)
	o.setLayer("nn.encryptions_per_req", Value{Value: perReq(float64(enc), n), N: n, Note: "core.Stats from Infer"})
	o.setLayer("nn.decryptions_per_req", Value{Value: perReq(float64(dec), n), N: n, Note: "core.Stats from Infer"})
	o.setLayer("protocol.frames_up_per_req", Value{Value: perReq(float64(o.framesUp), n), N: n})
	o.setLayer("protocol.frames_down_per_req", Value{Value: perReq(float64(o.framesDown), n), N: n})
}

var errNoCapture = errors.New("no traced request was captured for the replays")
