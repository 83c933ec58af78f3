package main

import (
	"fmt"
	"sync"
	"time"

	"choco/internal/nn"
	"choco/internal/serve"
)

// runLenetSolo is lenet-solo. One client keeps one session open and
// runs a closed loop of LeNet-Sm inferences against serve.Server with
// its default Config. With one session the batching executor only runs
// one-item rounds (its solo hook) and the key registry stays idle, so
// the time goes to the bfv client kernels, the core operators and the
// protocol codec. A batching or registry change should show no change
// here.
func runLenetSolo(e *env) (*outcome, error) {
	o := &outcome{openPhase: "set-up (the workload keeps one session per set-up)"}
	net := nn.LeNetSmall()
	model := nn.SynthesizeWeights(net, lenetBits, derive(e.seed, "weights", 0))
	inputs, err := lenetInputs(e.seed, model)
	if err != nil {
		return nil, err
	}
	capt := &lenetCapture{}
	opens := map[string]bool{}
	var firstFresh []float64
	var rig *lenetRig
	var v *visit
	var backend *nn.InferenceServer
	for rep := 0; rep < e.setupReps; rep++ {
		if rig != nil {
			v.close()
			rig.close()
			rig, v = nil, nil
			freeMemory()
		}
		t0 := time.Now()
		if backend, err = nn.NewInferenceServer(model); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		rig = &lenetRig{}
		if rig.srv, err = startLenetServer(backend, serve.Config{}, e.rec); err != nil {
			return nil, err
		}
		ident, err := newIdentity(e.rec, net, e.seed, 0)
		if err != nil {
			rig.close()
			return nil, err
		}
		capt.ident = ident
		v = &visit{srv: rig.srv, rec: e.rec, ident: ident, traced: e.traced(), tag: fmt.Sprintf("solo/s%d", rep), cap: capt}
		s, err := v.open()
		if err != nil {
			v.close()
			rig.close()
			return nil, err
		}
		opens[v.tag+"/open"] = s.cached
		o.opens = append(o.opens, s)
		for k := 0; k < lenetWarmup; k++ {
			r, err := v.infer(inputs[k%len(inputs)], fmt.Sprintf("%s/w%d", v.tag, k), false)
			if err != nil {
				v.close()
				rig.close()
				return nil, fmt.Errorf("warm-up inference: %w", err)
			}
			if !r.ok {
				o.fail("warm-up inference %d: output differs from the plaintext reference", k)
			}
			if k == 0 {
				firstFresh = append(firstFresh, ms(r.lat))
			}
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}

	before := settledStats(rig.srv.srv, v.tally.inferences)
	var mem memDelta
	mem.start()
	var enc, dec int
	start := time.Now()
	deadline := start.Add(e.duration())
	for k := 0; time.Now().Before(deadline); k++ {
		traced := e.traced() && k%2 == 0
		r, err := v.infer(inputs[k%len(inputs)], fmt.Sprintf("%s/r%d", v.tag, k), traced)
		o.record(r, err, fmt.Sprintf("inference %d", k))
		if err != nil {
			break
		}
		enc += r.encryptions
		dec += r.decryptions
	}
	o.elapsed = time.Since(start)
	mem.stop()
	v.close()
	rig.srv.stop()
	final := rig.srv.srv.Stats()
	checkCounters(o, final, v.tally)
	if err := lenetOpens(e, o, backend, v.ident); err != nil {
		return nil, err
	}

	if e.traced() {
		statsDelta{before, final}.setLayers(o)
		mem.setLayers(o, len(o.lat))
		clientCountLayers(o, enc, dec)
		lenetRequestLayers(o, e.rec.Spans(), opens)
		o.setLayer("serve.first_req_fresh_ms", sampleValue(firstFresh, "", "client: first inference after a key upload, one per set-up (median)"))
		o.setLayer("bfv.keygen_ms", spanValue(e.rec.Spans(), "bfv.keygen", "nn.NewInferenceClient per set-up (median)"))
		if err := lenetReplays(o, e.rec, model, inputs[0], capt); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fleetPlan is one client's visit schedule. Visit v uses identity
// roles[v%3] — the first of the client's two identities twice, then
// the second — and runs one inference per entry of images[v]. The
// inference counts are seeded permutations of 1..fleetMaxInf per block
// of visits, so every seed has the same mix and only the order varies.
type fleetPlan struct {
	roles  [3]int
	images [][]int
}

// fleetVisits bounds a client's planned visits; a 60-second run makes
// a few dozen.
const fleetVisits = 1024

func fleetSchedule(seed int64) [2]fleetPlan {
	var plans [2]fleetPlan
	for c := range plans {
		r := rngFor(seed, fmt.Sprintf("fleet-client-%d", c))
		x, y := 2*c, 2*c+1
		if r.IntN(2) == 1 {
			x, y = y, x
		}
		var counts []int
		for len(counts) < fleetVisits {
			for _, i := range r.Perm(fleetMaxInf) {
				counts = append(counts, i+1)
			}
		}
		p := fleetPlan{roles: [3]int{x, x, y}}
		for _, n := range counts {
			imgs := make([]int, n)
			for i := range imgs {
				imgs[i] = r.IntN(lenetImages)
			}
			p.images = append(p.images, imgs)
		}
		plans[c] = p
	}
	return plans
}

// runLenetFleet is lenet-fleet. Two concurrent closed-loop clients
// visit the server as devices drawn from their own half of a seeded set
// of four identities: each visit dials, runs SetupSession, does a
// seeded 1–4 inferences and closes. The key registry holds two bundles
// (KeyCacheCap 2, a deployment setting). Each client cycles its
// identities X, X, Y and the clients open sessions in turn (see
// turnstile), so the registry sees the same access order on every run:
// the second X visit is a cached reconnect (a registry read), the other
// two upload the 60.7 MB key bundle afresh (a registry write and an
// eviction). This drives what lenet-solo leaves idle: the serve batch
// executor with two sessions at once, the registry, the key-bundle
// codec and the lazy per-session precompute on fresh keys.
func runLenetFleet(e *env) (*outcome, error) {
	o := &outcome{openPhase: "the timed phase"}
	net := nn.LeNetSmall()
	model := nn.SynthesizeWeights(net, lenetBits, derive(e.seed, "weights", 0))
	inputs, err := lenetInputs(e.seed, model)
	if err != nil {
		return nil, err
	}
	plans := fleetSchedule(e.seed)
	var rig *lenetRig
	var sum tally
	for rep := 0; rep < e.setupReps; rep++ {
		if rig != nil {
			rig.close()
			rig = nil
			freeMemory()
		}
		t0 := time.Now()
		rig, sum, err = setupFleet(e, net, model, inputs, plans)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}

	capt := &lenetCapture{ident: rig.idents[plans[0].roles[0]]}
	before := settledStats(rig.srv.srv, sum.inferences)
	var mem memDelta
	mem.start()
	ts := newTurnstile()
	var parts [2]*fleetPart
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.duration())
	for c := range parts {
		parts[c] = &fleetPart{openCached: map[string]bool{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ts.close()
			fleetClient(e, rig, plans[c], c, ts, deadline, inputs, parts[c], capt)
		}()
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	mem.stop()
	rig.srv.stop()
	final := rig.srv.srv.Stats()
	if err := lenetOpens(e, o, rig.backend, rig.idents[0]); err != nil {
		return nil, err
	}

	opens := map[string]bool{}
	var enc, dec int
	var firstFresh, firstCached []float64
	for _, p := range parts {
		o.merge(&p.outcome)
		sum.add(p.tally)
		for k, c := range p.openCached {
			opens[k] = c
		}
		enc += p.enc
		dec += p.dec
		firstFresh = append(firstFresh, p.firstFresh...)
		firstCached = append(firstCached, p.firstCached...)
	}
	checkCounters(o, final, sum)

	if e.traced() {
		statsDelta{before, final}.setLayers(o)
		mem.setLayers(o, len(o.lat))
		clientCountLayers(o, enc, dec)
		lenetRequestLayers(o, e.rec.Spans(), opens)
		o.setLayer("serve.first_req_fresh_ms", sampleValue(firstFresh, "", "client: first inference after a key upload (median)"))
		o.setLayer("serve.first_req_cached_ms", sampleValue(firstCached, "", "client: first inference after a cached reconnect (median)"))
		o.setLayer("bfv.keygen_ms", spanValue(e.rec.Spans(), "bfv.keygen", "nn.NewInferenceClient per identity and set-up (median)"))
		if err := lenetReplays(o, e.rec, model, inputs[0], capt); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// setupFleet builds one fleet deployment: the compiled server with its
// registry below the identity count, key generation for every identity
// (each client for its own half, concurrently), and a warm-up visit of
// every identity with one inference — X identities before Y ones, which
// leaves the registry as it is at the start of every later cycle.
func setupFleet(e *env, net *nn.Network, model *nn.QuantizedModel, inputs []lenetInput, plans [2]fleetPlan) (*lenetRig, tally, error) {
	var sum tally
	backend, err := nn.NewInferenceServer(model)
	if err != nil {
		return nil, sum, fmt.Errorf("compile: %w", err)
	}
	srv, err := startLenetServer(backend, serve.Config{KeyCacheCap: fleetCap}, e.rec)
	if err != nil {
		return nil, sum, err
	}
	rig := &lenetRig{srv: srv, backend: backend, idents: make([]*identity, fleetIdents)}
	var errs [2]error
	var tallies [2]tally
	var wg sync.WaitGroup
	ts := newTurnstile()
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ts.close()
			errs[c] = warmFleetClient(e, net, rig, plans[c], c, ts, inputs, &tallies[c])
		}()
	}
	wg.Wait()
	for c := range errs {
		if errs[c] != nil {
			rig.close()
			return nil, sum, errs[c]
		}
		sum.add(tallies[c])
	}
	return rig, sum, nil
}

func warmFleetClient(e *env, net *nn.Network, rig *lenetRig, plan fleetPlan, c int, ts *turnstile, inputs []lenetInput, t *tally) error {
	for _, i := range []int{2 * c, 2*c + 1} {
		ident, err := newIdentity(e.rec, net, e.seed, i)
		if err != nil {
			return err
		}
		rig.idents[i] = ident // each client writes only its own half
	}
	for j, role := range []int{plan.roles[0], plan.roles[2]} {
		if !ts.wait(2*j+c, time.Time{}) {
			return fmt.Errorf("warm-up: the other client stopped")
		}
		v := &visit{srv: rig.srv, rec: e.rec, ident: rig.idents[role], tag: fmt.Sprintf("c%d/warm%d", c, j)}
		_, err := v.open()
		ts.advance()
		if err == nil {
			var r reqSample
			r, err = v.infer(inputs[(c+j)%len(inputs)], v.tag+"/r0", false)
			if err == nil && !r.ok {
				err = fmt.Errorf("warm-up inference: output differs from the plaintext reference")
			}
		}
		v.close()
		t.add(v.tally)
		if err != nil {
			return err
		}
	}
	return nil
}

// fleetPart is what one fleet client measured in the timed phase.
type fleetPart struct {
	outcome
	tally                   tally
	openCached              map[string]bool // open tag → cached
	enc, dec                int
	firstFresh, firstCached []float64
}

func fleetClient(e *env, rig *lenetRig, plan fleetPlan, c int, ts *turnstile, deadline time.Time, inputs []lenetInput, p *fleetPart, capt *lenetCapture) {
	for n := 0; n < fleetVisits; n++ {
		if !ts.wait(2*n+c, deadline) {
			return
		}
		v := &visit{srv: rig.srv, rec: e.rec, ident: rig.idents[plan.roles[n%3]], traced: e.traced() && n%2 == 0,
			tag: fmt.Sprintf("c%d/v%d", c, n), cap: capt}
		s, err := v.open()
		ts.advance()
		p.attempted++
		if err != nil {
			p.fail("visit %d: %v", n, err)
			v.close()
			p.tally.add(v.tally)
			continue
		}
		p.outcome.opens = append(p.outcome.opens, s)
		p.openCached[v.tag+"/open"] = s.cached
		for i, img := range plan.images[n] {
			r, err := v.infer(inputs[img], fmt.Sprintf("%s/r%d", v.tag, i), v.traced)
			p.record(r, err, fmt.Sprintf("visit %d inference %d", n, i))
			if err != nil {
				break
			}
			p.enc += r.encryptions
			p.dec += r.decryptions
			if i == 0 && s.cached {
				p.firstCached = append(p.firstCached, ms(r.lat))
			} else if i == 0 {
				p.firstFresh = append(p.firstFresh, ms(r.lat))
			}
		}
		v.close()
		p.tally.add(v.tally)
	}
}

// settledStats snapshots the server's Stats once its inference counter
// has caught up with the clients' (serve counts a request only after
// sending its last reply, so a snapshot taken right after the client's
// last Infer returned can miss it).
func settledStats(srv *serve.Server, inferences int64) serve.Stats {
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := srv.Stats()
		if st.Inferences >= inferences || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// spanValue reports the median duration of the spans named name.
func spanValue(spans []Span, name, note string) Value {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, ms(time.Duration(s.End-s.Start)))
		}
	}
	return sampleValue(xs, "", note)
}
