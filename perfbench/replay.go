package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"

	"choco/internal/apps/distance"
	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/nn"
	"choco/internal/protocol"
)

// The replays time single calls into the scheme, operator and codec
// layers that the served requests make out of sight of the benchmark
// (inside Infer, Query and ServeOne). They run after the timed phase of
// a traced run, on the frames captured from its wire, with keys that
// are the same as the client's (regenerated from the identity's seed,
// or decoded from its key upload). Each call runs once to warm caches
// and then `reps` times; the median is reported, and every repetition
// is recorded as a root span of request "replay".

func repeat(rec *Recorder, name string, reps int, fn func() error) (Value, error) {
	if err := fn(); err != nil {
		return Value{}, fmt.Errorf("replay %s: %w", name, err)
	}
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var err error
		d := rec.Time(name, "replay", func() { err = fn() })
		if err != nil {
			return Value{}, fmt.Errorf("replay %s: %w", name, err)
		}
		xs = append(xs, ms(d))
	}
	return sampleValue(xs, "", name+" per call (median of replays)"), nil
}

// linearOp is one of LeNet's linear layers as the server compiles it.
type linearOp struct {
	layer  int
	metric string // "L0.conv"
	conv   *core.Conv2D
	fc     *core.FC
}

func (op linearOp) apply(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, error) {
	if op.conv != nil {
		outs, _, err := op.conv.Apply(ev, ecd, ct, slots)
		return outs, err
	}
	out, _, err := op.fc.Apply(ev, ecd, ct, slots)
	return []*bfv.Ciphertext{out}, err
}

func (op linearOp) applyBatch(ecd *bfv.Encoder, items []core.BatchInput, slots int, cache *core.PlainCache) error {
	if op.conv != nil {
		_, _, err := op.conv.ApplyBatch(ecd, items, slots, cache)
		return err
	}
	_, _, err := op.fc.ApplyBatch(ecd, items, slots, cache)
	return err
}

// linearOps compiles the network's linear layers with the model's
// weights, tracking activation shapes as nn.NewInferenceServer does.
func linearOps(model *nn.QuantizedModel, rowSize int) ([]linearOp, error) {
	net := model.Net
	h, w, c := net.InH, net.InW, net.InC
	var ops []linearOp
	for i, l := range net.Layers {
		switch l.Kind {
		case nn.Conv:
			conv, err := core.NewConv2D(core.ConvSpec{InH: h, InW: w, InC: c, KH: l.KH, KW: l.KW, OutC: l.OutC}, model.ConvW[i], rowSize)
			if err != nil {
				return nil, err
			}
			ops = append(ops, linearOp{layer: i, metric: fmt.Sprintf("L%d.conv", i), conv: conv})
			c = l.OutC
		case nn.FC:
			fc, err := core.NewFC(h*w*c, l.FCOut, model.FCW[i], rowSize)
			if err != nil {
				return nil, err
			}
			ops = append(ops, linearOp{layer: i, metric: fmt.Sprintf("L%d.fc", i), fc: fc})
			h, w, c = 1, 1, l.FCOut
		case nn.Pool:
			h, w = h/2, w/2
		}
	}
	return ops, nil
}

// layerFrames are one linear layer's frames of a captured request: the
// uploaded input and the replies.
type layerFrames struct {
	up   []byte
	down [][]byte
}

func splitByLayer(frames []capturedFrame) []layerFrames {
	var out []layerFrames
	for _, f := range frames {
		if f.up {
			out = append(out, layerFrames{up: f.data})
		} else if len(out) > 0 {
			out[len(out)-1].down = append(out[len(out)-1].down, f.data)
		}
	}
	return out
}

// lenetReplays sets the bfv, core and protocol layer metrics of a
// traced LeNet run from its captured frames.
func lenetReplays(o *outcome, rec *Recorder, model *nn.QuantizedModel, in lenetInput, capt *lenetCapture) error {
	if capt.keyFrame == nil || len(capt.reqs) == 0 {
		return errNoCapture
	}
	ctx, err := bfv.NewContext(model.Net.Params)
	if err != nil {
		return err
	}
	slots := ctx.Params.Slots()
	ops, err := linearOps(model, ctx.Params.N()/2)
	if err != nil {
		return err
	}
	reqs := make([][]layerFrames, len(capt.reqs))
	for i, r := range capt.reqs {
		if reqs[i] = splitByLayer(r.frames); len(reqs[i]) != len(ops) {
			return fmt.Errorf("captured request has %d uploads, the network %d linear layers", len(reqs[i]), len(ops))
		}
	}
	second := reqs[len(reqs)-1]

	// Key-bundle codec, on the uploaded bundle.
	var kb *protocol.KeyBundle
	v, err := repeat(rec, "protocol.UnmarshalKeyBundle", 3, func() (err error) {
		kb, err = protocol.UnmarshalKeyBundle(ctx, capt.keyFrame)
		return err
	})
	if err != nil {
		return err
	}
	o.setLayer("protocol.keybundle_unmarshal_ms", v)
	var again []byte
	if v, err = repeat(rec, "protocol.MarshalKeyBundle", 3, func() error { again = protocol.MarshalKeyBundle(kb); return nil }); err != nil {
		return err
	}
	o.setLayer("protocol.keybundle_marshal_ms", v)
	o.setLayer("protocol.keybundle_bytes", Value{Value: float64(len(capt.keyFrame)), N: 1, Note: "serialized evaluation-key bundle"})
	// The encoding walks the Galois-key map, so its key order varies;
	// the check compares what the re-encoded bundle decodes to.
	back, err := protocol.UnmarshalKeyBundle(ctx, again)
	o.check("replay: key bundle round-trips through the codec", err == nil && len(again) == len(capt.keyFrame) && reflect.DeepEqual(back, kb),
		"%d B re-encoded to %d B", len(capt.keyFrame), len(again))
	again, back = nil, nil

	// Linear operators, serial and as a two-item batch.
	ev := bfv.NewEvaluator(ctx, kb.Relin, kb.Galois)
	ecd := bfv.NewEncoder(ctx)
	cache := core.NewPlainCache(0)
	var downCts []*bfv.Ciphertext
	var batch2 float64
	for li, op := range ops {
		ct, err := protocol.UnmarshalAnyBFV(ctx, reqs[0][li].up)
		if err != nil {
			return fmt.Errorf("replay: decode layer %d input: %w", op.layer, err)
		}
		other, err := protocol.UnmarshalAnyBFV(ctx, second[li].up)
		if err != nil {
			return fmt.Errorf("replay: decode layer %d input: %w", op.layer, err)
		}
		var outs []*bfv.Ciphertext
		v, err := repeat(rec, "core."+op.metric+".Apply", replayReps, func() (err error) {
			outs, err = op.apply(ev, ecd, ct, slots)
			return err
		})
		if err != nil {
			return err
		}
		o.setLayer("core."+op.metric+"_ms", v)
		same := len(outs) == len(reqs[0][li].down)
		for g := 0; same && g < len(outs); g++ {
			same = bytes.Equal(protocol.MarshalBFV(outs[g]), reqs[0][li].down[g])
		}
		o.check("replay: core "+op.metric+" Apply equals the served reply", same, "%d output ciphertexts", len(outs))
		downCts = append(downCts, outs...)

		items := []core.BatchInput{{Ev: ev, Ct: ct}, {Ev: ev, Ct: other}}
		if v, err = repeat(rec, "core."+op.metric+".ApplyBatch2", replayReps, func() error {
			return op.applyBatch(ecd, items, slots, cache)
		}); err != nil {
			return err
		}
		batch2 += v.Value / 2
	}
	o.setLayer("core.batch2_ms_per_item", Value{Value: batch2, N: replayReps,
		Note: "two-item ApplyBatch per linear layer, warm PlainCache, per item, summed over the layers"})

	// Client kernels, with the identity's secret key regenerated from
	// its seed (the first draw of nn.NewInferenceClient's generator).
	sk := bfv.NewKeyGenerator(ctx, capt.ident.seed).GenSecretKey()
	enc := bfv.NewSymmetricEncryptor(ctx, sk, capt.ident.seed)
	dec := bfv.NewDecryptor(ctx, sk)
	packed, err := ops[0].conv.PackInput(in.img, slots)
	if err != nil {
		return err
	}
	var sct *bfv.SeededCiphertext
	if v, err = repeat(rec, "bfv.EncryptIntsSeeded", replayReps, func() (err error) {
		sct, err = enc.EncryptIntsSeeded(packed)
		return err
	}); err != nil {
		return err
	}
	o.setLayer("bfv.encrypt_seeded_ms", v)
	last := downCts[len(downCts)-1]
	var plain []int64
	if v, err = repeat(rec, "bfv.DecryptInts", replayReps, func() error { plain = dec.DecryptInts(last); return nil }); err != nil {
		return err
	}
	o.setLayer("bfv.decrypt_ms", v)
	logits := ops[len(ops)-1].fc.ExtractOutput(plain)
	o.check("replay: regenerated key decrypts the served logits", slices.Equal(logits, capt.reqs[0].want),
		"logits %v", logits)

	// Wire codec for one request's frames, each the way its receiver or
	// sender handles it. Every upload is a seeded ciphertext of one
	// shape, so the upload encode is timed on the replayed encryption.
	if v, err = repeat(rec, "protocol.marshal_request", replayReps, func() error {
		for range reqs[0] {
			_ = protocol.MarshalSeededBFV(sct)
		}
		for _, ct := range downCts {
			_ = protocol.MarshalBFV(ct)
		}
		return nil
	}); err != nil {
		return err
	}
	v.Note = "one request's frames: every upload and reply encoded (median)"
	o.setLayer("protocol.ct_marshal_ms", v)
	if v, err = repeat(rec, "protocol.unmarshal_request", replayReps, func() error {
		for _, lf := range reqs[0] {
			if _, err := protocol.UnmarshalAnyBFV(ctx, lf.up); err != nil {
				return err
			}
			for _, d := range lf.down {
				if _, err := protocol.UnmarshalBFV(ctx, d); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	v.Note = "one request's frames: every upload and reply decoded (median)"
	o.setLayer("protocol.ct_unmarshal_ms", v)
	return nil
}

// knnReplays sets the ckks and protocol layer metrics of a traced KNN
// run from its captured frames.
func knnReplays(o *outcome, rec *Recorder, kc *knnCapture, points [][]float64) error {
	if kc.keyFrame == nil || kc.query == nil {
		return errNoCapture
	}
	params := knnParams()
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return err
	}
	var kb *protocol.CKKSKeyBundle
	v, err := repeat(rec, "protocol.UnmarshalCKKSKeyBundle", 3, func() (err error) {
		kb, err = protocol.UnmarshalCKKSKeyBundle(ctx, kc.keyFrame)
		return err
	})
	if err != nil {
		return err
	}
	o.setLayer("protocol.keybundle_unmarshal_ms", v)
	var again []byte
	if v, err = repeat(rec, "protocol.MarshalCKKSKeyBundle", 3, func() error { again = protocol.MarshalCKKSKeyBundle(kb); return nil }); err != nil {
		return err
	}
	o.setLayer("protocol.keybundle_marshal_ms", v)
	o.setLayer("protocol.keybundle_bytes", Value{Value: float64(len(kc.keyFrame)), N: 1, Note: "serialized evaluation-key bundle"})
	back, err := protocol.UnmarshalCKKSKeyBundle(ctx, again)
	o.check("replay: key bundle round-trips through the codec", err == nil && len(again) == len(kc.keyFrame) && reflect.DeepEqual(back, kb),
		"%d B re-encoded to %d B", len(kc.keyFrame), len(again))
	again, back = nil, nil

	ev := ckks.NewEvaluator(ctx, kb.Relin, kb.Galois)
	qct, err := protocol.UnmarshalCKKS(ctx, kc.query)
	if err != nil {
		return err
	}
	rct, err := protocol.UnmarshalCKKS(ctx, kc.result)
	if err != nil {
		return err
	}
	if v, err = repeat(rec, "ckks.RotateLeft", replayReps, func() error { _, err := ev.RotateLeft(qct, 1); return err }); err != nil {
		return err
	}
	o.setLayer("ckks.rotate_ms", v)

	encr := ckks.NewEncryptor(ctx, kb.PK, kc.seed)
	qVec := packCollapsed(kc.q, ctx.Params.Slots())
	if v, err = repeat(rec, "ckks.EncryptFloats", replayReps, func() error { _, err := encr.EncryptFloats(qVec); return err }); err != nil {
		return err
	}
	o.setLayer("ckks.encrypt_ms", v)
	// The client's secret key is the first draw of its generator.
	dec := ckks.NewDecryptor(ctx, ckks.NewKeyGenerator(ctx, kc.seed).GenSecretKey())
	var got []float64
	if v, err = repeat(rec, "ckks.DecryptFloats", replayReps, func() error { got = dec.DecryptFloats(rct); return nil }); err != nil {
		return err
	}
	o.setLayer("ckks.decrypt_ms", v)
	worst := maxAbsDiff(got[:len(points)], distance.PlainDistances(points, kc.q))
	o.check("replay: regenerated key decrypts the served distances", worst <= knnTolerance, "max |error| %.3g", worst)

	if v, err = repeat(rec, "protocol.marshal_request", replayReps, func() error {
		_ = protocol.MarshalCKKS(qct)
		_ = protocol.MarshalCKKS(rct)
		return nil
	}); err != nil {
		return err
	}
	v.Note = "one query's frames: the query and the reply encoded (median)"
	o.setLayer("protocol.ct_marshal_ms", v)
	if v, err = repeat(rec, "protocol.unmarshal_request", replayReps, func() error {
		if _, err := protocol.UnmarshalCKKS(ctx, kc.query); err != nil {
			return err
		}
		_, err := protocol.UnmarshalCKKS(ctx, kc.result)
		return err
	}); err != nil {
		return err
	}
	v.Note = "one query's frames: the query and the reply decoded (median)"
	o.setLayer("protocol.ct_unmarshal_ms", v)
	return nil
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		worst = math.Max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}
