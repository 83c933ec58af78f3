package core

import (
	"fmt"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// newSessionKit builds an independent session (own secret key, own
// encryptor randomness) over a shared preset, mirroring how distinct
// clients land on one shard.
func newSessionKit(t testing.TB, params bfv.Parameters, seed byte, rotSteps []int) *kit {
	t.Helper()
	ctx, err := bfv.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{40 + seed})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	galois := kg.GenRotationKeys(sk, rotSteps...)
	return &kit{
		ctx: ctx,
		sk:  sk,
		enc: bfv.NewEncryptor(ctx, pk, [32]byte{60 + seed}),
		dec: bfv.NewDecryptor(ctx, sk),
		ecd: bfv.NewEncoder(ctx),
		ev:  bfv.NewEvaluator(ctx, relin, galois),
	}
}

// encryptConvInput packs and encrypts a random image for conv.
func encryptConvInput(t testing.TB, k *kit, conv *Conv2D, src *sampling.Source) *bfv.Ciphertext {
	t.Helper()
	packed, err := conv.PackInput(synthImage(src, conv.Spec.InC, conv.Spec.InH*conv.Spec.InW, 7), k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func ctEqual(r *ring.Ring, a, b *bfv.Ciphertext) bool {
	if len(a.Value) != len(b.Value) || a.Drop != b.Drop {
		return false
	}
	for i := range a.Value {
		if !r.Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// applyMaterialized is the conv oracle: every distinct rotation is
// materialized in coefficient form (one hoisted decomposition), each
// term is one MulPlain, and each group sums its terms with Add in
// (d, ki) order. No plaintext cache. It plans its rotations itself, so
// it shares no code with ApplyBatch beyond the weight diagonals.
func applyMaterialized(c *Conv2D, ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, OpCounts, error) {
	var ops OpCounts
	offsets := c.kernelOffsets()
	type rotKey struct{ d, k int }
	stepOf := make(map[rotKey]int)
	seen := make(map[int]bool)
	var uniq []int
	for d := 0; d < c.Cb; d++ {
		for ki, delta := range offsets {
			steps := d*c.Layout.Stride + delta
			steps = ((steps % c.rowSize) + c.rowSize) % c.rowSize
			stepOf[rotKey{d, ki}] = steps
			if steps != 0 && !seen[steps] {
				seen[steps] = true
				uniq = append(uniq, steps)
			}
		}
	}
	rotCts, err := ev.RotateRowsHoisted(ct, uniq)
	if err != nil {
		return nil, ops, err
	}
	rotByStep := map[int]*bfv.Ciphertext{0: ct}
	for i, s := range uniq {
		ops.Rotations++
		rotByStep[s] = rotCts[i]
	}
	outs := make([]*bfv.Ciphertext, c.Groups())
	for g := range outs {
		var acc *bfv.Ciphertext
		for d := 0; d < c.Cb; d++ {
			for ki := range offsets {
				diag := c.weightDiag(g, d, ki, slots)
				if diag == nil {
					continue
				}
				pt, err := ecd.EncodeInts(diag)
				if err != nil {
					return nil, ops, err
				}
				term := ev.MulPlain(rotByStep[stepOf[rotKey{d, ki}]], ev.PrepareMul(pt))
				ops.PlainMults++
				if acc == nil {
					acc = term
				} else {
					acc = ev.Add(acc, term)
					ops.Adds++
				}
			}
		}
		if acc == nil {
			return nil, ops, fmt.Errorf("core: group %d has no contributing weights", g)
		}
		outs[g] = acc
	}
	return outs, ops, nil
}

// lenetConvShapes are LeNet-Sm's two 5×5 convolutions as the server
// compiles them (28×28×1→4, then 14×14×4→6 after the pool).
var lenetConvShapes = []struct {
	name string
	spec ConvSpec
}{
	{"L0", ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}},
	{"L3", ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}},
}

// TestConvApplyBatchMatchesSerial pins the conv kernel to the
// materialized oracle: per item, ApplyBatch's ciphertexts are byte-
// identical to applyMaterialized's and its op counts equal, for one
// item and for three sessions' items coalesced into one call, with no
// plaintext cache, a cold one and a fully warm one. It runs a small
// PresetTest shape and LeNet-Sm's conv shapes at preset B. Besides
// dense weights it runs a set whose zeroed kernel positions make whole
// diagonals vanish (skipped terms), and one whose last output group is
// all zero, which must fail as the oracle does.
func TestConvApplyBatchMatchesSerial(t *testing.T) {
	type shape struct {
		name   string
		params bfv.Parameters
		spec   ConvSpec
	}
	shapes := []shape{{"test-8x8x2", bfv.PresetTest(), ConvSpec{InH: 8, InW: 8, InC: 2, KH: 3, KW: 3, OutC: 3}}}
	for _, s := range lenetConvShapes {
		shapes = append(shapes, shape{"B-" + s.name, bfv.PresetB(), s.spec})
	}
	for si, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ctxProbe, err := bfv.NewContext(sh.params)
			if err != nil {
				t.Fatal(err)
			}
			rowSize := ctxProbe.Params.N() / 2
			slots := ctxProbe.Params.Slots()
			spec := sh.spec
			nk := spec.KH * spec.KW
			src := sampling.NewSource([32]byte{byte(7 + si)}, "crossbatch-conv")
			dense := synthConvWeights(src, spec.OutC, spec.InC, nk, 3)
			sparse := synthConvWeights(src, spec.OutC, spec.InC, nk, 3)
			for o := range sparse {
				for c := range sparse[o] {
					for ki := range sparse[o][c] {
						if ki%3 != 0 {
							sparse[o][c][ki] = 0
						}
					}
				}
			}
			probe, err := NewConv2DSpecOnly(spec, rowSize)
			if err != nil {
				t.Fatal(err)
			}
			zeroGroup := synthConvWeights(src, spec.OutC, spec.InC, nk, 3)
			for o := (probe.Groups() - 1) * probe.Cb; o < spec.OutC; o++ {
				for c := range zeroGroup[o] {
					clear(zeroGroup[o][c])
				}
			}

			const sessions = 3
			kits := make([]*kit, sessions)
			items := make([]BatchInput, sessions)
			for i := range items {
				kits[i] = newSessionKit(t, sh.params, byte(i), probe.RotationSteps())
				items[i] = BatchInput{Ev: kits[i].ev, Ct: encryptConvInput(t, kits[i], probe, src)}
			}

			for _, ws := range []struct {
				name    string
				weights [][][]int64
			}{{"dense", dense}, {"sparse", sparse}, {"zero-group", zeroGroup}} {
				conv, err := NewConv2D(spec, ws.weights, rowSize)
				if err != nil {
					t.Fatal(err)
				}
				wantOuts := make([][]*bfv.Ciphertext, sessions)
				wantOps := make([]OpCounts, sessions)
				var wantErr error
				for i, it := range items {
					wantOuts[i], wantOps[i], wantErr = applyMaterialized(conv, it.Ev, kits[i].ecd, it.Ct, slots)
				}
				if ws.name == "zero-group" && wantErr == nil {
					t.Fatal("oracle accepted an all-zero output group")
				}
				if ws.name == "sparse" && wantOps[0].PlainMults >= conv.Cb*nk*conv.Groups() {
					t.Fatalf("sparse weights skipped no terms: %+v", wantOps[0])
				}
				for _, n := range []int{1, sessions} {
					cache := NewPlainCache(0)
					var cold PlainCacheStats
					for _, cs := range []struct {
						name  string
						cache *PlainCache
					}{{"nil", nil}, {"cold", cache}, {"warm", cache}} {
						label := fmt.Sprintf("%s/%d-items/%s-cache", ws.name, n, cs.name)
						outs, ops, err := conv.ApplyBatch(kits[0].ecd, items[:n], slots, cs.cache)
						if wantErr != nil {
							if err == nil || err.Error() != wantErr.Error() {
								t.Errorf("%s: error %v, oracle %v", label, err, wantErr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for i := 0; i < n; i++ {
							if ops[i] != wantOps[i] {
								t.Errorf("%s: item %d op counts %+v, oracle %+v", label, i, ops[i], wantOps[i])
							}
							if len(outs[i]) != len(wantOuts[i]) {
								t.Fatalf("%s: item %d got %d groups, want %d", label, i, len(outs[i]), len(wantOuts[i]))
							}
							for g := range outs[i] {
								if !ctEqual(ctxProbe.RingQ, outs[i][g], wantOuts[i][g]) {
									t.Errorf("%s: item %d group %d differs from the materialized oracle", label, i, g)
								}
							}
						}
						switch st := cache.Stats(); {
						case cs.name == "cold":
							if st.Entries == 0 || st.Misses == 0 {
								t.Fatalf("%s: cold batch populated nothing: %+v", label, st)
							}
							cold = st
						case cs.name == "warm":
							if st.Hits <= cold.Hits {
								t.Errorf("%s: warm batch recorded no cache hits: cold %+v warm %+v", label, cold, st)
							}
							if st.Entries != cold.Entries {
								t.Errorf("%s: warm batch grew the cache: %d -> %d entries", label, cold.Entries, st.Entries)
							}
						}
					}
				}
			}
		})
	}
}

// TestFCApplyBatchMatchesSerial is the same oracle check for the BSGS
// fully-connected kernel.
func TestFCApplyBatchMatchesSerial(t *testing.T) {
	const in, out = 16, 8
	src := sampling.NewSource([32]byte{8}, "crossbatch-fc")
	w := make([][]int64, out)
	for r := range w {
		w[r] = make([]int64, in)
		for c := range w[r] {
			w[r][c] = int64(src.Intn(11)) - 5
		}
	}
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFC(in, out, w, ctxProbe.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 3
	kits := make([]*kit, sessions)
	items := make([]BatchInput, sessions)
	var slots int
	for i := 0; i < sessions; i++ {
		kits[i] = newSessionKit(t, bfv.PresetTest(), byte(10+i), fc.RotationSteps())
		slots = kits[i].ctx.Params.Slots()
		vec := make([]int64, slots)
		for j := 0; j < in; j++ {
			vec[j] = int64(src.Intn(15)) - 7
		}
		ct, err := kits[i].enc.EncryptInts(vec)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchInput{Ev: kits[i].ev, Ct: ct}
	}

	serialOuts := make([]*bfv.Ciphertext, sessions)
	serialOps := make([]OpCounts, sessions)
	for i := 0; i < sessions; i++ {
		outCt, ops, err := fc.Apply(kits[i].ev, kits[i].ecd, items[i].Ct, slots)
		if err != nil {
			t.Fatal(err)
		}
		serialOuts[i], serialOps[i] = outCt, ops
	}

	cache := NewPlainCache(0)
	for pass, label := range []string{"cold", "warm"} {
		outs, ops, err := fc.ApplyBatch(kits[0].ecd, items, slots, cache)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := 0; i < sessions; i++ {
			if ops[i] != serialOps[i] {
				t.Errorf("%s: session %d op counts %+v, serial %+v", label, i, ops[i], serialOps[i])
			}
			if !ctEqual(kits[i].ctx.RingQ, outs[i], serialOuts[i]) {
				t.Errorf("%s: session %d FC output differs from serial Apply", label, i)
			}
		}
		if pass == 1 && cache.Stats().Hits == 0 {
			t.Error("warm FC batch recorded no cache hits")
		}
	}
}

// TestPlainCacheBudget checks that a cache whose budget cannot hold a
// single prepared plaintext rejects inserts (and keeps serving builds)
// rather than growing unboundedly.
func TestPlainCacheBudget(t *testing.T) {
	k := newKit(t, nil)
	pt, err := k.ecd.EncodeInts([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlainCache(8) // far below one poly's footprint
	builds := 0
	for i := 0; i < 3; i++ {
		pm, err := cache.getOrBuild("op", 0, func() (*bfv.PlaintextMul, error) {
			builds++
			return k.ev.PrepareMul(pt), nil
		})
		if err != nil || pm == nil {
			t.Fatalf("getOrBuild: pm=%v err=%v", pm, err)
		}
	}
	if builds != 3 {
		t.Errorf("over-budget cache should rebuild every call, built %d/3", builds)
	}
	st := cache.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Rejected != 3 {
		t.Errorf("over-budget cache stats %+v, want 0 entries, 0 bytes, 3 rejections", st)
	}
}

// BenchmarkConvApplyLeNet times one request's pass through each of
// LeNet-Sm's conv layers at preset B on a warm plaintext cache, the
// way the serving tier's solo rounds run them.
func BenchmarkConvApplyLeNet(b *testing.B) {
	params := bfv.PresetB()
	ctxProbe, err := bfv.NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	rowSize := ctxProbe.Params.N() / 2
	for _, sh := range lenetConvShapes {
		b.Run(sh.name, func(b *testing.B) {
			src := sampling.NewSource([32]byte{3}, "conv-bench-lenet")
			weights := synthConvWeights(src, sh.spec.OutC, sh.spec.InC, sh.spec.KH*sh.spec.KW, 3)
			conv, err := NewConv2D(sh.spec, weights, rowSize)
			if err != nil {
				b.Fatal(err)
			}
			k := newSessionKit(b, params, 0, conv.RotationSteps())
			items := []BatchInput{{Ev: k.ev, Ct: encryptConvInput(b, k, conv, src)}}
			slots := k.ctx.Params.Slots()
			cache := NewPlainCache(0)
			if _, _, err := conv.ApplyBatch(k.ecd, items, slots, cache); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := conv.ApplyBatch(k.ecd, items, slots, cache); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
