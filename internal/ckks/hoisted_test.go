package ckks

import (
	"strings"
	"testing"

	"choco/internal/par"
	"choco/internal/ring"
)

func ctsIdentical(r *ring.Ring, a, b *Ciphertext) bool {
	if len(a.Value) != len(b.Value) || a.Level != b.Level || !scalesMatch(a.Scale, b.Scale) {
		return false
	}
	for i := range a.Value {
		if !r.Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// TestHoistedMatchesSerialAllPresets pins the tentpole guarantee for
// CKKS: for every Galois element the evaluator holds a key for (all
// rotation steps plus conjugation), the hoisted batch produces
// ciphertexts byte-identical to the serial RotateLeft/applyGalois path.
func TestHoistedMatchesSerialAllPresets(t *testing.T) {
	steps := []int{1, 2, 3, 5, -1, -4}
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetC", PresetC()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := newTestKit(t, tc.params, steps...)
			ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
			if err != nil {
				t.Fatal(err)
			}
			rQl := kit.ctx.RingAtLevel(ct.Level)

			hoisted, err := kit.ev.RotateLeftHoisted(ct, steps)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range steps {
				serial, err := kit.ev.RotateLeft(ct, s)
				if err != nil {
					t.Fatal(err)
				}
				if !ctsIdentical(rQl, serial, hoisted[i]) {
					t.Errorf("steps=%d: hoisted ciphertext differs from serial", s)
				}
			}

			// Every Galois element in the key registry, including
			// conjugation, through the decomposed API directly.
			dc, err := kit.ev.Decompose(ct)
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Release()
			for g := range kit.ev.galois {
				viaHoist, err := kit.ev.applyGaloisDecomposed(dc, g)
				if err != nil {
					t.Fatal(err)
				}
				viaSerial, err := kit.ev.applyGalois(ct, g)
				if err != nil {
					t.Fatal(err)
				}
				if !ctsIdentical(rQl, viaSerial, viaHoist) {
					t.Errorf("galois=%d: decomposed result differs from applyGalois", g)
				}
			}
		})
	}
}

// TestHoistedAtLowerLevel exercises the level-projected key-switching
// path: after rescaling, the hoisted batch must still match the serial
// path byte for byte and decode to the rotated values.
func TestHoistedAtLowerLevel(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1, 2)
	vals := rampFloats(kit.ctx.Params.Slots())
	ct, err := kit.enc.EncryptFloats(vals)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := kit.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	low, err := kit.ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	if low.Level >= ct.Level {
		t.Fatalf("rescale did not lower the level (%d)", low.Level)
	}
	steps := []int{1, 2}
	hoisted, err := kit.ev.RotateLeftHoisted(low, steps)
	if err != nil {
		t.Fatal(err)
	}
	rQl := kit.ctx.RingAtLevel(low.Level)
	for i, s := range steps {
		serial, err := kit.ev.RotateLeft(low, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ctsIdentical(rQl, serial, hoisted[i]) {
			t.Errorf("level=%d steps=%d: hoisted differs from serial", low.Level, s)
		}
		decoded := kit.dec.DecryptFloats(hoisted[i])
		want := make([]float64, len(vals))
		for j := range want {
			v := vals[(j+s)%len(vals)]
			want[j] = v * v
		}
		assertClose(t, decoded[:16], want[:16], 1e-2, "hoisted rotation at lower level")
	}
}

// TestHoistedConjugate covers the conjugation entry point.
func TestHoistedConjugate(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	dc, err := kit.ev.Decompose(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Release()
	a, err := kit.ev.ConjugateDecomposed(dc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kit.ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !ctsIdentical(kit.ctx.RingAtLevel(ct.Level), a, b) {
		t.Error("hoisted conjugation differs from Conjugate")
	}
}

// TestHoistedMissingGaloisKeyCKKS pins the error path at batch and
// per-element level.
func TestHoistedMissingGaloisKeyCKKS(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.RotateLeftHoisted(ct, []int{1, 3}); err == nil {
		t.Fatal("expected missing-key error from hoisted batch")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
	dc, err := kit.ev.Decompose(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Release()
	if _, err := kit.ev.RotateLeftDecomposed(dc, 3); err == nil {
		t.Fatal("expected missing-key error from decomposed rotation")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
	deg2, err := kit.ev.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.Decompose(deg2); err == nil {
		t.Error("expected error decomposing a degree-2 ciphertext")
	}
}

// TestHoistedZeroStepIsCopyCKKS pins the steps==0 shortcut.
func TestHoistedZeroStepIsCopyCKKS(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := kit.ev.RotateLeftHoisted(ct, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !ctsIdentical(kit.ctx.RingAtLevel(ct.Level), ct, outs[0]) {
		t.Error("zero-step hoisted rotation is not a copy")
	}
}

// TestRotateMulPlainSumMatchesSerialFold pins the masked collapse: one
// shared decomposition, NTT-domain per-worker accumulation and one
// INTT per output polynomial must reproduce, byte for byte, MulPlain of
// every RotateLeft output folded with Add — serially and fanned out.
func TestRotateMulPlainSumMatchesSerialFold(t *testing.T) {
	steps := []int{0, 3, 1, 6, 2, 9}
	kit := newTestKit(t, PresetTest(), steps[1:]...)
	slots := kit.ctx.Params.Slots()
	ct, err := kit.enc.EncryptFloats(rampFloats(slots))
	if err != nil {
		t.Fatal(err)
	}
	level := ct.Level
	r := kit.ctx.RingAtLevel(level)
	coeffPts := make([]*Plaintext, len(steps))
	nttPts := make([]*Plaintext, len(steps))
	for i := range steps {
		mask := make([]float64, slots)
		mask[i] = 1
		if coeffPts[i], err = kit.ecd.EncodeFloats(mask, level, 1<<30); err != nil {
			t.Fatal(err)
		}
		nttPts[i] = &Plaintext{Poly: r.CopyPoly(coeffPts[i].Poly), Level: level, Scale: 1 << 30}
		r.NTT(nttPts[i].Poly)
	}
	var want *Ciphertext
	for i, s := range steps {
		rot, err := kit.ev.RotateLeft(ct, s)
		if err != nil {
			t.Fatal(err)
		}
		term, err := kit.ev.MulPlain(rot, coeffPts[i])
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = term
		} else if want, err = kit.ev.Add(want, term); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		old := par.Parallelism()
		par.SetParallelism(workers)
		got, err := kit.ev.RotateMulPlainSum(ct, steps, nttPts)
		par.SetParallelism(old)
		if err != nil {
			t.Fatal(err)
		}
		if !ctsIdentical(r, want, got) {
			t.Errorf("%d workers: masked rotation sum differs from the serial MulPlain+Add fold", workers)
		}
	}
	// Only zero steps: no decomposition, no Galois key needed.
	zeros, err := NewEvaluator(kit.ctx, nil, nil).RotateMulPlainSum(ct, []int{0}, nttPts[:1])
	if err != nil {
		t.Fatal(err)
	}
	first, _ := kit.ev.MulPlain(ct, coeffPts[0])
	if !ctsIdentical(r, first, zeros) {
		t.Error("zero-step sum differs from MulPlain")
	}

	for _, tc := range []struct {
		name  string
		steps []int
		pts   []*Plaintext
		want  string
	}{
		{"length mismatch", steps, nttPts[:2], "one plaintext per step"},
		{"coefficient form", steps[:1], coeffPts[:1], "NTT form"},
		{"missing key", []int{5}, nttPts[:1], "missing Galois key"},
		{"scale mismatch", steps[:2], []*Plaintext{nttPts[0], {Poly: nttPts[1].Poly, Level: level, Scale: 1 << 20}}, "scale mismatch"},
		{"level mismatch", steps[:1], []*Plaintext{{Poly: nttPts[0].Poly, Level: level - 1, Scale: 1 << 30}}, "level mismatch"},
	} {
		if _, err := kit.ev.RotateMulPlainSum(ct, tc.steps, tc.pts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
