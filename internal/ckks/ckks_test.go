package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"testing"
)

type testKit struct {
	ctx *Context
	sk  *SecretKey
	pk  *PublicKey
	enc *Encryptor
	dec *Decryptor
	ecd *Encoder
	ev  *Evaluator
}

func newTestKit(t testing.TB, params Parameters, rotSteps ...int) *testKit {
	t.Helper()
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, [32]byte{4, 5, 6})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	var galois map[uint64]*GaloisKey
	if len(rotSteps) > 0 {
		galois = kg.GenRotationKeys(sk, rotSteps...)
	}
	return &testKit{
		ctx: ctx,
		sk:  sk,
		pk:  pk,
		enc: NewEncryptor(ctx, pk, [32]byte{8}),
		dec: NewDecryptor(ctx, sk),
		ecd: NewEncoder(ctx),
		ev:  NewEvaluator(ctx, relin, galois),
	}
}

func assertClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: slot %d: got %v want %v (tol %v)", label, i, got[i], want[i], tol)
		}
	}
}

func rampFloats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%17) - 8 + 0.25
	}
	return out
}

func TestParametersValidate(t *testing.T) {
	if err := PresetTest().Validate(); err != nil {
		t.Errorf("PresetTest invalid: %v", err)
	}
	bad := PresetTest()
	bad.LogScale = bad.QBits[0]
	if err := bad.Validate(); err == nil {
		t.Error("expected error for LogScale >= q0 bits")
	}
	bad = PresetTest()
	bad.QBits = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for empty chain")
	}
}

func TestPresetCSize(t *testing.T) {
	// Table 3: CKKS N=8192 {60,60,60} → 262,144-byte ciphertext.
	if got := PresetC().CiphertextBytes(); got != 262144 {
		t.Errorf("Preset C ciphertext = %d bytes, want 262144", got)
	}
}

func TestEncodeDecodePrecision(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	values := rampFloats(kit.ctx.Params.Slots())
	pt, err := kit.ecd.EncodeFloats(values, kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := kit.ecd.DecodeFloats(pt)
	assertClose(t, got, values, 1e-5, "encode/decode")
}

func TestEncodeComplexRoundTrip(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	nh := kit.ctx.Params.Slots()
	values := make([]complex128, nh)
	for i := range values {
		values[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)*0.7))
	}
	pt, err := kit.ecd.EncodeComplex(values, kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := kit.ecd.DecodeComplex(pt)
	for i := range values {
		if cmplx.Abs(got[i]-values[i]) > 1e-5 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], values[i])
		}
	}
}

// TestEncodeInt64PathMatchesBigInt pins the encoder's int64 rounding
// path to the big.Int one it short-circuits: every scale whose scaled
// coefficients stay below 2^62 must encode to the same residues, ties
// included, and larger scales must still take the big.Int path.
func TestEncodeInt64PathMatchesBigInt(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	nh := kit.ctx.Params.Slots()
	level := kit.ctx.Params.MaxLevel()
	r := kit.ctx.RingAtLevel(level)
	oneHot := make([]complex128, nh)
	oneHot[3] = 1
	ramp := make([]complex128, nh)
	for i := range ramp {
		ramp[i] = complex(rampFloats(nh)[i], -0.5*float64(i%5))
	}
	// The tie rule: both paths round half away from zero.
	for _, v := range []float64{0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, 0x1p61 + 1, -0x1p61 - 1} {
		if got, want := int64(math.Round(v)), bigFromFloat(v).Int64(); got != want {
			t.Errorf("round(%v): int64 path %d, big.Int path %d", v, got, want)
		}
	}
	for _, tc := range []struct {
		name   string
		values []complex128
		scale  float64
	}{
		{"one-hot/2^30", oneHot, math.Ldexp(1, 30)},
		{"ramp/2^40", ramp, math.Ldexp(1, 40)},
		{"ramp/2^58", ramp, math.Ldexp(1, 58)},
		{"ramp/2^70", ramp, math.Ldexp(1, 70)},
	} {
		got, err := kit.ecd.EncodeComplex(tc.values, level, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]complex128, nh)
		copy(buf, tc.values)
		kit.ecd.embedInv(buf)
		coeffs := make([]*big.Int, kit.ctx.Params.N())
		for j := 0; j < nh; j++ {
			coeffs[j] = bigFromFloat(real(buf[j]) * tc.scale)
			coeffs[j+nh] = bigFromFloat(imag(buf[j]) * tc.scale)
		}
		want := r.NewPoly()
		r.SetCoeffsBigint(coeffs, want)
		if !r.Equal(got.Poly, want) {
			t.Errorf("%s: encoding differs from the big.Int rounding", tc.name)
		}
	}
}

func TestEncodeTooManySlots(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	_, err := kit.ecd.EncodeFloats(make([]float64, kit.ctx.Params.Slots()+1), 0, 1024)
	if err == nil {
		t.Error("expected error for too many slots")
	}
}

func TestEncryptDecryptPrecision(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	values := rampFloats(kit.ctx.Params.Slots())
	ct, err := kit.enc.EncryptFloats(values)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptFloats(ct)
	assertClose(t, got, values, 1e-4, "encrypt/decrypt")
	if kit.enc.OpCount != 1 || kit.dec.OpCount != 1 {
		t.Error("op counters not incremented")
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := rampFloats(64)
	b := make([]float64, 64)
	for i := range b {
		b[i] = float64(i) * 0.5
	}
	cta, _ := kit.enc.EncryptFloats(a)
	ctb, _ := kit.enc.EncryptFloats(b)
	sum, err := kit.ev.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := kit.ev.Sub(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := make([]float64, 64)
	wantDiff := make([]float64, 64)
	for i := range a {
		wantSum[i] = a[i] + b[i]
		wantDiff[i] = a[i] - b[i]
	}
	assertClose(t, kit.dec.DecryptFloats(sum)[:64], wantSum, 1e-4, "add")
	assertClose(t, kit.dec.DecryptFloats(diff)[:64], wantDiff, 1e-4, "sub")
}

func TestAddScaleMismatchRejected(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a, _ := kit.enc.EncryptFloats([]float64{1})
	b, _ := kit.enc.EncryptFloats([]float64{2})
	b.Scale *= 2
	if _, err := kit.ev.Add(a, b); err == nil {
		t.Error("expected scale mismatch error")
	}
}

func TestMulPlain(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := rampFloats(32)
	w := make([]float64, 32)
	for i := range w {
		w[i] = 0.1 * float64(i+1)
	}
	ct, _ := kit.enc.EncryptFloats(a)
	pt, _ := kit.ecd.EncodeFloats(w, ct.Level, kit.ctx.Params.DefaultScale())
	prod, err := kit.ev.MulPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 32)
	for i := range want {
		want[i] = a[i] * w[i]
	}
	assertClose(t, kit.dec.DecryptFloats(prod)[:32], want, 1e-3, "mulplain")
}

func TestMulRelinAndRescale(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := []float64{1.5, -2, 3, 0.25}
	b := []float64{2, 4, -1, 8}
	cta, _ := kit.enc.EncryptFloats(a)
	ctb, _ := kit.enc.EncryptFloats(b)
	prod, err := kit.ev.MulRelin(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -8, -3, 2}
	assertClose(t, kit.dec.DecryptFloats(prod)[:4], want, 1e-3, "mulrelin")

	// Rescale drops a level and restores the scale magnitude.
	rs, err := kit.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Level != prod.Level-1 {
		t.Errorf("rescale level = %d, want %d", rs.Level, prod.Level-1)
	}
	assertClose(t, kit.dec.DecryptFloats(rs)[:4], want, 1e-3, "rescaled")
	if _, err := kit.ev.Rescale(rs); err == nil {
		t.Error("expected error rescaling below level 0")
	}
}

func TestMulScalar(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := []float64{1, -2, 0.5}
	ct, _ := kit.enc.EncryptFloats(a)
	out, err := kit.ev.MulScalar(ct, -1.5)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, kit.dec.DecryptFloats(out)[:3], []float64{-1.5, 3, -0.75}, 1e-3, "mulscalar")
}

func TestRotateLeft(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1, 3, -1)
	nh := kit.ctx.Params.Slots()
	values := rampFloats(nh)
	ct, _ := kit.enc.EncryptFloats(values)
	for _, steps := range []int{1, 3, -1} {
		rot, err := kit.ev.RotateLeft(ct, steps)
		if err != nil {
			t.Fatal(err)
		}
		got := kit.dec.DecryptFloats(rot)
		for i := 0; i < nh; i++ {
			src := ((i+steps)%nh + nh) % nh
			if math.Abs(got[i]-values[src]) > 1e-3 {
				t.Fatalf("steps=%d slot %d: got %v want %v", steps, i, got[i], values[src])
			}
		}
	}
}

func TestConjugate(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	nh := kit.ctx.Params.Slots()
	values := make([]complex128, nh)
	for i := range values {
		values[i] = complex(float64(i%7), float64(i%5)-2)
	}
	pt, _ := kit.ecd.EncodeComplex(values, kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	ct := kit.enc.Encrypt(pt)
	conj, err := kit.ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptComplex(conj)
	for i := range values {
		if cmplx.Abs(got[i]-cmplx.Conj(values[i])) > 1e-3 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], cmplx.Conj(values[i]))
		}
	}
}

func TestRotationAtLowerLevel(t *testing.T) {
	// Rotation after rescale exercises level-aware key switching.
	kit := newTestKit(t, PresetTest(), 1)
	values := rampFloats(16)
	cta, _ := kit.enc.EncryptFloats(values)
	sq, err := kit.ev.MulRelin(cta, cta)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := kit.ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := kit.ev.RotateLeft(rs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptFloats(rot)
	for i := 0; i < 15; i++ {
		want := values[i+1] * values[i+1]
		if math.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestDropLevel(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptFloats([]float64{1, 2, 3})
	low, err := kit.ev.DropLevel(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if low.Level != 0 {
		t.Fatalf("level = %d", low.Level)
	}
	assertClose(t, kit.dec.DecryptFloats(low)[:3], []float64{1, 2, 3}, 1e-4, "droplevel")
	if _, err := kit.ev.DropLevel(low, 1); err == nil {
		t.Error("expected error raising level")
	}
}

func TestLowerLevelEncryption(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	pt, _ := kit.ecd.EncodeFloats([]float64{7, -3}, 0, kit.ctx.Params.DefaultScale())
	ct := kit.enc.Encrypt(pt)
	if ct.Level != 0 {
		t.Fatalf("level = %d, want 0", ct.Level)
	}
	assertClose(t, kit.dec.DecryptFloats(ct)[:2], []float64{7, -3}, 1e-3, "low-level encrypt")
}

func TestCiphertextBytesAtLevel(t *testing.T) {
	p := PresetC()
	if p.CiphertextBytesAtLevel(0) != 2*8192*8 {
		t.Errorf("level-0 bytes = %d", p.CiphertextBytesAtLevel(0))
	}
	if p.CiphertextBytesAtLevel(p.MaxLevel()) != p.CiphertextBytes() {
		t.Error("full-level size mismatch")
	}
}
