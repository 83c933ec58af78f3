package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
)

var bundleSteps = []int{1, 2, 3, 4, 5, 8, 13, -1, -7}

func bfvBundle(t *testing.T, ctx *bfv.Context) *KeyBundle {
	t.Helper()
	kg := bfv.NewKeyGenerator(ctx, [32]byte{91})
	sk := kg.GenSecretKey()
	return &KeyBundle{PK: kg.GenPublicKey(sk), Relin: kg.GenRelinearizationKey(sk), Galois: kg.GenRotationKeys(sk, bundleSteps...)}
}

func ckksBundle(t *testing.T, ctx *ckks.Context) *CKKSKeyBundle {
	t.Helper()
	kg := ckks.NewKeyGenerator(ctx, [32]byte{92})
	sk := kg.GenSecretKey()
	return &CKKSKeyBundle{PK: kg.GenPublicKey(sk), Relin: kg.GenRelinearizationKey(sk), Galois: kg.GenRotationKeys(sk, bundleSteps...)}
}

// bundleSize is the bundle's encoded size counted field by field:
// magic, two public-key polys, relin flag and key, Galois count, then
// per Galois key its element and switching key.
func bundleSize(p0, p1 *ring.Poly, relin [][2]*ring.Poly, galois [][][2]*ring.Poly) int {
	poly := func(p *ring.Poly) int { return 12 + 8*len(p.Coeffs)*len(p.Coeffs[0]) }
	swk := func(digits [][2]*ring.Poly) int {
		n := 4
		for _, d := range digits {
			n += poly(d[0]) + poly(d[1])
		}
		return n
	}
	n := 4 + poly(p0) + poly(p1) + 4 + swk(relin) + 4
	for _, g := range galois {
		n += 8 + swk(g)
	}
	return n
}

func digits(b, a []*ring.Poly) [][2]*ring.Poly {
	out := make([][2]*ring.Poly, len(b))
	for i := range b {
		out[i] = [2]*ring.Poly{b[i], a[i]}
	}
	return out
}

// galoisOrder walks an encoded bundle and returns its Galois elements
// in wire order.
func galoisOrder(t *testing.T, data []byte) []uint64 {
	t.Helper()
	off := 4
	skipPoly := func() {
		k := int(binary.LittleEndian.Uint32(data[off:]))
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		off += 12 + 8*k*n
	}
	skipSwitching := func() {
		d := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		for i := 0; i < 2*d; i++ {
			skipPoly()
		}
	}
	skipPoly()
	skipPoly()
	hasRelin := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if hasRelin == 1 {
		skipSwitching()
	}
	count := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	elems := make([]uint64, count)
	for i := range elems {
		elems[i] = binary.LittleEndian.Uint64(data[off:])
		off += 8
		skipSwitching()
	}
	if off != len(data) {
		t.Fatalf("walked %d of %d bundle bytes", off, len(data))
	}
	return elems
}

func checkCanonical(t *testing.T, name string, first, second, reencoded []byte, wantSize int) {
	t.Helper()
	if !bytes.Equal(first, second) {
		t.Errorf("%s: two bundles from one seed marshal to different bytes", name)
	}
	if !bytes.Equal(first, reencoded) {
		t.Errorf("%s: decode then encode does not reproduce the bytes", name)
	}
	if len(first) != wantSize {
		t.Errorf("%s: %d bytes, want %d", name, len(first), wantSize)
	}
	if cap(first) != len(first) {
		t.Errorf("%s: buffer capacity %d for %d bytes, want one exact allocation", name, cap(first), len(first))
	}
	elems := galoisOrder(t, first)
	for i := 1; i < len(elems); i++ {
		if elems[i-1] >= elems[i] {
			t.Errorf("%s: Galois elements not ascending: %v", name, elems)
			break
		}
	}
}

// TestKeyBundleCanonicalEncoding pins the bundle codec of both schemes
// to a canonical, presized encoding: Galois keys in ascending element
// order, so a key set always marshals to the same bytes, written into
// one buffer of exactly the encoded size.
func TestKeyBundleCanonicalEncoding(t *testing.T) {
	bctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kb := bfvBundle(t, bctx)
	first := MarshalKeyBundle(kb)
	back, err := UnmarshalKeyBundle(bctx, first)
	if err != nil {
		t.Fatal(err)
	}
	var galois [][][2]*ring.Poly
	for _, gk := range kb.Galois {
		galois = append(galois, digits(gk.Key.B, gk.Key.A))
	}
	checkCanonical(t, "bfv", first, MarshalKeyBundle(bfvBundle(t, bctx)), MarshalKeyBundle(back),
		bundleSize(kb.PK.P0, kb.PK.P1, digits(kb.Relin.Key.B, kb.Relin.Key.A), galois))

	cctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	cb := ckksBundle(t, cctx)
	first = MarshalCKKSKeyBundle(cb)
	cback, err := UnmarshalCKKSKeyBundle(cctx, first)
	if err != nil {
		t.Fatal(err)
	}
	galois = galois[:0]
	for _, gk := range cb.Galois {
		galois = append(galois, digits(gk.Key.B, gk.Key.A))
	}
	checkCanonical(t, "ckks", first, MarshalCKKSKeyBundle(ckksBundle(t, cctx)), MarshalCKKSKeyBundle(cback),
		bundleSize(cb.PK.P0, cb.PK.P1, digits(cb.Relin.Key.B, cb.Relin.Key.A), galois))
}
