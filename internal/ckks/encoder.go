package ckks

import (
	"fmt"
	"math"
	"math/big"

	"choco/internal/ring"
)

// Plaintext is an encoded CKKS plaintext: an integer polynomial at some
// level carrying a scale.
type Plaintext struct {
	Poly  *ring.Poly
	Level int
	Scale float64
}

// Encoder maps vectors of complex values to ring elements through the
// canonical embedding (special FFT over the 5^j root ordering).
type Encoder struct {
	ctx *Context
}

// NewEncoder returns an encoder for the context.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// embed computes the inverse canonical embedding in place (slots →
// polynomial evaluations basis), following the HEAAN special inverse
// FFT over the rotation-group root ordering.
func (e *Encoder) embedInv(vals []complex128) {
	n := len(vals)
	m := 2 * e.ctx.Params.N()
	for length := n; length >= 1; length >>= 1 {
		for i := 0; i < n; i += length {
			lenh := length >> 1
			lenq := length << 2
			gap := m / lenq
			for j := 0; j < lenh; j++ {
				idx := (lenq - int(e.ctx.rotGroup[j])%lenq) * gap
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ctx.roots[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// embed computes the forward canonical embedding in place (polynomial
// basis → slot values).
func (e *Encoder) embed(vals []complex128) {
	n := len(vals)
	m := 2 * e.ctx.Params.N()
	bitReverseComplex(vals)
	for length := 2; length <= n; length <<= 1 {
		for i := 0; i < n; i += length {
			lenh := length >> 1
			lenq := length << 2
			gap := m / lenq
			for j := 0; j < lenh; j++ {
				idx := (int(e.ctx.rotGroup[j]) % lenq) * gap
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ctx.roots[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

func bitReverseComplex(vals []complex128) {
	n := len(vals)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// EncodeComplex encodes up to N/2 complex values at the given level and
// scale. Missing trailing slots are zero.
func (e *Encoder) EncodeComplex(values []complex128, level int, scale float64) (*Plaintext, error) {
	nh := e.ctx.Params.Slots()
	if len(values) > nh {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), nh)
	}
	buf := make([]complex128, nh)
	copy(buf, values)
	e.embedInv(buf)

	r := e.ctx.RingAtLevel(level)
	pt := &Plaintext{Poly: r.NewPoly(), Level: level, Scale: scale}
	// Scaled coefficients below 2^62 round exactly in int64:
	// math.Round and bigFromFloat both round half away from zero, so
	// the fast path is byte-identical to the big.Int one, which stays
	// for scales that push a coefficient past 2^62.
	small := make([]int64, e.ctx.Params.N())
	for j := 0; j < nh; j++ {
		re, im := real(buf[j])*scale, imag(buf[j])*scale
		if !(math.Abs(re) < 0x1p62 && math.Abs(im) < 0x1p62) {
			small = nil
			break
		}
		small[j], small[j+nh] = int64(math.Round(re)), int64(math.Round(im))
	}
	if small != nil {
		r.SetCoeffsInt64(small, pt.Poly)
		return pt, nil
	}
	coeffs := make([]*big.Int, e.ctx.Params.N())
	for j := 0; j < nh; j++ {
		coeffs[j] = bigFromFloat(real(buf[j]) * scale)
		coeffs[j+nh] = bigFromFloat(imag(buf[j]) * scale)
	}
	r.SetCoeffsBigint(coeffs, pt.Poly)
	return pt, nil
}

// EncodeFloats encodes real values.
func (e *Encoder) EncodeFloats(values []float64, level int, scale float64) (*Plaintext, error) {
	cv := make([]complex128, len(values))
	for i, v := range values {
		cv[i] = complex(v, 0)
	}
	return e.EncodeComplex(cv, level, scale)
}

// DecodeComplex returns all N/2 slot values of a plaintext.
func (e *Encoder) DecodeComplex(pt *Plaintext) []complex128 {
	r := e.ctx.RingAtLevel(pt.Level)
	coeffs := make([]*big.Int, e.ctx.Params.N())
	p := pt.Poly
	if p.IsNTT {
		p = r.CopyPoly(p)
		r.INTT(p)
	}
	r.PolyToBigintCentered(p, coeffs)
	nh := e.ctx.Params.Slots()
	vals := make([]complex128, nh)
	for j := 0; j < nh; j++ {
		re := floatFromBig(coeffs[j]) / pt.Scale
		im := floatFromBig(coeffs[j+nh]) / pt.Scale
		vals[j] = complex(re, im)
	}
	e.embed(vals)
	return vals
}

// DecodeFloats returns the real parts of all slots.
func (e *Encoder) DecodeFloats(pt *Plaintext) []float64 {
	cv := e.DecodeComplex(pt)
	out := make([]float64, len(cv))
	for i, v := range cv {
		out[i] = real(v)
	}
	return out
}

// bigFromFloat rounds a float (possibly much larger than 2^63) to the
// nearest big integer.
func bigFromFloat(v float64) *big.Int {
	bf := new(big.Float).SetPrec(200).SetFloat64(v)
	out, _ := bf.Int(nil)
	// big.Float.Int truncates toward zero; adjust to round-to-nearest.
	frac := new(big.Float).SetPrec(200).Sub(bf, new(big.Float).SetInt(out))
	f, _ := frac.Float64()
	if f >= 0.5 {
		out.Add(out, big.NewInt(1))
	} else if f <= -0.5 {
		out.Sub(out, big.NewInt(1))
	}
	return out
}

// floatFromBig converts exactly enough of a big integer for decode
// purposes.
func floatFromBig(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	if math.IsInf(f, 0) {
		// Saturate; callers treat this as catastrophic precision loss.
		if v.Sign() < 0 {
			return -math.MaxFloat64
		}
		return math.MaxFloat64
	}
	return f
}
