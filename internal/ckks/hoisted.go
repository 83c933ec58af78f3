package ckks

import (
	"fmt"

	"choco/internal/par"
	"choco/internal/ring"
)

// DecomposedCiphertext is the hoisted (Halevi–Shoup) form of a degree-1
// ciphertext at some level: the per-prime RNS digits of c1 embedded
// into the (q0..ql, p) key-switching basis and forward-NTT-transformed
// once. A batch of k rotations of the same ciphertext then pays one
// decomposition instead of k — each Galois element only permutes the
// digits in the NTT domain before its switching-key inner product.
// Obtain with Evaluator.Decompose, rotate with RotateLeftDecomposed /
// ConjugateDecomposed, and call Release when done.
type DecomposedCiphertext struct {
	ct     *Ciphertext
	digits []*ring.Poly // one per prime q0..ql, over (Ql, p), NTT domain
	level  int
	ctx    *Context
}

// Decompose performs the per-residue embedding and forward NTTs of
// ct's c1 once at ct's level. The returned value references ct; it is
// safe for concurrent use by multiple rotations once built.
func (ev *Evaluator) Decompose(ct *Ciphertext) (*DecomposedCiphertext, error) {
	if len(ct.Value) != 2 {
		return nil, fmt.Errorf("ckks: rotation requires degree 1")
	}
	level := ct.Level
	rQlP := ev.ctx.ringQlP[level]
	digits := make([]*ring.Poly, level+1)
	par.For(level+1, func(i int) {
		di := rQlP.GetPoly()
		ev.embedDigit(ct.Value[1].Coeffs[i], i, level, di)
		rQlP.NTT(di)
		digits[i] = di
	})
	return &DecomposedCiphertext{ct: ct, digits: digits, level: level, ctx: ev.ctx}, nil
}

// Release returns the digit buffers to the level ring's scratch pool.
// The DecomposedCiphertext must not be used afterwards.
func (dc *DecomposedCiphertext) Release() {
	rQlP := dc.ctx.ringQlP[dc.level]
	for _, d := range dc.digits {
		rQlP.PutPoly(d)
	}
	dc.digits = nil
}

// embedDigit embeds the i-th residue row of a mod-Ql polynomial (an
// integer vector in [0, q_i)) into every residue of the (q0..ql, p)
// basis. Rows whose modulus is at least q_i receive the values
// verbatim — they are already reduced; only smaller moduli pay the
// per-coefficient reduction.
func (ev *Evaluator) embedDigit(src []uint64, i, level int, di *ring.Poly) {
	rQlP := ev.ctx.ringQlP[level]
	qi := ev.ctx.RingQ.Moduli[i].Value
	for j, m := range rQlP.Moduli {
		dst := di.Coeffs[j]
		if qi <= m.Value {
			copy(dst, src)
			continue
		}
		for k := range dst {
			dst[k] = m.Reduce(src[k])
		}
	}
}

// modDownByP maps x mod (Ql·P) to round(x/P) mod Ql (coefficient
// domain), returning a poly from the level ring's pool.
func (ev *Evaluator) modDownByP(x *ring.Poly, level int) *ring.Poly {
	ctx := ev.ctx
	rQlP := ctx.ringQlP[level]
	rQl := ctx.RingAtLevel(level)
	p := rQlP.Moduli[level+1].Value
	halfP := p >> 1
	out := rQl.GetPoly()
	xp := x.Coeffs[level+1]
	for i, m := range rQl.Moduli {
		pi := ctx.pInvQ[i]
		pis := m.ShoupPrecomp(pi)
		pModQ := m.Reduce(p)
		dst := out.Coeffs[i]
		src := x.Coeffs[i][:len(dst)]
		xr := xp[:len(dst)]
		for k := range dst {
			// Centered representative of x mod P, reduced mod q_i:
			// values above P/2 stand for t − P ≡ Reduce(t) − Reduce(P),
			// which shares the canonical-form Reduce with the small case.
			t := xr[k]
			c := m.Reduce(t)
			if t > halfP {
				c = m.Sub(c, pModQ)
			}
			dst[k] = m.MulShoup(m.Sub(src[k], c), pi, pis)
		}
	}
	return out
}

// RotateLeftDecomposed rotates slots left by steps using the hoisted
// decomposition (negative = right). Byte-identical to RotateLeft on the
// source ciphertext.
func (ev *Evaluator) RotateLeftDecomposed(dc *DecomposedCiphertext, steps int) (*Ciphertext, error) {
	if steps == 0 {
		return ev.ctx.CopyCt(dc.ct), nil
	}
	return ev.applyGaloisDecomposed(dc, ev.ctx.GaloisElementForRotation(steps))
}

// ConjugateDecomposed conjugates every slot using the hoisted
// decomposition.
func (ev *Evaluator) ConjugateDecomposed(dc *DecomposedCiphertext) (*Ciphertext, error) {
	return ev.applyGaloisDecomposed(dc, ev.ctx.GaloisElementConjugate())
}

// RotateLeftHoisted rotates one ciphertext by every step in steps,
// sharing a single decomposition and fanning the per-element key
// switches across the worker pool. Outputs are in step order and
// byte-identical to calling RotateLeft once per step.
func (ev *Evaluator) RotateLeftHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	outs := make([]*Ciphertext, len(steps))
	errs := make([]error, len(steps))
	par.For(len(steps), func(i int) {
		outs[i], errs[i] = ev.RotateLeftDecomposed(dc, steps[i])
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return outs, nil
}

// applyGaloisDecomposed runs one Galois element over the hoisted
// digits: fused NTT-domain automorphism + inner product against the
// level-projected switching key, shared INTT, divide by P, and the
// table-driven coefficient-domain automorphism of c0. Safe for
// concurrent calls on the same DecomposedCiphertext. The output
// polynomials are drawn from the level ring's scratch pool.
func (ev *Evaluator) applyGaloisDecomposed(dc *DecomposedCiphertext, g uint64) (*Ciphertext, error) {
	gk, ok := ev.galois[g]
	if !ok {
		return nil, fmt.Errorf("ckks: missing Galois key for element %d", g)
	}
	ctx := ev.ctx
	level := dc.level
	rQlP := ctx.ringQlP[level]
	rQl := ctx.RingAtLevel(level)
	nData := len(ctx.RingQ.Moduli)

	// Project a full-QP key polynomial (and its companion rows) onto
	// the level's ring by selecting rows q0..ql and p.
	project := func(p *ring.Poly) *ring.Poly {
		rows := make([][]uint64, 0, level+2)
		rows = append(rows, p.Coeffs[:level+1]...)
		rows = append(rows, p.Coeffs[nData])
		return &ring.Poly{Coeffs: rows, IsNTT: p.IsNTT}
	}
	projectShoup := func(s [][]uint64) [][]uint64 {
		rows := make([][]uint64, 0, level+2)
		rows = append(rows, s[:level+1]...)
		rows = append(rows, s[nData])
		return rows
	}

	acc0 := rQlP.GetPoly()
	acc1 := rQlP.GetPoly()
	acc0.DeclareNTT()
	acc1.DeclareNTT()
	bShoup, aShoup := gk.Key.shoup(ctx.RingQP)
	for i, d := range dc.digits {
		rQlP.AutomorphismNTTMulShoupAdd2(d, g,
			project(gk.Key.B[i]), projectShoup(bShoup[i]), acc0,
			project(gk.Key.A[i]), projectShoup(aShoup[i]), acc1)
	}
	rQlP.INTT(acc0)
	rQlP.INTT(acc1)
	d0, d1 := ev.modDownByP(acc0, level), ev.modDownByP(acc1, level)
	rQlP.PutPoly(acc0)
	rQlP.PutPoly(acc1)

	c0 := rQl.GetPoly()
	rQl.Automorphism(dc.ct.Value[0], g, c0)
	rQl.Add(c0, d0, c0)
	rQl.PutPoly(d0)
	return &Ciphertext{
		Value: []*ring.Poly{c0, d1},
		Level: level,
		Scale: dc.ct.Scale,
	}, nil
}

// RotateMulPlainSum returns Σᵢ rotate(ct, steps[i]) ⊙ pts[i]: the
// masked-collapse shape, where every rotation of one ciphertext is
// selected by its own plaintext. The rotations share one hoisted
// decomposition and fan out across the worker pool; each rotated
// ciphertext is moved to the NTT domain, multiplied into its worker's
// NTT-domain accumulator and handed back to the pool, so the whole sum
// pays one INTT per output polynomial. pts must be at ct's level, in
// NTT form (prepared once by the caller) and share one scale; the
// result scale is ct.Scale·pts[0].Scale. Byte-identical to MulPlain of
// each RotateLeft output folded with Add, because the INTT is exact
// modular linear algebra.
func (ev *Evaluator) RotateMulPlainSum(ct *Ciphertext, steps []int, pts []*Plaintext) (*Ciphertext, error) {
	if len(steps) == 0 || len(steps) != len(pts) {
		return nil, fmt.Errorf("ckks: RotateMulPlainSum needs one plaintext per step (%d steps, %d plaintexts)", len(steps), len(pts))
	}
	if len(ct.Value) != 2 {
		return nil, fmt.Errorf("ckks: RotateMulPlainSum requires degree 1")
	}
	for _, pt := range pts {
		if pt.Level != ct.Level {
			return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
		}
		if !pt.Poly.IsNTT {
			return nil, fmt.Errorf("ckks: RotateMulPlainSum plaintexts must be in NTT form")
		}
		if !scalesMatch(pt.Scale, pts[0].Scale) {
			return nil, fmt.Errorf("ckks: scale mismatch %g vs %g", pt.Scale, pts[0].Scale)
		}
	}
	var dc *DecomposedCiphertext
	for _, s := range steps {
		if s != 0 {
			var err error
			if dc, err = ev.Decompose(ct); err != nil {
				return nil, err
			}
			defer dc.Release()
			break
		}
	}

	r := ev.ctx.RingAtLevel(ct.Level)
	accs := make([][2]*ring.Poly, par.MaxWorkers(len(steps)))
	errs := make([]error, len(steps))
	par.ForWorker(len(steps), func(w, i int) {
		var terms []*ring.Poly
		if steps[i] == 0 {
			terms = []*ring.Poly{r.GetPoly(), r.GetPoly()}
			r.Copy(terms[0], ct.Value[0])
			r.Copy(terms[1], ct.Value[1])
		} else {
			rot, err := ev.applyGaloisDecomposed(dc, ev.ctx.GaloisElementForRotation(steps[i]))
			if err != nil {
				errs[i] = err
				return
			}
			terms = rot.Value
		}
		acc := &accs[w]
		for j, p := range terms {
			if acc[j] == nil {
				acc[j] = r.GetPoly()
				acc[j].DeclareNTT()
			}
			r.NTT(p)
			r.MulCoeffsAdd(p, pts[i].Poly, acc[j])
			r.PutPoly(p)
		}
	})
	for _, err := range errs {
		if err != nil {
			for _, acc := range accs {
				r.PutPoly(acc[0])
				r.PutPoly(acc[1])
			}
			return nil, err
		}
	}
	// Not every worker need have drawn an iteration, the caller
	// included.
	var out [2]*ring.Poly
	for _, acc := range accs {
		switch {
		case acc[0] == nil:
		case out[0] == nil:
			out = acc
		default:
			for j, p := range acc {
				r.Add(out[j], p, out[j])
				r.PutPoly(p)
			}
		}
	}
	r.INTT(out[0])
	r.INTT(out[1])
	return &Ciphertext{Value: out[:], Level: ct.Level, Scale: ct.Scale * pts[0].Scale}, nil
}
