package distance

import (
	"fmt"

	"choco/internal/ckks"
	"choco/internal/core"
)

// maskScale is the low encoding scale of the collapse masks, keeping
// the masked product within the level-0 modulus.
const maskScale = 1 << 30

// pointSet is the server side of the distance kernels, shared by the
// in-process Kernel and the split Server: the aggregated points and,
// for the client-optimal packings (stacked dimension-major and
// collapsed point-major), every plaintext a query needs, encoded once
// at construction for queries at the top level and default scale.
type pointSet struct {
	ctx        *ckks.Context
	ecd        *ckks.Encoder
	points     [][]float64
	m, d, rawD int

	// stacked holds the points as D-strided blocks (the stacked and
	// collapsed point-major layout).
	stacked *ckks.Plaintext
	// dimMajor holds the points as nextPow2(m)-strided dimension
	// blocks; nil when that layout exceeds the slots.
	dimMajor *ckks.Plaintext
	// steps[i] and masks[i] move point i's reduced distance from slot
	// i·d to slot i and select it there (see collapse); masks are in
	// NTT form.
	steps []int
	masks []*ckks.Plaintext
}

func newPointSet(params ckks.Parameters, points [][]float64) (*pointSet, error) {
	if len(points) == 0 || len(points[0]) == 0 {
		return nil, fmt.Errorf("distance: empty point set")
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	m, rawD := len(points), len(points[0])
	d := nextPow2(rawD)
	slots := ctx.Params.Slots()
	if m*d > slots {
		return nil, fmt.Errorf("distance: %d points × %d dims exceed %d slots", m, d, slots)
	}
	for _, p := range points {
		if len(p) != rawD {
			return nil, fmt.Errorf("distance: ragged point set")
		}
	}
	ps := &pointSet{ctx: ctx, ecd: ckks.NewEncoder(ctx), points: points, m: m, d: d, rawD: rawD}
	level, scale := ctx.Params.MaxLevel(), ctx.Params.DefaultScale()

	vec := make([]float64, slots)
	for i, p := range points {
		copy(vec[i*d:], p)
	}
	if ps.stacked, err = ps.ecd.EncodeFloats(vec, level, scale); err != nil {
		return nil, err
	}
	if bm := nextPow2(m); bm*d <= slots {
		clear(vec)
		for j := 0; j < rawD; j++ {
			for i, p := range points {
				vec[j*bm+i] = p[j]
			}
		}
		if ps.dimMajor, err = ps.ecd.EncodeFloats(vec, level, scale); err != nil {
			return nil, err
		}
	}

	ps.steps = collapseSteps(m, d)
	ps.masks = make([]*ckks.Plaintext, m)
	r := ctx.RingAtLevel(level)
	clear(vec)
	for i := range ps.masks {
		vec[i] = 1
		pt, err := ps.ecd.EncodeFloats(vec, level, maskScale)
		if err != nil {
			return nil, err
		}
		vec[i] = 0
		r.NTT(pt.Poly)
		ps.masks[i] = pt
	}
	return ps, nil
}

// collapseSteps returns, per point, the left rotation that moves its
// reduced distance from slot i·d to slot i.
func collapseSteps(m, d int) []int {
	steps := make([]int, m)
	for i := range steps {
		steps[i] = i * (d - 1)
	}
	return steps
}

// rotationSteps is the rotation key set a client generates: the
// power-of-two steps of the in-block and cross-block reductions plus
// the collapse repositioning steps.
func rotationSteps(m, d, slots int) []int {
	var steps []int
	for s := 1; s < slots; s <<= 1 {
		steps = append(steps, s)
	}
	for _, s := range collapseSteps(m, d) {
		if s != 0 && s&(s-1) != 0 {
			steps = append(steps, s)
		}
	}
	return steps
}

// packQuery lays out the client's query for a single-round-trip
// packing: replicated into every D-block (collapsed point-major) or
// each dimension replicated across its point block (stacked
// dimension-major).
func packQuery(v Variant, q []float64, m, d, slots int) ([]float64, error) {
	vec := make([]float64, slots)
	switch v {
	case CollapsedPointMajor:
		for b := 0; b+d <= slots; b += d {
			copy(vec[b:], q)
		}
	case StackedDimMajor:
		bm := nextPow2(m)
		if bm*d > slots {
			return nil, fmt.Errorf("distance: stacked dim-major needs %d slots", bm*d)
		}
		for j, x := range q {
			for i := 0; i < m; i++ {
				vec[j*bm+i] = x
			}
		}
	default:
		return nil, fmt.Errorf("distance: %v is not a single-round-trip packing", v)
	}
	return vec, nil
}

// checkQuery rejects a query ciphertext the precomputed plaintexts do
// not fit: anything but a fresh degree-1 encryption at the top level
// and default scale.
func (ps *pointSet) checkQuery(q *ckks.Ciphertext) error {
	if len(q.Value) != 2 || q.Level != ps.ctx.Params.MaxLevel() || q.Scale != ps.ctx.Params.DefaultScale() {
		return fmt.Errorf("distance: query ciphertext of degree %d, level %d, scale %g; want degree 1, level %d, scale %g",
			len(q.Value)-1, q.Level, q.Scale, ps.ctx.Params.MaxLevel(), ps.ctx.Params.DefaultScale())
	}
	return nil
}

// serve computes a single-round-trip packing's result ciphertext from
// the query.
func (ps *pointSet) serve(ev *ckks.Evaluator, v Variant, q *ckks.Ciphertext, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	if err := ps.checkQuery(q); err != nil {
		return nil, err
	}
	switch v {
	case CollapsedPointMajor:
		red, err := ps.squaredReduced(ev, q, ps.stacked, 1, ops)
		if err != nil {
			return nil, err
		}
		return ps.collapse(ev, red, ops)
	case StackedDimMajor:
		if ps.dimMajor == nil {
			return nil, fmt.Errorf("distance: stacked dim-major needs %d slots", nextPow2(ps.m)*ps.d)
		}
		return ps.squaredReduced(ev, q, ps.dimMajor, nextPow2(ps.m), ops)
	}
	return nil, fmt.Errorf("distance: %v is not a single-round-trip packing", v)
}

// squaredReduced squares q − pts slot-wise and sums each point's D
// squared differences, which lie stride slots apart.
func (ps *pointSet) squaredReduced(ev *ckks.Evaluator, q *ckks.Ciphertext, pts *ckks.Plaintext, stride int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	diff, err := ev.SubPlain(q, pts)
	if err != nil {
		return nil, err
	}
	sq, err := ev.MulRelin(diff, diff)
	if err != nil {
		return nil, err
	}
	ops.CtMults++
	return reduceBlocks(ev, sq, ps.d, stride, ops)
}

// collapse condenses the reduced stacked ciphertext, which holds point
// i's distance at slot i·d, into one dense ciphertext holding it at
// slot i — extra server rotations and masking multiplies that buy the
// client a single download (§5.4). The textbook order masks slot i·d
// and then rotates it into place. Rotation commutes with masking:
// φ_g(mask ⊙ x) = φ_g(mask) ⊙ φ_g(x), and rotating a one-hot mask at
// slot i·d left by i·(d−1) gives the one-hot mask at slot i. So the
// server rotates first: every rotation acts on the same ciphertext and
// all m−1 of them share one hoisted decomposition, and the m masks are
// fixed plaintexts, encoded once. m·d ≤ slots keeps every point in one
// stacked group.
func (ps *pointSet) collapse(ev *ckks.Evaluator, red *ckks.Ciphertext, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	sum, err := ev.RotateMulPlainSum(red, ps.steps, ps.masks)
	if err != nil {
		return nil, err
	}
	for _, s := range ps.steps {
		if s != 0 {
			ops.Rotations++
		}
	}
	ops.PlainMults += ps.m
	ops.Adds += ps.m - 1
	return ev.Rescale(sum)
}

// reduceBlocks sums groups of `span` slots that lie stride slots apart
// via rotate-and-add; slot 0 of each group ends up holding its sum. The
// tree stays serial on purpose: every rotation acts on the freshly
// accumulated sum, so there is never more than one rotation per operand
// to hoist — and flattening to span-1 hoisted rotations of the input
// loses to the log₂(span)-deep tree for every realistic span.
func reduceBlocks(ev *ckks.Evaluator, ct *ckks.Ciphertext, span, stride int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	acc := ct
	for s := span / 2; s >= 1; s /= 2 {
		rot, err := ev.RotateLeft(acc, s*stride)
		if err != nil {
			return nil, err
		}
		ops.Rotations++
		acc, err = ev.Add(acc, rot)
		if err != nil {
			return nil, err
		}
		ops.Adds++
	}
	return acc, nil
}
