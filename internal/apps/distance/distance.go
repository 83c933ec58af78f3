// Package distance implements the paper's distance-based applications
// (§5.1): encrypted squared-Euclidean distance kernels in CKKS with the
// five packing variants of Fig 9 (point-major, dimension-major, their
// stacked forms, and collapsed point-major), plus K-Nearest-Neighbors
// classification and K-Means clustering built on them. The client's
// query (or centroids) stay encrypted; the server holds the aggregated
// point set. The square root of the Euclidean distance is dropped —
// monotone, so the client's min() is unaffected (§5.1).
package distance

import (
	"fmt"

	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/par"
	"choco/internal/protocol"
)

// Variant selects the Fig 9 packing.
type Variant int

// The five packings of Fig 9.
const (
	PointMajor Variant = iota
	DimensionMajor
	StackedPointMajor
	StackedDimMajor
	CollapsedPointMajor
)

func (v Variant) String() string {
	switch v {
	case PointMajor:
		return "point-major"
	case DimensionMajor:
		return "dimension-major"
	case StackedPointMajor:
		return "stacked point-major"
	case StackedDimMajor:
		return "stacked dimension-major"
	case CollapsedPointMajor:
		return "collapsed point-major"
	}
	return "?"
}

// Variants lists all packings in Fig 9's order.
func Variants() []Variant {
	return []Variant{PointMajor, DimensionMajor, StackedPointMajor, StackedDimMajor, CollapsedPointMajor}
}

// Kernel evaluates encrypted distance queries against a server-side
// point set, running client and server in one process.
type Kernel struct {
	*pointSet
	enc *ckks.Encryptor
	dec *ckks.Decryptor
	ev  *ckks.Evaluator
}

// NewKernel builds a kernel over the point set, generating exactly the
// rotation keys the five variants need.
func NewKernel(params ckks.Parameters, points [][]float64, seed [32]byte) (*Kernel, error) {
	ps, err := newPointSet(params, points)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(ps.ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	galois := kg.GenRotationKeys(sk, rotationSteps(ps.m, ps.d, ps.ctx.Params.Slots())...)
	return &Kernel{
		pointSet: ps,
		enc:      ckks.NewEncryptor(ps.ctx, pk, seed),
		dec:      ckks.NewDecryptor(ps.ctx, sk),
		ev:       ckks.NewEvaluator(ps.ctx, relin, galois),
	}, nil
}

// PresetDistance returns the production parameter set for the distance
// kernels: a three-prime data chain so the collapsed variant's masking
// multiplies keep full precision (the masks encode at 2^30), within
// 128-bit security at N = 8192.
func PresetDistance() ckks.Parameters {
	return ckks.Parameters{LogN: 13, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2}
}

// PresetDistanceTest is the fast-test analogue (small ring; security
// is out of scope for unit tests).
func PresetDistanceTest() ckks.Parameters {
	return ckks.Parameters{LogN: 11, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2}
}

// M returns the server point count.
func (k *Kernel) M() int { return k.m }

// D returns the padded dimensionality.
func (k *Kernel) D() int { return k.d }

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

type hop func(*ckks.Ciphertext) (*ckks.Ciphertext, error)

// Distances runs one encrypted distance query end-to-end over the
// transports, returning squared distances to every server point plus
// client-cost statistics.
func (k *Kernel) Distances(q []float64, variant Variant, clientEnd, serverEnd protocol.Transport) ([]float64, core.Stats, error) {
	if len(q) != k.rawD {
		return nil, core.Stats{}, fmt.Errorf("distance: query has %d dims, want %d", len(q), k.rawD)
	}
	var stats core.Stats
	upload := func(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		data := protocol.MarshalCKKS(ct)
		if err := clientEnd.Send(data); err != nil {
			return nil, err
		}
		stats.Encryptions++
		stats.UpCiphertexts++
		stats.UpBytes += int64(len(data)) + 4
		raw, err := serverEnd.Recv()
		if err != nil {
			return nil, err
		}
		return protocol.UnmarshalCKKS(k.ctx, raw)
	}
	download := func(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		data := protocol.MarshalCKKS(ct)
		if err := serverEnd.Send(data); err != nil {
			return nil, err
		}
		stats.Decryptions++
		stats.DownCiphertexts++
		stats.DownBytes += int64(len(data)) + 4
		raw, err := clientEnd.Recv()
		if err != nil {
			return nil, err
		}
		return protocol.UnmarshalCKKS(k.ctx, raw)
	}

	var out []float64
	var err error
	switch variant {
	case PointMajor:
		out, err = k.pointMajor(q, upload, download, &stats, 1)
	case StackedPointMajor:
		out, err = k.pointMajor(q, upload, download, &stats, k.ctx.Params.Slots()/k.d)
	case CollapsedPointMajor, StackedDimMajor:
		out, err = k.singleRoundTrip(q, variant, upload, download, &stats)
	case DimensionMajor:
		out, err = k.dimensionMajor(q, upload, download, &stats)
	default:
		err = fmt.Errorf("distance: unknown variant %v", variant)
	}
	return out, stats, err
}

// singleRoundTrip runs a client-optimal packing: one query
// ciphertext up, the server side shared with the split Server, one
// dense result down.
func (k *Kernel) singleRoundTrip(q []float64, v Variant, upload, download hop, stats *core.Stats) ([]float64, error) {
	qVec, err := packQuery(v, q, k.m, k.d, k.ctx.Params.Slots())
	if err != nil {
		return nil, err
	}
	qCt, err := k.enc.EncryptFloats(qVec)
	if err != nil {
		return nil, err
	}
	srvQ, err := upload(qCt)
	if err != nil {
		return nil, err
	}
	res, err := k.serve(k.ev, v, srvQ, &stats.Server)
	if err != nil {
		return nil, err
	}
	cli, err := download(res)
	if err != nil {
		return nil, err
	}
	out := make([]float64, k.m)
	copy(out, k.dec.DecryptFloats(cli)[:k.m])
	return out, nil
}

// pointMajor packs perCt points (D-strided blocks) per ciphertext and
// downloads one sparse result ciphertext per group: with perCt == 1
// this is the plain point-major variant (M result ciphertexts), with
// perCt == slots/D the stacked one.
func (k *Kernel) pointMajor(q []float64, upload, download hop, stats *core.Stats, perCt int) ([]float64, error) {
	slots := k.ctx.Params.Slots()
	groups := (k.m + perCt - 1) / perCt

	// Client: one upload — the query replicated into every block
	// serves all groups.
	qVec := make([]float64, slots)
	for b := 0; b < perCt; b++ {
		copy(qVec[b*k.d:], q)
	}
	qCt, err := k.enc.EncryptFloats(qVec)
	if err != nil {
		return nil, err
	}
	srvQ, err := upload(qCt)
	if err != nil {
		return nil, err
	}

	// Server compute per group is transport-free and independent across
	// groups — fan it out. Downloads stay serial in group order below so
	// the wire protocol sees the same frame sequence as the serial code.
	reds := make([]*ckks.Ciphertext, groups)
	groupOps := make([]core.OpCounts, groups)
	groupErrs := make([]error, groups)
	par.For(groups, func(g int) {
		pVec := make([]float64, slots)
		for b := 0; b < perCt; b++ {
			i := g*perCt + b
			if i >= k.m {
				break
			}
			copy(pVec[b*k.d:], k.points[i])
		}
		pts, err := k.ecd.EncodeFloats(pVec, srvQ.Level, srvQ.Scale)
		if err != nil {
			groupErrs[g] = err
			return
		}
		reds[g], groupErrs[g] = k.squaredReduced(k.ev, srvQ, pts, 1, &groupOps[g])
	})
	for g := 0; g < groups; g++ {
		if groupErrs[g] != nil {
			return nil, groupErrs[g]
		}
		stats.Server.Add(groupOps[g])
	}

	results := make([]float64, k.m)
	for g := 0; g < groups; g++ {
		cli, err := download(reds[g])
		if err != nil {
			return nil, err
		}
		decoded := k.dec.DecryptFloats(cli)
		for b := 0; b < perCt; b++ {
			i := g*perCt + b
			if i >= k.m {
				break
			}
			results[i] = decoded[b*k.d]
		}
	}
	return results, nil
}

// dimensionMajor uploads one ciphertext per dimension (the query value
// replicated across point slots); the server accumulates squared
// differences with zero rotations into one dense result ciphertext
// ("dimension-major inputs produce point-major outputs"). The
// per-dimension loop stays serial: every iteration performs an upload
// hop, and the wire protocol's frame order (and the client's matching
// send/recv sequence) must be preserved.
func (k *Kernel) dimensionMajor(q []float64, upload, download hop, stats *core.Stats) ([]float64, error) {
	slots := k.ctx.Params.Slots()
	var acc *ckks.Ciphertext
	for d := 0; d < k.rawD; d++ {
		qVec := make([]float64, slots)
		pVec := make([]float64, slots)
		for i := 0; i < k.m; i++ {
			qVec[i] = q[d]
			pVec[i] = k.points[i][d]
		}
		qCt, err := k.enc.EncryptFloats(qVec)
		if err != nil {
			return nil, err
		}
		srvQ, err := upload(qCt)
		if err != nil {
			return nil, err
		}
		pts, err := k.ecd.EncodeFloats(pVec, srvQ.Level, srvQ.Scale)
		if err != nil {
			return nil, err
		}
		diff, err := k.ev.SubPlain(srvQ, pts)
		if err != nil {
			return nil, err
		}
		sq, err := k.ev.MulRelin(diff, diff)
		if err != nil {
			return nil, err
		}
		stats.Server.CtMults++
		if acc == nil {
			acc = sq
		} else {
			acc, err = k.ev.Add(acc, sq)
			if err != nil {
				return nil, err
			}
			stats.Server.Adds++
		}
	}
	cli, err := download(acc)
	if err != nil {
		return nil, err
	}
	out := make([]float64, k.m)
	copy(out, k.dec.DecryptFloats(cli)[:k.m])
	return out, nil
}

// PlainDistances is the cleartext reference.
func PlainDistances(points [][]float64, q []float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		var s float64
		for d := range q {
			diff := q[d] - p[d]
			s += diff * diff
		}
		out[i] = s
	}
	return out
}
