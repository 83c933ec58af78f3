package core

import (
	"fmt"
	"sync"

	"choco/internal/bfv"
	"choco/internal/par"
)

// Cross-request batching: the serving tier coalesces same-layer work
// items from different sessions and evaluates them through ApplyBatch
// instead of per-session Apply calls. Two things amortize across the
// batch:
//
//   - the weight-side plaintext pipeline (EncodeInts of each diagonal +
//     PrepareMul's lift and forward NTT pass) depends only on the
//     layer's weights and the shared parameter preset, never on the
//     session, so one prepared plaintext serves every item — a
//     PlainCache carries it across items and across batches;
//   - the rotation schedules fuse into one flat worker-pool dispatch
//     over (item, step), so key switches from different requests
//     overlap instead of serializing per request.
//
// Each item still pays its own hoisted decomposition — the decompose
// transforms c1, which differs per request — and its own NTT-domain
// multiply-accumulate chain (MulPlainAcc, one inverse NTT per output).
// All of it is exact modular arithmetic, so per-item outputs do not
// depend on what else shares the batch.

// BatchInput is one session's work item in a cross-request batch: its
// packed input ciphertext and the evaluator holding that session's
// evaluation keys. All items of a batch must share one parameter
// preset (one bfv.Context).
type BatchInput struct {
	Ev *bfv.Evaluator
	Ct *bfv.Ciphertext
}

// PlainCache retains prepared weight plaintexts (the PrepareMul'd form
// MulPlain consumes) keyed by operator identity and term index, shared
// across sessions and requests. Entries are immutable once built —
// weights are fixed at model compile time — so the cache never
// invalidates; it only stops inserting when the byte budget is
// reached (the working set is the model's diagonal count, so for a
// given model it either fits or the overflow terms are rebuilt per
// batch). Safe for concurrent use.
type PlainCache struct {
	budget int64

	mu    sync.Mutex
	bytes int64
	m     map[plainKey]*bfv.PlaintextMul

	hits, misses, rejected int64
}

type plainKey struct {
	op  any
	idx int
}

// DefaultPlainCacheBytes bounds a PlainCache built with budget <= 0.
const DefaultPlainCacheBytes = 256 << 20

// NewPlainCache builds a prepared-plaintext cache with the given byte
// budget (<= 0 selects DefaultPlainCacheBytes).
func NewPlainCache(budgetBytes int64) *PlainCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultPlainCacheBytes
	}
	return &PlainCache{budget: budgetBytes, m: map[plainKey]*bfv.PlaintextMul{}}
}

// PlainCacheStats is a point-in-time snapshot of cache effectiveness:
// hits are terms whose encode+NTT pipeline was skipped entirely.
type PlainCacheStats struct {
	Entries  int
	Bytes    int64
	Hits     int64
	Misses   int64
	Rejected int64 // inserts skipped because the byte budget was reached
}

// Stats returns a snapshot of the cache counters.
func (pc *PlainCache) Stats() PlainCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlainCacheStats{
		Entries:  len(pc.m),
		Bytes:    pc.bytes,
		Hits:     pc.hits,
		Misses:   pc.misses,
		Rejected: pc.rejected,
	}
}

func pmBytes(pm *bfv.PlaintextMul) int64 {
	var n int64
	for _, row := range pm.NTT.Coeffs {
		n += int64(len(row)) * 8
	}
	return n
}

// getOrBuild returns the prepared plaintext for (op, idx), building it
// outside the lock on a miss. A nil value is cached too: it records an
// all-zero diagonal whose term Apply skips, so the zero check is not
// repaid every batch. Concurrent builders of the same key may duplicate
// work; the values are deterministic, so whichever insert lands is
// correct.
func (pc *PlainCache) getOrBuild(op any, idx int, build func() (*bfv.PlaintextMul, error)) (*bfv.PlaintextMul, error) {
	if pc == nil {
		return build()
	}
	k := plainKey{op: op, idx: idx}
	pc.mu.Lock()
	if pm, ok := pc.m[k]; ok {
		pc.hits++
		pc.mu.Unlock()
		return pm, nil
	}
	pc.misses++
	pc.mu.Unlock()

	pm, err := build()
	if err != nil {
		return nil, err
	}
	var size int64
	if pm != nil {
		size = pmBytes(pm)
	}
	pc.mu.Lock()
	if _, ok := pc.m[k]; !ok {
		if pc.bytes+size <= pc.budget {
			pc.m[k] = pm
			pc.bytes += size
		} else {
			pc.rejected++
		}
	}
	pc.mu.Unlock()
	return pm, nil
}

// ApplyBatch evaluates the convolution over several sessions' packed
// inputs at once, returning per-item output groups and op counts in
// item order; Apply is the one-item case. cache may be nil (no
// plaintext sharing across batches).
//
// The layer stays in the NTT domain of the data ring from rotation to
// output (DESIGN.md §13): each item is decomposed once, every distinct
// rotation is emitted NTT-resident by RotateRowsLazyNTT (step 0 is the
// input's ToNTT), each (item, group) pair folds its terms into one
// accumulator with MulPlainAcc in (d, ki) order, and FromNTT pays one
// inverse NTT per output group. The inverse NTT is linear mod q, so the
// outputs are byte-identical to rotating, multiplying and adding
// materialized ciphertexts.
func (c *Conv2D) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([][]*bfv.Ciphertext, []OpCounts, error) {
	if c.Weights == nil {
		return nil, nil, fmt.Errorf("core: ApplyBatch on a spec-only convolution (no weights)")
	}
	if len(items) == 0 {
		return nil, nil, nil
	}
	// One rotation plan serves every item: the steps depend only on the
	// layer geometry.
	steps, termRot := c.rotationPlan()
	nk := c.Spec.KH * c.Spec.KW

	// Per-item decomposition of the input (inherently per-request — it
	// transforms c1), run serially: each already fans its digit NTTs.
	dcs := make([]*bfv.DecomposedCiphertext, len(items))
	rots := make([][]*bfv.NTTCiphertext, len(items))
	defer func() {
		for i, dc := range dcs {
			if dc != nil {
				dc.Release()
			}
			for _, r := range rots[i] {
				if r != nil {
					items[i].Ev.RecycleNTT(r)
				}
			}
		}
	}()
	opsOut := make([]OpCounts, len(items))
	for i, it := range items {
		dc, err := it.Ev.Decompose(it.Ct)
		if err != nil {
			return nil, nil, err
		}
		dcs[i] = dc
		rots[i] = make([]*bfv.NTTCiphertext, len(steps))
		opsOut[i].Rotations = len(steps) - 1
	}

	// Every (item, step) rotation across the batch in one flat dispatch.
	nRot := len(items) * len(steps)
	rotErrs := make([]error, nRot)
	par.For(nRot, func(k int) {
		item, j := k/len(steps), k%len(steps)
		rots[item][j], rotErrs[k] = items[item].Ev.RotateRowsLazyNTT(dcs[item], steps[j])
	})
	for _, err := range rotErrs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Accumulation fans out over (item, group) pairs. The prepared
	// weight plaintext of each term is fetched (or built once) from the
	// shared cache — the cross-request saving: one encode+NTT pipeline
	// per term per model, not per request.
	groups := c.Groups()
	outs := make([][]*bfv.Ciphertext, len(items))
	for i := range outs {
		outs[i] = make([]*bfv.Ciphertext, groups)
	}
	pairOps := make([]OpCounts, len(items)*groups)
	pairErrs := make([]error, len(items)*groups)
	par.For(len(items)*groups, func(p int) {
		item, g := p/groups, p%groups
		ev := items[item].Ev
		var acc *bfv.NTTCiphertext
		for d := 0; d < c.Cb; d++ {
			for ki := 0; ki < nk; ki++ {
				pm, err := cache.getOrBuild(c, (g*c.Cb+d)*nk+ki, func() (*bfv.PlaintextMul, error) {
					diag := c.weightDiag(g, d, ki, slots)
					if diag == nil {
						return nil, nil
					}
					pt, err := ecd.EncodeInts(diag)
					if err != nil {
						return nil, err
					}
					return ev.PrepareMul(pt), nil
				})
				if err != nil {
					pairErrs[p] = err
					return
				}
				if pm == nil {
					continue
				}
				if acc == nil {
					acc = ev.NewNTTAccumulator()
				} else {
					pairOps[p].Adds++
				}
				ev.MulPlainAcc(acc, rots[item][termRot[d*nk+ki]], pm)
				pairOps[p].PlainMults++
			}
		}
		if acc == nil {
			pairErrs[p] = fmt.Errorf("core: group %d has no contributing weights", g)
			return
		}
		outs[item][g] = ev.FromNTT(acc)
	})
	for p, err := range pairErrs {
		if err != nil {
			return nil, nil, err
		}
		opsOut[p/groups].Add(pairOps[p])
	}
	return outs, opsOut, nil
}

// ApplyBatch evaluates y = W·x for several sessions' inputs at once
// (BSGS schedule) at the layer's default hoisting level, returning
// per-item outputs and op counts in item order. Results are
// byte-identical to calling Apply per item; cache may be nil.
func (f *FC) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([]*bfv.Ciphertext, []OpCounts, error) {
	return f.ApplyBatchAtLevel(ecd, items, slots, cache, f.HoistLevel())
}

// ApplyBatchAtLevel is ApplyBatch at an explicit hoisting level (the
// ladder of FC.ApplyAtLevel). Per-item outputs are byte-identical
// across levels and to the serial ApplyAtLevel; the batch fuses the
// per-item rotation schedules into flat worker-pool dispatches and
// shares the prepared weight plaintexts through cache.
func (f *FC) ApplyBatchAtLevel(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache, level int) ([]*bfv.Ciphertext, []OpCounts, error) {
	if f.Weights == nil {
		return nil, nil, fmt.Errorf("core: ApplyBatch on a spec-only FC layer (no weights)")
	}
	if len(items) == 0 {
		return nil, nil, nil
	}
	switch level {
	case 1:
		return f.applyBatchHoisted(ecd, items, slots, cache)
	case 2, 3:
		return f.applyBatchLazy(ecd, items, slots, cache, level)
	default:
		return nil, nil, fmt.Errorf("core: unknown hoisting level %d", level)
	}
}

// applyBatchHoisted is the level-1 batch engine.
func (f *FC) applyBatchHoisted(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([]*bfv.Ciphertext, []OpCounts, error) {

	// Baby rotations of every item fuse into one hoisted dispatch.
	babies := make([][]*bfv.Ciphertext, len(items))
	opsOut := make([]OpCounts, len(items))
	for i, it := range items {
		babies[i] = make([]*bfv.Ciphertext, f.B)
		babies[i][0] = it.Ct
	}
	if f.B > 1 {
		steps := make([]int, f.B-1)
		for j := 1; j < f.B; j++ {
			steps[j-1] = j
		}
		sets := make([]bfv.HoistedRotationSet, len(items))
		for i, it := range items {
			sets[i] = bfv.HoistedRotationSet{Ev: it.Ev, Ct: it.Ct, Steps: steps}
		}
		rotOuts, err := bfv.RotateRowsHoistedBatch(sets)
		if err != nil {
			return nil, nil, err
		}
		for i := range items {
			copy(babies[i][1:], rotOuts[i])
			opsOut[i].Rotations += f.B - 1
		}
	}

	// Giant steps fan out over (item, i) pairs; the inner j order and
	// the final fold order match Apply exactly.
	inners := make([][]*bfv.Ciphertext, len(items))
	for i := range inners {
		inners[i] = make([]*bfv.Ciphertext, f.G)
	}
	pairOps := make([]OpCounts, len(items)*f.G)
	pairErrs := make([]error, len(items)*f.G)
	par.For(len(items)*f.G, func(p int) {
		item, i := p/f.G, p%f.G
		ev := items[item].Ev
		var inner *bfv.Ciphertext
		for j := 0; j < f.B; j++ {
			d := i*f.B + j
			pm, err := cache.getOrBuild(f, d, func() (*bfv.PlaintextMul, error) {
				diag := f.diag(d, slots)
				if diag == nil {
					return nil, nil
				}
				// Pre-rotate the diagonal right by i·B so the outer
				// giant rotation restores alignment (as in Apply).
				pt, err := ecd.EncodeInts(f.rotatePlain(diag, -i*f.B))
				if err != nil {
					return nil, err
				}
				return ev.PrepareMul(pt), nil
			})
			if err != nil {
				pairErrs[p] = err
				return
			}
			if pm == nil {
				continue
			}
			term := ev.MulPlain(babies[item][j], pm)
			pairOps[p].PlainMults++
			if inner == nil {
				inner = term
			} else {
				inner = ev.Add(inner, term)
				pairOps[p].Adds++
			}
		}
		if inner == nil {
			return
		}
		if i > 0 {
			r, err := ev.RotateRows(inner, i*f.B)
			if err != nil {
				pairErrs[p] = err
				return
			}
			pairOps[p].Rotations++
			inner = r
		}
		inners[item][i] = inner
	})
	outs := make([]*bfv.Ciphertext, len(items))
	for item := range items {
		var total *bfv.Ciphertext
		for i := 0; i < f.G; i++ {
			p := item*f.G + i
			if pairErrs[p] != nil {
				return nil, nil, pairErrs[p]
			}
			opsOut[item].Add(pairOps[p])
			if inners[item][i] == nil {
				continue
			}
			if total == nil {
				total = inners[item][i]
			} else {
				total = items[item].Ev.Add(total, inners[item][i])
				opsOut[item].Adds++
			}
		}
		if total == nil {
			return nil, nil, fmt.Errorf("core: FC weight matrix is all zero")
		}
		outs[item] = total
	}
	return outs, opsOut, nil
}

// applyBatchLazy is the level-2/3 batch engine: the lazy schedule of
// FC.applyLazy with the batch's (item, baby) and (item, giant) work
// flattened into single worker-pool dispatches, and per-item QP
// accumulators partitioned per worker so rotations from different
// requests overlap. The per-item term order matches applyLazy exactly,
// and every intermediate is exact modular arithmetic, so per-item
// outputs are byte-identical to the serial path at any level.
func (f *FC) applyBatchLazy(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache, level int) ([]*bfv.Ciphertext, []OpCounts, error) {
	opsOut := make([]OpCounts, len(items))

	// Per-item decomposition of the input (inherently per-request — it
	// transforms c1), run serially: each already fans its digit NTTs.
	dcs := make([]*bfv.DecomposedCiphertext, len(items))
	defer func() {
		for _, dc := range dcs {
			if dc != nil {
				dc.Release()
			}
		}
	}()
	babies := make([][]*bfv.NTTCiphertext, len(items))
	defer func() {
		for i, bs := range babies {
			for _, b := range bs {
				if b != nil && b.Value != nil {
					items[i].Ev.RecycleNTT(b)
				}
			}
		}
	}()
	for i, it := range items {
		babies[i] = make([]*bfv.NTTCiphertext, f.B)
		babies[i][0] = it.Ev.ToNTT(it.Ct)
		if f.B > 1 {
			dc, err := it.Ev.Decompose(it.Ct)
			if err != nil {
				return nil, nil, err
			}
			dcs[i] = dc
			opsOut[i].Rotations += f.B - 1
		}
	}

	// All (item, baby) rotations across the batch in one flat dispatch.
	if f.B > 1 {
		nJobs := len(items) * (f.B - 1)
		babyErrs := make([]error, nJobs)
		par.For(nJobs, func(k int) {
			item, j := k/(f.B-1), k%(f.B-1)+1
			ev := items[item].Ev
			if level >= 3 {
				babies[item][j], babyErrs[k] = ev.RotateRowsLazyNTT(dcs[item], j)
				return
			}
			r, err := ev.RotateRowsDecomposed(dcs[item], j)
			if err != nil {
				babyErrs[k] = err
				return
			}
			babies[item][j] = ev.ToNTT(r)
			ev.RecycleCt(r)
		})
		for _, e := range babyErrs {
			if e != nil {
				return nil, nil, e
			}
		}
	}

	// Per-(item, giant) inner sums, NTT-accumulated, weight plaintexts
	// shared through the cache (same keys as every other level).
	inners := make([][]*bfv.Ciphertext, len(items))
	for i := range inners {
		inners[i] = make([]*bfv.Ciphertext, f.G)
	}
	defer func() {
		for i, ins := range inners {
			for _, in := range ins {
				if in != nil && in.Value != nil {
					items[i].Ev.RecycleCt(in)
				}
			}
		}
	}()
	nPairs := len(items) * f.G
	pairOps := make([]OpCounts, nPairs)
	pairErrs := make([]error, nPairs)
	par.For(nPairs, func(p int) {
		item, i := p/f.G, p%f.G
		ev := items[item].Ev
		var acc *bfv.NTTCiphertext
		for j := 0; j < f.B; j++ {
			d := i*f.B + j
			pm, err := cache.getOrBuild(f, d, func() (*bfv.PlaintextMul, error) {
				diag := f.diag(d, slots)
				if diag == nil {
					return nil, nil
				}
				// Pre-rotate the diagonal right by i·B so the outer
				// giant rotation restores alignment (as in Apply).
				pt, err := ecd.EncodeInts(f.rotatePlain(diag, -i*f.B))
				if err != nil {
					return nil, err
				}
				return ev.PrepareMul(pt), nil
			})
			if err != nil {
				pairErrs[p] = err
				return
			}
			if pm == nil {
				continue
			}
			if acc == nil {
				acc = ev.NewNTTAccumulator()
			} else {
				pairOps[p].Adds++
			}
			ev.MulPlainAcc(acc, babies[item][j], pm)
			pairOps[p].PlainMults++
		}
		if acc != nil {
			inners[item][i] = ev.FromNTT(acc)
		}
	})

	// Giant fold: per-(item, worker) QP accumulators, merged per item in
	// worker order — bit-identical to a serial accumulator, any split.
	nw := par.MaxWorkers(nPairs)
	qas := make([][]*bfv.QPAccumulator, len(items))
	for i := range qas {
		qas[i] = make([]*bfv.QPAccumulator, nw)
	}
	wErrs := make([]error, nw)
	par.ForWorker(nPairs, func(w, p int) {
		item, i := p/f.G, p%f.G
		if wErrs[w] != nil || pairErrs[p] != nil || inners[item][i] == nil {
			return
		}
		ev := items[item].Ev
		if qas[item][w] == nil {
			qas[item][w] = ev.NewQPAccumulator()
		}
		if i == 0 {
			wErrs[w] = ev.AddLazy(qas[item][w], inners[item][i])
			return
		}
		dci, err := ev.Decompose(inners[item][i])
		if err != nil {
			wErrs[w] = err
			return
		}
		wErrs[w] = ev.AccumulateQP(qas[item][w], dci, i*f.B)
		dci.Release()
	})

	var firstErr error
	for _, e := range pairErrs {
		if e != nil {
			firstErr = e
			break
		}
	}
	if firstErr == nil {
		for _, e := range wErrs {
			if e != nil {
				firstErr = e
				break
			}
		}
	}
	outs := make([]*bfv.Ciphertext, len(items))
	for item := range items {
		var qa *bfv.QPAccumulator
		for w := 0; w < nw; w++ {
			if qas[item][w] == nil {
				continue
			}
			if firstErr != nil {
				qas[item][w].Release()
				continue
			}
			if qa == nil {
				qa = qas[item][w]
			} else {
				qa.Merge(qas[item][w])
			}
		}
		if firstErr != nil {
			continue
		}
		contributed := 0
		for i := 0; i < f.G; i++ {
			opsOut[item].Add(pairOps[item*f.G+i])
			if inners[item][i] == nil {
				continue
			}
			contributed++
			if i > 0 {
				opsOut[item].Rotations++
			}
			if contributed > 1 {
				opsOut[item].Adds++
			}
		}
		if qa == nil {
			firstErr = fmt.Errorf("core: FC weight matrix is all zero")
			continue
		}
		outs[item] = items[item].Ev.FinalizeModDown(qa)
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return outs, opsOut, nil
}
