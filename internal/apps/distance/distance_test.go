package distance

import (
	"math"
	"testing"
	"testing/quick"

	"choco/internal/core"
	"choco/internal/protocol"
	"choco/internal/sampling"
)

func synthPoints(m, d int, seed byte) [][]float64 {
	src := sampling.NewSource([32]byte{seed}, "distance-points")
	pts := make([][]float64, m)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = src.Float64()*4 - 2
		}
	}
	return pts
}

func testKernel(t *testing.T, m, d int) *Kernel {
	t.Helper()
	k, err := NewKernel(PresetDistanceTest(), synthPoints(m, d, 1), [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewKernel(PresetDistanceTest(), nil, [32]byte{1}); err == nil {
		t.Error("expected error for empty point set")
	}
	if _, err := NewKernel(PresetDistanceTest(), synthPoints(2048, 4, 1), [32]byte{1}); err == nil {
		t.Error("expected error for slot overflow")
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := NewKernel(PresetDistanceTest(), ragged, [32]byte{1}); err == nil {
		t.Error("expected error for ragged points")
	}
}

func TestAllVariantsMatchPlainDistances(t *testing.T) {
	m, d := 8, 4
	kernel := testKernel(t, m, d)
	q := []float64{0.5, -1.25, 1.0, 0.25}
	want := PlainDistances(kernel.points, q)

	for _, v := range Variants() {
		clientEnd, serverEnd := protocol.NewPipe()
		got, stats, err := kernel.Distances(q, v, clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(got) != m {
			t.Fatalf("%v: %d results", v, len(got))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("%v point %d: got %v want %v", v, i, got[i], want[i])
			}
		}
		if stats.UpCiphertexts == 0 || stats.DownCiphertexts == 0 {
			t.Errorf("%v: no traffic recorded: %+v", v, stats)
		}
		t.Logf("%v: up=%d down=%d upB=%d downB=%d server=%+v",
			v, stats.UpCiphertexts, stats.DownCiphertexts, stats.UpBytes, stats.DownBytes, stats.Server)
	}
}

func TestVariantTrafficShape(t *testing.T) {
	// Fig 9/§5.4 structure: point-major downloads one ciphertext per
	// point; collapsed downloads exactly one; dimension-major uploads
	// one per dimension.
	m, d := 8, 4
	kernel := testKernel(t, m, d)
	q := []float64{0, 0, 0, 0}

	traffic := map[Variant][2]int{}
	for _, v := range Variants() {
		clientEnd, serverEnd := protocol.NewPipe()
		_, stats, err := kernel.Distances(q, v, clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatal(err)
		}
		traffic[v] = [2]int{stats.UpCiphertexts, stats.DownCiphertexts}
	}
	if traffic[PointMajor][1] != m {
		t.Errorf("point-major downloads %d, want %d", traffic[PointMajor][1], m)
	}
	if traffic[CollapsedPointMajor][1] != 1 {
		t.Errorf("collapsed downloads %d, want 1", traffic[CollapsedPointMajor][1])
	}
	if traffic[DimensionMajor][0] != d {
		t.Errorf("dimension-major uploads %d, want %d", traffic[DimensionMajor][0], d)
	}
	if traffic[StackedDimMajor][0] != 1 || traffic[StackedDimMajor][1] != 1 {
		t.Errorf("stacked dim-major traffic %v, want {1,1}", traffic[StackedDimMajor])
	}
	// The client-optimized finding: collapsed point-major moves the
	// fewest ciphertexts.
	for _, v := range Variants() {
		tot := traffic[v][0] + traffic[v][1]
		cTot := traffic[CollapsedPointMajor][0] + traffic[CollapsedPointMajor][1]
		if cTot > tot {
			t.Errorf("collapsed (%d cts) worse than %v (%d cts)", cTot, v, tot)
		}
	}
}

func TestAnalyzeCostAgainstMeasured(t *testing.T) {
	// The analytic model must reproduce the executed paths: ciphertext
	// counts and every server operation count, on the in-process kernel
	// for all variants and on the split server for the two it serves.
	for _, g := range []struct{ m, d int }{{8, 4}, {5, 2}, {6, 1}} {
		pts := synthPoints(g.m, g.d, 1)
		kernel, err := NewKernel(PresetDistanceTest(), pts, [32]byte{2})
		if err != nil {
			t.Fatal(err)
		}
		slots := kernel.ctx.Params.Slots()
		q := []float64{0.1, 0.2, 0.3, 0.4}[:g.d]
		for _, v := range Variants() {
			clientEnd, serverEnd := protocol.NewPipe()
			_, stats, err := kernel.Distances(q, v, clientEnd, serverEnd)
			clientEnd.Close()
			if err != nil {
				t.Fatal(err)
			}
			c := AnalyzeCost(v, g.m, g.d, slots)
			if c.UpCts != stats.UpCiphertexts || c.DownCts != stats.DownCiphertexts {
				t.Errorf("m=%d d=%d %v: model (%d,%d) vs measured (%d,%d)",
					g.m, g.d, v, c.UpCts, c.DownCts, stats.UpCiphertexts, stats.DownCiphertexts)
			}
			if c.Server != stats.Server {
				t.Errorf("m=%d d=%d %v: model ops %+v vs kernel %+v", g.m, g.d, v, c.Server, stats.Server)
			}
		}

		server, client := splitPair(t, pts, 3)
		for _, v := range []Variant{StackedDimMajor, CollapsedPointMajor} {
			clientEnd, serverEnd := protocol.NewPipe()
			var ops core.OpCounts
			errCh := make(chan error, 1)
			go func() {
				err := server.AcceptSetup(serverEnd)
				if err == nil {
					ops, err = server.ServeOne(serverEnd)
				}
				errCh <- err
			}()
			if err := client.Setup(clientEnd); err != nil {
				t.Fatal(err)
			}
			if _, _, err := client.Query(q, v, clientEnd); err != nil {
				t.Fatal(err)
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			clientEnd.Close()
			if c := AnalyzeCost(v, g.m, g.d, slots); c.Server != ops {
				t.Errorf("m=%d d=%d %v: model ops %+v vs split server %+v", g.m, g.d, v, c.Server, ops)
			}
		}
	}
}

func TestKNNMatchesPlain(t *testing.T) {
	m, d := 8, 4
	kernel := testKernel(t, m, d)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	knn, err := NewKNN(kernel, labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float64{
		{0.5, -1.25, 1.0, 0.25},
		{-1, -1, -1, -1},
		{1.5, 0, 0.5, -0.5},
	} {
		want := PlainKNN(kernel.points, labels, q, 3)
		clientEnd, serverEnd := protocol.NewPipe()
		got, stats, err := knn.Classify(q, 3, CollapsedPointMajor, clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("query %v: got label %d, want %d", q, got, want)
		}
		// A single interaction (§5.1: "classifying a new point requires
		// just a single interaction").
		if stats.UpCiphertexts != 1 || stats.DownCiphertexts != 1 {
			t.Errorf("KNN traffic %+v, want single round trip", stats)
		}
	}
	if _, err := NewKNN(kernel, []int{1}); err == nil {
		t.Error("expected label-count error")
	}
}

func TestKMeansConvergesLikePlain(t *testing.T) {
	// Two well-separated blobs.
	pts := [][]float64{
		{2, 2}, {2.2, 1.9}, {1.8, 2.1}, {2.1, 2.2},
		{-2, -2}, {-2.1, -1.8}, {-1.9, -2.2}, {-2.2, -2},
	}
	kernel, err := NewKernel(PresetDistanceTest(), pts, [32]byte{5})
	if err != nil {
		t.Fatal(err)
	}
	init := [][]float64{{1, 1}, {-1, -1}}
	wantCentroids, wantAssign := PlainKMeans(pts, init, 10)

	km := NewKMeans(kernel)
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	got, stats, err := km.Run(init, 10, StackedDimMajor, clientEnd, serverEnd)
	if err != nil {
		t.Fatal(err)
	}
	for c := range wantCentroids {
		for dIdx := range wantCentroids[c] {
			if math.Abs(got[c][dIdx]-wantCentroids[c][dIdx]) > 0.05 {
				t.Errorf("centroid %d dim %d: got %v want %v", c, dIdx, got[c][dIdx], wantCentroids[c][dIdx])
			}
		}
	}
	for i := range wantAssign {
		if km.Assignments[i] != wantAssign[i] {
			t.Errorf("assignment %d: got %d want %d", i, km.Assignments[i], wantAssign[i])
		}
	}
	if km.Iterations < 2 {
		t.Errorf("expected at least 2 iterations, got %d", km.Iterations)
	}
	if stats.Encryptions == 0 || stats.Decryptions == 0 {
		t.Error("missing client op accounting")
	}
	t.Logf("kmeans: %d iterations, stats %+v", km.Iterations, stats)
}

func TestKMeansEmptyInit(t *testing.T) {
	kernel := testKernel(t, 4, 2)
	km := NewKMeans(kernel)
	a, b := protocol.NewPipe()
	defer a.Close()
	if _, _, err := km.Run(nil, 5, StackedDimMajor, a, b); err == nil {
		t.Error("expected error for empty init")
	}
}

func TestQuickCostModelMonotone(t *testing.T) {
	// More points can never reduce any variant's traffic or server work.
	f := func(mSeed, dSeed uint8) bool {
		m := 8 + int(mSeed)%64
		d := 1 << (2 + int(dSeed)%4)
		const slots = 4096
		for _, v := range Variants() {
			a := AnalyzeCost(v, m, d, slots)
			b := AnalyzeCost(v, m*2, d, slots)
			if b.TotalCts() < a.TotalCts() {
				return false
			}
			if b.Server.CtMults < a.Server.CtMults {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCostCollapsedAlwaysSingleRoundTrip(t *testing.T) {
	f := func(mSeed, dSeed uint8) bool {
		m := 1 + int(mSeed)%128
		d := 1 << (int(dSeed) % 6)
		c := AnalyzeCost(CollapsedPointMajor, m, d, 4096)
		return c.UpCts == 1 && c.DownCts == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
