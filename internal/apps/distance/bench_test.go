package distance

import (
	"testing"

	"choco/internal/core"
	"choco/internal/protocol"
)

func benchKernel(b *testing.B, m, d int) *Kernel {
	b.Helper()
	k, err := NewKernel(PresetDistanceTest(), synthPoints(m, d, 1), [32]byte{2})
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func benchVariant(b *testing.B, v Variant) {
	kernel := benchKernel(b, 8, 4)
	q := []float64{0.5, -1.25, 1.0, 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clientEnd, serverEnd := protocol.NewPipe()
		if _, _, err := kernel.Distances(q, v, clientEnd, serverEnd); err != nil {
			b.Fatal(err)
		}
		clientEnd.Close()
	}
}

func BenchmarkDistanceStackedDimMajor(b *testing.B)   { benchVariant(b, StackedDimMajor) }
func BenchmarkDistanceCollapsed(b *testing.B)         { benchVariant(b, CollapsedPointMajor) }
func BenchmarkDistanceStackedPointMajor(b *testing.B) { benchVariant(b, StackedPointMajor) }

func BenchmarkKNNClassify(b *testing.B) {
	kernel := benchKernel(b, 8, 4)
	knn, err := NewKNN(kernel, []int{0, 1, 0, 1, 0, 1, 0, 1})
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{0.1, 0.2, 0.3, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clientEnd, serverEnd := protocol.NewPipe()
		if _, _, err := knn.Classify(q, 3, CollapsedPointMajor, clientEnd, serverEnd); err != nil {
			b.Fatal(err)
		}
		clientEnd.Close()
	}
}

// BenchmarkSplitServeCollapsed times the split server's ServeOne on a
// collapsed point-major query at the production preset and the
// k-NN benchmark's geometry (32 points of 4 dimensions).
func BenchmarkSplitServeCollapsed(b *testing.B) {
	params := PresetDistance()
	pts := synthPoints(32, 4, 3)
	server, err := NewServer(params, pts)
	if err != nil {
		b.Fatal(err)
	}
	client, err := NewClient(params, 32, 4, [32]byte{4})
	if err != nil {
		b.Fatal(err)
	}
	installKeys(server, client)
	qVec, err := packQuery(CollapsedPointMajor, []float64{0.5, -1, 1.5, 0}, 32, 4, params.Slots())
	if err != nil {
		b.Fatal(err)
	}
	q, err := client.enc.EncryptFloats(qVec)
	if err != nil {
		b.Fatal(err)
	}
	var ops core.OpCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.serve(server.ev, CollapsedPointMajor, q, &ops); err != nil {
			b.Fatal(err)
		}
	}
}
