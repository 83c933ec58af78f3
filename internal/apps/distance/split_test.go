package distance

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"choco/internal/ckks"
	"choco/internal/protocol"
)

// splitPair builds a split server over pts and a client for its
// geometry.
func splitPair(t testing.TB, pts [][]float64, seed byte) (*Server, *Client) {
	t.Helper()
	server, err := NewServer(PresetDistanceTest(), pts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, rawD := server.Geometry()
	client, err := NewClient(PresetDistanceTest(), m, rawD, [32]byte{seed})
	if err != nil {
		t.Fatal(err)
	}
	return server, client
}

func TestSplitDeploymentMatchesPlain(t *testing.T) {
	pts := synthPoints(8, 4, 51)
	server, client := splitPair(t, pts, 52)

	q := []float64{0.5, -0.75, 1.25, 0}
	want := PlainDistances(pts, q)

	for _, v := range []Variant{StackedDimMajor, CollapsedPointMajor} {
		clientEnd, serverEnd := protocol.NewPipe()
		errCh := make(chan error, 1)
		go func() {
			if err := server.AcceptSetup(serverEnd); err != nil {
				errCh <- err
				return
			}
			_, err := server.ServeOne(serverEnd)
			errCh <- err
		}()
		if err := client.Setup(clientEnd); err != nil {
			t.Fatal(err)
		}
		got, stats, err := client.Query(q, v, clientEnd)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("%v server: %v", v, err)
		}
		clientEnd.Close()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("%v point %d: got %v want %v", v, i, got[i], want[i])
			}
		}
		if stats.UpCiphertexts != 1 || stats.DownCiphertexts != 1 {
			t.Errorf("%v: traffic %+v, want single round trip", v, stats)
		}
	}
}

func TestSplitServerRejectsUnsupportedVariant(t *testing.T) {
	pts := synthPoints(4, 2, 53)
	server, err := NewServer(PresetDistanceTest(), pts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, rawD := server.Geometry()
	client, err := NewClient(PresetDistanceTest(), m, rawD, [32]byte{54})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	go func() {
		server.AcceptSetup(serverEnd)
		server.ServeOne(serverEnd)
	}()
	client.Setup(clientEnd)
	if _, _, err := client.Query([]float64{1, 2}, PointMajor, clientEnd); err == nil {
		t.Error("expected unsupported-variant error on the client side")
	}
}

func TestSplitServerRequiresSetup(t *testing.T) {
	server, err := NewServer(PresetDistanceTest(), synthPoints(4, 2, 55))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := protocol.NewPipe()
	defer a.Close()
	if _, err := server.ServeOne(a); err == nil {
		t.Error("expected error before AcceptSetup")
	}
}

func TestSplitClientGeometryValidation(t *testing.T) {
	if _, err := NewClient(PresetDistanceTest(), 4096, 64, [32]byte{56}); err == nil {
		t.Error("expected slot-capacity error")
	}
}

// rawQuery serves one collapsed query the way Client.Query sends it,
// but with a caller-built query ciphertext, and returns the server's
// reply frame or error. The server must hold evaluation keys.
func rawQuery(t *testing.T, server *Server, q *ckks.Ciphertext) ([]byte, error) {
	t.Helper()
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := server.ServeOne(serverEnd)
		errCh <- err
	}()
	if err := clientEnd.Send(requestFrame(CollapsedPointMajor)); err != nil {
		t.Fatal(err)
	}
	if err := clientEnd.Send(protocol.MarshalCKKS(q)); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		return nil, err
	}
	reply, err := clientEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return reply, nil
}

// installKeys gives the server the client's evaluation keys without
// the wire round trip (full-slot geometries carry hundreds of keys).
func installKeys(server *Server, client *Client) {
	server.ev = ckks.NewEvaluator(server.ctx, client.bundle.Relin, client.bundle.Galois)
}

// collapseOracle is the textbook collapsed point-major server, one cell
// at a time: the stacked squared distances reduced per block, then for
// every point a serial RotateLeft into place, a freshly encoded one-hot
// MulPlain and an Add, then one Rescale.
func collapseOracle(t *testing.T, client *Client, pts [][]float64, q *ckks.Ciphertext) *ckks.Ciphertext {
	t.Helper()
	ctx := client.ctx
	ev := ckks.NewEvaluator(ctx, client.bundle.Relin, client.bundle.Galois)
	ecd := ckks.NewEncoder(ctx)
	slots := ctx.Params.Slots()
	m, d := len(pts), nextPow2(len(pts[0]))
	must := func(ct *ckks.Ciphertext, err error) *ckks.Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	encode := func(v []float64, level int, scale float64) *ckks.Plaintext {
		t.Helper()
		pt, err := ecd.EncodeFloats(v, level, scale)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	pVec := make([]float64, slots)
	for i, p := range pts {
		copy(pVec[i*d:], p)
	}
	diff := must(ev.SubPlain(q, encode(pVec, q.Level, q.Scale)))
	acc := must(ev.MulRelin(diff, diff))
	for s := d / 2; s >= 1; s /= 2 {
		acc = must(ev.Add(acc, must(ev.RotateLeft(acc, s))))
	}
	var sum *ckks.Ciphertext
	for i := 0; i < m; i++ {
		mask := make([]float64, slots)
		mask[i] = 1
		cell := must(ev.MulPlain(must(ev.RotateLeft(acc, i*(d-1))), encode(mask, acc.Level, math.Ldexp(1, 30))))
		if sum == nil {
			sum = cell
		} else {
			sum = must(ev.Add(sum, cell))
		}
	}
	return must(ev.Rescale(sum))
}

// TestSplitCollapseMatchesCellOracle pins the split server's hoisted,
// precomputed collapse byte for byte to the per-cell oracle, across
// dimensionalities and up to a full ciphertext of points.
func TestSplitCollapseMatchesCellOracle(t *testing.T) {
	slots := PresetDistanceTest().Slots()
	for _, d := range []int{1, 2, 4} {
		for _, m := range []int{1, 5, slots / d} {
			pts := synthPoints(m, d, byte(10*d+m))
			server, client := splitPair(t, pts, 57)
			installKeys(server, client)
			qv := make([]float64, d)
			for j := range qv {
				qv[j] = 0.25*float64(j) - 0.5
			}
			qVec, err := packQuery(CollapsedPointMajor, qv, m, d, slots)
			if err != nil {
				t.Fatal(err)
			}
			q, err := client.enc.EncryptFloats(qVec)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := rawQuery(t, server, q)
			if err != nil {
				t.Fatalf("d=%d m=%d: %v", d, m, err)
			}
			if want := protocol.MarshalCKKS(collapseOracle(t, client, pts, q)); !bytes.Equal(reply, want) {
				t.Errorf("d=%d m=%d: reply differs from the per-cell MulPlain+Add oracle", d, m)
			}
		}
	}
}

// TestSplitServerRejectsMismatchedQuery checks that ServeOne refuses a
// query ciphertext the precomputed plaintexts were not encoded for.
func TestSplitServerRejectsMismatchedQuery(t *testing.T) {
	pts := synthPoints(4, 4, 58)
	server, client := splitPair(t, pts, 59)
	installKeys(server, client)
	slots := client.ctx.Params.Slots()
	qVec, err := packQuery(CollapsedPointMajor, []float64{1, 0, -1, 0.5}, 4, 4, slots)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.enc.EncryptFloats(qVec)
	if err != nil {
		t.Fatal(err)
	}
	ev := ckks.NewEvaluator(client.ctx, nil, nil)
	lower, err := ev.DropLevel(q, q.Level-1)
	if err != nil {
		t.Fatal(err)
	}
	tensor, err := ev.Mul(q, q)
	if err != nil {
		t.Fatal(err)
	}
	rescaled := client.ctx.CopyCt(q)
	rescaled.Scale *= 2
	for name, bad := range map[string]*ckks.Ciphertext{"one level down": lower, "degree 2": tensor, "scale doubled": rescaled} {
		if _, err := rawQuery(t, server, bad); err == nil || !strings.Contains(err.Error(), "query ciphertext") {
			t.Errorf("%s: err = %v, want a query-ciphertext rejection", name, err)
		}
	}
	if _, err := rawQuery(t, server, q); err != nil {
		t.Errorf("well-formed query rejected: %v", err)
	}
}
