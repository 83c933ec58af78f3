package distance

import (
	"encoding/binary"
	"fmt"

	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/par"
	"choco/internal/protocol"
)

// Split deployment of the distance kernels: the server aggregates the
// point set and receives only the client's evaluation keys; the client
// holds the secret key and its query. Mirrors nn's split inference.
// The split path supports the client-optimized packings — stacked
// dimension-major and collapsed point-major — which need exactly one
// uploaded and one downloaded ciphertext per query (§5.4).

// request header: [variant uint32].
func requestFrame(v Variant) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	return b[:]
}

// Server is the untrusted side of the split deployment.
type Server struct {
	*pointSet
	ev *ckks.Evaluator
}

// NewServer builds the server over the aggregated point set, encoding
// every plaintext a query needs once.
func NewServer(params ckks.Parameters, points [][]float64) (*Server, error) {
	ps, err := newPointSet(params, points)
	if err != nil {
		return nil, err
	}
	return &Server{pointSet: ps}, nil
}

// Geometry returns (points, padded dims) — published to clients so
// they can pack and decode.
func (s *Server) Geometry() (m, d, rawD int) { return s.m, s.d, s.rawD }

// AcceptSetup installs a client's evaluation keys.
func (s *Server) AcceptSetup(t protocol.Transport) error {
	raw, err := t.Recv()
	if err != nil {
		return err
	}
	kb, err := protocol.UnmarshalCKKSKeyBundle(s.ctx, raw)
	if err != nil {
		return err
	}
	s.ev = ckks.NewEvaluator(s.ctx, kb.Relin, kb.Galois)
	return nil
}

// ServeOne handles one query: request frame, query ciphertext in,
// result ciphertext out. Returns the server operation counts. A query
// ciphertext whose degree, level or scale differs from Client.Query's
// is rejected, since the precomputed plaintexts assume them. The query
// runs on one core (par.Serial): the server scales by connections, and
// a fan-out inside one query would make its latency depend on whether
// another core happens to be free (EXPERIMENTS.md, k-NN distance
// server).
func (s *Server) ServeOne(t protocol.Transport) (core.OpCounts, error) {
	var ops core.OpCounts
	if s.ev == nil {
		return ops, fmt.Errorf("distance: server has no evaluation keys; call AcceptSetup first")
	}
	req, err := t.Recv()
	if err != nil {
		return ops, err
	}
	if len(req) != 4 {
		return ops, fmt.Errorf("distance: malformed request frame")
	}
	variant := Variant(binary.LittleEndian.Uint32(req))

	raw, err := t.Recv()
	if err != nil {
		return ops, err
	}
	q, err := protocol.UnmarshalCKKS(s.ctx, raw)
	if err != nil {
		return ops, err
	}
	var result *ckks.Ciphertext
	par.Serial(func() { result, err = s.serve(s.ev, variant, q, &ops) })
	if err != nil {
		return ops, err
	}
	return ops, t.Send(protocol.MarshalCKKS(result))
}

// Client is the trusted side of the split deployment.
type Client struct {
	ctx    *ckks.Context
	sk     *ckks.SecretKey
	enc    *ckks.Encryptor
	dec    *ckks.Decryptor
	bundle *protocol.CKKSKeyBundle
	m, d   int
	rawD   int
}

// NewClient generates key material for querying a server with the
// given geometry (published by the server out of band).
func NewClient(params ckks.Parameters, m, rawD int, seed [32]byte) (*Client, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	d := nextPow2(rawD)
	slots := ctx.Params.Slots()
	if m*d > slots {
		return nil, fmt.Errorf("distance: geometry exceeds slot capacity")
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	galois := kg.GenRotationKeys(sk, rotationSteps(m, d, slots)...)
	return &Client{
		ctx: ctx, sk: sk,
		enc:    ckks.NewEncryptor(ctx, pk, seed),
		dec:    ckks.NewDecryptor(ctx, sk),
		bundle: &protocol.CKKSKeyBundle{PK: pk, Relin: relin, Galois: galois},
		m:      m, d: d, rawD: rawD,
	}, nil
}

// Setup ships evaluation keys to the server.
func (c *Client) Setup(t protocol.Transport) error {
	return t.Send(protocol.MarshalCKKSKeyBundle(c.bundle))
}

// Query computes squared distances from q to every server point via
// one round trip.
func (c *Client) Query(q []float64, variant Variant, t protocol.Transport) ([]float64, core.Stats, error) {
	var stats core.Stats
	if len(q) != c.rawD {
		return nil, stats, fmt.Errorf("distance: query has %d dims, want %d", len(q), c.rawD)
	}
	qVec, err := packQuery(variant, q, c.m, c.d, c.ctx.Params.Slots())
	if err != nil {
		return nil, stats, err
	}
	ct, err := c.enc.EncryptFloats(qVec)
	if err != nil {
		return nil, stats, err
	}
	stats.Encryptions++
	if err := t.Send(requestFrame(variant)); err != nil {
		return nil, stats, err
	}
	data := protocol.MarshalCKKS(ct)
	if err := t.Send(data); err != nil {
		return nil, stats, err
	}
	stats.UpCiphertexts++
	stats.UpBytes += int64(len(data)) + 8 // ct + request frames

	raw, err := t.Recv()
	if err != nil {
		return nil, stats, err
	}
	stats.DownCiphertexts++
	stats.DownBytes += int64(len(raw)) + 4
	res, err := protocol.UnmarshalCKKS(c.ctx, raw)
	if err != nil {
		return nil, stats, err
	}
	out := make([]float64, c.m)
	copy(out, c.dec.DecryptFloats(res)[:c.m])
	stats.Decryptions++
	return out, stats, nil
}
