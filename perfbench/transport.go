package main

import (
	"sync"
	"time"

	"choco/internal/protocol"
	"choco/internal/serve"
)

// reqTag names one request on a benchmark connection and says whether
// it is traced. The client end creates it before sending the request's
// first frame; the server end, which sees the connection's requests in
// the same order, reads it back when that frame arrives.
type reqTag struct {
	id     string
	traced bool
}

// connTrace is the state the two ends of one traced connection share.
type connTrace struct {
	mu   sync.Mutex
	open reqTag
	reqs []reqTag
}

func (c *connTrace) setOpen(tag reqTag) {
	c.mu.Lock()
	c.open = tag
	c.mu.Unlock()
}

func (c *connTrace) addRequest(tag reqTag) {
	c.mu.Lock()
	c.reqs = append(c.reqs, tag)
	c.mu.Unlock()
}

// request returns tag k, or an untraced tag if the client named none.
func (c *connTrace) request(k int) reqTag {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < len(c.reqs) {
		return c.reqs[k]
	}
	return reqTag{}
}

func (c *connTrace) openTag() reqTag {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.open
}

// peerTable maps a client connection's local address to its connTrace,
// so the server end of a traced run can find the client's tags.
type peerTable struct {
	mu sync.Mutex
	m  map[string]*connTrace
}

func (p *peerTable) register(addr string) *connTrace {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = map[string]*connTrace{}
	}
	c := &connTrace{}
	p.m[addr] = c
	return c
}

func (p *peerTable) lookup(addr string) *connTrace {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.m[addr]; c != nil {
		return c
	}
	return &connTrace{}
}

// clientTransport wraps the client end of a connection. It always
// counts frames and bytes and the time the client spends blocked in
// Recv (the end-to-end client_compute metric needs that); in a traced
// request it also records each Send and Recv as a child of the
// request's root span, and it can keep copies of the frames it moves
// for the per-layer replays.
type clientTransport struct {
	*protocol.Conn
	rec *Recorder

	parent int64 // root span of the current traced call; 0 = untraced
	req    string

	recvBlocked          time.Duration
	framesUp, framesDown int
	bytesUp, bytesDown   int64

	// capture, when set, receives every frame sent (up=true) and
	// received while a traced call is open.
	capture func(up bool, frame []byte)
}

func newClientTransport(c *protocol.Conn, rec *Recorder) *clientTransport {
	return &clientTransport{Conn: c, rec: rec}
}

// begin attributes the following Sends and Recvs to a traced call
// (parent != 0) or to an untraced one (parent == 0).
func (t *clientTransport) begin(parent int64, req string) { t.parent, t.req = parent, req }

func (t *clientTransport) Send(msg []byte) error {
	t0 := time.Now()
	err := t.Conn.Send(msg)
	if err != nil {
		return err
	}
	t.framesUp++
	t.bytesUp += int64(len(msg)) + 4
	if t.parent != 0 {
		t.rec.Record(0, t.parent, "protocol.send", t.req, t0, time.Now())
		if t.capture != nil {
			t.capture(true, msg)
		}
	}
	return nil
}

func (t *clientTransport) Recv() ([]byte, error) {
	t0 := time.Now()
	msg, err := t.Conn.Recv()
	t1 := time.Now()
	t.recvBlocked += t1.Sub(t0)
	if err != nil {
		return nil, err
	}
	t.framesDown++
	t.bytesDown += int64(len(msg)) + 4
	if t.parent != 0 {
		t.rec.Record(0, t.parent, "protocol.recv", t.req, t0, t1)
		if t.capture != nil {
			t.capture(false, msg)
		}
	}
	return msg, nil
}

// serverTransport wraps the server end of a traced connection. It
// embeds *serve.TimedTransport, so the server's own deadline policy and
// its idle/request marking (which serve reaches through methods the
// embedding promotes) work unchanged.
//
// A request starts at the first Recv made while the transport is idle
// (serve marks it so before each request; the KNN loop does the same)
// and ends with the last Send before the next one. The first such
// request is the session open. Each becomes one span from its first
// frame received to its last frame sent, with the Sends and later
// Recvs inside it as children; spans of untraced requests are dropped.
type serverTransport struct {
	*serve.TimedTransport
	rec      *Recorder
	peers    *peerTable
	remote   string
	openName string
	reqName  string

	conn     *connTrace
	requests int // requests started, the open excluded
	opened   bool

	cur      reqTag
	curName  string
	curID    int64 // 0 while no traced request is open
	curStart time.Time
	curEnd   time.Time
	pending  []pendingSpan
}

type pendingSpan struct {
	name       string
	start, end time.Time
}

func newServerTransport(tt *serve.TimedTransport, rec *Recorder, peers *peerTable, remote, openName, reqName string) *serverTransport {
	return &serverTransport{TimedTransport: tt, rec: rec, peers: peers, remote: remote, openName: openName, reqName: reqName}
}

func (t *serverTransport) Recv() ([]byte, error) {
	starts := t.Idle()
	t0 := time.Now()
	msg, err := t.TimedTransport.Recv()
	t1 := time.Now()
	if err != nil {
		t.finish(t0)
		return nil, err
	}
	if !starts {
		t.child("protocol.server_recv", t0, t1)
		return msg, nil
	}
	t.finish(t0)
	if t.conn == nil {
		t.conn = t.peers.lookup(t.remote)
	}
	if !t.opened {
		t.opened = true
		t.begin(t.conn.openTag(), t.openName, t1)
	} else {
		t.begin(t.conn.request(t.requests), t.reqName, t1)
		t.requests++
	}
	return msg, nil
}

func (t *serverTransport) Send(msg []byte) error {
	t0 := time.Now()
	err := t.TimedTransport.Send(msg)
	t1 := time.Now()
	t.child("protocol.server_send", t0, t1)
	t.curEnd = t1
	return err
}

func (t *serverTransport) begin(tag reqTag, name string, start time.Time) {
	t.cur, t.curName, t.curStart, t.curEnd = tag, name, start, start
	t.pending = t.pending[:0]
	t.curID = 0
	if tag.traced {
		t.curID = t.rec.NewID()
	}
}

func (t *serverTransport) child(name string, start, end time.Time) {
	if t.curID != 0 {
		t.pending = append(t.pending, pendingSpan{name, start, end})
	}
}

// finish closes the open request, if any. The open's end is the moment
// the server came back for the first request (its install work is done
// by then), a request's end its last Send.
func (t *serverTransport) finish(next time.Time) {
	if t.curID == 0 {
		return
	}
	end := t.curEnd
	if t.curName == t.openName {
		end = next
	}
	t.rec.Record(t.curID, 0, t.curName, t.cur.id, t.curStart, end)
	for _, c := range t.pending {
		t.rec.Record(0, t.curID, c.name, t.cur.id, c.start, c.end)
	}
	t.curID = 0
	t.pending = t.pending[:0]
}
