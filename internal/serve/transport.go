package serve

import (
	"sync/atomic"
	"time"

	"choco/internal/protocol"
)

// TimedTransport arms per-frame deadlines on a framed TCP transport:
// the first Recv of each request waits up to the idle timeout, every
// later frame gets the tighter I/O timeout. It also marks whether the
// endpoint is parked between requests, which drain logic uses to
// decide whom to interrupt — both the Server's graceful shutdown here
// and the fabric router's, which splices client frames to backend
// shards and reuses exactly this request/idle distinction on the
// client leg (see internal/fabric).
type TimedTransport struct {
	*protocol.Conn
	idleTimeout, ioTimeout time.Duration
	awaitingRequest        atomic.Bool
}

// NewTimedTransport wraps a framed connection with the idle/IO
// deadline policy and arms the write timeout. The transport starts in
// the awaiting-request state (the opening frame gets the idle budget).
func NewTimedTransport(c *protocol.Conn, idleTimeout, ioTimeout time.Duration) *TimedTransport {
	t := &TimedTransport{Conn: c, idleTimeout: idleTimeout, ioTimeout: ioTimeout}
	t.Conn.SetWriteTimeout(ioTimeout)
	t.awaitingRequest.Store(true)
	return t
}

// Recv reads one frame under the deadline for the current state and
// transitions to mid-request on success.
func (st *TimedTransport) Recv() ([]byte, error) {
	if st.awaitingRequest.Load() {
		st.Conn.SetReadTimeout(st.idleTimeout)
	} else {
		st.Conn.SetReadTimeout(st.ioTimeout)
	}
	data, err := st.Conn.Recv()
	if err == nil {
		st.awaitingRequest.Store(false)
	}
	return data, err
}

// MarkRequest flags that the next Recv begins a new request, so it
// gets the idle budget and drain may interrupt while it is parked.
func (st *TimedTransport) MarkRequest() { st.awaitingRequest.Store(true) }

// Idle reports whether the transport is parked between requests.
func (st *TimedTransport) Idle() bool { return st.awaitingRequest.Load() }

// requestMarker lets the session loop tell a transport that the next
// Recv begins a new request (idle-timeout territory).
type requestMarker interface {
	markAwaitingRequest()
	isAwaitingRequest() bool
}

func (st *TimedTransport) markAwaitingRequest()    { st.MarkRequest() }
func (st *TimedTransport) isAwaitingRequest() bool { return st.Idle() }

// replyGate holds back the newest outgoing frame until the next call
// on the transport or an explicit flush. The session loop serves each
// request through it, books the request, then flushes: the frame a
// client waits on last leaves only after the server's counters include
// the request.
type replyGate struct {
	protocol.Transport
	held    []byte
	pending bool
}

// Send releases the previously held frame and holds msg.
func (g *replyGate) Send(msg []byte) error {
	if err := g.flush(); err != nil {
		return err
	}
	g.held, g.pending = msg, true
	return nil
}

// Recv releases the held frame before blocking on the peer.
func (g *replyGate) Recv() ([]byte, error) {
	if err := g.flush(); err != nil {
		return nil, err
	}
	return g.Transport.Recv()
}

// SentBytes counts the held frame as sent (payload plus its 4-byte
// length), as the transport will once it is flushed.
func (g *replyGate) SentBytes() int64 {
	n := g.Transport.SentBytes()
	if g.pending {
		n += int64(len(g.held)) + 4
	}
	return n
}

func (g *replyGate) flush() error {
	if !g.pending {
		return nil
	}
	msg := g.held
	g.held, g.pending = nil, false
	return g.Transport.Send(msg)
}
