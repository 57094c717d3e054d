// The client: a Mux is one TCP connection carrying any number of
// concurrent sessions. Every request travels tagged; a demultiplexing
// reader goroutine matches responses (which complete out of order
// across sessions) back to their callers. This is how a pool of
// application threads shares a handful of connections instead of one
// connection each.
package wire

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"divsql/internal/sql/types"
)

// Mux is a multiplexed client connection: any number of sessions, each
// its own transaction scope, over one TCP connection. All methods are
// safe for concurrent use.
type Mux struct {
	conn net.Conn

	wmu  sync.Mutex // serializes request writes
	wbuf []byte     // request buffer, reused under wmu

	mu      sync.Mutex // guards pending, nextTag, closed, readErr
	pending map[uint64]chan response
	nextTag uint64
	closed  bool
	readErr error
}

// replyChans recycles the one-slot channels callers wait on: a channel
// goes back once its single response has been received, so it is always
// empty when taken out.
var replyChans = sync.Pool{New: func() any { return make(chan response, 1) }}

// DialMux connects a multiplexed client.
func DialMux(addr string) (*Mux, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("wire dial: %w", err)
	}
	m := &Mux{conn: conn, pending: make(map[uint64]chan response)}
	go m.readLoop()
	return m, nil
}

// register allocates a tag and its response channel.
func (m *Mux) register() (uint64, chan response, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, nil, errors.New("wire: mux is closed")
	}
	if m.readErr != nil {
		return 0, nil, m.readErr
	}
	m.nextTag++
	ch := replyChans.Get().(chan response)
	m.pending[m.nextTag] = ch
	return m.nextTag, ch, nil
}

// roundTrip sends one tagged request — verb and arg, with args when the
// verb is BIND — and waits for the reader goroutine to deliver its
// response.
func (m *Mux) roundTrip(sid int, verb, arg string, args []types.Value) (response, error) {
	tag, ch, err := m.register()
	if err != nil {
		return response{}, err
	}
	m.wmu.Lock()
	m.wbuf = appendFrame(m.wbuf[:0], tag, sid, verb, arg, args)
	_, err = m.conn.Write(m.wbuf)
	m.wmu.Unlock()
	if err != nil {
		// The channel is not recycled: the read loop may be failing this
		// tag at the same moment.
		m.mu.Lock()
		delete(m.pending, tag)
		m.mu.Unlock()
		return response{}, fmt.Errorf("wire send: %w", err)
	}
	resp := <-ch
	replyChans.Put(ch)
	return resp, nil
}

// Broken reports a Mux that was closed or whose reader has failed: no
// session on it will be answered again.
func (m *Mux) Broken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed || m.readErr != nil
}

// readLoop is the demultiplexer: it decodes complete responses and
// delivers each to the caller waiting on its tag. A read error fails
// every pending and future call.
func (m *Mux) readLoop() {
	rd := newLineReader(m.conn, 0)
	for {
		resp, err := readResponse(rd)
		if err != nil {
			m.mu.Lock()
			m.readErr = err
			for t, ch := range m.pending {
				ch <- response{err: err}
				delete(m.pending, t)
			}
			m.mu.Unlock()
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[resp.tag]
		delete(m.pending, resp.tag)
		m.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// Close closes the connection, failing any in-flight calls.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.wmu.Lock()
	m.wbuf = appendRequest(m.wbuf[:0], 0, 0, verbQuit, "")
	_, _ = m.conn.Write(m.wbuf)
	m.wmu.Unlock()
	return m.conn.Close()
}

// Session opens one multiplexed session: its own transaction scope and
// prepared-statement table on the server, sharing this Mux's TCP
// connection with every other session.
func (m *Mux) Session() (*Session, error) {
	resp, err := m.roundTrip(0, verbSession, "", nil)
	if err != nil {
		return nil, err
	}
	if resp.err != nil {
		return nil, resp.err
	}
	id, ok := strings.CutPrefix(resp.line, "SESS ")
	sid, err := strconv.Atoi(id)
	if !ok || err != nil {
		return nil, fmt.Errorf("wire: malformed SESSION response %q", resp.line)
	}
	return &Session{mux: m, sid: sid, prefix: "m" + strconv.Itoa(sid) + "_"}, nil
}

// Metrics sends a METRICS frame and returns the server's rendered
// Prometheus exposition document. It fails when the server has no
// metrics registry armed (ServeMetrics was not called).
func (m *Mux) Metrics() (string, error) { return m.sizedDoc(verbMetrics, docMetrics) }

// Shards sends a SHARDS frame and returns the server's shard status
// text. It fails when the deployment is not sharded (ServeShards was
// not called).
func (m *Mux) Shards() (string, error) { return m.sizedDoc(verbShards, docShards) }

// sizedDoc sends an introspection frame on the connection's root
// session and returns the document of its "<kind> <nbytes>" response.
func (m *Mux) sizedDoc(verb, kind string) (string, error) {
	resp, err := m.roundTrip(0, verb, "", nil)
	if err != nil {
		return "", err
	}
	if resp.err != nil {
		return "", resp.err
	}
	if resp.line != kind {
		return "", fmt.Errorf("wire: unexpected response to %s", verb)
	}
	return resp.doc, nil
}
