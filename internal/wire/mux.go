// Client-side session multiplexing: a Mux is one TCP connection
// carrying many concurrent sessions. Every request travels tagged; a
// demultiplexing reader goroutine matches responses (which complete out
// of order across sessions) back to their callers. This is how a pool
// of application threads shares a handful of connections instead of one
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
// verb is BIND — and waits for its response.
func (m *Mux) roundTrip(sid int, verb, arg string, args []types.Value) (response, error) {
	tag, ch, err := m.register()
	if err != nil {
		return response{}, err
	}
	m.wmu.Lock()
	if verb == verbBind {
		m.wbuf = appendBind(m.wbuf[:0], tag, sid, arg, args)
	} else {
		m.wbuf = appendRequest(m.wbuf[:0], tag, sid, verb, arg)
	}
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

// result is roundTrip for the frames answered in the EXEC format.
func (m *Mux) result(sid int, verb, arg string, args []types.Value) (*Result, error) {
	resp, err := m.roundTrip(sid, verb, arg, args)
	if err != nil {
		return nil, err
	}
	return resp.result()
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
func (m *Mux) Session() (*MuxSession, error) {
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
	return &MuxSession{m: m, sid: sid}, nil
}

// MuxSession is one session of a Mux. Its Exec/Prepare calls may
// interleave with other sessions' on the wire; within the session they
// execute in order.
type MuxSession struct {
	m      *Mux
	sid    int
	mu     sync.Mutex
	nextID int
	closed bool
}

// Exec executes one statement in this session.
func (s *MuxSession) Exec(sql string) (*Result, error) {
	return s.m.result(s.sid, verbExec, sql, nil)
}

// Close detaches the session server-side, rolling back its open
// transaction. The Mux connection stays up for the other sessions.
func (s *MuxSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	_, err := s.m.result(0, verbDetach, strconv.Itoa(s.sid), nil)
	return err
}

// Prepare prepares a statement in this session.
func (s *MuxSession) Prepare(sql string) (*MuxStmt, error) {
	s.mu.Lock()
	s.nextID++
	name := "m" + strconv.Itoa(s.sid) + "_" + strconv.Itoa(s.nextID)
	s.mu.Unlock()
	resp, err := s.m.roundTrip(s.sid, verbPrepare, name+" "+sql, nil)
	if err != nil {
		return nil, err
	}
	if resp.err != nil {
		return nil, resp.err
	}
	nparams, err := parseStmtLine(resp.line, name)
	if err != nil {
		return nil, err
	}
	return &MuxStmt{s: s, name: name, sql: sql, nparams: nparams}, nil
}

// MuxStmt is a prepared statement of one MuxSession.
type MuxStmt struct {
	s       *MuxSession
	name    string
	sql     string
	nparams int
	mu      sync.Mutex
	closed  bool
}

// SQL returns the statement text as prepared.
func (st *MuxStmt) SQL() string { return st.sql }

// NumParams reports how many arguments Exec expects.
func (st *MuxStmt) NumParams() int { return st.nparams }

// Exec executes the prepared statement with typed arguments.
func (st *MuxStmt) Exec(args ...types.Value) (*Result, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, errors.New("wire: statement is closed")
	}
	st.mu.Unlock()
	return st.s.m.result(st.s.sid, verbBind, st.name, args)
}

// Close deallocates the server-side statement.
func (st *MuxStmt) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	_, err := st.s.m.result(st.s.sid, verbClose, st.name, nil)
	return err
}
