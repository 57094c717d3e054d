package wire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"divsql/internal/sql/types"
)

// Result is a decoded wire response.
type Result struct {
	Columns []string
	Rows    [][]types.Value
	Latency time.Duration
	// Affected is the statement's affected-row count
	// (INSERT/UPDATE/DELETE; zero from pre-affected servers).
	Affected int64
}

// Session is one client session on a wire server: its own transaction
// scope and prepared-statement table, opened with Mux.Session. Exec and
// Prepare calls of one session execute in order; on the wire they
// interleave with the other sessions' of its Mux.
type Session struct {
	mux *Mux
	sid int
	// prefix starts the session's statement names, "m<sid>_" (the bytes
	// the golden transcripts pin).
	prefix string
	nextID atomic.Int64
	closed atomic.Bool
}

// MuxSession is a Session opened with Mux.Session.
type MuxSession = Session

// Exec executes one statement in this session. SQL containing newlines
// is flattened to spaces.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.result(verbExec, sql, nil)
}

// result is a round trip for the frames answered in the EXEC format:
// verb and arg, with args when the verb is BIND.
func (s *Session) result(verb, arg string, args []types.Value) (*Result, error) {
	resp, err := s.mux.roundTrip(s.sid, verb, arg, args)
	if err != nil {
		return nil, err
	}
	return resp.result()
}

// Broken reports whether the session's Mux has failed: nothing sent on
// it will be answered. Its caller should discard the session and dial
// again.
func (s *Session) Broken() bool { return s.mux.Broken() }

// Close ends the session, rolling back its open transaction
// server-side. The Mux stays up for its other sessions: the session is
// released with a DETACH frame on the connection's root session.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	resp, err := s.mux.roundTrip(0, verbDetach, strconv.Itoa(s.sid), nil)
	if err != nil {
		return err
	}
	_, err = resp.result()
	return err
}

// Stmt is a client-side handle on a server-side prepared statement of
// one Session.
type Stmt struct {
	s       *Session
	name    string
	sql     string
	nparams int
	closed  atomic.Bool
}

// MuxStmt is a Stmt prepared on a MuxSession.
type MuxStmt = Stmt

// Prepare sends a PREPARE frame and returns a handle on the server-side
// statement. The SQL may contain ? or $n placeholders; the arguments of
// each execution travel typed in BIND frames — nothing is interpolated
// into the statement text on either side.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	name := s.prefix + strconv.FormatInt(s.nextID.Add(1), 10)
	resp, err := s.mux.roundTrip(s.sid, verbPrepare, name+" "+sql, nil)
	if err != nil {
		return nil, err
	}
	if resp.err != nil {
		return nil, resp.err
	}
	// The response is "STMT <name> <nparams>".
	rest, ok := strings.CutPrefix(resp.line, "STMT "+name+" ")
	nparams, err := strconv.Atoi(rest)
	if !ok || err != nil {
		return nil, fmt.Errorf("wire: malformed PREPARE response %q", resp.line)
	}
	return &Stmt{s: s, name: name, sql: sql, nparams: nparams}, nil
}

// SQL returns the statement text as prepared.
func (st *Stmt) SQL() string { return st.sql }

// NumParams reports how many arguments Exec expects.
func (st *Stmt) NumParams() int { return st.nparams }

// Exec executes the prepared statement with the given typed arguments
// via a BIND frame and decodes the response.
func (st *Stmt) Exec(args ...types.Value) (*Result, error) {
	if st.closed.Load() {
		return nil, errors.New("wire: statement is closed")
	}
	return st.s.result(verbBind, st.name, args)
}

// Close deallocates the server-side statement.
func (st *Stmt) Close() error {
	if st.closed.Swap(true) {
		return nil
	}
	_, err := st.s.result(verbClose, st.name, nil)
	return err
}
