package sqldriver

import (
	"database/sql/driver"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/sql/types"
	"divsql/internal/wire"
)

// This file is the driver's network dialer.
//
// A "wire:host:port" DSN attaches to a running divsqld over the wire
// protocol instead of an in-process endpoint. All connections of the
// pool share one multiplexed TCP connection per address (a wire.Mux),
// each database/sql connection one server-side session on it, so the
// pool semantics match the in-process modes: shared data,
// per-connection transactions, parallel reads. The deployment holds one
// socket per address, not one per pooled connection.
//
// The connection is the same conn as in-process, over a core.Session:
// the wire session adapted by wireSession below.

// wireSession adapts a wire client session to core.Session — the one
// place a wire response becomes an engine result again. OK frames carry
// the affected-row count, so Result.RowsAffected works across the wire
// (a pre-affected-count server reports 0).
type wireSession struct {
	s *wire.Session
	// release runs after Close: it drops the session's reference on the
	// shared Mux.
	release func()
}

func fromWire(res *wire.Result, err error) (*engine.Result, time.Duration, error) {
	if err != nil {
		return nil, 0, err
	}
	out := &engine.Result{Kind: engine.ResultCount, Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}
	if len(res.Columns) > 0 {
		out.Kind = engine.ResultRows
	}
	return out, res.Latency, nil
}

func (w *wireSession) Exec(sql string) (*engine.Result, time.Duration, error) {
	return fromWire(w.s.Exec(sql))
}

func (w *wireSession) Prepare(sql string) (core.Statement, error) {
	st, err := w.s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return wireStmt{st}, nil
}

// Close ends the server-side session, rolling back its open transaction:
// it detaches and leaves the shared connection to the pool's other
// sessions.
func (w *wireSession) Close() error {
	err := w.s.Close()
	w.release()
	return err
}

// wireStmt is a wire statement handle as a core.Statement.
type wireStmt struct{ *wire.Stmt }

func (st wireStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	return fromWire(st.Stmt.Exec(args...))
}

// muxes caches one multiplexed connection per address: every
// database/sql connection of a "wire:" pool is one session of the
// shared Mux. Entries are reference-counted by their open sessions —
// when the pool closes its last connection the Mux (and its TCP
// connection and readLoop goroutine) is closed and dropped, so a closed
// pool holds no sockets and a later pool re-dials fresh.
var (
	muxesMu sync.Mutex
	muxes   = map[string]*muxEntry{}
)

type muxEntry struct {
	m    *wire.Mux
	refs int
}

// releaseMux drops one session's reference; the last one out closes the
// shared Mux and removes it from the cache (unless a newer Mux for the
// same address has already replaced it there).
func releaseMux(addr string, e *muxEntry) {
	muxesMu.Lock()
	e.refs--
	last := e.refs == 0
	if last && muxes[addr] == e {
		delete(muxes, addr)
	}
	muxesMu.Unlock()
	if last {
		_ = e.m.Close()
	}
}

// dialWire opens one multiplexed session to the divsqld at addr. The
// shared Mux is dialed on first use, and again when the cached one's
// reader has failed (the server went away): its remaining sessions
// drain out through releaseMux while new ones go to the new connection.
func dialWire(addr string) (driver.Conn, error) {
	muxesMu.Lock()
	e, ok := muxes[addr]
	if !ok || e.m.Broken() {
		m, err := wire.DialMux(addr)
		if err != nil {
			muxesMu.Unlock()
			return nil, err
		}
		e = &muxEntry{m: m}
		muxes[addr] = e
	}
	e.refs++
	muxesMu.Unlock()
	sess, err := e.m.Session()
	if err != nil {
		releaseMux(addr, e)
		return nil, err
	}
	ws := &wireSession{s: sess, release: func() { releaseMux(addr, e) }}
	return &conn{sess: ws, broken: sess.Broken}, nil
}

// Metrics scrapes the server's metrics over the wire METRICS frame,
// returning the Prometheus exposition document. It dials its own
// connection, so it works alongside any database/sql pool state.
func Metrics(addr string) (string, error) {
	m, err := wire.DialMux(addr)
	if err != nil {
		return "", err
	}
	defer m.Close()
	return m.Metrics()
}
