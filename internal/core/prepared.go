package core

import (
	"errors"
	"strings"
	"time"

	"divsql/internal/engine"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Statement is a prepared statement: resolved (Resolve) and
// dialect-checked once, executable any number of times with typed
// arguments. It is the
// second verb of the execution contract next to Exec(sql) — the paper's
// subjects all expose it, and how each binds and coerces the arguments
// is a fault surface of its own (see engine.BindRules).
//
// A Statement belongs to the session that prepared it and follows the
// session's concurrency contract: used by one client at a time.
type Statement interface {
	// SQL returns the statement text as prepared (placeholders intact).
	SQL() string
	// NumParams reports how many arguments Exec expects.
	NumParams() int
	// Exec executes the statement with the given arguments. The result
	// lives as long as one of its session's (Executor).
	Exec(args ...types.Value) (*engine.Result, time.Duration, error)
	// Close releases the statement: it does not execute again. Closing is
	// idempotent.
	Close() error
}

// PreparedExecutor is an executor offering the prepare/bind/execute
// path; Exec(sql) is a one-shot prepare-and-execute over the same
// machinery. Every Session is one.
type PreparedExecutor interface {
	Executor
	// Prepare parses and validates one statement for later execution.
	Prepare(sql string) (Statement, error)
}

// Prepared is the one in-process Statement. A session's Prepare
// resolves the text, applies its own accept gate and hands the handle
// here with its execution body; the closed and argument-count checks,
// SQL and NumParams are the same for every layer.
type Prepared struct {
	p       *stmt.Parsed
	run     func(p *stmt.Parsed, args []types.Value) (*engine.Result, time.Duration, error)
	release func() error
	closed  bool
}

// NewPrepared returns the statement of handle p, executed by run.
// release (nil: nothing to release) runs once, at the first Close.
func NewPrepared(p *stmt.Parsed, run func(p *stmt.Parsed, args []types.Value) (*engine.Result, time.Duration, error), release func() error) *Prepared {
	return &Prepared{p: p, run: run, release: release}
}

// Handle returns the statement's resolved handle.
func (ps *Prepared) Handle() *stmt.Parsed { return ps.p }

// SQL returns the statement text as prepared.
func (ps *Prepared) SQL() string { return ps.p.Text }

// NumParams reports how many arguments Exec expects.
func (ps *Prepared) NumParams() int { return ps.p.NumParams }

// Exec executes the statement with the given arguments. A closed
// statement and an argument vector of the wrong length fail before
// anything runs, with no latency.
func (ps *Prepared) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	if ps.closed {
		return nil, 0, errors.New("statement is closed")
	}
	if err := ps.p.CheckArgs(len(args)); err != nil {
		return nil, 0, err
	}
	return ps.run(ps.p, args)
}

// Close releases the statement; only the first Close releases anything.
func (ps *Prepared) Close() error {
	if ps.closed {
		return nil
	}
	ps.closed = true
	if ps.release == nil {
		return nil
	}
	return ps.release()
}

// ---------------------------------------------------------------------------
// Bound-statement text encoding
//
// Journals, shrink histories and divergence reports are statement-text
// streams. A bound statement (text + typed argument vector) is encoded
// into one line whose suffix is a SQL comment, so the entry still parses
// and fingerprints as the underlying statement:
//
//	INSERT INTO T (A, B) VALUES ($1, $2) --BIND I:1,S:x
//
// Arguments use the types.Value kind-tagged encoding, comma-separated.

// bindMarker introduces the encoded argument vector. It starts a SQL
// line comment, so parsers see only the statement.
const bindMarker = " --BIND "

// EncodeBound renders a bound statement into its one-line replayable
// form. With no arguments the SQL is returned verbatim.
func EncodeBound(sql string, args []types.Value) string {
	if len(args) == 0 {
		return sql
	}
	enc := make([]string, len(args))
	for i, v := range args {
		enc[i] = v.Encode()
	}
	return sql + bindMarker + strings.Join(enc, ",")
}

// DecodeBound splits a possibly-bound entry back into SQL and arguments.
// bound reports whether the entry carried an argument vector. An entry
// whose marker suffix does not decode as an argument vector is treated
// as plain SQL (the suffix is a SQL comment either way), so statement
// text that merely contains the marker can never be misinterpreted:
// encoded argument tokens contain no spaces (Value.Encode escapes them),
// while free-form comment text almost certainly does.
func DecodeBound(entry string) (sql string, args []types.Value, bound bool) {
	i := strings.LastIndex(entry, bindMarker)
	if i < 0 {
		return entry, nil, false
	}
	for _, tok := range strings.Split(entry[i+len(bindMarker):], ",") {
		// Trim what Value.Encode escapes and a transport may add; other
		// whitespace (\v, U+00A0) is payload.
		v, err := types.DecodeValue(strings.Trim(tok, " \t\r\n"))
		if err != nil {
			return entry, nil, false
		}
		args = append(args, v)
	}
	return entry[:i], args, true
}

// ExecEntry executes a possibly-bound encoded entry on a session,
// taking the prepare/bind path when the entry carries arguments. This is
// the single replay primitive behind journal redo, shrink probes and
// report replays.
func ExecEntry(exec PreparedExecutor, entry string) (*engine.Result, time.Duration, error) {
	sql, args, bound := DecodeBound(entry)
	if !bound {
		return exec.Exec(entry)
	}
	st, err := exec.Prepare(sql)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	return st.Exec(args...)
}
