package shard

import (
	"fmt"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/server"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Stmt is a prepared statement of one router session: prepared eagerly
// on every shard (a banded template like "... WHERE W_ID = ?" routes to
// a different shard per execution, so every shard must hold the plan),
// routed per execution by the bound argument vector. Implements
// core.Statement.
type Stmt struct {
	s   *Session
	p   *stmt.Parsed
	per []core.Statement // index-aligned with shards
}

// Prepare resolves the statement and prepares it on every shard.
func (s *Session) Prepare(sql string) (core.Statement, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := &Stmt{s: s, p: p}
	for shard, sub := range s.subs {
		p, err := sub.Prepare(sql)
		if err != nil {
			for _, prev := range ps.per {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", shard, err)
		}
		ps.per = append(ps.per, p)
	}
	return ps, nil
}

// SQL returns the statement text as prepared.
func (ps *Stmt) SQL() string { return ps.p.Text }

// NumParams reports how many arguments Exec expects.
func (ps *Stmt) NumParams() int { return ps.p.NumParams }

// Exec routes this execution by its argument vector (band predicates
// over placeholders resolve against args) and runs the owning shard's
// prepared statement.
func (ps *Stmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	ps.s.mu.Lock()
	defer ps.s.mu.Unlock()
	if err := ps.p.CheckArgs(len(args)); err != nil {
		return nil, server.BaseLatency, err
	}
	return ps.s.dispatch(ps.p, &stmtExec{st: ps, args: args}, args)
}

// Close releases the per-shard statements.
func (ps *Stmt) Close() error {
	var first error
	for _, p := range ps.per {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stmtExec runs a prepared execution on one shard.
type stmtExec struct {
	st   *Stmt
	args []types.Value
}

func (e *stmtExec) run(_ *Session, shard int) (*engine.Result, time.Duration, error) {
	return e.st.per[shard].Exec(e.args...)
}
