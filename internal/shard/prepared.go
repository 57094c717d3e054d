package shard

import (
	"fmt"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/types"
)

// Stmt is a prepared statement of one router session: prepared eagerly
// on every shard (a banded template like "... WHERE W_ID = ?" routes to
// a different shard per execution, so every shard must hold the plan),
// routed per execution by the bound argument vector. Implements
// core.Statement.
type Stmt struct {
	s   *Session
	sql string
	st  ast.Statement
	np  int
	per []core.Statement // index-aligned with shards
}

// Prepare parses the statement once and prepares it on every shard.
func (s *Session) Prepare(sql string) (core.Statement, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := parser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("syntax error: %w", err)
	}
	ps := &Stmt{s: s, sql: sql, st: st, np: ast.NumParams(st)}
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
func (ps *Stmt) SQL() string { return ps.sql }

// NumParams reports how many arguments Exec expects.
func (ps *Stmt) NumParams() int { return ps.np }

// Exec routes this execution by its argument vector (band predicates
// over placeholders resolve against args) and runs the owning shard's
// prepared statement.
func (ps *Stmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	ps.s.mu.Lock()
	defer ps.s.mu.Unlock()
	if len(args) != ps.np {
		return nil, server.BaseLatency, fmt.Errorf("%w: statement wants %d parameters, %d bound",
			engine.ErrBind, ps.np, len(args))
	}
	return ps.s.dispatch(ps.st, &stmtExec{st: ps, args: args}, args)
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
