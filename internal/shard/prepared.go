package shard

import (
	"fmt"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Prepare resolves the statement and prepares it eagerly on every shard
// (a banded template like "... WHERE W_ID = ?" routes to a different
// shard per execution, so every shard must hold the plan). Each
// execution is routed by its argument vector (band predicates over
// placeholders resolve against args) and runs the owning shard's
// statement; closing it closes the per-shard statements.
func (s *Session) Prepare(sql string) (core.Statement, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	per := make(perShard, 0, len(s.subs)) // index-aligned with shards
	for shard, sub := range s.subs {
		st, err := sub.Prepare(sql)
		if err != nil {
			_ = per.close()
			return nil, fmt.Errorf("shard %d: %w", shard, err)
		}
		per = append(per, st)
	}
	return core.NewPrepared(p, func(p *stmt.Parsed, args []types.Value) (*engine.Result, time.Duration, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.dispatch(p, &stmtExec{per: per, args: args}, args)
	}, per.close), nil
}

// perShard is one statement prepared on every shard.
type perShard []core.Statement

// close closes every per-shard statement and reports the first error.
func (per perShard) close() error {
	var first error
	for _, st := range per {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stmtExec runs a prepared execution on one shard.
type stmtExec struct {
	per  perShard
	args []types.Value
}

func (e *stmtExec) run(_ *Session, shard int) (*engine.Result, time.Duration, error) {
	return e.per[shard].Exec(e.args...)
}
