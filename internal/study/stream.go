package study

import (
	"errors"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/server"
	"divsql/internal/sql/stmt"
)

// Outcome is the observable outcome of one statement on one endpoint:
// what ClassifyStmt judges.
type Outcome struct {
	// SQL is the statement as submitted (a bound entry in its
	// core.EncodeBound form).
	SQL string
	// P is the statement's handle; nil when the text does not parse.
	P       *stmt.Parsed
	Res     *engine.Result
	Err     error
	Crashed bool
	Latency time.Duration
}

// query reports whether the statement is a SELECT.
func (o Outcome) query() bool { return o.P != nil && o.P.Select != nil }

// RunSource executes stmts in order in one fresh session of ep, stopping
// after a crash (remaining statements cannot be submitted to a dead
// server). It returns one outcome per submitted statement. ep is any
// endpoint — a single server, the diverse middleware. Entries in the
// bound form (core.EncodeBound) replay through the session's prepare/bind
// path, so parameterized divergence reports shrink and replay like any
// other stream. Each statement is resolved here, once: the endpoint's own
// resolve of the same text is an intern hit. Every outcome outlives the
// statements after it, so each holds a copy of its result.
func RunSource(ep core.SessionExecutor, stmts []string) []Outcome {
	exec := ep.OpenSession()
	defer exec.Close()
	outcomes := make([]Outcome, 0, len(stmts))
	for _, entry := range stmts {
		sql, _, _ := core.DecodeBound(entry)
		p, _ := stmt.Resolve(sql) // text that does not parse has no handle; the endpoint reports the error
		res, lat, err := core.ExecEntry(exec, entry)
		out := Outcome{SQL: entry, P: p, Res: res.Clone(), Err: err, Latency: lat, Crashed: errors.Is(err, server.ErrCrashed)}
		outcomes = append(outcomes, out)
		if out.Crashed {
			break
		}
	}
	return outcomes
}
