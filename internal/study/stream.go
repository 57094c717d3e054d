package study

import (
	"errors"

	"divsql/internal/core"
	"divsql/internal/server"
	"divsql/internal/sql/parser"
)

// Source yields the SQL statements of one workload in execution order.
// It is the study's statement-stream abstraction: the 181-bug corpus
// (via ScriptSource) and generated workloads (internal/qgen implements
// Source) run through the same executor/comparator path.
type Source interface {
	// Next returns the next statement; ok is false when the stream ends.
	Next() (sql string, ok bool)
}

type sliceSource struct {
	stmts []string
	pos   int
}

func (s *sliceSource) Next() (string, bool) {
	if s.pos >= len(s.stmts) {
		return "", false
	}
	s.pos++
	return s.stmts[s.pos-1], true
}

// SliceSource returns a Source over a fixed statement list.
func SliceSource(stmts []string) Source { return &sliceSource{stmts: stmts} }

// ScriptSource splits a SQL script into a Source (one statement per
// semicolon-separated piece, as the corpus scripts are written).
func ScriptSource(script string) (Source, error) {
	stmts, err := parser.SplitScript(script)
	if err != nil {
		return nil, err
	}
	return SliceSource(stmts), nil
}

// Drain collects the remaining statements of a source into a slice.
func Drain(src Source) []string {
	var out []string
	for {
		sql, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, sql)
	}
}

// RunSource executes every statement from src in order in one fresh
// session of ep, stopping after a crash (remaining statements cannot be
// submitted to a dead server). It returns one outcome per submitted
// statement. ep is any endpoint — a single server, the diverse
// middleware. Entries in the bound form (core.EncodeBound) replay
// through the session's prepare/bind path, so parameterized divergence
// reports shrink and replay like any other stream.
func RunSource(ep core.SessionExecutor, src Source) []server.StmtOutcome {
	exec := ep.OpenSession()
	defer exec.Close()
	var outcomes []server.StmtOutcome
	for {
		sql, ok := src.Next()
		if !ok {
			return outcomes
		}
		res, lat, err := core.ExecEntry(exec, sql)
		out := server.StmtOutcome{SQL: sql, Res: res, Err: err, Latency: lat}
		if errors.Is(err, server.ErrCrashed) {
			out.Crashed = true
			outcomes = append(outcomes, out)
			return outcomes
		}
		outcomes = append(outcomes, out)
	}
}

// RunPair drives one statement stream through a server under test and
// the pristine oracle, then classifies the deviation observationally.
// This is the study's single executor/comparator path: corpus bug
// scripts and generated divergence-hunting workloads both go through it.
func RunPair(srv, orc core.SessionExecutor, src Source) (core.Classification, []server.StmtOutcome, []server.StmtOutcome) {
	stmts := Drain(src)
	sOut := RunSource(srv, SliceSource(stmts))
	oOut := RunSource(orc, SliceSource(stmts))
	return Classify(sOut, oOut), sOut, oOut
}
