// Package plan is the vocabulary of the engine's plans, as the layers
// above it read them: how a row visit reaches its rows (AccessPath), how
// a join pairs its inputs (JoinAlgo), what one statement's plan chose
// (Info, read through engine.Session.LastPlan), the plan variant
// behind multi-plan differential execution (Force) and the plan memo's
// counters (CacheStats). The rules that choose a plan are the engine's
// (internal/engine/access.go): they read the predicate the engine has
// already lowered, so names resolve once, and this package depends on
// no SQL package.
//
// A plan names candidate rows and pairs, never final rows: the executor
// evaluates the whole predicate over every candidate, so access-path and
// join-algorithm choice is invisible in results — which is exactly what
// the plan-variant oracle (metamorph.Plan) verifies.
package plan

import "strings"

// AccessPath enumerates how a plan reaches its rows.
type AccessPath int

// Access paths.
const (
	// FullScan visits every row (the fallback, and a forceable variant).
	FullScan AccessPath = iota
	// PointLookup probes a hash index over an equality-covered prefix of
	// the primary key or a secondary index.
	PointLookup
	// RangeScan walks a sorted single-column index between bounds.
	RangeScan
)

// String names the access path (for plan introspection and tests).
func (p AccessPath) String() string {
	switch p {
	case PointLookup:
		return "point-lookup"
	case RangeScan:
		return "range-scan"
	default:
		return "full-scan"
	}
}

// Force names a plan variant, the hook behind multi-plan differential
// execution: the same statement runs once normally and once as a
// variant, and any result disagreement is an engine bug. A variant runs
// the statement's one plan and declines, at run time, the narrowing
// choices it turns off.
type Force int

// Force modes.
const (
	// ForceAuto lets the rules choose.
	ForceAuto Force = iota
	// ForceFullScan declines every narrowing choice: every core of the
	// statement visits all of its rows, every join is the nested loop,
	// and every nested select runs where it is met.
	ForceFullScan
)

// String names the force mode (for variant-disagreement reports).
func (f Force) String() string {
	if f == ForceFullScan {
		return "force-full-scan"
	}
	return "auto"
}

// JoinAlgo names how a join pairs its inputs.
type JoinAlgo int

// Join algorithms.
const (
	// NestedLoop evaluates ON for every pair (the fallback, and what
	// ForceFullScan runs).
	NestedLoop JoinAlgo = iota
	// HashJoin buckets the right input by an INT key column and evaluates
	// ON only for the pairs whose keys are equal.
	HashJoin
)

// String names the algorithm (for plan introspection and metric labels).
func (a JoinAlgo) String() string {
	if a == HashJoin {
		return "hash"
	}
	return "nested-loop"
}

// Info describes how one statement's rows were reached. Table and Path
// are those of a statement that is a single base-table core (a SELECT
// over one table, an UPDATE or a DELETE) and zero — full scan —
// otherwise; Cores lists every single-base-table core the statement
// compiled to, and Joins the algorithm chosen for every join with an ON
// predicate, nested ones included, in compile order (a hash join still
// falls back to the nested loop at run time on key values it cannot
// hash); CacheHit reports whether the plan came out of the shared memo.
// Exposed via Session.LastPlan for tests and the plan-variant oracle; a
// variant run leaves it as the last normal run set it.
type Info struct {
	Table    string
	Path     AccessPath
	CacheHit bool
	Cores    []Core
	Joins    []JoinAlgo
}

// String renders the plan on one line, for divergence reports:
// "cores KV:point-lookup U:full-scan; joins hash nested-loop".
func (i Info) String() string {
	var b strings.Builder
	b.WriteString("cores")
	for _, c := range i.Cores {
		b.WriteString(" " + c.Table + ":" + c.Path.String())
	}
	b.WriteString("; joins")
	for _, j := range i.Joins {
		b.WriteString(" " + j.String())
	}
	return b.String()
}

// Core is one single-base-table core of a compiled statement.
type Core struct {
	Table string
	Path  AccessPath
}
