// Package core implements the paper's failure model — the primary
// conceptual contribution of the study: the classification of server
// failures by type and detectability, the representation-tolerant result
// comparator, and the N-version adjudicator. Both the fault-diversity
// study harness (internal/study) and the diverse replication middleware
// (internal/middleware) are built on this package.
package core

import (
	"time"

	"divsql/internal/engine"
)

// FailureType classifies a failure by its effect, following Section 4.1
// of the paper.
type FailureType int

// Failure types.
const (
	// FailureNone means no failure was observed.
	FailureNone FailureType = iota
	// EngineCrash is a crash or halt of the core server engine.
	EngineCrash
	// IncorrectResult is an incorrect output without an engine crash —
	// either a silently wrong result set or a spurious error message.
	IncorrectResult
	// Performance is a correct output with an unacceptable time penalty:
	// slower than the reference answer by at least PerfThreshold.
	Performance
	// OtherFailure covers the remaining failures (aborted connections,
	// silent acceptance of invalid statements, state corruption).
	OtherFailure
)

// PerfThreshold is the extra latency beyond which a correct answer is a
// performance failure: relative to the oracle in the fault study, to the
// fastest replica in the middleware.
const PerfThreshold = time.Second

// String returns the paper's name for the failure type.
func (f FailureType) String() string {
	switch f {
	case FailureNone:
		return "none"
	case EngineCrash:
		return "engine crash"
	case IncorrectResult:
		return "incorrect result"
	case Performance:
		return "performance"
	case OtherFailure:
		return "other"
	default:
		return "unknown"
	}
}

// RunStatus is the outcome of attempting to run a bug script on one
// server — the row structure of the paper's Table 1.
type RunStatus int

// Run statuses.
const (
	// StatusCannotRun means the script uses functionality the server
	// lacks (dialect-specific bug).
	StatusCannotRun RunStatus = iota + 1
	// StatusFurtherWork means the script could not be translated
	// automatically into the server's dialect.
	StatusFurtherWork
	// StatusNoFailure means the script ran and no failure was observed
	// (a Heisenbug, or the fault does not exist on this server).
	StatusNoFailure
	// StatusFailure means the script ran and a failure was observed.
	StatusFailure
)

// String names the status.
func (s RunStatus) String() string {
	switch s {
	case StatusCannotRun:
		return "cannot run (functionality missing)"
	case StatusFurtherWork:
		return "further work"
	case StatusNoFailure:
		return "no failure"
	case StatusFailure:
		return "failure"
	default:
		return "unknown"
	}
}

// Classification is the full classification of one (bug, server) run.
type Classification struct {
	Status RunStatus
	// Type and SelfEvident are meaningful only when Status is
	// StatusFailure.
	Type FailureType
	// SelfEvident reports whether the failure announces itself (crash,
	// error message, timeout) per Section 4.1.
	SelfEvident bool
	// Detail is a human-readable account of the deviation.
	Detail string
}

// IsFailure reports whether the run failed.
func (c Classification) IsFailure() bool { return c.Status == StatusFailure }

// The execution contract has two sides. An endpoint — a single server,
// the replication group, the diverse middleware, the shard router — is a
// SessionExecutor: all it does is open sessions. A Session is what a
// client sends SQL to, and it cannot tell which endpoint it came from.
// Executor and PreparedExecutor name a session's verbs for callers that
// do not own its lifetime (workload drivers, replay).

// Executor runs SQL text and reports results with simulated latency.
//
// A result, with its rows and column names, is valid until the
// executor's next statement (Exec, or an Exec of one of its prepared
// statements) or Close: below it sits an engine session's statement
// memory (engine.Result). A caller that keeps a result longer, or
// changes it, keeps or changes its Clone.
type Executor interface {
	// Exec executes one SQL statement.
	Exec(sql string) (*engine.Result, time.Duration, error)
}

// Session is one client's transaction scope on an endpoint. Sessions of
// one endpoint execute concurrently (read-only statements in parallel,
// writes serialized below); a session itself is used by one client at a
// time, like a database connection.
type Session interface {
	PreparedExecutor
	// Close rolls back any open transaction and releases the session.
	Close() error
}

// SessionExecutor is an endpoint: it opens per-client sessions, and
// every statement runs in one.
type SessionExecutor interface {
	// OpenSession opens a new session on the endpoint.
	OpenSession() Session
}
