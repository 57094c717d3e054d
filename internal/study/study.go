// Package study implements the paper's experimental procedure: run every
// bug script on every server (translating dialects first), classify each
// outcome observationally against a pristine oracle, and aggregate the
// classifications into the paper's Tables 1-4 and headline statistics.
package study

import (
	"errors"
	"fmt"

	"divsql/internal/core"
	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/parser"
	"divsql/internal/translate"
)

// Run is the full record of one (bug, server) execution.
type Run struct {
	Bug    string
	Server dialect.ServerName
	Class  core.Classification
	// Stmts are the per-statement outcomes (empty when the script could
	// not be translated). Used for pairwise detectability analysis.
	Stmts []Outcome
	// OracleStmts are the oracle's outcomes on the same script.
	OracleStmts []Outcome
	// Deviation is the index in Stmts of the statement Class names: the
	// one on which the run first deviated from the oracle (-1 when the
	// run did not fail).
	Deviation int
}

// Study runs the bug corpus across the simulated servers.
type Study struct {
	// Bugs is the corpus (corpus.All() by default).
	Bugs []corpus.Bug
	// Faults is the full injected-fault set.
	Faults []fault.Fault
	// Stress enables the stressful environment in which Heisenbugs can
	// manifest (Section 3.2's follow-up experiment).
	Stress bool
}

// New returns a study over the full calibrated corpus.
func New() *Study {
	return &Study{Bugs: corpus.All(), Faults: corpus.AllFaults()}
}

// Result holds every run of the study, indexed by bug and server.
type Result struct {
	Bugs []corpus.Bug
	// Runs[bugID][server] is the classified run.
	Runs map[string]map[dialect.ServerName]*Run
}

// Run executes the full study: every bug, translated and executed on
// every server, classified against the pristine oracle. One server per
// target (and one oracle) is built up front and reset to pristine state
// between bugs — the state-transfer machinery makes the reset cheap, and
// rebuilding dialect tables plus the fault registry 181×4 times used to
// dominate the study's runtime.
func (s *Study) Run() (*Result, error) {
	res := &Result{
		Bugs: s.Bugs,
		Runs: make(map[string]map[dialect.ServerName]*Run, len(s.Bugs)),
	}
	servers := make(map[dialect.ServerName]*server.Server, len(dialect.AllServers))
	for _, target := range dialect.AllServers {
		srv, err := server.New(target, s.Faults)
		if err != nil {
			return nil, err
		}
		srv.SetStress(s.Stress)
		servers[target] = srv
	}
	orc := server.NewOracle()
	for i := range s.Bugs {
		bug := &s.Bugs[i]
		perServer := make(map[dialect.ServerName]*Run, len(dialect.AllServers))
		for _, target := range dialect.AllServers {
			run, err := s.runOne(bug, target, servers[target], orc)
			if err != nil {
				return nil, fmt.Errorf("bug %s on %s: %w", bug.ID, target, err)
			}
			perServer[target] = run
		}
		res.Runs[bug.ID] = perServer
	}
	return res, nil
}

// runOne executes one bug on one server. The script is translated when
// the target differs from the reporting server; translation failures
// produce the CannotRun/FurtherWork classifications. srv and orc are
// reset to pristine state before the replay.
func (s *Study) runOne(bug *corpus.Bug, target dialect.ServerName, srv, orc *server.Server) (*Run, error) {
	run := &Run{Bug: bug.ID, Server: target, Deviation: -1}
	script := bug.Script
	if target != bug.Server {
		translated, err := translate.Script(script, bug.Server, target)
		var miss *translate.FunctionalityMissingError
		var further *translate.FurtherWorkError
		switch {
		case errors.As(err, &miss):
			run.Class = core.Classification{Status: core.StatusCannotRun, Detail: miss.Detail}
			return run, nil
		case errors.As(err, &further):
			run.Class = core.Classification{Status: core.StatusFurtherWork, Detail: further.Detail}
			return run, nil
		case err != nil:
			return nil, err
		}
		script = translated
	}

	srv.Reset()
	orc.Reset()

	stmts, err := parser.SplitScript(script)
	if err != nil {
		return nil, fmt.Errorf("script: %w", err)
	}
	run.Stmts = RunSource(srv, stmts)
	run.OracleStmts = RunSource(orc, stmts)
	run.Class, run.Deviation = Classify(run.Stmts, run.OracleStmts)
	return run, nil
}

// ClassifyStmt is the paper's observational verdict on one statement:
// the server's outcome against the pristine oracle's, read off the
// statement's handle (never its text). It is the one per-statement rule
// every harness applies — the study, the differential hunt, its shrinker
// and replay, and the sharded smoke.
//
//   - an engine crash is an Engine Crash failure (self-evident);
//   - an error message where the oracle succeeds is self-evident — an
//     Incorrect Result failure, or Other for connection aborts;
//   - an error where the oracle also errs is an Incorrect Result when the
//     two errors fall in different classes (core.ErrorClass): a spurious
//     deadlock where a constraint violation belongs; rewording within a
//     class is representational and tolerated;
//   - a query answering where the oracle errs, or returning rows that
//     differ from the oracle's (in order only when it has an ORDER BY), is
//     a non-self-evident Incorrect Result;
//   - any other statement accepted where the oracle rejects it is a
//     non-self-evident Other failure;
//   - a correct statement that exceeds the oracle's time by core.PerfThreshold
//     is a Performance failure (self-evident).
func ClassifyStmt(so, oo Outcome) core.Classification {
	switch {
	case so.Crashed:
		return core.Classification{
			Status: core.StatusFailure, Type: core.EngineCrash, SelfEvident: true,
			Detail: "engine crashed on: " + so.SQL,
		}
	case so.Err != nil && oo.Err == nil:
		typ := core.IncorrectResult
		if errors.Is(so.Err, server.ErrConnAborted) {
			typ = core.OtherFailure
		}
		return core.Classification{
			Status: core.StatusFailure, Type: typ, SelfEvident: true,
			Detail: so.Err.Error(),
		}
	case so.Err == nil && oo.Err != nil:
		if so.query() {
			return core.Classification{
				Status: core.StatusFailure, Type: core.IncorrectResult,
				Detail: "query succeeded where it should have failed",
			}
		}
		return core.Classification{
			Status: core.StatusFailure, Type: core.OtherFailure,
			Detail: "invalid statement accepted: " + oo.Err.Error(),
		}
	case so.Err != nil:
		if sc, oc := core.ErrorClass(so.Err), core.ErrorClass(oo.Err); sc != oc {
			return core.Classification{
				Status: core.StatusFailure, Type: core.IncorrectResult,
				Detail: fmt.Sprintf("error class mismatch: server %s (%q) vs oracle %s (%q)",
					sc, so.Err.Error(), oc, oo.Err.Error()),
			}
		}
	default:
		if so.query() {
			if d := core.Diff(so.Res, oo.Res, core.CompareFor(so.P)); d != "" {
				return core.Classification{Status: core.StatusFailure, Type: core.IncorrectResult, Detail: d}
			}
		}
		if so.Latency-oo.Latency >= core.PerfThreshold {
			return core.Classification{
				Status: core.StatusFailure, Type: core.Performance, SelfEvident: true,
				Detail: "execution time exceeded acceptance threshold",
			}
		}
	}
	return core.Classification{Status: core.StatusNoFailure}
}

// Classify folds the per-statement verdicts of one run into the run's
// classification and the index of the statement it names (-1 when the
// run did not fail). A self-evident error or crash ends the run's
// judgement where it happens; otherwise the first wrong output outranks
// the first silently accepted statement, which outranks the first slow
// one.
func Classify(sOut, oOut []Outcome) (core.Classification, int) {
	cls, at := core.Classification{Status: core.StatusNoFailure}, -1
	for i, so := range sOut {
		var oo Outcome
		if i < len(oOut) {
			oo = oOut[i]
		} else if !so.Crashed {
			break
		}
		c := ClassifyStmt(so, oo)
		switch {
		case !c.IsFailure():
		case c.SelfEvident && c.Type != core.Performance:
			return c, i
		case at < 0 || silentRank(c.Type) < silentRank(cls.Type):
			cls, at = c, i
		}
	}
	return cls, at
}

// silentRank orders the deviations that do not end a run's judgement.
func silentRank(t core.FailureType) int {
	switch t {
	case core.IncorrectResult:
		return 0
	case core.OtherFailure:
		return 1
	default:
		return 2
	}
}

// identicalFailure reports whether two failing runs produced
// indistinguishable observable behaviour (the paper's non-detectable
// case): same per-statement error pattern and identical query outputs.
func identicalFailure(a, b *Run) bool {
	if len(a.Stmts) != len(b.Stmts) {
		return false
	}
	for i := range a.Stmts {
		sa, sb := a.Stmts[i], b.Stmts[i]
		if (sa.Err != nil) != (sb.Err != nil) {
			return false
		}
		if sa.Err == nil && sa.query() && !core.Equal(sa.Res, sb.Res, core.CompareFor(sa.P)) {
			return false
		}
	}
	return true
}
