package study

import (
	"testing"

	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
)

// A crash ends the stream: the remaining statements cannot be submitted
// to a dead server, and the crashing statement is the last outcome.
func TestRunSourceStopsAtCrash(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "C1", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	srv, err := server.New(dialect.PG, faults)
	if err != nil {
		t.Fatal(err)
	}
	out := RunSource(srv, []string{"CREATE TABLE C1 (A INT)", "INSERT INTO C1 VALUES (1)", "SELECT A FROM C1"})
	if len(out) != 2 || out[0].Err != nil || !out[1].Crashed {
		t.Errorf("stream outcomes: %+v", out)
	}
	if out[1].P == nil || out[1].P.Text != "INSERT INTO C1 VALUES (1)" {
		t.Errorf("outcome does not carry its statement's handle: %+v", out[1].P)
	}
}

func TestRunPairClassifiesLikeStudy(t *testing.T) {
	res, err := New().Run()
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a handful of bugs: replaying the script on a fresh
	// server/oracle pair and folding the per-statement verdicts must give
	// the same classification, and name the same statement, as the full
	// study recorded.
	checked := 0
	for _, bug := range corpus.All() {
		if checked >= 10 {
			break
		}
		run := res.Runs[bug.ID][bug.Server]
		if run == nil {
			continue
		}
		srv, err := server.New(bug.Server, corpus.AllFaults())
		if err != nil {
			t.Fatal(err)
		}
		stmts, err := parser.SplitScript(bug.Script)
		if err != nil {
			t.Fatal(err)
		}
		cls, at := Classify(RunSource(srv, stmts), RunSource(server.NewOracle(), stmts))
		if cls.Status != run.Class.Status || cls.Type != run.Class.Type || at != run.Deviation {
			t.Errorf("%s: replay %v/%v at %d, study %v/%v at %d",
				bug.ID, cls.Status, cls.Type, at, run.Class.Status, run.Class.Type, run.Deviation)
		}
		checked++
	}
}

func TestDedupFailuresCollapsesSharedRegions(t *testing.T) {
	res, err := New().Run()
	if err != nil {
		t.Fatal(err)
	}
	groups := res.DedupFailures()
	for _, s := range dialect.AllServers {
		raw := 0
		for _, g := range groups[s] {
			raw += len(g.Bugs)
			if len(g.Bugs) == 0 {
				t.Errorf("%s: empty failure group %q", s, g.Fingerprint)
			}
		}
		// Every failing run must be accounted for exactly once.
		failing := 0
		for _, bug := range res.Bugs {
			run := res.Runs[bug.ID][s]
			if run != nil && run.Class.IsFailure() {
				failing++
			}
		}
		if raw != failing {
			t.Errorf("%s: dedup covers %d runs, study recorded %d failures", s, raw, failing)
		}
	}
	if out := res.RenderDedup(); len(out) == 0 {
		t.Error("RenderDedup returned nothing")
	}
}

func TestDedupCollapsesOneBugTriggeredTwice(t *testing.T) {
	// Two scripts exercising the same fault region (same table, same
	// statement shape) must collapse into one failure group: the paper
	// counts bugs, not triggerings.
	base := corpus.All()
	var proto *corpus.Bug
	for i := range base {
		b := &base[i]
		if b.Server == dialect.IB && len(b.Faults) > 0 &&
			b.Expected[dialect.IB].Status == base[i].Expected[dialect.IB].Status && b.RunsOn(dialect.IB) {
			proto = b
			break
		}
	}
	if proto == nil {
		t.Skip("no fault-carrying IB bug in corpus")
	}
	dup := *proto
	dup.ID = proto.ID + "-dup"
	s := &Study{Bugs: []corpus.Bug{*proto, dup}, Faults: proto.Faults}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	runA := res.Runs[proto.ID][dialect.IB]
	if runA == nil || !runA.Class.IsFailure() {
		t.Skipf("prototype bug %s did not fail on its own server in isolation", proto.ID)
	}
	groups := res.DedupFailures()[dialect.IB]
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1: %+v", len(groups), groups)
	}
	if len(groups[0].Bugs) != 2 {
		t.Errorf("group must contain both scripts, got %v", groups[0].Bugs)
	}
}

func TestFailureFingerprintOnNonFailure(t *testing.T) {
	if _, ok := (&Run{}).FailureFingerprint(); ok {
		t.Error("non-failing run must not produce a fingerprint")
	}
}
