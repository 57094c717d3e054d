package study

import (
	"testing"

	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
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
	src, err := ScriptSource("CREATE TABLE C1 (A INT); INSERT INTO C1 VALUES (1); SELECT A FROM C1;")
	if err != nil {
		t.Fatal(err)
	}
	out := RunSource(srv, src)
	if len(out) != 2 || out[0].Err != nil || !out[1].Crashed {
		t.Errorf("stream outcomes: %+v", out)
	}
}

func TestRunPairClassifiesLikeStudy(t *testing.T) {
	res, err := New().Run()
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a handful of bugs: re-running through RunPair must give
	// the same classification the full study recorded.
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
		src, err := ScriptSource(bug.Script)
		if err != nil {
			t.Fatal(err)
		}
		cls, _, _ := RunPair(srv, server.NewOracle(), src)
		if cls.Status != run.Class.Status || cls.Type != run.Class.Type {
			t.Errorf("%s: RunPair %v/%v, study %v/%v", bug.ID, cls.Status, cls.Type, run.Class.Status, run.Class.Type)
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
