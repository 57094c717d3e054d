package replication

import (
	"errors"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
)

func newGroup(t *testing.T, faults []fault.Fault, n int, autoRestart bool) *Group {
	t.Helper()
	servers := make([]*server.Server, 0, n)
	for i := 0; i < n; i++ {
		s, err := server.New(dialect.PG, faults)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	g, err := NewGroup(autoRestart, servers...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGroupRejected(t *testing.T) {
	if _, err := NewGroup(true); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("got %v", err)
	}
}

func TestUpdatesPropagateToBackups(t *testing.T) {
	g := newGroup(t, nil, 3, true)
	sess := g.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	m := g.Metrics()
	if m.Propagated != 4 { // 2 backups x 2 updates
		t.Errorf("propagated %d", m.Propagated)
	}
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("select: %v %v", res, err)
	}
}

func TestFailoverOnPrimaryCrash(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagGroupBy},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	g := newGroup(t, faults, 2, true)
	sess := g.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// Crashes the primary; the statement is retried on the promoted
	// backup — which carries the same fault (identical replicas!) and
	// crashes too; with auto-restart both recover in turn until the
	// retry budget runs out.
	_, _, err := sess.Exec("SELECT A, COUNT(*) AS N FROM T GROUP BY A")
	if err == nil {
		t.Fatal("identical replicas share the fault; the statement cannot succeed")
	}
	if g.Metrics().Failovers == 0 {
		t.Error("no failover recorded")
	}
	// Non-triggering statements still work after recovery.
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("after failover: %v %v", res, err)
	}
}

func TestGroupDownWithoutRestart(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	g := newGroup(t, faults, 2, false)
	sess := g.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("SELECT A FROM T"); !errors.Is(err, ErrGroupDown) {
		t.Errorf("want group down, got %v", err)
	}
}

// TestIncorrectResultsPassUnchecked demonstrates the shortcoming the
// paper describes: non-fail-stop failures are returned to the client and
// never detected by crash-only replication.
func TestIncorrectResultsPassUnchecked(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "wrong",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	g := newGroup(t, faults, 2, true)
	sess := g.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO T VALUES (10)"); err != nil {
		t.Fatal(err)
	}
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 11 {
		t.Fatalf("expected the WRONG value to reach the client, got %v", res.Rows[0][0])
	}
}

// TestIncorrectUpdatePropagates shows incorrect updates spreading to all
// replicas (the paper: "incorrect updates would be propagated to all the
// replicas").
func TestIncorrectUpdatePropagates(t *testing.T) {
	// The primary silently accepts an invalid INSERT; the backup gets
	// the same statement replayed. No comparison ever happens.
	faults := []fault.Fault{{
		BugID:   "accept",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectSuppressError},
	}}
	g := newGroup(t, faults, 2, true)
	sess := g.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal("duplicate accepted silently on the primary (fault), so no error must surface")
	}
	if g.Metrics().UncheckedOK == 0 {
		t.Error("unchecked results not counted")
	}
}

func TestPrimaryName(t *testing.T) {
	g := newGroup(t, nil, 2, true)
	if g.Primary() != "PG" {
		t.Errorf("primary: %s", g.Primary())
	}
}
