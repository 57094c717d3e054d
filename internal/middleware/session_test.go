package middleware

import (
	"fmt"
	"sync"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/sql/ast"
)

// TestSessionsIndependentTransactions: BEGIN on one middleware session
// must not open (or affect) a transaction on another session.
func TestSessionsIndependentTransactions(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR, dialect.MS)
	a, b := d.NewSession(), d.NewSession()
	defer a.Close()
	defer b.Close()
	mustSess := func(cs *Session, q string) {
		t.Helper()
		if _, _, err := cs.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	mustSess(a, "CREATE TABLE T (A INT)")
	mustSess(a, "BEGIN TRANSACTION")
	if _, _, err := b.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT on session b must fail while only a is in a transaction")
	}
	mustSess(a, "INSERT INTO T VALUES (1)")
	mustSess(a, "ROLLBACK")
	res, _, err := b.Exec("SELECT COUNT(*) AS N FROM T")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("rolled-back row visible: %v %v", res, err)
	}
	mustSess(b, "BEGIN TRANSACTION")
	mustSess(b, "INSERT INTO T VALUES (2)")
	mustSess(b, "COMMIT")
	res, _, err = a.Exec("SELECT COUNT(*) AS N FROM T")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("b's commit lost: %v %v", res, err)
	}
}

// TestConcurrentSessionsWithFaultInjection runs concurrent client
// sessions (disjoint tables) against a three-version diverse server with
// a wrong-result fault installed on one replica: the fault must be
// masked for every session and no spurious divergence may surface.
// Run with -race.
func TestConcurrentSessionsWithFaultInjection(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "wrong",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "C2", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	const sessions = 4
	const rounds = 10
	for i := 0; i < sessions; i++ {
		mustExec(t, sess, fmt.Sprintf("CREATE TABLE C%d (X INT)", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs := d.NewSession()
			defer cs.Close()
			tbl := fmt.Sprintf("C%d", i)
			for r := 0; r < rounds; r++ {
				if _, _, err := cs.Exec("BEGIN TRANSACTION"); err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				if _, _, err := cs.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d)", tbl, r)); err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				if _, _, err := cs.Exec("COMMIT"); err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				res, _, err := cs.Exec(fmt.Sprintf("SELECT COUNT(*) AS N FROM %s", tbl))
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				if got := res.Rows[0][0].I; got != int64(r+1) {
					t.Errorf("session %d round %d: count %d (fault not masked?)", i, r, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	m := d.Metrics()
	if m.DetectedSplits != 0 {
		t.Errorf("spurious divergences under concurrency: %+v", m)
	}
	// The faulted replica (PG, off-by-one on C2 reads) was outvoted and
	// masked — the concurrent clients never saw the wrong count.
	if m.MaskedFailures == 0 {
		t.Errorf("fault never masked: %+v", m)
	}
}

// A replica suspected while a DIFFERENT session holds an open
// transaction on the donor no longer waits for that transaction to end:
// it rejoins on the next statement, a read included, with the sibling's
// open transaction carried over as journal redo on top of the donor's
// committed snapshot.
func TestResyncCarriesSiblingSessionTxn(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "err",
		Server:  dialect.MS,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagUpdate},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious"},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.MS)
	a, b := d.NewSession(), d.NewSession()
	defer a.Close()
	defer b.Close()
	mustSess := func(cs *Session, q string) {
		t.Helper()
		if _, _, err := cs.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	mustSess(a, "CREATE TABLE T (A INT)")
	mustSess(a, "CREATE TABLE U (A INT)")
	mustSess(a, "INSERT INTO T VALUES (1)")
	// b opens a transaction on another table and keeps it open.
	mustSess(b, "BEGIN TRANSACTION")
	mustSess(b, "INSERT INTO U VALUES (9)")
	// a triggers the spurious error on MS: MS is outvoted and quarantined.
	mustSess(a, "UPDATE T SET A = 2")
	if len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("quarantined: %v", d.QuarantinedReplicas())
	}
	// The very next statement, a read, rejoins MS (under the exclusive
	// statement lock: no sibling read is in flight), with b STILL
	// mid-transaction.
	mustSess(a, "SELECT A FROM T")
	if len(d.QuarantinedReplicas()) != 0 {
		t.Fatalf("replica did not rejoin under b's open transaction: %v", d.QuarantinedReplicas())
	}
	if m := d.Metrics(); m.Resyncs != 1 || m.JournalReplays < 2 { // b's BEGIN + INSERT redone on MS
		t.Errorf("sibling transaction not redone: %+v", m)
	}
	mustSess(a, "INSERT INTO T VALUES (7)")
	// b's transaction was carried across the resync: its rollback must
	// remove the uncommitted row on every replica, unanimously.
	mustSess(b, "ROLLBACK")
	res, _, err := a.Exec("SELECT COUNT(*) AS N FROM U")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("after sibling rollback: %v %v", res, err)
	}
	res, _, err = a.Exec("SELECT A FROM T WHERE A = 2")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("after resync: %v %v", res, err)
	}
	if m := d.Metrics(); m.DetectedSplits != 0 {
		t.Errorf("splits: %+v", m)
	}
}
