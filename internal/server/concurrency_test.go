package server

import (
	"fmt"
	"sync"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/sql/ast"
)

// TestConcurrentSessionsDisjointTables runs N client sessions against one
// server, each transacting on its own table. Run with -race.
func TestConcurrentSessionsDisjointTables(t *testing.T) {
	s, err := New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	sSess := s.NewSession()
	const sessions = 8
	const rounds = 20
	for i := 0; i < sessions; i++ {
		if _, _, err := sSess.Exec(fmt.Sprintf("CREATE TABLE W%d (X INT)", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			tbl := fmt.Sprintf("W%d", i)
			for r := 0; r < rounds; r++ {
				stmts := []string{
					"BEGIN TRANSACTION",
					fmt.Sprintf("INSERT INTO %s VALUES (%d)", tbl, r),
					"COMMIT",
					fmt.Sprintf("SELECT COUNT(*) AS N FROM %s", tbl),
				}
				for _, q := range stmts {
					if _, _, err := sess.Exec(q); err != nil {
						t.Errorf("session %d: %q: %v", i, q, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		res, _, err := sSess.Exec(fmt.Sprintf("SELECT COUNT(*) AS N FROM W%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != rounds {
			t.Errorf("table W%d has %d rows, want %d", i, res.Rows[0][0].I, rounds)
		}
	}
}

// TestCrashAbortsAllSessions: an engine crash rolls back the open
// transaction of EVERY session, not just the one that hit the fault.
func TestCrashAbortsAllSessions(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "BOOM", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	s, err := New(dialect.PG, faults)
	if err != nil {
		t.Fatal(err)
	}
	mustExecOn := func(sess *Session, q string) {
		t.Helper()
		if _, _, err := sess.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	a, b := s.NewSession(), s.NewSession()
	mustExecOn(a, "CREATE TABLE BOOM (X INT)")
	mustExecOn(a, "CREATE TABLE SAFE (X INT)")
	mustExecOn(b, "BEGIN TRANSACTION")
	mustExecOn(b, "INSERT INTO SAFE VALUES (1)")
	if !b.InTxn() {
		t.Fatal("b must be in a transaction")
	}
	// a triggers the crash; b's transaction dies with the engine.
	if _, _, err := a.Exec("SELECT X FROM BOOM"); err != ErrCrashed {
		t.Fatalf("crash fault: %v", err)
	}
	if b.InTxn() {
		t.Error("crash left b's transaction open")
	}
	if _, _, err := b.Exec("SELECT X FROM SAFE"); err != ErrCrashed {
		t.Errorf("crashed server served b: %v", err)
	}
	s.Restart()
	res, _, err := b.Exec("SELECT COUNT(*) AS N FROM SAFE")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("uncommitted row survived the crash: %d", res.Rows[0][0].I)
	}
}

// TestConnAbortOnlyAffectsOwnSession: the EffectAbortConnection fault
// rolls back the faulted session's transaction and leaves other
// sessions' transactions open.
func TestConnAbortOnlyAffectsOwnSession(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "abort",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "DROPME", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectAbortConnection},
	}}
	s, err := New(dialect.OR, faults)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.NewSession(), s.NewSession()
	for _, q := range []string{"CREATE TABLE DROPME (X INT)", "CREATE TABLE OTHER (X INT)"} {
		if _, _, err := a.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, sess := range []*Session{a, b} {
		if _, _, err := sess.Exec("BEGIN TRANSACTION"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := a.Exec("INSERT INTO DROPME VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Exec("INSERT INTO OTHER VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Exec("SELECT X FROM DROPME"); err != ErrConnAborted {
		t.Fatalf("abort fault: %v", err)
	}
	if a.InTxn() {
		t.Error("aborted session kept its transaction")
	}
	if !b.InTxn() {
		t.Error("abort on a rolled back b's transaction")
	}
	if _, _, err := b.Exec("COMMIT"); err != nil {
		t.Fatalf("b's commit: %v", err)
	}
	res, _, err := b.Exec("SELECT COUNT(*) AS N FROM OTHER")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Errorf("b's committed row lost: %v %v", res, err)
	}
}
