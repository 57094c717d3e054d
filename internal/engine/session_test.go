package engine

import (
	"fmt"
	"sync"
	"testing"
)

func sexec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(resolve(t, sql), nil)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func sexecErr(t *testing.T, s *Session, sql string) error {
	t.Helper()
	_, err := s.Exec(resolve(t, sql), nil)
	return err
}

func TestSessionsHaveIndependentTransactions(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sexec(t, a, "CREATE TABLE T (X INT)")

	sexec(t, a, "BEGIN TRANSACTION")
	if err := sexecErr(t, b, "COMMIT"); err == nil {
		t.Fatal("COMMIT on session b must fail: a's BEGIN is not b's transaction")
	}
	if !a.InTxn() || b.InTxn() {
		t.Fatalf("txn scope leaked: a=%v b=%v", a.InTxn(), b.InTxn())
	}
	sexec(t, a, "INSERT INTO T VALUES (1)")
	sexec(t, a, "ROLLBACK")
	if n, _ := e.TableRowCount("T"); n != 0 {
		t.Fatalf("rollback left %d rows", n)
	}

	// b's transaction commits independently of a's.
	sexec(t, b, "BEGIN TRANSACTION")
	sexec(t, b, "INSERT INTO T VALUES (2)")
	sexec(t, a, "BEGIN TRANSACTION")
	sexec(t, a, "ROLLBACK")
	sexec(t, b, "COMMIT")
	if n, _ := e.TableRowCount("T"); n != 1 {
		t.Fatalf("b's commit lost: %d rows", n)
	}
}

func TestSessionCloseRollsBack(t *testing.T) {
	e := NewOracle()
	a := e.NewSession()
	sexec(t, a, "CREATE TABLE T (X INT)")
	sexec(t, a, "BEGIN TRANSACTION")
	sexec(t, a, "INSERT INTO T VALUES (1)")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.TableRowCount("T"); n != 0 {
		t.Fatalf("close did not roll back: %d rows", n)
	}
	if _, err := a.Exec(resolve(t, "SELECT X FROM T"), nil); err != ErrSessionClosed {
		t.Fatalf("closed session accepted a statement: %v", err)
	}
	if e.SessionCount() != 0 {
		t.Fatalf("session not unregistered: %d", e.SessionCount())
	}
}

func TestAbortAllRollsBackEverySession(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sexec(t, a, "CREATE TABLE TA (X INT)")
	sexec(t, a, "CREATE TABLE TB (X INT)")
	sexec(t, a, "BEGIN TRANSACTION")
	sexec(t, a, "INSERT INTO TA VALUES (1)")
	sexec(t, b, "BEGIN TRANSACTION")
	sexec(t, b, "INSERT INTO TB VALUES (1)")
	if !a.InTxn() || !b.InTxn() {
		t.Fatal("both transactions must be open")
	}
	e.AbortAll()
	if a.InTxn() || b.InTxn() {
		t.Fatal("AbortAll left a transaction open")
	}
	for _, tbl := range []string{"TA", "TB"} {
		if n, _ := e.TableRowCount(tbl); n != 0 {
			t.Fatalf("table %s kept %d uncommitted rows", tbl, n)
		}
	}
}

// TestConcurrentDisjointTableTransactions runs N sessions, each doing
// transactional work against its own table, in parallel. Run with -race.
func TestConcurrentDisjointTableTransactions(t *testing.T) {
	e := NewOracle()
	const sessions = 8
	const rounds = 25
	setup := e.NewSession()
	for i := 0; i < sessions; i++ {
		sexec(t, setup, fmt.Sprintf("CREATE TABLE T%d (X INT)", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			tbl := fmt.Sprintf("T%d", i)
			for r := 0; r < rounds; r++ {
				sexec(t, s, "BEGIN TRANSACTION")
				sexec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d)", tbl, r))
				if r%3 == 0 {
					sexec(t, s, "ROLLBACK")
				} else {
					sexec(t, s, "COMMIT")
				}
				res := sexec(t, s, fmt.Sprintf("SELECT COUNT(*) AS N FROM %s", tbl))
				if len(res.Rows) != 1 {
					t.Errorf("count query: %v", res)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		want := 0
		for r := 0; r < rounds; r++ {
			if r%3 != 0 {
				want++
			}
		}
		if n, _ := e.TableRowCount(fmt.Sprintf("T%d", i)); n != want {
			t.Errorf("table T%d has %d rows, want %d", i, n, want)
		}
	}
}

// TestSequenceSelectsClassifiedAsWrites: a SELECT that advances a
// sequence (directly or through a view) mutates engine state, so the
// session must classify it as a write and it must still work — and
// actually advance the sequence — when issued like any other query.
func TestSequenceSelectsClassifiedAsWrites(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sexec(t, s, "CREATE SEQUENCE SQ")
	sexec(t, s, "CREATE VIEW VQ AS SELECT NEXTVAL('SQ') AS V")

	for _, q := range []string{"SELECT NEXTVAL('SQ') AS V", "SELECT V FROM VQ"} {
		if !e.SelectAdvancesSequences(resolve(t, q)) {
			t.Errorf("%q must be classified as sequence-advancing", q)
		}
	}
	if e.SelectAdvancesSequences(resolve(t, "SELECT 1 AS X")) {
		t.Error("plain SELECT misclassified as sequence-advancing")
	}

	first := sexec(t, s, "SELECT NEXTVAL('SQ') AS V").Rows[0][0].I
	second := sexec(t, s, "SELECT V FROM VQ").Rows[0][0].I
	if second != first+1 {
		t.Errorf("sequence did not advance: %d then %d", first, second)
	}
}

// TestRollbackSurvivesInterleavedStatements: undo entries target rows
// by identity, so a rollback interleaved with another session's writes
// to the same table neither panics nor disturbs the other session's
// rows (the engine's cross-session rollback-safety guarantee).
func TestRollbackSurvivesInterleavedStatements(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sexec(t, a, "CREATE TABLE T (ID INT, V INT)")
	for i := 1; i <= 4; i++ {
		sexec(t, a, fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", i, i*10))
	}

	// UPDATE in a's txn, then b compacts the table underneath (the old
	// positional undo would index out of range here), then a rolls back.
	sexec(t, a, "BEGIN TRANSACTION")
	sexec(t, a, "UPDATE T SET V = 99 WHERE ID = 4")
	sexec(t, b, "DELETE FROM T WHERE ID = 1")
	sexec(t, b, "DELETE FROM T WHERE ID = 2")
	sexec(t, a, "ROLLBACK")
	res := sexec(t, a, "SELECT V FROM T WHERE ID = 4")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 40 {
		t.Fatalf("update not rolled back: %v", res.Rows)
	}
	if n, _ := e.TableRowCount("T"); n != 2 {
		t.Fatalf("b's deletes disturbed by rollback: %d rows", n)
	}

	// INSERT in a's txn, b inserts afterwards; a's rollback must remove
	// only a's row (the old tail-truncate undo would remove b's).
	sexec(t, a, "BEGIN TRANSACTION")
	sexec(t, a, "INSERT INTO T VALUES (5, 50)")
	sexec(t, b, "INSERT INTO T VALUES (6, 60)")
	sexec(t, a, "ROLLBACK")
	if res := sexec(t, a, "SELECT ID FROM T WHERE ID = 5"); len(res.Rows) != 0 {
		t.Fatal("a's uncommitted insert survived rollback")
	}
	if res := sexec(t, a, "SELECT ID FROM T WHERE ID = 6"); len(res.Rows) != 1 {
		t.Fatal("rollback removed b's committed insert")
	}

	// DELETE in a's txn, b inserts meanwhile; a's rollback must restore
	// the deleted rows without erasing b's insert (the old snapshot
	// restore would).
	sexec(t, a, "BEGIN TRANSACTION")
	sexec(t, a, "DELETE FROM T WHERE ID = 3")
	sexec(t, b, "INSERT INTO T VALUES (7, 70)")
	sexec(t, a, "ROLLBACK")
	if res := sexec(t, a, "SELECT ID FROM T WHERE ID = 3"); len(res.Rows) != 1 {
		t.Fatal("deleted row not restored by rollback")
	}
	if res := sexec(t, a, "SELECT ID FROM T WHERE ID = 7"); len(res.Rows) != 1 {
		t.Fatal("rollback erased b's committed insert")
	}
}

// TestViewSeqClassificationStaysFresh: dropping and recreating a view
// deeper in a chain must change how queries over the outer view are
// classified — the flag is resolved per statement, not stored at
// CREATE VIEW.
func TestViewSeqClassificationStaysFresh(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sexec(t, s, "CREATE SEQUENCE SQ")
	sexec(t, s, "CREATE VIEW V1 AS SELECT 1 AS V")
	sexec(t, s, "CREATE VIEW V2 AS SELECT V FROM V1")
	if e.SelectAdvancesSequences(resolve(t, "SELECT V FROM V2")) {
		t.Fatal("plain view chain misclassified")
	}
	sexec(t, s, "DROP VIEW V2")
	sexec(t, s, "DROP VIEW V1")
	sexec(t, s, "CREATE VIEW V1 AS SELECT NEXTVAL('SQ') AS V")
	sexec(t, s, "CREATE VIEW V2 AS SELECT V FROM V1")
	if !e.SelectAdvancesSequences(resolve(t, "SELECT V FROM V2")) {
		t.Fatal("recreated sequence-advancing view chain not detected")
	}
}
