package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/stmt"
)

// gexec is sexec for goroutines: it reports failures instead of
// calling t.Fatalf, which must not run off the test goroutine.
func gexec(s *Session, sql string) (*Result, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, fmt.Errorf("%q: %v", sql, err)
	}
	return s.Exec(p, nil)
}

func count(t *testing.T, s *Session, table string) int64 {
	t.Helper()
	res := sexec(t, s, "SELECT COUNT(*) AS N FROM "+table)
	if len(res.Rows) != 1 {
		t.Fatalf("count on %s: %v", table, res)
	}
	return res.Rows[0][0].I
}

// A REPEATABLE READ transaction pins its read view at the first read:
// every later read inside the transaction sees the same snapshot, no
// matter how many commits land in between, and the commits become
// visible the moment the transaction ends. Run with -race — the reader
// re-reads through the lock-free compiled path while the writer
// commits through the table latch.
func TestReadViewStableAcrossConcurrentCommits(t *testing.T) {
	e := NewOracle()
	setup := e.NewSession()
	sexec(t, setup, "CREATE TABLE T (A INT, B INT)")
	const seed = 10
	for i := 0; i < seed; i++ {
		sexec(t, setup, fmt.Sprintf("INSERT INTO T VALUES (%d, 0)", i))
	}

	r := e.NewSession()
	sexec(t, r, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	sexec(t, r, "BEGIN TRANSACTION")
	first := count(t, r, "T")
	if first != seed {
		t.Fatalf("first read: %d rows, want %d", first, seed)
	}

	const commits = 120
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := e.NewSession()
		defer w.Close()
		for i := 0; i < commits; i++ {
			if _, err := gexec(w, fmt.Sprintf("INSERT INTO T VALUES (%d, 1)", seed+i)); err != nil {
				t.Errorf("writer insert %d: %v", i, err)
				return
			}
			// In-place updates on a non-key column exercise the
			// per-column version (colVer) index path concurrently
			// with the reader's pinned snapshot.
			if _, err := gexec(w, fmt.Sprintf("UPDATE T SET B = %d WHERE A = %d", i, i%seed)); err != nil {
				t.Errorf("writer update %d: %v", i, err)
				return
			}
		}
	}()

	// Interleave re-reads with the writer's commits. Every one must
	// reproduce the pinned snapshot exactly.
	for i := 0; i < 40; i++ {
		if got := count(t, r, "T"); got != first {
			t.Fatalf("read %d saw %d rows inside REPEATABLE READ, want %d", i, got, first)
		}
		res := sexec(t, r, "SELECT SUM(B) AS S FROM T")
		if !res.Rows[0][0].IsNull() && res.Rows[0][0].I != 0 {
			t.Fatalf("read %d saw concurrent UPDATE inside REPEATABLE READ: SUM(B)=%d", i, res.Rows[0][0].I)
		}
	}
	wg.Wait()
	sexec(t, r, "COMMIT")

	// Outside the transaction the same session sees every commit.
	if got := count(t, r, "T"); got != seed+commits {
		t.Fatalf("post-commit read: %d rows, want %d", got, seed+commits)
	}
}

// The documented exception to REPEATABLE READ: once the transaction
// writes a table, its reads of that table go to the own-writes path —
// committed state as of now plus its own writes — not to the pinned
// view, so commits that landed after the pin appear (a phantom). Tables
// it has not written stay pinned.
func TestRepeatableReadSeesCommitsOnTablesItWrote(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	for _, tbl := range []string{"T", "U"} {
		sexec(t, a, "CREATE TABLE "+tbl+" (A INT)")
		for i := 1; i <= 3; i++ {
			sexec(t, a, fmt.Sprintf("INSERT INTO %s VALUES (%d)", tbl, i))
		}
	}
	sexec(t, a, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	sexec(t, a, "BEGIN TRANSACTION")
	for _, tbl := range []string{"T", "U"} {
		if got := count(t, a, tbl); got != 3 {
			t.Fatalf("first read of %s: %d rows, want 3", tbl, got)
		}
	}
	sexec(t, b, "INSERT INTO T VALUES (4)")
	sexec(t, b, "INSERT INTO U VALUES (4)")
	if got := count(t, a, "T"); got != 3 {
		t.Fatalf("pinned read saw b's commit: %d rows, want 3", got)
	}
	sexec(t, a, "INSERT INTO T VALUES (5)")
	if got := count(t, a, "T"); got != 5 {
		t.Fatalf("read of a written table: %d rows, want 5 (committed now plus own insert)", got)
	}
	if got := count(t, a, "U"); got != 3 {
		t.Fatalf("read of an unwritten table left the pinned view: %d rows, want 3", got)
	}
	sexec(t, a, "COMMIT")
}

// ROLLBACK of a transaction containing DDL (CREATE TABLE, DROP TABLE)
// must neither disturb an open read view in another session nor leave
// any trace in the committed catalog.
func TestDDLRollbackUnderOpenReadView(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sexec(t, a, "CREATE TABLE T (A INT)")
	for i := 1; i <= 3; i++ {
		sexec(t, a, fmt.Sprintf("INSERT INTO T VALUES (%d)", i))
	}

	sexec(t, a, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	sexec(t, a, "BEGIN TRANSACTION")
	first := count(t, a, "T")

	// b creates a table, writes to it and to T, then throws it all away.
	sexec(t, b, "BEGIN TRANSACTION")
	sexec(t, b, "CREATE TABLE G (X INT)")
	sexec(t, b, "INSERT INTO G VALUES (1)")
	sexec(t, b, "INSERT INTO T VALUES (99)")
	if got := count(t, a, "T"); got != first {
		t.Fatalf("open view saw b's uncommitted insert: %d rows, want %d", got, first)
	}
	if err := sexecErr(t, a, "SELECT X FROM G"); err == nil {
		t.Fatal("a's view resolved b's uncommitted CREATE TABLE")
	}
	sexec(t, b, "ROLLBACK")

	if got := count(t, a, "T"); got != first {
		t.Fatalf("read view disturbed by DDL rollback: %d rows, want %d", got, first)
	}
	sexec(t, a, "COMMIT")

	if err := sexecErr(t, a, "SELECT X FROM G"); err == nil {
		t.Fatal("rolled-back CREATE TABLE survived in the catalog")
	}
	if got := count(t, a, "T"); got != 3 {
		t.Fatalf("T after rollback: %d rows, want 3", got)
	}
}

// The read half of a write statement — INSERT ... SELECT sources and
// subqueries in UPDATE/DELETE WHERE — must observe committed state plus
// the writer's own changes, never another session's uncommitted rows
// (the own-writes rule of ISOLATION.md applies to DML-internal reads).
func TestDMLInternalReadsSkipUncommitted(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sexec(t, a, "CREATE TABLE SRC (A INT)")
	sexec(t, a, "CREATE TABLE DST (A INT)")
	sexec(t, a, "CREATE TABLE T (A INT, B INT)")
	sexec(t, a, "INSERT INTO SRC VALUES (1)")
	sexec(t, a, "INSERT INTO SRC VALUES (2)")
	sexec(t, a, "INSERT INTO T VALUES (1, 0)")
	sexec(t, a, "INSERT INTO T VALUES (99, 0)")

	// b holds uncommitted changes to SRC: a new row, and a committed
	// row deleted.
	sexec(t, b, "BEGIN TRANSACTION")
	sexec(t, b, "INSERT INTO SRC VALUES (99)")
	sexec(t, b, "DELETE FROM SRC WHERE A = 2")

	// a's INSERT ... SELECT copies the committed SRC: rows 1 and 2,
	// not b's uncommitted 99, and not b's uncommitted delete of 2.
	sexec(t, a, "INSERT INTO DST SELECT A FROM SRC")
	res := sexec(t, a, "SELECT A FROM DST ORDER BY A")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 2 {
		t.Fatalf("INSERT..SELECT copied a non-committed image of SRC: %v", res.Rows)
	}

	// Subqueries inside UPDATE and DELETE predicates read the same
	// committed image: neither statement may match through b's
	// uncommitted insert of 99.
	ur := sexec(t, a, "UPDATE T SET B = 1 WHERE A IN (SELECT A FROM SRC)")
	if ur.Affected != 1 {
		t.Fatalf("UPDATE subquery matched %d rows, want 1 (uncommitted SRC row leaked)", ur.Affected)
	}
	dr := sexec(t, a, "DELETE FROM T WHERE A IN (SELECT A FROM SRC)")
	if dr.Affected != 1 {
		t.Fatalf("DELETE subquery matched %d rows, want 1 (uncommitted SRC row leaked)", dr.Affected)
	}

	// b's own DML-internal reads keep seeing b's writes: its
	// INSERT ... SELECT sources the transaction-local image of SRC
	// (99 present, 2 deleted).
	sexec(t, b, "CREATE TABLE OWN (A INT)")
	sexec(t, b, "INSERT INTO OWN SELECT A FROM SRC")
	own := sexec(t, b, "SELECT A FROM OWN ORDER BY A")
	if len(own.Rows) != 2 || own.Rows[0][0].I != 1 || own.Rows[1][0].I != 99 {
		t.Fatalf("own-writes image lost in INSERT..SELECT: %v", own.Rows)
	}
	sexec(t, b, "ROLLBACK")
}

// A pure SELECT of a transaction over a table it has written reads the
// live plane with every other open transaction's changes to that table
// rewound: committed rows plus its own, never another session's
// uncommitted rows. What the other session commits becomes visible to
// the next statement; what it rolls back leaves no trace.
func TestOwnWritesReadSkipsOthersUncommitted(t *testing.T) {
	for _, end := range []string{"COMMIT", "ROLLBACK"} {
		t.Run(end, func(t *testing.T) {
			e := NewOracle()
			a, b := e.NewSession(), e.NewSession()
			sexec(t, a, "CREATE TABLE T (K INT, V INT)")
			for k := 1; k <= 4; k++ {
				sexec(t, a, fmt.Sprintf("INSERT INTO T VALUES (%d, 0)", k))
			}
			read := func() []string {
				t.Helper()
				return rowStrings(sexec(t, a, "SELECT K, V FROM T ORDER BY K, V"))
			}

			sexec(t, a, "BEGIN TRANSACTION")
			sexec(t, a, "INSERT INTO T VALUES (10, 1)")
			sexec(t, a, "UPDATE T SET V = 1 WHERE K = 1")
			sexec(t, b, "BEGIN TRANSACTION")
			sexec(t, b, "INSERT INTO T VALUES (20, 2)")
			sexec(t, b, "UPDATE T SET V = 2 WHERE K = 2")
			sexec(t, b, "DELETE FROM T WHERE K = 3")

			own := []string{"1|1", "2|0", "3|0", "4|0", "10|1"}
			if got := read(); !slices.Equal(got, own) {
				t.Fatalf("own-writes read with b open: %v, want %v", got, own)
			}
			if got := len(sexec(t, a, "SELECT K FROM T WHERE K = 20").Rows); got != 0 {
				t.Fatalf("point read resolved b's uncommitted row")
			}

			sexec(t, b, end)
			want := own
			if end == "COMMIT" {
				want = []string{"1|1", "2|2", "4|0", "10|1", "20|2"}
			}
			if got := read(); !slices.Equal(got, want) {
				t.Fatalf("own-writes read after b's %s: %v, want %v", end, got, want)
			}
			sexec(t, a, "COMMIT")
			if got := read(); !slices.Equal(got, want) {
				t.Fatalf("committed read after both ends: %v, want %v", got, want)
			}
		})
	}
}

// A committed value must never travel backwards: the commit-mark bump
// and the undo-log clear race view builds, and a view that rewinds
// just-committed changes while carrying the new sequence stamp would
// serve stale data as current. Run with -race.
func TestCommittedReadsNeverRewind(t *testing.T) {
	e := NewOracle()
	setup := e.NewSession()
	sexec(t, setup, "CREATE TABLE T (V INT)")
	sexec(t, setup, "INSERT INTO T VALUES (0)")

	const commits = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := e.NewSession()
		defer w.Close()
		for i := 1; i <= commits; i++ {
			if _, err := gexec(w, "BEGIN TRANSACTION"); err != nil {
				t.Errorf("begin %d: %v", i, err)
				return
			}
			if _, err := gexec(w, fmt.Sprintf("UPDATE T SET V = %d", i)); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			if _, err := gexec(w, "COMMIT"); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()

	r := e.NewSession()
	last := int64(0)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		res, err := gexec(r, "SELECT V FROM T")
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got := res.Rows[0][0].I; got < last {
			t.Fatalf("committed read went backwards: saw %d after %d", got, last)
		} else {
			last = got
		}
	}
	if got := sexec(t, r, "SELECT V FROM T").Rows[0][0].I; got != commits {
		t.Fatalf("final read: %d, want %d", got, commits)
	}
}

// Captures of one table share an index lineage while rows are only
// appended. An older capture — pinned by a REPEATABLE READ transaction —
// that probes after a newer one extended the lineage past a segment
// boundary at its own row count is served from an index of its own: the
// published one keeps the newer, longer coverage. Both answers are the
// full scan's.
func TestOlderCaptureKeepsLineageCoverage(t *testing.T) {
	e := NewOracle()
	w := e.NewSession()
	sexec(t, w, "CREATE TABLE T (K INT PRIMARY KEY, V INT)")
	const pinnedRows, appended = 4, indexTailMax + 8
	for k := 1; k <= pinnedRows; k++ {
		sexec(t, w, fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", k, 10*k))
	}
	pinned := e.NewSession()
	sexec(t, pinned, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	sexec(t, pinned, "BEGIN TRANSACTION")
	queries := []string{"SELECT K, V FROM T WHERE K = 2", "SELECT K, V FROM T WHERE K > 1 AND K < 40"}
	for _, q := range queries {
		sexec(t, pinned, q)
	}
	for k := pinnedRows + 1; k <= pinnedRows+appended; k++ {
		sexec(t, w, fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", k, 10*k))
	}
	latest := e.NewSession()
	lineage := e.st.tables["T"].capIC
	coverage := func() (point, rng int) {
		lineage.mu.Lock()
		defer lineage.mu.Unlock()
		if len(lineage.hash) > 0 {
			point = lineage.hash[0].n
		}
		if len(lineage.sorted) > 0 {
			rng = lineage.sorted[0].n
		}
		return point, rng
	}
	const want = pinnedRows + appended
	for _, s := range []*Session{latest, pinned} {
		for _, q := range queries {
			res := sexec(t, s, q).Clone()
			full, err := s.ExecSelectVariant(resolve(t, q), plan.ForceFullScan, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, scan := rowStrings(res), rowStrings(full); !slices.Equal(got, scan) {
				t.Errorf("%q: %v, full scan %v", q, got, scan)
			}
		}
		if point, rng := coverage(); point != want || rng != want {
			t.Errorf("published coverage %d (point) / %d (range) rows, want %d", point, rng, want)
		}
	}
	if got := len(sexec(t, pinned, queries[1]).Rows); got != pinnedRows-1 {
		t.Errorf("pinned range read: %d rows, want %d (its capture's)", got, pinnedRows-1)
	}
	sexec(t, pinned, "COMMIT")
}
