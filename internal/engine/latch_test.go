package engine

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"divsql/internal/sql/stmt"
)

// An INSERT filling a DEFAULT whose subquery reads another table reads
// that table's rows, so it latches that table too: without the latch the
// subquery's scan races the other table's writers (go test -race).
func TestDefaultSubqueryTablesLatched(t *testing.T) {
	e := NewOracle()
	setup := e.NewSession()
	sessExec(t, setup, "CREATE TABLE U (X INT)")
	sessExec(t, setup, "INSERT INTO U VALUES (7)")
	sessExec(t, setup, "CREATE TABLE T (A INT DEFAULT (SELECT MAX(X) FROM U), B INT)")
	ins := resolve(t, "INSERT INTO T (B) VALUES (1)")
	if got := e.LatchSet(ins); !slices.Equal(got, []string{"T", "U"}) {
		t.Fatalf("INSERT into T latches %v, want [T U]", got)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := e.NewSession()
		defer s.Close()
		for i := 0; i < 300; i++ {
			if _, err := s.Exec(ins, nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		s := e.NewSession()
		defer s.Close()
		for i := 0; i < 300; i++ {
			sql := fmt.Sprintf("INSERT INTO U VALUES (%d)", i)
			if i%3 == 0 {
				sql = "UPDATE U SET X = X + 1"
			}
			if _, err := gexec(s, sql); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if res := sessExec(t, setup, "SELECT COUNT(*) AS N FROM T WHERE A IS NULL"); res.Rows[0][0].I != 0 {
		t.Fatalf("%d rows of T missed their DEFAULT", res.Rows[0][0].I)
	}
}

// A rollback puts back the schema stamp its transaction started from,
// even when another session's open transaction has changed the catalog
// since; the schema facts derived at that stamp describe a catalog that
// no longer exists and must not be served again. Session B's view over U
// latches U (its reads race U's writers otherwise, go test -race), its
// NEXTVAL view advances a sequence, StatsSnapshot lists neither the table
// B dropped nor misses the one C created, and Snapshot latches the
// latter.
func TestSchemaFactsFollowInterleavedDDL(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sessExec(t, a, "CREATE SEQUENCE SQ")
	sessExec(t, a, "CREATE TABLE U (X INT)")
	sessExec(t, a, "CREATE TABLE GONE (Y INT)")
	sessExec(t, a, "INSERT INTO U VALUES (1)")
	e.StatsSnapshot() // derive the facts of this catalog

	sessExec(t, a, "BEGIN TRANSACTION")
	sessExec(t, a, "CREATE VIEW VA AS SELECT X FROM U")
	sessExec(t, b, "BEGIN TRANSACTION")
	sessExec(t, b, "CREATE VIEW VB AS SELECT X FROM U")
	sessExec(t, b, "CREATE VIEW VS AS SELECT NEXTVAL('SQ') AS N")
	sessExec(t, b, "DROP TABLE GONE")
	c := e.NewSession()
	sessExec(t, c, "CREATE TABLE NEW (Z INT)")
	sessExec(t, a, "ROLLBACK")

	read := resolve(t, "SELECT X FROM VB")
	if got := e.LatchSet(read); !slices.Equal(got, []string{"U", "VB"}) {
		t.Fatalf("%q latches %v, want [U VB]", read.Text, got)
	}
	if seq := resolve(t, "SELECT N FROM VS"); !e.SelectAdvancesSequences(seq) {
		t.Fatalf("%q is not classified as advancing a sequence", seq.Text)
	}
	tables := func() []string {
		var names []string
		for _, tr := range e.StatsSnapshot().TableRows {
			names = append(names, tr.Name)
		}
		return names
	}
	if got := tables(); !slices.Equal(got, []string{"NEW", "U"}) {
		t.Fatalf("StatsSnapshot lists tables %v, want [NEW U]", got)
	}
	if got := slices.Sorted(maps.Keys(e.Snapshot().Tables)); !slices.Equal(got, []string{"GONE", "NEW", "U"}) {
		t.Fatalf("Snapshot holds tables %v, want the committed [GONE NEW U]", got)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sql := "UPDATE U SET X = X + 1"
			if i%2 == 0 {
				sql = fmt.Sprintf("INSERT INTO NEW VALUES (%d)", i)
			}
			if _, err := gexec(c, sql); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := b.Exec(read, nil); err != nil {
				errs <- err
				return
			}
			e.StatsSnapshot()
			e.Snapshot()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sessExec(t, b, "COMMIT")
}

// Latching allocates nothing when the statement's own table list is its
// latch set — a prepared UPDATE by primary key, a prepared INSERT on a
// table with no view, CHECK or DEFAULT subquery — and classifying a
// SELECT that calls no function and reads no view allocates nothing.
func TestLatchSetAllocs(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE LA (ID INT PRIMARY KEY, V INT CHECK (V > 0), W INT DEFAULT 3)")
	sessExec(t, s, "INSERT INTO LA VALUES (1, 1, 1)")
	for _, p := range []*stmt.Parsed{
		resolve(t, "UPDATE LA SET V = $1 WHERE ID = $2"),
		resolve(t, "INSERT INTO LA VALUES ($1, $2, $3)"),
	} {
		if n := testing.AllocsPerRun(100, func() {
			e.mu.RLock()
			refs := e.latchSet(p)
			e.latchTables(refs)
			e.unlatchTables(refs)
			e.mu.RUnlock()
		}); n != 0 {
			t.Errorf("%q: latching allocates %.0f times, want 0", p.Text, n)
		}
	}
	sel := resolve(t, "SELECT V FROM LA WHERE ID = $1")
	if n := testing.AllocsPerRun(100, func() { e.SelectAdvancesSequences(sel) }); n != 0 {
		t.Errorf("%q: classification allocates %.0f times, want 0", sel.Text, n)
	}
}
