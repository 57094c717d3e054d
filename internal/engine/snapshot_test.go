package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sessExec resolves and executes one statement on a session.
func sessExec(t testing.TB, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(resolve(t, sql), nil)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// snapRowCount restores a snapshot into a scratch engine and counts a
// table's rows there, proving the image is self-contained.
func snapRowCount(t *testing.T, st *State, table string) int {
	t.Helper()
	scratch := New(Config{})
	scratch.Restore(st)
	n, err := scratch.TableRowCount(table)
	if err != nil {
		t.Fatalf("restored snapshot: %v", err)
	}
	return n
}

// A snapshot taken while a transaction is open must contain committed
// state only — no waiting for the transaction to close.
func TestSnapshotExcludesOpenTransaction(t *testing.T) {
	e := New(Config{})
	s1 := e.NewSession()
	s2 := e.NewSession()
	sessExec(t, s1, "CREATE TABLE T (A INT)")
	sessExec(t, s1, "INSERT INTO T VALUES (1), (2)")

	sessExec(t, s2, "BEGIN TRANSACTION")
	sessExec(t, s2, "INSERT INTO T VALUES (3)")
	sessExec(t, s2, "UPDATE T SET A = 10 WHERE A = 1")
	sessExec(t, s2, "DELETE FROM T WHERE A = 2")
	sessExec(t, s2, "CREATE TABLE U (B INT)")

	if !s2.InTxn() {
		t.Fatal("transaction must be open")
	}
	snap := e.Snapshot()

	// Live state sees the uncommitted changes (READ UNCOMMITTED)...
	if n, _ := e.TableRowCount("T"); n != 2 { // 1 inserted, 1 deleted
		t.Errorf("live rows: %d", n)
	}
	if !e.HasTable("U") {
		t.Error("live state must see uncommitted CREATE TABLE")
	}
	// ...but the snapshot holds the committed image.
	if n := snapRowCount(t, snap, "T"); n != 2 {
		t.Errorf("snapshot rows: %d, want the 2 committed rows", n)
	}
	scratch := New(Config{})
	scratch.Restore(snap)
	if scratch.HasTable("U") {
		t.Error("snapshot must not contain the uncommitted table")
	}
	res, err := execSQL(scratch, "SELECT A FROM T ORDER BY A")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Errorf("snapshot content: %v", got)
	}

	// The open transaction is untouched by the snapshot and can still
	// commit on the live plane.
	sessExec(t, s2, "COMMIT")
	if n, _ := e.TableRowCount("T"); n != 2 {
		t.Errorf("after commit: %d", n)
	}
	if !e.HasTable("U") {
		t.Error("commit lost the created table")
	}
}

// The snapshot is immutable: mutations committed after the snapshot must
// not leak into the already-taken image (copy-on-write isolation).
func TestSnapshotImmutableUnderLaterWrites(t *testing.T) {
	e := New(Config{})
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE T (A INT)")
	sessExec(t, s, "INSERT INTO T VALUES (1)")
	snap := e.Snapshot()
	sessExec(t, s, "INSERT INTO T VALUES (2), (3)")
	sessExec(t, s, "UPDATE T SET A = 99 WHERE A = 1")
	sessExec(t, s, "CREATE SEQUENCE SQ1")
	if n := snapRowCount(t, snap, "T"); n != 1 {
		t.Errorf("snapshot mutated: %d rows", n)
	}
	scratch := New(Config{})
	scratch.Restore(snap)
	res, err := execSQL(scratch, "SELECT A FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); len(got) != 1 || got[0] != "1" {
		t.Errorf("snapshot content changed: %v", got)
	}
}

// A snapshot rolled into a second engine must not alias the donor: both
// engines keep executing independently afterwards.
func TestRestoreIsolatesFromDonor(t *testing.T) {
	donor := New(Config{})
	sessExec(t, donor.NewSession(), "CREATE TABLE T (A INT)")
	sessExec(t, donor.NewSession(), "INSERT INTO T VALUES (1)")
	snap := donor.Snapshot()

	recv := New(Config{})
	recv.Restore(snap)
	sessExec(t, recv.NewSession(), "INSERT INTO T VALUES (2)")
	sessExec(t, donor.NewSession(), "INSERT INTO T VALUES (3)")

	if n, _ := donor.TableRowCount("T"); n != 2 {
		t.Errorf("donor rows: %d", n)
	}
	if n, _ := recv.TableRowCount("T"); n != 2 {
		t.Errorf("receiver rows: %d", n)
	}
	// The original snapshot is still pristine and restorable again.
	if n := snapRowCount(t, snap, "T"); n != 1 {
		t.Errorf("snapshot no longer pristine: %d rows", n)
	}
}

// Sequence values advanced inside an open transaction are rewound in the
// snapshot (this engine's sequences are transactional), and committed
// advances are included.
func TestSnapshotSequenceState(t *testing.T) {
	e := New(Config{})
	s := e.NewSession()
	sessExec(t, s, "CREATE SEQUENCE SQ1")
	sessExec(t, s, "CREATE TABLE T (A INT)")
	sessExec(t, s, "INSERT INTO T VALUES (1)")
	sessExec(t, s, "SELECT NEXTVAL(SQ1) AS N FROM T") // committed advance: next = 2

	s2 := e.NewSession()
	sessExec(t, s2, "BEGIN TRANSACTION")
	sessExec(t, s2, "SELECT NEXTVAL(SQ1) AS N FROM T") // uncommitted advance

	snap := e.Snapshot()
	scratch := New(Config{})
	scratch.Restore(snap)
	res, err := execSQL(scratch, "SELECT NEXTVAL(SQ1) AS N FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 2 {
		t.Errorf("snapshot sequence next = %d, want 2 (committed advance only)", res.Rows[0][0].I)
	}
	sessExec(t, s2, "ROLLBACK")
}

// RestoreScoped replaces one namespace only: objects outside the scope —
// and transactions over them — survive.
func TestRestoreScopedLeavesSiblingsAlone(t *testing.T) {
	donor := New(Config{})
	d := donor.NewSession()
	sessExec(t, d, "CREATE TABLE S1_T (A INT)")
	sessExec(t, d, "INSERT INTO S1_T VALUES (1), (2)")
	snap := donor.Snapshot()

	e := New(Config{})
	mine := e.NewSession()
	sib := e.NewSession()
	sessExec(t, mine, "CREATE TABLE S1_T (A INT)")
	sessExec(t, mine, "INSERT INTO S1_T VALUES (99)") // diverged content
	sessExec(t, sib, "CREATE TABLE S2_T (B INT)")
	sessExec(t, sib, "BEGIN TRANSACTION")
	sessExec(t, sib, "INSERT INTO S2_T VALUES (7)")

	e.RestoreScoped(snap, func(name string) bool {
		return len(name) >= 3 && name[:3] == "S1_"
	})

	// The scoped namespace now mirrors the donor.
	if n, _ := e.TableRowCount("S1_T"); n != 2 {
		t.Errorf("scoped table rows: %d", n)
	}
	// The sibling's table and its open transaction are untouched.
	if n, _ := e.TableRowCount("S2_T"); n != 1 {
		t.Errorf("sibling table rows: %d", n)
	}
	if !sib.InTxn() {
		t.Error("sibling transaction discarded by scoped restore")
	}
	sessExec(t, sib, "ROLLBACK")
	if n, _ := e.TableRowCount("S2_T"); n != 0 {
		t.Errorf("sibling rollback after scoped restore: %d rows", n)
	}
}

// CommitSeq advances with committed work, not with open transactions,
// and is stamped into snapshots.
func TestCommitSeqHighWaterMark(t *testing.T) {
	e := New(Config{})
	s := e.NewSession()
	base := e.CommitSeq()
	sessExec(t, s, "CREATE TABLE T (A INT)")
	sessExec(t, s, "INSERT INTO T VALUES (1)")
	if got := e.CommitSeq(); got != base+2 {
		t.Errorf("commit seq after 2 autocommits: %d, want %d", got, base+2)
	}
	sessExec(t, s, "BEGIN TRANSACTION")
	sessExec(t, s, "INSERT INTO T VALUES (2)")
	if got := e.CommitSeq(); got != base+2 {
		t.Errorf("open transaction advanced the mark: %d", got)
	}
	snap := e.Snapshot()
	if snap.CommitSeq != base+2 {
		t.Errorf("snapshot CommitSeq: %d, want %d", snap.CommitSeq, base+2)
	}
	sessExec(t, s, "COMMIT")
	if got := e.CommitSeq(); got != base+3 {
		t.Errorf("commit seq after COMMIT: %d, want %d", got, base+3)
	}
}

// Consistency under sustained concurrent transactional load (run with
// -race): writers continuously hold open transactions that insert a
// fixed-size batch and then commit or roll back; snapshots taken at
// arbitrary instants must always show a whole number of committed
// batches per writer's table. A snapshot that leaked uncommitted rows or
// tore a batch would break the invariant.
func TestSnapshotConsistentUnderLoad(t *testing.T) {
	const (
		writers = 4
		txns    = 40
		batch   = 3
	)
	e := New(Config{})
	setup := e.NewSession()
	for w := 0; w < writers; w++ {
		sessExec(t, setup, fmt.Sprintf("CREATE TABLE W%d (A INT)", w))
	}

	var writersWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			s := e.NewSession()
			defer s.Close()
			exec := func(sql string) bool {
				if _, err := gexec(s, sql); err != nil {
					t.Errorf("writer %d: %q: %v", w, sql, err)
					return false
				}
				return true
			}
			for i := 0; i < txns; i++ {
				if !exec("BEGIN TRANSACTION") {
					return
				}
				for b := 0; b < batch; b++ {
					if !exec(fmt.Sprintf("INSERT INTO W%d VALUES (%d)", w, i*batch+b)) {
						return
					}
				}
				end := "COMMIT"
				if i%3 == 0 {
					end = "ROLLBACK"
				}
				if !exec(end) {
					return
				}
			}
		}(w)
	}

	var snapErr error
	var snaps int
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		// stop is checked at the bottom so at least one snapshot is
		// always taken, even if the scheduler parks this goroutine
		// until after the writers finish (common under -race).
		for {
			snap := e.Snapshot()
			snaps++
			scratch := New(Config{})
			scratch.Restore(snap)
			for w := 0; w < writers; w++ {
				n, err := scratch.TableRowCount(fmt.Sprintf("W%d", w))
				if err != nil {
					snapErr = err
					return
				}
				if n%batch != 0 {
					snapErr = fmt.Errorf("torn snapshot: table W%d has %d rows (not a multiple of %d)", w, n, batch)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	writersWG.Wait()
	close(stop)
	<-snapDone
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if snaps == 0 {
		t.Error("no snapshot taken during the load window")
	}
}

// A statement that fails mid-way must leave no partial effects: the
// rows it already applied carry no undo record, so a leak here would
// survive ROLLBACK and contaminate the committed snapshot image.
func TestFailedStatementIsAtomic(t *testing.T) {
	e := New(Config{})
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE T (A INT PRIMARY KEY)")
	sessExec(t, s, "BEGIN TRANSACTION")

	if _, err := gexec(s, "INSERT INTO T VALUES (1), (1)"); err == nil {
		t.Fatal("duplicate-key insert must fail")
	}
	if n, _ := e.TableRowCount("T"); n != 0 {
		t.Errorf("failed INSERT left %d partial rows", n)
	}
	if n := snapRowCount(t, e.Snapshot(), "T"); n != 0 {
		t.Errorf("snapshot leaked %d uncommitted rows of a failed statement", n)
	}

	sessExec(t, s, "INSERT INTO T VALUES (1), (2)")
	// Updating every row to the same key fails on the second row; the
	// first row's applied update must be reverted.
	if _, err := gexec(s, "UPDATE T SET A = 3"); err == nil {
		t.Fatal("conflicting update must fail")
	}
	// Read through the writing session: other sessions see the committed
	// (empty) state now that reads are view-isolated, but the transaction
	// itself must see its inserts with the partial update reverted.
	res := sessExec(t, s, "SELECT A FROM T ORDER BY A")
	if got := rowStrings(res); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Errorf("failed UPDATE left partial effects: %v", got)
	}

	sessExec(t, s, "ROLLBACK")
	if n, _ := e.TableRowCount("T"); n != 0 {
		t.Errorf("rollback left %d rows", n)
	}
}

// Snapshot latches every table before stamping the commit mark; it must
// acquire those latches in sorted name order — the same global order
// every multi-table DML statement uses — or a Snapshot racing a writer
// (or another Snapshot) can form a lock-order cycle and deadlock the
// engine. This test fails by timeout if the ordering regresses: the
// multi-table statements latch {SRC, DST} sorted while Snapshot latches
// the full catalog concurrently. Run with -race.
func TestSnapshotLatchOrderingUnderMultiTableDML(t *testing.T) {
	e := NewOracle()
	setup := e.NewSession()
	// Enough tables that a random acquisition order is overwhelmingly
	// likely to invert at least one sorted pair per Snapshot.
	for i := 0; i < 8; i++ {
		sessExec(t, setup, fmt.Sprintf("CREATE TABLE T%d (A INT)", i))
	}
	sessExec(t, setup, "CREATE TABLE SRC (A INT)")
	sessExec(t, setup, "CREATE TABLE DST (A INT)")
	sessExec(t, setup, "INSERT INTO SRC VALUES (1)")

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < 200; i++ {
				// Multi-table statements: INSERT..SELECT latches both
				// SRC and DST; the subquery DELETE does too.
				if _, err := gexec(s, "INSERT INTO DST SELECT A FROM SRC"); err != nil {
					t.Errorf("insert-select: %v", err)
					return
				}
				if _, err := gexec(s, "DELETE FROM DST WHERE A IN (SELECT A FROM SRC)"); err != nil {
					t.Errorf("delete-subquery: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if st := e.Snapshot(); st == nil {
				t.Error("nil snapshot")
				return
			}
		}
	}()
	wg.Wait()
}

// A snapshot shares the donor's Rows arrays and so does every engine it
// is restored into: each side's writes must stay its own. Every stage
// starts from one donor and one snapshot restored into two engines, then
// writes on each engine in turn — the clones first, then the donor — and
// after each writer checks that the snapshot and every other engine
// still hold exactly what they held before. Rows are read straight from
// the catalog: a SELECT would capture a read view, which marks the table
// shared on its own. Five single-row INSERTs leave the donor's array
// with spare capacity for an append to land in.
//
// The donor also carries two open transactions on T, so its committed
// images are rewound clones rather than captures: one creates a unique
// index (a record that rewinds no rows), one inserts a row. Its dirty
// read-view image and the inserting session's own-writes image must
// read the same through every write, the rollbacks inside the stages
// and the two transactions' own rollbacks at the end; the own-writes
// image rewinds only the index, so it shares the live array until one
// side writes.
func TestSnapshotRowsCopyOnWrite(t *testing.T) {
	writes := []func(tag int) string{
		func(tag int) string { return fmt.Sprintf("UPDATE T SET V = %d WHERE K = 2", 100*tag) },
		func(tag int) string { return fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", 10+tag, tag) },
		func(int) string { return "DELETE FROM T WHERE K = 3" },
	}
	for _, write := range writes {
		for _, txn := range []bool{false, true} {
			stmts := func(tag int) []string { return []string{write(tag)} }
			if txn {
				// Roll the write back, then update in place: the write that
				// would land in a shared array if the rollback forgot it.
				stmts = func(tag int) []string {
					return []string{"BEGIN TRANSACTION", write(tag), "ROLLBACK", writes[0](tag)}
				}
			}
			t.Run(fmt.Sprintf("%s/txn=%v", strings.Fields(write(1))[0], txn), func(t *testing.T) {
				// build returns a fresh engine; with open set, T also
				// carries the two open transactions, indexer first.
				build := func(open bool) (e *Engine, indexer, inserter *Session) {
					e = New(Config{})
					s := e.NewSession()
					sessExec(t, s, "CREATE TABLE T (K INT, V INT)")
					for k := 1; k <= 5; k++ {
						sessExec(t, s, fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", k, k))
					}
					if open {
						indexer, inserter = e.NewSession(), e.NewSession()
						sessExec(t, indexer, "BEGIN TRANSACTION")
						sessExec(t, indexer, "CREATE UNIQUE INDEX UX ON T (K)")
						sessExec(t, inserter, "BEGIN TRANSACTION")
						sessExec(t, inserter, "INSERT INTO T VALUES (50, 50)")
					}
					return e, indexer, inserter
				}
				donor, indexer, inserter := build(true)
				snap := donor.Snapshot()
				image := tableRows(snap.Tables["T"])
				if want := []string{"1|1", "2|2", "3|3", "4|4", "5|5"}; !slices.Equal(image, want) {
					t.Fatalf("snapshot of the donor: %v, want its committed rows %v", image, want)
				}
				view, own := committedImages(donor, inserter)
				ownImage := append(slices.Clone(image), "50|50")
				if got := tableRows(view); !slices.Equal(got, image) {
					t.Fatalf("read-view image: %v, want %v", got, image)
				}
				if got := tableRows(own); !slices.Equal(got, ownImage) {
					t.Fatalf("own-writes image: %v, want %v", got, ownImage)
				}
				if live := donor.st.tables["T"]; view == live || own == live || &own.Rows[0] != &live.Rows[0] {
					t.Fatal("images must be clones, and the own-writes image must share the live row array")
				}
				imagesIntact := func(when string) {
					t.Helper()
					if got := tableRows(view); !slices.Equal(got, image) {
						t.Errorf("%s reached the read-view image: %v, want %v", when, got, image)
					}
					if got := tableRows(own); !slices.Equal(got, ownImage) {
						t.Errorf("%s reached the own-writes image: %v, want %v", when, got, ownImage)
					}
				}
				all := func(string) bool { return true }
				engines := []*Engine{New(Config{}), New(Config{}), donor}
				engines[0].RestoreScoped(snap, all)
				engines[1].RestoreScoped(snap, all)
				for i, e := range engines {
					before := make([][]string, len(engines))
					for j, o := range engines {
						before[j] = liveRows(o)
					}
					ref, _, _ := build(e == donor)
					es, rs := e.NewSession(), ref.NewSession()
					for _, sql := range stmts(i + 1) {
						sessExec(t, es, sql)
						sessExec(t, rs, sql)
					}
					if got, want := liveRows(e), liveRows(ref); !slices.Equal(got, want) {
						t.Errorf("engine %d wrote %v, want %v", i, got, want)
					}
					if got := tableRows(snap.Tables["T"]); !slices.Equal(got, image) {
						t.Errorf("engine %d's writes reached the snapshot: %v, want %v", i, got, image)
					}
					for j, o := range engines {
						if got := liveRows(o); j != i && !slices.Equal(got, before[j]) {
							t.Errorf("engine %d's writes reached engine %d: %v, want %v", i, j, got, before[j])
						}
					}
					imagesIntact(fmt.Sprintf("engine %d's writes", i))
				}
				sessExec(t, inserter, "ROLLBACK")
				sessExec(t, indexer, "ROLLBACK")
				imagesIntact("the open transactions' rollbacks")
				if got := tableRows(snap.Tables["T"]); !slices.Equal(got, image) {
					t.Errorf("the open transactions' rollbacks reached the snapshot: %v, want %v", got, image)
				}
			})
		}
	}
}

// committedImages returns two committed images of table T: the one a
// read view materializes, and the own-writes image a statement of the
// given session resolves.
func committedImages(e *Engine, own *Session) (view, ownImg *Table) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	view = e.currentView().table("T").materialize(e)
	e.latchTables([]string{"T"})
	defer e.unlatchTables([]string{"T"})
	own.readOwnWrites = true
	defer own.endOwnWrites()
	ownImg, _ = own.lookupTable("T")
	return view, ownImg
}

// liveRows reads table T's rows from the engine's catalog.
func liveRows(e *Engine) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return tableRows(e.st.tables["T"])
}

func tableRows(t *Table) []string {
	return rowStrings(&Result{Rows: t.Rows})
}
