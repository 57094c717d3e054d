package engine

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"divsql/internal/sql/types"
)

// transferFixture returns an engine holding tables T (primary key and a
// secondary index), U and W, a view over T and a sequence. Two fixtures
// are equal object for object, their rows other slices of equal cells.
func transferFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewOracle()
	s := e.NewSession()
	for _, sql := range []string{
		"CREATE TABLE T (K INT PRIMARY KEY, V INT)",
		"CREATE TABLE U (A INT, B VARCHAR(8))",
		"CREATE TABLE W (A INT)",
		"INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)",
		"INSERT INTO U VALUES (1, 'x'), (2, 'y')",
		"INSERT INTO W VALUES (7)",
		"CREATE INDEX TV ON T (V)",
		"CREATE VIEW VT AS SELECT K FROM T WHERE V > 10",
		"CREATE SEQUENCE SQ",
	} {
		sessExec(t, s, sql)
	}
	return e
}

// catalogOf returns the engine's live objects by name.
func catalogOf(e *Engine) map[string]any {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := map[string]any{}
	for n, x := range e.st.tables {
		out[n] = x
	}
	for n, x := range e.st.views {
		out["view "+n] = x
	}
	for n, x := range e.st.indexs {
		out["index "+n] = x
	}
	for n, x := range e.st.seqs {
		out["seq "+n] = x
	}
	return out
}

// pointIndex reads T by its key and returns the lookup index the read
// built, from the capture lineage of T's read-view images.
func pointIndex(t *testing.T, e *Engine) *index {
	t.Helper()
	if got := rowStrings(sessExec(t, sessionOf(e), "SELECT V FROM T WHERE K = 2")); !slices.Equal(got, []string{"20"}) {
		t.Fatalf("point read: %v", got)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	ic := e.st.tables["T"].capIC
	if ic == nil || len(ic.hash) != 1 {
		t.Fatal("the point read built no lookup index")
	}
	return ic.hash[0]
}

// An identical image changes nothing: Restore and RestoreScoped keep
// every object, the schema stamp, the compiled plans and the lookup
// indexes already built.
func TestRestoreKeepsIdenticalObjects(t *testing.T) {
	all := func(string) bool { return true }
	for name, restore := range map[string]func(e *Engine, st *State){
		"Restore":       (*Engine).Restore,
		"RestoreScoped": func(e *Engine, st *State) { e.RestoreScoped(st, all) },
	} {
		t.Run(name, func(t *testing.T) {
			e, donor := transferFixture(t), transferFixture(t)
			ix := pointIndex(t, e)
			objs, ver, stale := catalogOf(e), e.SchemaVersion(), e.PlanCacheStats().Invalidations
			restore(e, donor.Snapshot())
			restore(e, e.Snapshot())
			if got := catalogOf(e); !maps.Equal(got, objs) {
				t.Errorf("objects replaced:\n got %v\nwant %v", got, objs)
			}
			if got := e.SchemaVersion(); got != ver {
				t.Errorf("schema stamp moved %d -> %d", ver, got)
			}
			if got := pointIndex(t, e); got != ix {
				t.Error("the lookup index was rebuilt")
			}
			if got := e.PlanCacheStats().Invalidations; got != stale {
				t.Errorf("plan memo invalidations %d -> %d", stale, got)
			}
		})
	}
}

// A one-cell difference replaces that table alone, leaves the schema
// stamp, and readers see the image's rows. Cells compare by struct ==:
// an INT 1 differs from a FLOAT 1.0.
func TestRestoreReplacesOnlyChangedTables(t *testing.T) {
	float := func(t *testing.T, st *State) {
		u := st.Tables["U"].cloneHeader()
		u.Rows = slices.Clone(u.Rows)
		u.Rows[0] = []types.Value{types.NewFloat(1), u.Rows[0][1]}
		st.Tables["U"] = u
	}
	for _, tc := range []struct {
		name    string
		donor   string                        // run on the donor before its snapshot
		edit    func(t *testing.T, st *State) // applied to the snapshot
		changed string
		read    string
		want    []string
	}{
		{"cell", "UPDATE T SET V = 21 WHERE K = 2", nil, "T", "SELECT V FROM T ORDER BY K", []string{"10", "21", "30"}},
		{"row", "INSERT INTO U VALUES (3, 'z')", nil, "U", "SELECT A FROM U ORDER BY A", []string{"1", "2", "3"}},
		{"int-float", "", float, "U", "SELECT A FROM U ORDER BY B", []string{"1", "2"}},
		{"sequence", "SELECT NEXTVAL(SQ)", nil, "seq SQ", "SELECT NEXTVAL(SQ)", []string{"2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, donor := transferFixture(t), transferFixture(t)
			if tc.donor != "" {
				sessExec(t, donor.NewSession(), tc.donor)
			}
			st := donor.Snapshot()
			if tc.edit != nil {
				tc.edit(t, st)
			}
			s := e.NewSession()
			sessExec(t, s, "SELECT K FROM T") // caches the read view the restore must void
			objs, ver := catalogOf(e), e.SchemaVersion()
			e.Restore(st)
			for n, x := range catalogOf(e) {
				if kept := x == objs[n]; kept == (n == tc.changed) {
					t.Errorf("%s: kept %v", n, kept)
				}
			}
			if got := e.SchemaVersion(); got != ver {
				t.Errorf("schema stamp moved %d -> %d", ver, got)
			}
			if got := rowStrings(sessExec(t, s, tc.read)); !slices.Equal(got, tc.want) {
				t.Errorf("%s: %v, want %v", tc.read, got, tc.want)
			}
			if tc.edit != nil {
				if k := e.st.tables["U"].Rows[0][0].K; k != types.KindFloat {
					t.Errorf("U's first cell is kind %v, want the image's FLOAT", k)
				}
			}
		})
	}
}

// An object added, dropped or redefined moves the schema stamp, and the
// catalog becomes the image's.
func TestRestoreRedefinitionMovesSchema(t *testing.T) {
	for _, tc := range []struct{ name, donor, target string }{
		{"unique index", "CREATE UNIQUE INDEX UX ON U (A)", ""},
		{"table the target lacks", "", "DROP TABLE W"},
		{"table the image lacks", "DROP TABLE W", ""},
		{"view the image lacks", "DROP VIEW VT", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, donor := transferFixture(t), transferFixture(t)
			for eng, sql := range map[*Engine]string{donor: tc.donor, e: tc.target} {
				if sql != "" {
					sessExec(t, eng.NewSession(), sql)
				}
			}
			ver := e.SchemaVersion()
			e.Restore(donor.Snapshot())
			if e.SchemaVersion() == ver {
				t.Error("schema stamp unchanged")
			}
			if got, want := slices.Sorted(maps.Keys(catalogOf(e))), slices.Sorted(maps.Keys(catalogOf(donor))); !slices.Equal(got, want) {
				t.Errorf("catalog %v, want the image's %v", got, want)
			}
			if got, want := e.st.tables["U"].Uniques, donor.st.tables["U"].Uniques; !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Errorf("U's unique keys %v, want %v", got, want)
			}
		})
	}
}

// Restore discards open transactions, so what they wrote that the image
// also holds becomes committed state: a kept table's rows an earlier
// view rewound, and a kept table an earlier plan could not name.
func TestRestoreOverOpenTransactions(t *testing.T) {
	for _, tc := range []struct{ name, write, read string }{
		{"rows", "INSERT INTO T VALUES (4, 40)", "SELECT K FROM T ORDER BY K"},
		{"ddl", "CREATE TABLE X (A INT)", "SELECT COUNT(*) FROM X"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, donor := transferFixture(t), transferFixture(t)
			sessExec(t, donor.NewSession(), tc.write)
			want := rowStrings(sessExec(t, donor.NewSession(), tc.read))
			open, reader := e.NewSession(), e.NewSession()
			sessExec(t, open, "BEGIN TRANSACTION")
			sessExec(t, open, tc.write)
			reader.Exec(resolve(t, tc.read), nil) // reads, or fails to name, the committed state before the restore
			e.Restore(donor.Snapshot())
			if open.InTxn() {
				t.Fatal("Restore left the transaction open")
			}
			if got := rowStrings(sessExec(t, reader, tc.read)); !slices.Equal(got, want) {
				t.Errorf("%s: %v, want the image's %v", tc.read, got, want)
			}
		})
	}
}

// RestoreScoped touches nothing out of its scope, however much it
// differs from the image.
func TestRestoreScopedKeepsOutOfScope(t *testing.T) {
	e, donor := transferFixture(t), transferFixture(t)
	sessExec(t, donor.NewSession(), "UPDATE T SET V = 0")
	sessExec(t, donor.NewSession(), "DELETE FROM U")
	sessExec(t, donor.NewSession(), "DROP TABLE W")
	objs, ver := catalogOf(e), e.SchemaVersion()
	uRows := tableRows(e.st.tables["U"])
	e.RestoreScoped(donor.Snapshot(), func(n string) bool { return n == "T" })
	for n, x := range catalogOf(e) {
		if kept := x == objs[n]; kept == (n == "T") {
			t.Errorf("%s: kept %v", n, kept)
		}
	}
	if got := tableRows(e.st.tables["U"]); !slices.Equal(got, uRows) {
		t.Errorf("U: %v, want its own %v", got, uRows)
	}
	if got := e.SchemaVersion(); got != ver {
		t.Errorf("schema stamp moved %d -> %d", ver, got)
	}
	if got := rowStrings(sessExec(t, e.NewSession(), "SELECT V FROM T")); !slices.Equal(got, []string{"0", "0", "0"}) {
		t.Errorf("T: %v, want the image's rows", got)
	}
}

// Two Snapshots with nothing between them share every image; a write, a
// rolled-back write or a DDL between them images afresh what it
// touched, and an open transaction's write never reaches an image.
func TestSnapshotReusesUnchangedImages(t *testing.T) {
	e := transferFixture(t)
	s := e.NewSession()
	for _, tc := range []struct {
		name  string
		stmts []string
		fresh []string // tables imaged afresh
	}{
		{"nothing", nil, nil},
		{"write", []string{"UPDATE T SET V = V + 1 WHERE K = 1"}, []string{"T"}},
		{"rollback", []string{"BEGIN TRANSACTION", "INSERT INTO U VALUES (9, 'r')", "ROLLBACK"}, []string{"U"}},
		{"ddl", []string{"CREATE INDEX UA ON U (A)"}, []string{"T", "U", "W"}},
	} {
		before := e.Snapshot()
		for _, sql := range tc.stmts {
			sessExec(t, s, sql)
		}
		after := e.Snapshot()
		for n, img := range after.Tables {
			if shared := img == before.Tables[n]; shared == slices.Contains(tc.fresh, n) {
				t.Errorf("%s: %s's image shared %v", tc.name, n, shared)
			}
		}
	}

	open := e.NewSession()
	sessExec(t, open, "BEGIN TRANSACTION")
	sessExec(t, open, "UPDATE T SET V = 99 WHERE K = 2")
	committed := []string{"1|11", "2|20", "3|30"}
	for i := 0; i < 2; i++ {
		if got := tableRows(e.Snapshot().Tables["T"]); !slices.Equal(got, committed) {
			t.Errorf("snapshot %d during the open transaction: %v, want %v", i, got, committed)
		}
	}
	sessExec(t, open, "COMMIT")
	if got, want := tableRows(e.Snapshot().Tables["T"]), []string{"1|11", "2|99", "3|30"}; !slices.Equal(got, want) {
		t.Errorf("snapshot after the commit: %v, want %v", got, want)
	}
}

// forgetImages drops every table's kept snapshot image, so the next
// Snapshot images the catalog afresh.
func forgetImages(e *Engine) {
	for _, t := range e.st.tables {
		t.img = nil
	}
}

// Snapshot copies headers, never rows: the first image of 25 clean
// one-row tables allocates the catalog maps and one header and one
// index cache per table, a repeat with nothing changed the catalog maps
// alone; the latch order is the schema facts' table list. Restoring an
// equal image allocates nothing.
func TestSnapshotAllocs(t *testing.T) {
	load := func() *Engine {
		e := NewOracle()
		s := e.NewSession()
		for i := 0; i < 25; i++ {
			sessExec(t, s, fmt.Sprintf("CREATE TABLE T%02d (A INT)", i))
			sessExec(t, s, fmt.Sprintf("INSERT INTO T%02d VALUES (1)", i))
		}
		return e
	}
	e, equal := load(), load()
	if got := testing.AllocsPerRun(50, func() { forgetImages(e); e.Snapshot() }); got > 59 {
		t.Errorf("first Snapshot of 25 clean tables: %v allocations, want at most 59", got)
	}
	if got := testing.AllocsPerRun(50, func() { e.Snapshot() }); got > 12 {
		t.Errorf("repeat Snapshot of 25 unchanged tables: %v allocations, want at most 12", got)
	}
	st := equal.Snapshot()
	if got := testing.AllocsPerRun(50, func() { e.Restore(st) }); got > 2 {
		t.Errorf("Restore of an equal 25-table image: %v allocations, want at most 2", got)
	}
}
