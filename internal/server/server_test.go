package server

import (
	"errors"
	"strings"
	"testing"

	"divsql/internal/dialect"
	engplan "divsql/internal/engine/plan"
	"divsql/internal/fault"
	"divsql/internal/obs"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

func TestNewServersForAllNames(t *testing.T) {
	for _, n := range dialect.AllServers {
		s, err := New(n, nil)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if s.Name() != n || s.Crashed() {
			t.Errorf("server %s state wrong", n)
		}
	}
}

func TestExecBasics(t *testing.T) {
	s, _ := New(dialect.PG, nil)
	sess := s.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	res, lat, err := sess.Exec("SELECT A FROM T")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("select: %v %v", res, err)
	}
	if lat < BaseLatency {
		t.Errorf("latency %v below base", lat)
	}
}

func TestDialectGatesAtServer(t *testing.T) {
	pg, _ := New(dialect.PG, nil)
	pgSess := pg.NewSession()
	if _, _, err := pgSess.Exec("CREATE VIEW V AS SELECT 1 AS X UNION SELECT 2 AS X"); err == nil {
		t.Error("PG must reject UNION views")
	}
	ib, _ := New(dialect.IB, nil)
	ibSess := ib.NewSession()
	if _, _, err := ibSess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ibSess.Exec("CREATE CLUSTERED INDEX IX ON T (A)"); err == nil {
		t.Error("IB must reject clustered indexes")
	}
	ms, _ := New(dialect.MS, nil)
	msSess := ms.NewSession()
	if _, _, err := msSess.Exec("CREATE SEQUENCE SQ"); err == nil {
		t.Error("MS must reject sequences")
	}
	if _, _, err := msSess.Exec("SELECT 1 AS X LIMIT 1"); err == nil {
		t.Error("MS must reject LIMIT syntax")
	}
	if _, _, err := msSess.Exec("SELECT TOP 1 1 AS X"); err != nil {
		t.Errorf("MS must accept TOP: %v", err)
	}
}

func TestCrashAndRestart(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash-bug",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "BOOM", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	s, _ := New(dialect.OR, faults)
	sess := s.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE BOOM (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("CREATE TABLE SAFE (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO SAFE VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	_, _, err := sess.Exec("SELECT A FROM BOOM")
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	if !s.Crashed() {
		t.Error("server must be down")
	}
	if _, _, err := sess.Exec("SELECT 1 AS X"); !errors.Is(err, ErrCrashed) {
		t.Error("down server must reject statements")
	}
	s.Restart()
	if s.Crashed() {
		t.Error("restart failed")
	}
	// Committed state survives the crash; the fault itself is permanent,
	// so the crashing query would crash the server again (a Bohrbug) —
	// state is checked through an unaffected table.
	res, _, err := sess.Exec("SELECT COUNT(*) AS N FROM SAFE")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Errorf("state after restart: %v %v", res, err)
	}
	if _, _, err := sess.Exec("SELECT A FROM BOOM"); !errors.Is(err, ErrCrashed) {
		t.Error("permanent fault must crash the server again")
	}
}

func TestFaultEffects(t *testing.T) {
	faults := []fault.Fault{
		{BugID: "err", Server: dialect.IB, Trigger: fault.Trigger{Table: "E1", Flag: ast.FlagSelect},
			Effect: fault.Effect{Kind: fault.EffectError, Message: "spurious"}},
		{BugID: "lat", Server: dialect.IB, Trigger: fault.Trigger{Table: "L1", Flag: ast.FlagSelect},
			Effect: fault.Effect{Kind: fault.EffectLatency, LatencyMillis: 5000}},
		{BugID: "mut", Server: dialect.IB, Trigger: fault.Trigger{Table: "M1", Flag: ast.FlagSelect},
			Effect: fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne}},
		{BugID: "sup", Server: dialect.IB, Trigger: fault.Trigger{Table: "S1", Flag: ast.FlagInsert},
			Effect: fault.Effect{Kind: fault.EffectSuppressError}},
		{BugID: "abort", Server: dialect.IB, Trigger: fault.Trigger{Table: "A1", Flag: ast.FlagSelect},
			Effect: fault.Effect{Kind: fault.EffectAbortConnection, Message: "closed"}},
	}
	s, _ := New(dialect.IB, faults)
	sess := s.NewSession()
	for _, tbl := range []string{"E1", "L1", "M1", "S1", "A1"} {
		if _, _, err := sess.Exec("CREATE TABLE " + tbl + " (A INT PRIMARY KEY)"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Exec("INSERT INTO " + tbl + " VALUES (7)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sess.Exec("SELECT A FROM E1"); err == nil || err.Error() != "spurious" {
		t.Errorf("error effect: %v", err)
	}
	_, lat, err := sess.Exec("SELECT A FROM L1")
	if err != nil || lat < 5000*BaseLatency {
		t.Errorf("latency effect: %v %v", lat, err)
	}
	res, _, err := sess.Exec("SELECT A FROM M1")
	if err != nil || res.Rows[0][0].I != 8 {
		t.Errorf("mutate effect: %v %v", res, err)
	}
	// Duplicate key suppressed: reported OK, nothing inserted.
	if _, _, err := sess.Exec("INSERT INTO S1 VALUES (7)"); err != nil {
		t.Errorf("suppress effect: %v", err)
	}
	res, _, _ = sess.Exec("SELECT COUNT(*) AS N FROM S1")
	if res.Rows[0][0].I != 1 {
		t.Errorf("suppressed insert must not apply: %v", res.Rows[0][0])
	}
	if _, _, err := sess.Exec("SELECT A FROM A1"); !errors.Is(err, ErrConnAborted) {
		t.Errorf("abort effect: %v", err)
	}
	if s.Crashed() {
		t.Error("conn abort must not crash the engine")
	}
}

func TestStressOnlyFaults(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "heisen",
		Server:  dialect.MS,
		Trigger: fault.Trigger{Table: "H1", Flag: ast.FlagSelect, UnderStressOnly: true},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutDropLastRow},
	}}
	s, _ := New(dialect.MS, faults)
	sess := s.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE H1 (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("INSERT INTO H1 VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	res, _, _ := sess.Exec("SELECT A FROM H1")
	if len(res.Rows) != 1 {
		t.Error("heisenbug fired on a quiet server")
	}
	s.SetStress(true)
	res, _, _ = sess.Exec("SELECT A FROM H1")
	if len(res.Rows) != 0 {
		t.Error("heisenbug must fire under stress")
	}
}

func TestSnapshotRestoreAcrossServers(t *testing.T) {
	a, _ := New(dialect.PG, nil)
	aSess := a.NewSession()
	b, _ := New(dialect.OR, nil)
	bSess := b.NewSession()
	if _, _, err := aSess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := aSess.Exec("INSERT INTO T VALUES (42)"); err != nil {
		t.Fatal(err)
	}
	b.Restore(a.Snapshot())
	res, _, err := bSess.Exec("SELECT A FROM T")
	if err != nil || res.Rows[0][0].I != 42 {
		t.Errorf("state transfer: %v %v", res, err)
	}
}

func TestOracleAcceptsAllDialectSpellings(t *testing.T) {
	o := NewOracle()
	sess := o.NewSession()
	for _, sql := range []string{
		"CREATE TABLE T1 (A DATETIME)",
		"CREATE TABLE T2 (A NUMBER, B VARCHAR2(5))",
		"SELECT LEN('abc') AS L",
		"SELECT LENGTH('abc') AS L",
		"SELECT NVL(NULL, 1) AS C",
		"SELECT ISNULL(NULL, 1) AS C",
		"SELECT GEN_UUID('x') AS U",
	} {
		if _, _, err := sess.Exec(sql); err != nil {
			t.Errorf("oracle rejects %q: %v", sql, err)
		}
	}
}

func TestInTxnVisible(t *testing.T) {
	s, _ := New(dialect.PG, nil)
	sess := s.NewSession()
	if sess.InTxn() {
		t.Error("fresh server in txn")
	}
	if _, _, err := sess.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	if !sess.InTxn() {
		t.Error("txn not visible")
	}
	if _, _, err := sess.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if sess.InTxn() {
		t.Error("txn not closed")
	}
}

// TestEnginePanicIsContainedAsCrash: a panic inside the engine — raised
// by the planted hook with the engine's lock and table latches held —
// must not unwind into the caller. The server reports a crash, counts
// the panic, aborts every session's open transaction, releases every
// lock (statements run again after Restart), and keeps committed state.
func TestEnginePanicIsContainedAsCrash(t *testing.T) {
	s, _ := New(dialect.PG, nil)
	must := func(c *Session, sql string) {
		t.Helper()
		if _, _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	a, b := s.NewSession(), s.NewSession()
	must(a, "CREATE TABLE T (A INT PRIMARY KEY)")
	must(a, "INSERT INTO T VALUES (1)")
	must(b, "BEGIN TRANSACTION")
	must(b, "INSERT INTO T VALUES (2)")

	for i, sql := range []string{"SELECT A FROM T", "INSERT INTO T VALUES (3)"} {
		s.PlantEnginePanic(true)
		_, _, err := a.Exec(sql)
		s.PlantEnginePanic(false)
		if !errors.Is(err, ErrCrashed) || !strings.Contains(err.Error(), "planted panic") {
			t.Fatalf("%s: want a crash naming the panic, got %v", sql, err)
		}
		if !s.Crashed() {
			t.Fatalf("%s: server not marked down", sql)
		}
		if _, _, err := b.Exec("SELECT A FROM T"); !errors.Is(err, ErrCrashed) {
			t.Errorf("%s: sibling session on a crashed server: %v", sql, err)
		}
		if got := s.panics.Load(); got != uint64(i+1) {
			t.Errorf("%s: %d panics counted, want %d", sql, got, i+1)
		}
		s.Restart()
		if b.InTxn() {
			t.Errorf("%s: the crash left the sibling's transaction open", sql)
		}
	}

	// Locks and latches were released on the way out: reads and writes
	// proceed, and only the committed row survived.
	must(a, "INSERT INTO T VALUES (4)")
	res, _, err := b.Exec("SELECT A FROM T ORDER BY A")
	if err != nil || len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 4 {
		t.Fatalf("after restart: %v %v", res, err)
	}

	reg := obs.NewRegistry()
	reg.Register(s.MetricsCollector())
	if doc := reg.Render(); !strings.Contains(doc, `divsql_server_panics_total{replica="PG"} 2`) {
		t.Errorf("scrape does not report the contained panics:\n%s", doc)
	}
}

// LPAD's length is an integer argument: a negative one gives the empty
// string, a FLOAT beyond int64's range or a length past what the builtin
// builds is a type error — never an engine crash, on any server that has
// LPAD.
func TestLPADLengthsDoNotCrash(t *testing.T) {
	for _, name := range []dialect.ServerName{dialect.PG, dialect.OR, dialect.IB} {
		s, _ := New(name, nil)
		sess := s.NewSession()
		for sql, want := range map[string]string{
			"SELECT LPAD('ab', -1) AS P":      "",
			"SELECT LPAD('ab', -1e300) AS P":  "error",
			"SELECT LPAD('ab', 0) AS P":       "",
			"SELECT LPAD('abc', 2) AS P":      "bc",
			"SELECT LPAD('ab', 5, 'xy') AS P": "yxyab",
			"SELECT LPAD('ab', 4.9) AS P":     "  ab",
			"SELECT LPAD('ab', 1e300) AS P":   "error",
			"SELECT LPAD('ab', 1e12) AS P":    "error",
		} {
			res, _, err := sess.Exec(sql)
			switch {
			case s.Crashed() || errors.Is(err, ErrCrashed):
				t.Fatalf("%s %s: the server crashed: %v", name, sql, err)
			case want == "error":
				if err == nil || !strings.Contains(err.Error(), "type error") {
					t.Errorf("%s %s: got %v, %v; want a type error", name, sql, res, err)
				}
			case err != nil || len(res.Rows) != 1 || res.Rows[0][0].String() != want:
				t.Errorf("%s %s: got %v, %v; want %q", name, sql, res, err, want)
			}
		}
	}
}

// A result mutation changes a copy: the column names of an engine
// result are the plan's, shared by every execution of it, so a fault
// that blanks them must leave the next execution's names intact.
func TestBlankColumnsFaultLeavesThePlanNames(t *testing.T) {
	s, _ := New(dialect.OR, []fault.Fault{{
		BugID:   "blank-bug",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "BL", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutBlankColumns},
	}})
	sess := s.NewSession()
	if _, _, err := sess.Exec("CREATE TABLE BL (K INT, V INT)"); err != nil {
		t.Fatal(err)
	}
	p, err := stmt.Resolve("SELECT K, V FROM BL")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, _, err := sess.Run(p, nil)
		if err != nil || len(res.Columns) != 2 || res.Columns[0] != "" || res.Columns[1] != "" {
			t.Fatalf("faulted run %d: columns %q, err %v, want two blanks", i, res.Columns, err)
		}
		// The same plan, past the fault layer.
		res, err = sess.ExecVariant(p, engplan.ForceAuto)
		if err != nil || len(res.Columns) != 2 || res.Columns[0] != "K" || res.Columns[1] != "V" {
			t.Fatalf("unfaulted run %d: columns %q, err %v, want [K V]", i, res.Columns, err)
		}
	}
}
