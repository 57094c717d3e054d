package middleware

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
	"divsql/internal/tpcc"
)

// rephraseSchema holds the tables the rule cases run against.
var rephraseSchema = []string{
	"CREATE TABLE T (A INT, B INT)",
	"INSERT INTO T VALUES (1, 10), (2, 20), (3, NULL), (NULL, 40)",
	"CREATE TABLE U (A INT, V FLOAT)",
	"INSERT INTO U VALUES (1, 1.5), (1, 2.5), (2, 4), (5, NULL)",
}

// oracleSchema adds what the equivalence checks need and MS lacks: a row
// with a zero divisor (Z) and a sequence (S).
var oracleSchema = append(slices.Clone(rephraseSchema),
	"CREATE TABLE Z (A INT, B INT)", "INSERT INTO Z VALUES (1, 0)", "CREATE SEQUENCE S")

func load(t testing.TB, sess *server.Session, schema []string) {
	t.Helper()
	for _, s := range schema {
		if _, _, err := sess.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

// image renders every row of a table, in storage order.
func image(t testing.TB, sess *server.Session, table string) string {
	t.Helper()
	res, _, err := sess.Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return core.Digest(res, core.CompareOptions{OrderSensitive: true})
}

// outcome is what one execution of a statement on a fresh pristine
// oracle comes to: its result, its error class, and the state it leaves
// (every table's rows, and the sequence's next value).
type outcome struct {
	res          *engine.Result
	class        core.ErrClass
	tables, next string
}

func runOnOracle(t testing.TB, p *stmt.Parsed, args []types.Value) outcome {
	t.Helper()
	sess := server.NewOracle().NewSession()
	load(t, sess, oracleSchema)
	res, _, err := sess.Run(p, args)
	o := outcome{res: res, class: core.ErrorClass(err)}
	for _, table := range []string{"T", "U", "Z"} {
		o.tables += image(t, sess, table)
	}
	next, _, err := sess.Exec("SELECT NEXTVAL(S) AS N")
	if err != nil {
		t.Fatal(err)
	}
	o.next = next.Rows[0][0].String()
	return o
}

// differs runs a statement as written (p) and rephrased (q) and says how
// the two answer differently: "" when they agree.
func differs(t testing.TB, p, q *stmt.Parsed, args []types.Value) string {
	t.Helper()
	return runOnOracle(t, p, args).differs(runOnOracle(t, q, args), core.CompareFor(p))
}

// differs says how o and r differ in error class, rows (under opts) or
// the state they leave: "" when they agree.
func (o outcome) differs(r outcome, opts core.CompareOptions) string {
	switch {
	case o.class != r.class:
		return fmt.Sprintf("error class %s as written, %s rephrased", o.class, r.class)
	case o.res != nil && !core.Equal(o.res, r.res, opts):
		return core.Diff(o.res, r.res, opts)
	case o.tables != r.tables:
		return fmt.Sprintf("tables differ:\n%s\nvs\n%s", o.tables, r.tables)
	case o.next != r.next:
		return fmt.Sprintf("next sequence value %s as written, %s rephrased", o.next, r.next)
	}
	return ""
}

func mustResolve(t testing.TB, sql string) *stmt.Parsed {
	t.Helper()
	p, err := stmt.Resolve(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return p
}

// quirkCases are the two rules' cases: each names the product whose
// quirk rejects the statement as written, and a fragment of the
// rephrased form's text.
var quirkCases = []struct {
	name, sql string
	args      []types.Value
	rejects   dialect.ServerName
	wants     string
}{
	{name: "scalar subquery in UPDATE SET",
		sql:     "UPDATE T SET B = B + (SELECT SUM(V) FROM U WHERE U.A = ?) WHERE A = ?",
		args:    []types.Value{types.NewInt(1), types.NewInt(2)},
		rejects: dialect.MS, wants: "SUM(V) AS RPH_AGG1 FROM U WHERE (U.A = $1)"},
	{name: "scalar subquery in an aliased select item",
		sql:     "SELECT A, (SELECT AVG(V) FROM U WHERE U.A = T.A) AS M FROM T ORDER BY A",
		rejects: dialect.MS, wants: "AVG(V) AS RPH_AGG1"},
	{name: "IN subquery",
		sql:     "SELECT A FROM T WHERE B IN (SELECT SUM(V) * 5 FROM U) OR A IN (SELECT SUM(A) FROM U GROUP BY A)",
		rejects: dialect.MS, wants: "SUM(A) AS RPH_AGG1"},
	{name: "EXISTS under HAVING, two aggregates",
		sql:     "SELECT A FROM T GROUP BY A HAVING EXISTS (SELECT SUM(V), AVG(V) FROM U WHERE U.A = ?)",
		args:    []types.Value{types.NewInt(1)},
		rejects: dialect.MS, wants: "SUM(V) AS RPH_AGG1, AVG(V) AS RPH_AGG2"},
	{name: "subquery nested in a derived table",
		sql:     "SELECT D.A FROM (SELECT A FROM T WHERE B > (SELECT AVG(B) FROM T)) D",
		rejects: dialect.MS, wants: "AVG(B) AS RPH_AGG1"},
	{name: "INSERT ... SELECT",
		sql:     "INSERT INTO T SELECT 9, SUM(A) FROM U",
		rejects: dialect.MS, wants: "SUM(A) AS RPH_AGG1"},
	{name: "NOT IN over parenthesized UNION branches",
		sql:     "SELECT A FROM T WHERE A NOT IN ((SELECT A FROM U WHERE V > ?) UNION (SELECT B FROM T WHERE A = ?)) ORDER BY A",
		args:    []types.Value{types.NewFloat(2), types.NewInt(3)},
		rejects: dialect.PG, wants: "A NOT IN (SELECT A FROM U WHERE (V > $1)) AND A NOT IN (SELECT B FROM T WHERE (A = $2))"},
	{name: "IN over a three-branch UNION, nested",
		sql:     "DELETE FROM T WHERE A IN (SELECT A FROM U WHERE A IN (SELECT 1 UNION ALL SELECT 2 UNION SELECT A FROM T WHERE B IS NULL))",
		rejects: dialect.MS, wants: "(A IN (SELECT 1) OR A IN (SELECT 2)) OR A IN (SELECT A FROM T WHERE B IS NULL)"},
}

// quirkUntouched are what a client (or an enclosing query) reads by
// name, and a UNION a split could cut short: left as written.
var quirkUntouched = []string{
	"SELECT SUM(A) FROM T",                             // client-visible item
	"SELECT (SELECT SUM(A) FROM T) FROM U",             // named by its own text
	"SELECT 1 AS X FROM T UNION SELECT SUM(A) FROM T",  // branch of a visible query
	"SELECT X.S FROM (SELECT SUM(A) AS S FROM T) X",    // already aliased
	"UPDATE T SET B = (SELECT SUM(V) AS S FROM U)",     // already aliased
	"SELECT A FROM T WHERE B = (SELECT MAX(A) FROM U)", // not an AVG/SUM
	"SELECT D.A FROM (SELECT SUM(A) FROM T) D",         // derived table: names are read
	"SELECT * FROM (SELECT (SELECT SUM(A) FROM T) FROM U) D",
	"SELECT A FROM T WHERE A IN (SELECT TOP 1 A FROM U UNION SELECT B FROM T)",
	"SELECT A FROM T WHERE A IN (SELECT A FROM U UNION SELECT B FROM T ORDER BY 1)",
	"SELECT A FROM T WHERE A + 1 IN (SELECT A FROM U UNION SELECT B FROM T)",
	"SELECT A FROM T WHERE A IN (SELECT A FROM U UNION SELECT B + 1 FROM T)",
	"SELECT A FROM T WHERE A IN (SELECT A FROM U UNION SELECT A FROM (SELECT A FROM T) D)",
}

// TestRephraseQuirkRules drives the two rules that come from reproduced
// product quirks: each rewriting keeps the oracle's answer (rows, or the
// effect of a write), keeps the placeholder ordinals, and is accepted by
// the product whose quirk rejects the statement as written.
func TestRephraseQuirkRules(t *testing.T) {
	for _, tc := range quirkCases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustResolve(t, tc.sql)
			q := Rephrase(p)
			if rq := ast.Render(q.AST); q == p || !strings.Contains(rq, tc.wants) {
				t.Fatalf("rephrased to %q, want it to contain %q", rq, tc.wants)
			}
			if got := ast.NumParams(q.AST); got != len(tc.args) {
				t.Errorf("rephrased form takes %d parameters, the original %d", got, len(tc.args))
			}
			if d := differs(t, p, q, tc.args); d != "" {
				t.Errorf("on the oracle: %s", d)
			}

			// The quirk rejects the statement as written and not as rephrased.
			srv, err := server.New(tc.rejects, nil)
			if err != nil {
				t.Fatal(err)
			}
			sess := srv.NewSession()
			load(t, sess, rephraseSchema)
			if _, _, err := sess.Run(p, tc.args); err == nil {
				t.Errorf("%s accepted the statement as written", tc.rejects)
			}
			if _, _, err := sess.Run(q, tc.args); err != nil {
				t.Errorf("%s rejects the rephrased form too: %v", tc.rejects, err)
			}
		})
	}
	for _, sql := range quirkUntouched {
		if p := mustResolve(t, sql); Rephrase(p) != p {
			t.Errorf("%q rephrased to %q, want it left as written", sql, ast.Render(Rephrase(p).AST))
		}
	}
}

// equivalenceCases are statements a rule rewrites; asWrittenCases are
// ones no rule does, among them statements that a removed rule (BETWEEN
// to a range, an IN list to ORs, AND/OR commutation, the literal-last =
// swap) or the union split without its guard answered otherwise: the
// rewriting evaluated an operand that fails, or advances a sequence, a
// different number of times.
var (
	equivalenceCases = []string{
		// IN over a UNION: a hit in either branch, and NULLs on either side.
		"SELECT A FROM T WHERE A IN (SELECT A FROM T WHERE A < 2 UNION SELECT A FROM T WHERE A > 2) ORDER BY A",
		"SELECT B FROM T WHERE A NOT IN ((SELECT A FROM T WHERE A = 1) UNION (SELECT A FROM T WHERE B = 20)) ORDER BY B",
		"SELECT B FROM T WHERE A NOT IN ((SELECT A FROM T WHERE A = 1) UNION ALL (SELECT A FROM T WHERE B = 40))",
		"SELECT B FROM T WHERE NOT (A IN (SELECT 1 UNION SELECT A FROM T WHERE B = 40)) OR B = 40",
		// Subqueries in UPDATE SET and under DELETE's WHERE.
		"UPDATE T SET A = A + (SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 2) WHERE B IN (10, 40)",
		"UPDATE T SET A = (SELECT AVG(A) FROM T X WHERE X.A IN (SELECT 1 UNION SELECT 3)) WHERE A = 2 OR A IS NULL",
		"DELETE FROM T WHERE A > (SELECT AVG(A) FROM T) AND EXISTS (SELECT SUM(A) FROM T)",
	}
	asWrittenCases = []string{
		"SELECT A FROM T WHERE A BETWEEN 1 AND 2 ORDER BY A",
		"SELECT A FROM T WHERE A IN (1, 3) ORDER BY A",
		"SELECT A FROM T WHERE A = 2 AND B = 20",
		"SELECT A FROM T WHERE A = 1 OR A = 3 ORDER BY A",
		"SELECT A FROM T WHERE A NOT IN (1, 2) ORDER BY A",
		"SELECT A FROM T WHERE NOT (A BETWEEN 2 AND 3)",
		"SELECT A FROM Z WHERE A = 2 AND 1 / B = 1",
		"SELECT A FROM Z WHERE A = 1 OR 1 / B = 1",
		"SELECT A FROM Z WHERE A BETWEEN 5 AND 1 / B",
		"SELECT A FROM Z WHERE A IN (1, 1 / B)",
		"SELECT A FROM Z WHERE A IN (SELECT 1 UNION SELECT 1 / B FROM Z)",
		"SELECT A FROM Z WHERE NEXTVAL(S) BETWEEN 1 AND 5",
	}
)

// TestRephrasePreservesSemantics runs each statement's handle as written
// and rephrased on the pristine oracle: the two agree on the error
// class, the rows, every table and the sequence's next value.
func TestRephrasePreservesSemantics(t *testing.T) {
	for _, c := range []struct {
		sqls      []string
		rephrased bool
	}{{equivalenceCases, true}, {asWrittenCases, false}} {
		for _, sql := range c.sqls {
			p := mustResolve(t, sql)
			q := Rephrase(p)
			if (q != p) != c.rephrased {
				t.Errorf("%q: rephrased to %q, want a rewriting: %v", sql, ast.Render(q.AST), c.rephrased)
			}
			if d := differs(t, p, q, nil); d != "" {
				t.Errorf("%q rephrased to %q: %s", sql, ast.Render(q.AST), d)
			}
		}
	}
}

// FuzzRephrase: whatever statement the parser accepts — a text, or a
// bound entry with its arguments (core.EncodeBound) — answers rephrased
// as written on the pristine oracle over a fixed schema (a zero divisor,
// a sequence, a table a UNION can take a branch from): the same error
// class, rows, tables and next sequence value. Rephrasing leaves the
// original handle's tree as it was. Seeded from the regress/ corpus and
// this file's statements.
func FuzzRephrase(f *testing.F) {
	files, err := filepath.Glob("../../regress/cases/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no regress cases: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var c struct {
			Stream []string `json:"stream"`
		}
		if err := json.Unmarshal(data, &c); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, entry := range c.Stream {
			f.Add(entry)
		}
	}
	for _, tc := range quirkCases {
		f.Add(core.EncodeBound(tc.sql, tc.args))
	}
	for _, sqls := range [][]string{quirkUntouched, equivalenceCases, asWrittenCases} {
		for _, sql := range sqls {
			f.Add(sql)
		}
	}
	f.Fuzz(func(t *testing.T, entry string) {
		sql, args, _ := core.DecodeBound(entry)
		p, err := stmt.Resolve(sql)
		if err != nil {
			return
		}
		text := ast.Render(p.AST)
		q := Rephrase(p)
		if got := ast.Render(p.AST); got != text {
			t.Fatalf("rephrasing %q changed its tree:\n before %s\n after  %s", entry, text, got)
		}
		if q == p {
			return
		}
		// Every prepared path checks the argument count before it runs
		// anything: bind what the statement takes, 1 where the entry has
		// no argument.
		for args = args[:min(len(args), p.NumParams)]; len(args) < p.NumParams; {
			args = append(args, types.NewInt(1))
		}
		asWritten, rephrased := runOnOracle(t, p, args), runOnOracle(t, q, args)
		if d := asWritten.differs(rephrased, core.CompareFor(p)); d != "" {
			t.Fatalf("%q rephrased to %q: %s", entry, ast.Render(q.AST), d)
		}
	})
}

// sameImages fails the test unless every server's committed image holds
// the same tables with the same rows in the same order.
func sameImages(t *testing.T, servers []*server.Server) {
	t.Helper()
	opts := core.DefaultCompareOptions()
	render := func(tab *engine.Table) []string {
		rows := make([]string, len(tab.Rows))
		for i, row := range tab.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = core.NormalizeCell(v, opts)
			}
			rows[i] = strings.Join(cells, "|")
		}
		return rows
	}
	want := servers[0].Snapshot().Tables
	for _, srv := range servers[1:] {
		got := srv.Snapshot().Tables
		if len(got) != len(want) {
			t.Errorf("%s holds %d tables, %s %d", srv.Name(), len(got), servers[0].Name(), len(want))
		}
		for name, wt := range want {
			gt, ok := got[name]
			if !ok {
				t.Errorf("%s lacks table %s", srv.Name(), name)
				continue
			}
			wr, gr := render(wt), render(gt)
			if len(wr) != len(gr) {
				t.Errorf("%s.%s: %d rows, %s has %d", srv.Name(), name, len(gr), servers[0].Name(), len(wr))
				continue
			}
			for i := range wr {
				if wr[i] != gr[i] {
					t.Errorf("%s.%s row %d: %s, %s has %s", srv.Name(), name, i, gr[i], servers[0].Name(), wr[i])
					break
				}
			}
		}
	}
}

// deliveryShaped is TPC-C Delivery's balance update on a two-table
// schema: the unaliased SUM in its subquery is what MS rejects.
const deliveryShaped = "UPDATE C SET BAL = BAL + (SELECT SUM(AMT) FROM OL WHERE O = ?) WHERE ID = ?"

func deliverySchema(t *testing.T, sess *Session) {
	t.Helper()
	mustExec(t, sess, "CREATE TABLE C (ID INT PRIMARY KEY, BAL FLOAT)")
	mustExec(t, sess, "CREATE TABLE OL (O INT, AMT FLOAT)")
	mustExec(t, sess, "INSERT INTO C VALUES (1, 10), (2, 20)")
	mustExec(t, sess, "INSERT INTO OL VALUES (7, 1.5), (7, 2.5), (8, 4)")
}

// An error-voting replica is rephrased back into agreement where it
// stands: counted as a failure, never suspected, never resynced — and a
// prepared statement pays for the rephrasing once.
func TestErrorVoterRepairedInPlace(t *testing.T) {
	servers := newServers(t, nil, dialect.PG, dialect.OR, dialect.MS)
	d, err := New(DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	defer sess.Close()
	deliverySchema(t, sess)
	ps := mustPrepare(t, sess, deliveryShaped)
	defer ps.Close()
	var alt *stmt.Parsed
	for i := 1; i <= 3; i++ {
		res, _, err := ps.Exec(types.NewInt(7), types.NewInt(1))
		if err != nil || res.Affected != 1 {
			t.Fatalf("execution %d: %+v %v", i, res, err)
		}
		if i == 1 {
			alt = ps.b.alt
		}
		if alt == nil || alt == ps.b.p || ps.b.alt != alt {
			t.Fatalf("execution %d: rephrased handle %p (first %p, as written %p), want one rephrasing", i, ps.b.alt, alt, ps.b.p)
		}
		if q := d.QuarantinedReplicas(); len(q) != 0 {
			t.Fatalf("execution %d: quarantined %v", i, q)
		}
	}
	// Text pays per execution; the outcome is the same.
	mustExec(t, sess, "UPDATE C SET BAL = BAL + (SELECT SUM(AMT) FROM OL WHERE O = 8) WHERE ID = 2")
	m := d.Metrics()
	if m.ReplicaErrors != 4 || m.RephraseRecovered != 4 || m.Resyncs != 0 || m.MaskedFailures != 0 {
		t.Errorf("metrics: %+v", m)
	}
	sameImages(t, servers)
	res, _, err := sess.Exec("SELECT BAL FROM C ORDER BY ID")
	if err != nil || res.Rows[0][0].F() != 22 || res.Rows[1][0].F() != 24 {
		t.Errorf("balances: %+v %v", res, err)
	}
}

// A write's outlier already applied the statement: it is not run again in
// any form, and goes to quarantine as before. The planted fault is state
// corruption on MS alone — a row the others lack — placed so that a
// second execution would report the majority's count.
func TestOutvotedWriteIsNotReapplied(t *testing.T) {
	servers := newServers(t, nil, dialect.PG, dialect.OR, dialect.MS)
	d, err := New(DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	defer sess.Close()
	mustExec(t, sess, "CREATE TABLE T (ID INT, X INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (1, 1), (2, 5)")
	ms := servers[2].NewSession()
	if _, _, err := ms.Exec("INSERT INTO T VALUES (3, 2)"); err != nil {
		t.Fatal(err)
	}

	// Majority: row 1 alone. MS: rows 1 and 3 — and row 3 alone if asked
	// again, which is the majority's count.
	res, _, err := sess.Exec("UPDATE T SET X = X + 1 WHERE X BETWEEN 0 AND 2")
	if err != nil || res.Affected != 1 {
		t.Fatalf("update: %+v %v", res, err)
	}
	if m := d.Metrics(); m.MaskedFailures != 1 || m.RephraseRecovered != 0 {
		t.Errorf("metrics: %+v", m)
	}
	if q := d.QuarantinedReplicas(); len(q) != 1 || q[0] != "MS" {
		t.Errorf("quarantined: %v", q)
	}
	got, _, err := ms.Exec("SELECT X FROM T ORDER BY ID")
	if err != nil || len(got.Rows) != 3 || got.Rows[0][0].I != 2 || got.Rows[2][0].I != 3 {
		t.Errorf("MS applied the update other than once: %+v %v", got, err)
	}
	mustExec(t, sess, "INSERT INTO T VALUES (9, 9)")
	if m := d.Metrics(); m.Resyncs != 1 {
		t.Errorf("metrics after the rejoining write: %+v", m)
	}
	sameImages(t, servers)
}

// A replica forced to resync in the middle of a transaction whose journal
// holds a statement it rejects as written must replay that statement
// rephrased: dropped, the replica would commit without it and rejoin
// diverged.
func TestJournalReplayRephrases(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.MS,
		Trigger: fault.Trigger{Table: "TRIP", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	for _, prepared := range []bool{true, false} {
		servers := newServers(t, faults, dialect.PG, dialect.OR, dialect.MS)
		d, err := New(DefaultConfig(), servers...)
		if err != nil {
			t.Fatal(err)
		}
		sess := d.NewSession()
		deliverySchema(t, sess)
		mustExec(t, sess, "CREATE TABLE TRIP (A INT)")

		mustExec(t, sess, "BEGIN TRANSACTION")
		if prepared {
			ps, err := sess.Prepare(deliveryShaped)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ps.Exec(types.NewInt(7), types.NewInt(1)); err != nil {
				t.Fatal(err)
			}
		} else {
			mustExec(t, sess, "UPDATE C SET BAL = BAL + (SELECT SUM(AMT) FROM OL WHERE O = 7) WHERE ID = 1")
		}
		mustExec(t, sess, "SELECT A FROM TRIP") // crashes MS
		if q := d.QuarantinedReplicas(); len(q) != 1 || q[0] != "MS" {
			t.Fatalf("prepared=%v: quarantined %v", prepared, q)
		}
		// The next write rejoins MS: committed image, then BEGIN and the
		// balance update from the journal.
		mustExec(t, sess, "INSERT INTO OL VALUES (9, 1)")
		if m := d.Metrics(); m.Resyncs != 1 || m.JournalReplays != 2 || m.CrashesDetected != 1 {
			t.Fatalf("prepared=%v: metrics %+v", prepared, m)
		}
		mustExec(t, sess, "COMMIT")
		if q := d.QuarantinedReplicas(); len(q) != 0 {
			t.Errorf("prepared=%v: quarantined after commit: %v", prepared, q)
		}
		sameImages(t, servers)
		res, _, err := sess.Exec("SELECT BAL FROM C WHERE ID = 1")
		if err != nil || res.Rows[0][0].F() != 14 {
			t.Errorf("prepared=%v: balance %+v %v", prepared, res, err)
		}
		sess.Close()
	}
}

// deliveryCounter is the session the TPC-C driver runs on: it counts the
// Delivery balance updates that executed and checks, after every
// statement, that no replica sits in quarantine.
type deliveryCounter struct {
	core.Session
	t          *testing.T
	d          *DiverseServer
	deliveries int64
}

func (c *deliveryCounter) note(sql string, err error) {
	if err == nil && strings.HasPrefix(sql, "UPDATE CUSTOMER SET C_BALANCE = C_BALANCE + (SELECT SUM(") {
		c.deliveries++
	}
	if q := c.d.QuarantinedReplicas(); len(q) != 0 && !c.t.Failed() {
		c.t.Errorf("after %q: quarantined %v", sql, q)
	}
}

func (c *deliveryCounter) Exec(sql string) (*engine.Result, time.Duration, error) {
	res, lat, err := c.Session.Exec(sql)
	c.note(sql, err)
	return res, lat, err
}

func (c *deliveryCounter) Prepare(sql string) (core.Statement, error) {
	st, err := c.Session.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &countedStmt{Statement: st, c: c}, nil
}

type countedStmt struct {
	core.Statement
	c *deliveryCounter
}

func (s *countedStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	res, lat, err := s.Statement.Exec(args...)
	s.c.note(s.SQL(), err)
	return res, lat, err
}

// TestFaultFreeTPCCNeverResyncs: MS's reproduced quirk rejects every
// Delivery balance update. Each rejection is counted and repaired where
// it happened; the fault-free round costs no quarantine, no state
// transfer and no divergence.
func TestFaultFreeTPCCNeverResyncs(t *testing.T) {
	for _, prepared := range []bool{true, false} {
		servers := newServers(t, nil, dialect.PG, dialect.OR, dialect.MS)
		d, err := New(DefaultConfig(), servers...)
		if err != nil {
			t.Fatal(err)
		}
		sess := &deliveryCounter{Session: d.NewSession(), t: t, d: d}
		cfg := tpcc.DefaultConfig()
		if err := tpcc.Setup(sess, cfg); err != nil {
			t.Fatal(err)
		}
		drv := tpcc.NewDriver(cfg)
		drv.SetPrepared(prepared)
		run, err := drv.Run(sess, 900)
		if err != nil || run.Errors != 0 {
			t.Fatalf("prepared=%v: run %+v %v", prepared, run, err)
		}
		m := d.Metrics()
		if sess.deliveries < 20 {
			t.Fatalf("prepared=%v: only %d deliveries found an order", prepared, sess.deliveries)
		}
		if m.Resyncs != 0 || m.ReplicaErrors != sess.deliveries || m.RephraseRecovered != sess.deliveries {
			t.Errorf("prepared=%v: %d deliveries, metrics %+v", prepared, sess.deliveries, m)
		}
		sameImages(t, servers)
		if err := tpcc.CheckConsistency(sess); err != nil {
			t.Errorf("prepared=%v: %v", prepared, err)
		}
		sess.Close()
	}
}
