package middleware

import (
	"strings"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
	"divsql/internal/tpcc"
)

// rephraseFixture loads the tables the rule cases run against.
func rephraseFixture(t *testing.T, sess *server.Session) {
	t.Helper()
	for _, s := range []string{
		"CREATE TABLE T (A INT, B INT)",
		"INSERT INTO T VALUES (1, 10), (2, 20), (3, NULL), (NULL, 40)",
		"CREATE TABLE U (A INT, V FLOAT)",
		"INSERT INTO U VALUES (1, 1.5), (1, 2.5), (2, 4), (5, NULL)",
	} {
		if _, _, err := sess.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

// image renders every row of a table, in storage order.
func image(t *testing.T, sess *server.Session, table string) string {
	t.Helper()
	res, _, err := sess.Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return core.Digest(res, core.CompareOptions{OrderSensitive: true})
}

// TestRephraseQuirkRules drives the two rules that come from reproduced
// product quirks: each rewriting keeps the oracle's answer (rows, or the
// effect of a write), keeps the placeholder ordinals, and is accepted by
// the product whose quirk rejects the statement as written.
func TestRephraseQuirkRules(t *testing.T) {
	cases := []struct {
		name, sql string
		args      []types.Value
		rejects   dialect.ServerName // product that rejects sql as written
		wants     string             // fragment of the rephrased text
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rq, changed := Rephrase(tc.sql)
			if !changed || !strings.Contains(rq, tc.wants) {
				t.Fatalf("rephrased to %q, want it to contain %q", rq, tc.wants)
			}
			st, err := parser.Parse(rq)
			if err != nil {
				t.Fatalf("rephrased form does not parse: %v", err)
			}
			if got := ast.NumParams(st); got != len(tc.args) {
				t.Errorf("rephrased form takes %d parameters, the original %d", got, len(tc.args))
			}

			// Same answer and same effect on the oracle.
			var out [2]*engine.Result
			var after [2]string
			for i, q := range []string{tc.sql, rq} {
				sess := server.NewOracle().NewSession()
				rephraseFixture(t, sess)
				res, _, err := core.ExecEntry(sess, core.EncodeBound(q, tc.args))
				if err != nil {
					t.Fatalf("oracle, %q: %v", q, err)
				}
				out[i], after[i] = res, image(t, sess, "T")
			}
			opts := core.DefaultCompareOptions()
			opts.OrderSensitive = true
			if !core.Equal(out[0], out[1], opts) {
				t.Errorf("results differ: %s", core.Diff(out[0], out[1], opts))
			}
			if after[0] != after[1] {
				t.Errorf("table T differs after the statement:\n%s\nvs\n%s", after[0], after[1])
			}

			// The quirk rejects the statement as written and not as rephrased.
			srv, err := server.New(tc.rejects, nil)
			if err != nil {
				t.Fatal(err)
			}
			sess := srv.NewSession()
			rephraseFixture(t, sess)
			if _, _, err := core.ExecEntry(sess, core.EncodeBound(tc.sql, tc.args)); err == nil {
				t.Errorf("%s accepted the statement as written", tc.rejects)
			}
			if _, _, err := core.ExecEntry(sess, core.EncodeBound(rq, tc.args)); err != nil {
				t.Errorf("%s rejects the rephrased form too: %v", tc.rejects, err)
			}
		})
	}

	// What a client (or an enclosing query) reads by name stays as written.
	for _, sql := range []string{
		"SELECT SUM(A) FROM T",                             // client-visible item
		"SELECT (SELECT SUM(A) FROM T) FROM U",             // named by its own text
		"SELECT 1 AS X FROM T UNION SELECT SUM(A) FROM T",  // branch of a visible query
		"SELECT X.S FROM (SELECT SUM(A) AS S FROM T) X",    // already aliased
		"UPDATE T SET B = (SELECT SUM(V) AS S FROM U)",     // already aliased
		"SELECT A FROM T WHERE B = (SELECT MAX(A) FROM U)", // not an AVG/SUM
		"SELECT D.A FROM (SELECT SUM(A) FROM T) D",         // derived table: names are read
		"SELECT A FROM T WHERE A IN (SELECT TOP 1 A FROM U UNION SELECT B FROM T)",
	} {
		if rq, changed := Rephrase(sql); changed {
			t.Errorf("%q rephrased to %q, want it left as written", sql, rq)
		}
	}
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
