package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/stmt"
)

func seedIndexed(t testing.TB, s *Session) {
	t.Helper()
	sessExec(t, s, "CREATE TABLE KV (ID INT PRIMARY KEY, A INT, S VARCHAR(10))")
	sessExec(t, s, "CREATE INDEX KVA ON KV (A)")
	sessExec(t, s, "INSERT INTO KV VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 20, 'c'), (4, NULL, 'd')")
}

// seedShapes adds what the shapes beyond one base table read: a second
// indexed table, an unindexed one, a view over KV and one over a join.
func seedShapes(t testing.TB, s *Session) {
	t.Helper()
	seedIndexed(t, s)
	sessExec(t, s, "CREATE TABLE OL (W INT, D INT, O INT, N INT, AMT INT, PRIMARY KEY (W, D, O, N))")
	sessExec(t, s, "INSERT INTO OL VALUES (1, 1, 7, 1, 5), (1, 1, 7, 2, 6), (1, 1, 8, 1, 9), (1, 2, 7, 1, 100)")
	sessExec(t, s, "CREATE TABLE U (X INT, Y INT)")
	sessExec(t, s, "INSERT INTO U VALUES (1, 20), (2, 20), (3, NULL), (9, 10)")
	sessExec(t, s, "CREATE VIEW KV20 AS SELECT ID, S FROM KV WHERE A = 20")
	sessExec(t, s, "CREATE VIEW KVU AS SELECT KV.ID, U.Y FROM KV INNER JOIN U ON KV.ID = U.X")
}

// deliveryUpdate is TPC-C Delivery's balance update: the scalar subquery
// in its SET reads ORDER_LINE by a primary-key prefix.
const deliveryUpdate = "UPDATE KV SET A = A + (SELECT SUM(AMT) FROM OL WHERE W = 1 AND D = 1 AND O = 7) WHERE ID = 2"

// Access-path choice must be visible through LastPlan for every core of
// a statement, wherever the core sits: the analyzer's rules fire for a
// single base table at top level, under GROUP BY or DISTINCT, in a UNION
// branch, in a subquery, in a view body and in a derived table — and
// for the row visit of an UPDATE/DELETE — while the inputs of a join are
// read whole.
func TestCompiledAccessPathSelection(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedShapes(t, s)
	core := func(table string, path plan.AccessPath) plan.Core { return plan.Core{Table: table, Path: path} }
	for _, tc := range []struct {
		sql   string
		path  plan.AccessPath // of the statement: its core's when it is one base-table core
		cores []plan.Core
	}{
		{"SELECT S FROM KV WHERE ID = 2", plan.PointLookup, []plan.Core{core("KV", plan.PointLookup)}},
		{"SELECT ID FROM KV WHERE A = 20", plan.PointLookup, []plan.Core{core("KV", plan.PointLookup)}},
		{"SELECT ID FROM KV WHERE ID > 1 AND ID < 4", plan.RangeScan, []plan.Core{core("KV", plan.RangeScan)}},
		{"SELECT ID FROM KV WHERE A BETWEEN 10 AND 20", plan.RangeScan, []plan.Core{core("KV", plan.RangeScan)}},
		{"SELECT ID FROM KV WHERE S = 'a'", plan.FullScan, []plan.Core{core("KV", plan.FullScan)}},
		{"SELECT MAX(A) AS M FROM KV", plan.FullScan, []plan.Core{core("KV", plan.FullScan)}},
		{"SELECT ID FROM KV WHERE ID = 1 ORDER BY 1", plan.PointLookup, []plan.Core{core("KV", plan.PointLookup)}},
		{"SELECT A, COUNT(*) AS C FROM KV WHERE A = 20 GROUP BY A", plan.PointLookup, []plan.Core{core("KV", plan.PointLookup)}},
		{"SELECT DISTINCT A FROM KV WHERE ID >= 2", plan.RangeScan, []plan.Core{core("KV", plan.RangeScan)}},
		{"SELECT ID FROM KV WHERE S = 'a' UNION SELECT ID FROM KV WHERE A = 20", plan.FullScan,
			[]plan.Core{core("KV", plan.FullScan), core("KV", plan.PointLookup)}},
		{"SELECT X FROM U WHERE X IN (SELECT ID FROM KV WHERE A = 20)", plan.FullScan,
			[]plan.Core{core("U", plan.FullScan), core("KV", plan.PointLookup)}},
		{"SELECT X FROM U WHERE EXISTS (SELECT 1 FROM KV WHERE ID = 2 AND A = U.Y)", plan.FullScan,
			[]plan.Core{core("U", plan.FullScan), core("KV", plan.PointLookup)}},
		{"SELECT ID FROM KV20", plan.FullScan, []plan.Core{core("KV", plan.PointLookup)}},
		{"SELECT Q.ID FROM (SELECT ID FROM KV WHERE ID BETWEEN 2 AND 3) Q", plan.FullScan, []plan.Core{core("KV", plan.RangeScan)}},
		// The inputs of a join are scanned whole; no core, no path.
		{"SELECT KV.ID FROM KV INNER JOIN U ON KV.ID = U.X WHERE KV.ID = 2", plan.FullScan, nil},
		{deliveryUpdate, plan.PointLookup, []plan.Core{core("KV", plan.PointLookup), core("OL", plan.PointLookup)}},
		{"DELETE FROM U WHERE X = 99", plan.FullScan, []plan.Core{core("U", plan.FullScan)}},
		{"DELETE FROM KV WHERE ID > 100", plan.RangeScan, []plan.Core{core("KV", plan.RangeScan)}},
	} {
		sessExec(t, s, tc.sql)
		p := s.LastPlan()
		if p.Path != tc.path {
			t.Errorf("%q: path = %v, want %v", tc.sql, p.Path, tc.path)
		}
		if !reflect.DeepEqual(p.Cores, tc.cores) {
			t.Errorf("%q: cores = %v, want %v", tc.sql, p.Cores, tc.cores)
		}
	}
}

// The compiled-plan cache is engine-wide: a statement filed by one
// session (at its second run) must be a cache hit when any other
// session runs the same text.
func TestPlanCacheSharedAcrossSessions(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	seedIndexed(t, a)
	const q = "SELECT S FROM KV WHERE ID = 3"
	for range 2 {
		sessExec(t, a, q)
		if a.LastPlan().CacheHit {
			t.Fatal("a run before the plan was filed reported a cache hit")
		}
	}
	sessExec(t, b, q)
	if !b.LastPlan().CacheHit {
		t.Fatal("second session did not hit the shared plan cache")
	}
	if st := e.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("cache stats recorded no hits: %+v", st)
	}
}

// Sessions running texts of one shape at once share its plans, each
// reading its own literals: every session updates its own row of KV
// through one UPDATE plan and reads it back through one SELECT plan.
func TestShapePlansSharedByConcurrentSessions(t *testing.T) {
	e := NewOracle()
	seedIndexed(t, e.NewSession())
	var wg sync.WaitGroup
	for id := 1; id <= 4; id++ {
		s := e.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := 100*id + i
				for _, sql := range []string{
					fmt.Sprintf("UPDATE KV SET A = %d WHERE ID = %d", v, id),
					fmt.Sprintf("SELECT ID, A FROM KV WHERE ID = %d", id),
				} {
					p, err := stmt.Resolve(sql)
					if err != nil {
						t.Error(err)
						return
					}
					res, err := s.Exec(p, nil)
					switch {
					case err != nil:
						t.Errorf("%s: %v", sql, err)
						return
					case res.Kind == ResultRows && (len(res.Rows) != 1 || res.Rows[0][0].I != int64(id) || res.Rows[0][1].I != int64(v)):
						t.Errorf("%s: %v, want [[%d %d]]", sql, res.Rows, id, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := e.PlanCacheStats(); st.Misses > 4 {
		t.Errorf("%d SELECT compiles for one shape, want at most one per session", st.Misses)
	}
}

// DDL must invalidate cached plans: the post-DDL execution recompiles
// (against the new schema) and re-caches.
func TestDDLInvalidatesCompiledPlans(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedIndexed(t, s)
	const q = "SELECT ID FROM KV WHERE A = 20"
	for range 3 {
		sessExec(t, s, q)
	}
	if !s.LastPlan().CacheHit {
		t.Fatal("warm re-execution missed the cache")
	}
	sessExec(t, s, "CREATE INDEX KVS ON KV (ID, A)")
	res := sessExec(t, s, q)
	if s.LastPlan().CacheHit {
		t.Fatal("post-DDL execution served a stale plan")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-DDL result has %d rows, want 2", len(res.Rows))
	}
	sessExec(t, s, q)
	if !s.LastPlan().CacheHit {
		t.Fatal("recompiled plan was not re-cached")
	}
}

// Regression: DDL inside a transaction that ROLLBACKs must roll the
// schema-version stamp back with it. Plans compiled against the
// rolled-back generation must never validate again, and plans compiled
// against the pre-transaction schema must recompile cleanly.
func TestRolledBackDDLRollsBackSchemaStamp(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedIndexed(t, s)
	v0 := e.SchemaVersion()
	const q = "SELECT S FROM KV WHERE ID = 1"
	sessExec(t, s, q)

	sessExec(t, s, "BEGIN")
	sessExec(t, s, "CREATE INDEX KVTX ON KV (A, ID)")
	vTxn := e.SchemaVersion()
	if vTxn == v0 {
		t.Fatal("DDL did not bump the schema version")
	}
	sessExec(t, s, q) // re-caches the plan under the in-transaction stamp
	if e.SchemaVersion() != vTxn {
		t.Fatal("pure SELECT changed the schema version")
	}
	sessExec(t, s, "ROLLBACK")
	if got := e.SchemaVersion(); got != v0 {
		t.Fatalf("ROLLBACK left schema version %d, want the pre-transaction %d", got, v0)
	}

	// The entry stamped with the rolled-back generation must not serve.
	res := sessExec(t, s, q)
	if s.LastPlan().CacheHit {
		t.Fatal("plan compiled against a rolled-back schema generation was served")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "a" {
		t.Fatalf("post-rollback result wrong: %v", rowStrings(res))
	}
	sessExec(t, s, q)
	if !s.LastPlan().CacheHit {
		t.Fatal("post-rollback recompile was not cached")
	}

	// Epochs are never reused: a later DDL must not mint the
	// rolled-back transaction's stamp.
	sessExec(t, s, "CREATE INDEX KVTX2 ON KV (A, ID)")
	if v := e.SchemaVersion(); v == vTxn || v == v0 {
		t.Fatalf("schema version %d reuses an old generation (v0=%d vTxn=%d)", v, v0, vTxn)
	}
}

// A memoised plan is validated by the stamp of the read plane it runs
// on, so no stamp may name two catalogs. Session B drops T and creates
// it again with its columns swapped while A's DDL transaction ends —
// committed, rolled back, or aborted by closing the session: B's reads
// see its own catalog and C's read view the committed one, whichever of
// them compiles the shared plan first.
func TestPlanMemoFollowsReadPlane(t *testing.T) {
	for _, end := range []string{"COMMIT", "ROLLBACK", "close"} {
		for _, viewFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/viewFirst=%v", end, viewFirst), func(t *testing.T) {
				e := NewOracle()
				a, b, c := e.NewSession(), e.NewSession(), e.NewSession()
				sessExec(t, a, "CREATE TABLE T (A INT, B INT)")
				sessExec(t, a, "INSERT INTO T VALUES (1, 2)")
				sessExec(t, a, "BEGIN TRANSACTION")
				sessExec(t, a, "CREATE TABLE X (Z INT)")
				sessExec(t, b, "BEGIN TRANSACTION")
				sessExec(t, b, "DROP TABLE T")
				sessExec(t, b, "CREATE TABLE T (B INT, A INT)")
				sessExec(t, b, "INSERT INTO T VALUES (20, 10)")
				if end == "close" {
					_ = a.Close()
				} else {
					sessExec(t, a, end)
				}

				type read struct {
					who  string
					s    *Session
					want string
				}
				reads := []read{{"own writes", b, "10"}, {"read view", c, "1"}}
				if viewFirst {
					reads[0], reads[1] = reads[1], reads[0]
				}
				reads = append(reads, reads...) // the second round is served by the memo
				for _, r := range reads {
					if got := rowStrings(sessExec(t, r.s, "SELECT A FROM T")); len(got) != 1 || got[0] != r.want {
						t.Fatalf("%s reads A = %v, want %s", r.who, got, r.want)
					}
				}
				sessExec(t, b, "COMMIT")
				if got := rowStrings(sessExec(t, c, "SELECT A FROM T")); len(got) != 1 || got[0] != "10" {
					t.Fatalf("read view after B's COMMIT reads A = %v, want 10", got)
				}
			})
		}
	}
}

// variantShapes are the query shapes the forced-variant oracle must hold
// to one answer: single-table access paths, and every shape whose
// indexed core sits somewhere else in the statement.
var variantShapes = []string{
	"SELECT ID, A, S FROM KV WHERE ID = 2",
	"SELECT ID FROM KV WHERE A = 20",
	"SELECT ID FROM KV WHERE A = 20 AND S = 'b'",
	"SELECT ID FROM KV WHERE ID BETWEEN 2 AND 3",
	"SELECT ID FROM KV WHERE ID >= 2",
	"SELECT ID FROM KV WHERE A = 99",
	"SELECT ID FROM KV WHERE A IS NULL",
	"SELECT ID FROM KV WHERE ID = 1 OR A = 20",
	"SELECT COUNT(*) AS C FROM KV WHERE A = 20",
	"SELECT ID FROM KV WHERE ID = 2 ORDER BY 1 DESC",
	"SELECT A, COUNT(*) AS C FROM KV WHERE A = 20 GROUP BY A",
	"SELECT A, SUM(ID) AS T FROM KV WHERE ID > 1 GROUP BY A HAVING COUNT(*) > 1 ORDER BY SUM(ID)",
	"SELECT DISTINCT A FROM KV WHERE ID >= 2 ORDER BY A",
	"SELECT ID FROM KV WHERE S = 'a' UNION SELECT ID FROM KV WHERE A = 20 ORDER BY 1",
	"SELECT ID FROM KV WHERE A = 20 UNION ALL SELECT X FROM U WHERE Y = 20",
	"SELECT X FROM U WHERE X IN (SELECT ID FROM KV WHERE A = 20)",
	"SELECT X FROM U WHERE X NOT IN (SELECT ID FROM KV WHERE ID = 1)",
	"SELECT X FROM U WHERE EXISTS (SELECT 1 FROM KV WHERE ID = 2 AND A = U.Y)",
	"SELECT X, (SELECT S FROM KV WHERE ID = 3) AS S3 FROM U WHERE X < 3",
	"SELECT SUM(AMT) AS T FROM OL WHERE W = 1 AND D = 1 AND O = 7",
	"SELECT ID, S FROM KV20 ORDER BY ID",
	"SELECT Q.ID FROM (SELECT ID FROM KV WHERE ID BETWEEN 2 AND 3) Q WHERE Q.ID > 2",
	"SELECT KV.ID, U.X FROM KV INNER JOIN U ON KV.ID = U.X WHERE KV.ID = 2",
	"SELECT KV.ID, U.X FROM KV LEFT OUTER JOIN U ON KV.A = U.Y ORDER BY KV.ID, U.X",
	"SELECT KV.ID, U.X FROM KV RIGHT OUTER JOIN U ON KV.A = U.Y ORDER BY U.X, KV.ID",
	"SELECT KV.ID, U.X FROM KV FULL OUTER JOIN U ON KV.ID = U.X ORDER BY 1, 2",
	"SELECT KV.ID, U.X FROM KV CROSS JOIN U WHERE KV.ID = 1 AND U.X = 9",
	"SELECT KV.ID, U.X FROM KV, U WHERE KV.ID = U.X",
	"SELECT K.ID, V.S FROM KV K LEFT OUTER JOIN KV20 V ON K.ID = V.ID ORDER BY 1",
	"SELECT ID, Y FROM KVU WHERE ID > 1",
}

// The forced full scan must be result-identical to the analyzer's own
// choice on every query shape — the engine-test mirror of the
// metamorph.Plan oracle.
func TestForcedVariantEquivalence(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedShapes(t, s)
	for _, sql := range variantShapes {
		p := resolve(t, sql)
		auto, err := s.Exec(p, nil)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		auto = auto.Clone() // read after the variants ran
		for _, force := range []plan.Force{plan.ForceFullScan, plan.ForceAuto} {
			narrowed, hashed := e.pathExecs[plan.PointLookup].Load()+e.pathExecs[plan.RangeScan].Load(), e.joinExecs[plan.HashJoin].Load()
			got, err := s.ExecSelectVariant(p, force, nil)
			if err != nil {
				t.Fatalf("%q under %v: %v", sql, force, err)
			}
			if !reflect.DeepEqual(rowStrings(got), rowStrings(auto)) || !reflect.DeepEqual(got.Columns, auto.Columns) {
				t.Errorf("%q: %v variant disagrees: %v vs %v", sql, force, rowStrings(got), rowStrings(auto))
			}
			if force == plan.ForceFullScan && (e.pathExecs[plan.PointLookup].Load()+e.pathExecs[plan.RangeScan].Load() != narrowed || e.joinExecs[plan.HashJoin].Load() != hashed) {
				t.Errorf("%q: the full-scan variant ran a narrowed path or a hash join", sql)
			}
		}
	}
}

// A variant runs the memoised plan other sessions run normally: two
// sessions run one shape concurrently, one normally and one as the
// full-scan variant, each with its own literals, and both answer
// correctly every time. Run it under -race: the shared plan must be
// read-only to both.
func TestVariantSharesThePlanConcurrently(t *testing.T) {
	s := seedAccess(t)
	sessExec(t, s, "INSERT INTO T VALUES (1, 1, 5, 'a'), (2, 2, 9, 'b'), (3, 3, 12, 'c')")
	sessExec(t, s, "CREATE TABLE J (K INT)")
	sessExec(t, s, "INSERT INTO J VALUES (1), (NULL), (2), (3)")
	const shape = "SELECT T.ID FROM T INNER JOIN J ON T.ID = J.K WHERE T.B <= %d AND T.ID IN (SELECT K FROM J WHERE K > %d)"
	normal, variant := resolve(t, fmt.Sprintf(shape, 9, 0)), resolve(t, fmt.Sprintf(shape, 12, 1))
	if normal.Shape != variant.Shape {
		t.Fatal("the two texts do not share a shape")
	}
	// The memo files the plan at the shape's second miss.
	for range 2 {
		if _, err := s.ExecSelectVariant(normal, plan.ForceAuto, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, tc := range []struct {
		sess  *Session
		force plan.Force
		p     *stmt.Parsed
		want  []string
	}{
		{s, plan.ForceAuto, normal, []string{"1", "2"}},
		{s.eng.NewSession(), plan.ForceFullScan, variant, []string{"2", "3"}},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				res, err := tc.sess.ExecSelectVariant(tc.p, tc.force, nil)
				if err != nil {
					t.Errorf("%v: %v", tc.force, err)
					return
				}
				if got := rowStrings(res); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%v: got %q, want %q", tc.force, got, tc.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.eng.PlanCacheStats(); st.Misses > 2 {
		t.Errorf("the shape compiled %d times, want twice, before it was filed", st.Misses)
	}
}

// The shape that never reached the analyzer: Delivery's SUM over
// ORDER_LINE by a primary-key prefix, nested in an UPDATE's SET. Run as
// a statement of its own it is a point lookup, as a variant a full scan,
// and both return the sum the UPDATE applies.
func TestDeliverySubqueryReachesTheAnalyzer(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedShapes(t, s)
	p := resolve(t, "SELECT SUM(AMT) AS T FROM OL WHERE W = 1 AND D = 1 AND O = 7")
	sums := map[plan.AccessPath]string{}
	for force, want := range map[plan.Force]plan.AccessPath{plan.ForceAuto: plan.PointLookup, plan.ForceFullScan: plan.FullScan} {
		n := e.pathExecs[want].Load()
		res, err := s.ExecSelectVariant(p, force, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.pathExecs[want].Load() != n+1 {
			t.Errorf("%v execution did not run as %v", force, want)
		}
		sums[want] = rowStrings(res)[0]
	}
	if p := s.LastPlan(); p.Path != plan.PointLookup {
		t.Errorf("LastPlan names %v, want the normal run's point lookup", p.Path)
	}
	if sums[plan.PointLookup] != "11" || sums[plan.FullScan] != "11" {
		t.Fatalf("sums disagree: %v", sums)
	}
	sessExec(t, s, deliveryUpdate)
	if got := rowStrings(sessExec(t, s, "SELECT A FROM KV WHERE ID = 2")); got[0] != "31" {
		t.Fatalf("UPDATE applied %v, want 20 + 11", got)
	}
}

// A correlated subquery is compiled with its statement — once, however
// many outer rows evaluate it — and a re-execution of the filed plan
// compiles nothing. The memo files it at the second execution, which
// misses too.
func TestCorrelatedSubqueryCompiledOncePerStatement(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedShapes(t, s)
	for _, sql := range []string{
		"SELECT X FROM U WHERE EXISTS (SELECT 1 FROM KV WHERE KV.A = U.Y)",
		"SELECT X, (SELECT COUNT(*) FROM KV WHERE KV.A = U.Y) AS N FROM U",
		"SELECT X FROM U WHERE X IN (SELECT ID FROM KV WHERE KV.A = U.Y) OR X = 9",
	} {
		before := e.PlanCacheStats()
		if n := len(sessExec(t, s, sql).Rows); n == 0 {
			t.Fatalf("%q: no outer rows", sql)
		}
		sessExec(t, s, sql)
		sessExec(t, s, sql)
		after := e.PlanCacheStats()
		if got := after.Misses - before.Misses; got != 2 {
			t.Errorf("%q: %d compilations over three executions of 4 outer rows, want 2", sql, got)
		}
		if got := after.Hits - before.Hits; got != 1 {
			t.Errorf("%q: %d memo hits, want 1", sql, got)
		}
	}
}

// A static error fails the statement before anything runs, whatever its
// rows: a nested select's static error, a FROM source that does not
// exist, a projection's shape, a UNION's column count and an ORDER BY
// key all precede a division by zero, and all raise on no rows. Among
// static errors the first wins: sources, then references in evaluation
// order, projection shape, UNION column count, ORDER BY keys.
func TestStaticErrorPrecedence(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedShapes(t, s)
	sessExec(t, s, "CREATE TABLE Z (A INT)")
	sessExec(t, s, "INSERT INTO Z VALUES (1)")
	sessExec(t, s, "CREATE SEQUENCE SQ")
	for sql, want := range map[string]string{
		"SELECT NOPE1 / NOPE2 FROM KV":                                      "unknown column NOPE1",
		"SELECT ID FROM KV WHERE NOPE2 = 1 ORDER BY NOPE1":                  "unknown column NOPE1",
		"SELECT ID FROM KV WHERE NOPE1 = 1 GROUP BY NOPE2 HAVING NOPE3 = 1": "unknown column NOPE1",
		"SELECT ID FROM KV WHERE 1/0 = 1 AND EXISTS (SELECT NOPE1 FROM U)":  "unknown column NOPE1",
		"SELECT ID FROM KV WHERE ID = 1 AND EXISTS (SELECT NOPE1 FROM U)":   "unknown column NOPE1",
		"SELECT ID FROM KV WHERE ID = 99 AND EXISTS (SELECT NOPE1 FROM U)":  "unknown column NOPE1",
		"SELECT Q.X FROM (SELECT 1/0 AS X FROM U) Q, NOSUCHTABLE":           "table or view not found: NOSUCHTABLE",
		"SELECT Q.X FROM NOSUCHTABLE, (SELECT 1/0 AS X FROM U) Q":           "table or view not found: NOSUCHTABLE",
		"SELECT ID FROM KV WHERE 1/0 = 1 UNION SELECT X, Y FROM U":          "UNION branches have different column counts",
		"SELECT ID FROM KV UNION SELECT X, Y FROM U":                        "UNION branches have different column counts",
		"SELECT NOSUCH.* FROM KV WHERE 1/0 = 1":                             "unknown table qualifier NOSUCH.*",
		"SELECT NOSUCH.* FROM KV":                                           "unknown table qualifier NOSUCH.*",
		"SELECT *, COUNT(*) FROM KV GROUP BY 1/(ID-1)":                      "cannot use * with GROUP BY or aggregates",
		"SELECT *, COUNT(*) FROM KV GROUP BY ID":                            "cannot use * with GROUP BY or aggregates",
		"SELECT DISTINCT A FROM KV WHERE ID = 1 ORDER BY 7":                 "ORDER BY position 7 out of range",
		"SELECT DISTINCT A FROM KV ORDER BY A, 7":                           "ORDER BY position 7 out of range",
		"SELECT DISTINCT A, ID FROM KV ORDER BY A, 7":                       "ORDER BY position 7 out of range",
		"SELECT DISTINCT A FROM KV ORDER BY ID":                             "ORDER BY column ID must appear in the select list",
		"SELECT 0 FROM Z WHERE 1 IN (SELECT 1) OR 1 IN (SELECT A0 FROM Z)":  "unknown column A0",
		"SELECT NEXTVAL(SQ, 1, 2, 3) AS N FROM Z":                           "wrong number of arguments to NEXTVAL",
	} {
		_, err := gexec(s, sql)
		if got := fmt.Sprint(err); (want == "") != (err == nil) || (err != nil && got != want) {
			t.Errorf("%q: err = %v, want %q", sql, err, want)
		}
	}
	// The sequence name counts as an argument, and the second is read.
	for _, want := range []string{"1", "3"} {
		if got := rowStrings(sessExec(t, s, "SELECT NEXTVAL(SQ, 2) AS N FROM Z")); len(got) != 1 || got[0] != want {
			t.Errorf("NEXTVAL(SQ, 2) = %q, want %s", got, want)
		}
	}
}

var orderByZeroShapes = []string{
	"SELECT ID FROM KV ORDER BY 0",
	"SELECT ID, S FROM KV ORDER BY 0, S",
	"SELECT A, COUNT(*) AS C FROM KV GROUP BY A ORDER BY 0",
	"SELECT DISTINCT A FROM KV ORDER BY 0",
	"SELECT ID FROM KV UNION SELECT X FROM U ORDER BY 0",
	"SELECT X FROM U WHERE X IN (SELECT ID FROM KV ORDER BY 0)",
}

// ORDER BY 0 is out of range like any other position no output column
// has, in every form of the one sort: it used to read as "the first
// hidden sort key" and panic (or sort by the wrong column).
func TestOrderByPositionOutOfRange(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedShapes(t, s)
	for _, sql := range orderByZeroShapes {
		_, err := gexec(s, sql)
		if err == nil || err.Error() != "ORDER BY position 0 out of range" {
			t.Errorf("%q: err = %v, want ORDER BY position 0 out of range", sql, err)
		}
	}
	if _, err := gexec(s, "SELECT ID, A FROM KV ORDER BY 3"); err == nil || err.Error() != "ORDER BY position 3 out of range" {
		t.Errorf("ORDER BY 3 of 2: err = %v", err)
	}
}

// dmlWheres are the predicates TestDMLSelectsWhatSelectSelects holds the
// three row visits to one answer on.
var dmlWheres = []string{
	"A = 1 AND B = 10",                   // PK point
	"A = 1",                              // PK prefix
	"C = 20",                             // secondary index
	"C BETWEEN 15 AND 25",                // range
	"A > 1 AND A <= 3",                   // range on the PK's leading column
	"C = '20'",                           // non-INT key literal
	"A = 1.0",                            // non-INT key literal
	"C = NULL",                           // NULL key
	"1/(B-20) > 0 AND A = 1",             // can fail on a row the index would skip
	"A = (SELECT A FROM T WHERE C = 20)", // scalar subquery returning two rows
	"A = (SELECT MAX(A) FROM T WHERE C = 20)",
	"A = $1",               // unbound parameter
	"NOSUCH = 1 AND A = 9", // unknown column beside an indexable conjunct
	"1 = 0 AND Z = 1",      // unknown column no row reaches
}

// seedKeyed creates T: a composite primary key, a secondary index, a
// NULL key — and, when poisoned, ill-typed values stored verbatim in
// every key column (the SkipDefaultTypeCheck quirk), so each lookup
// index over them is unusable and every visit scans.
func seedKeyed(t testing.TB, s *Session, poisoned bool) {
	t.Helper()
	sessExec(t, s, "CREATE TABLE T (A INT DEFAULT '1x', B INT DEFAULT '2x', C INT DEFAULT '3x', M INT, PRIMARY KEY (A, B))")
	sessExec(t, s, "CREATE INDEX TC ON T (C)")
	sessExec(t, s, "INSERT INTO T (A, B, C) VALUES (1, 10, 20), (1, 11, 21), (2, 20, 20), (2, 21, NULL), (3, 30, 30)")
	if poisoned {
		sessExec(t, s, "INSERT INTO T (M) VALUES (0)")
	}
}

// UPDATE and DELETE select their rows the way SELECT does: for every
// WHERE clause the three agree on error-or-not, on the error and on the
// row set, whether or not the table's indexes are usable. The DML row
// visit used to narrow by index without asking whether the predicate
// can fail, so `1/(B-20) > 0 AND A = 1` reported 0 rows affected where
// SELECT raises division by zero — and the outcome depended on physical
// index state. Likewise a reference that resolves nowhere: DML used to
// raise it only when a row reached it, so `WHERE 1 = 0 AND Z = 1`, or
// any WHERE or SET value over an empty table, succeeded with 0 rows.
func TestDMLSelectsWhatSelectSelects(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		e := New(Config{Quirks: Quirks{SkipDefaultTypeCheck: true}})
		s := e.NewSession()
		seedKeyed(t, s, poisoned)
		sessExec(t, s, "CREATE TABLE E (A INT)")
		// Raised after the target table and the SET columns are checked,
		// before any row work: WHERE's first, then the SET values'.
		for sql, want := range map[string]string{
			"UPDATE T SET M = Z WHERE A = 7":     "unknown column Z",
			"UPDATE T SET M = Z WHERE Z2 = 1":    "unknown column Z2",
			"UPDATE T SET M = 1, B = Z":          "unknown column Z",
			"UPDATE E SET A = Z":                 "unknown column Z",
			"DELETE FROM E WHERE Z = 1":          "unknown column Z",
			"SELECT A FROM E WHERE Z = 1":        "unknown column Z",
			"UPDATE T SET NOCOL = Z":             "unknown column NOCOL in table T",
			"UPDATE NOTAB SET A = Z":             "table or view not found: NOTAB",
			"DELETE FROM NOTAB WHERE Z = 1":      "table or view not found: NOTAB",
			"UPDATE T SET M = (SELECT Z FROM E)": "unknown column Z",
		} {
			if _, err := gexec(s, sql); err == nil || err.Error() != want {
				t.Errorf("poisoned=%v %q: err = %v, want %q", poisoned, sql, err, want)
			}
		}
		rowSet := func(sql string) []string { return rowStrings(sessExec(t, s, sql)) }
		for _, where := range dmlWheres {
			want, wantErr := gexec(s, "SELECT A, B FROM T WHERE "+where)
			want = want.Clone() // read after the DML ran
			check := func(kind string, err error, got []string) {
				t.Helper()
				switch {
				case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
					t.Errorf("poisoned=%v WHERE %s: %s err = %v, SELECT err = %v", poisoned, where, kind, err, wantErr)
				case err == nil && !reflect.DeepEqual(got, rowStrings(want)):
					t.Errorf("poisoned=%v WHERE %s: %s hit %v, SELECT returns %v", poisoned, where, kind, got, rowStrings(want))
				}
			}

			sessExec(t, s, "BEGIN")
			_, err := gexec(s, "UPDATE T SET M = 7 WHERE "+where)
			check("UPDATE", err, rowSet("SELECT A, B FROM T WHERE M = 7"))
			sessExec(t, s, "ROLLBACK")

			all := rowSet("SELECT A, B FROM T")
			sessExec(t, s, "BEGIN")
			_, err = gexec(s, "DELETE FROM T WHERE "+where)
			left := map[string]bool{}
			for _, r := range rowSet("SELECT A, B FROM T") {
				left[r] = true
			}
			gone := []string{}
			for _, r := range all {
				if !left[r] {
					gone = append(gone, r)
				}
			}
			check("DELETE", err, gone)
			sessExec(t, s, "ROLLBACK")
		}
	}
}

// An ill-typed value in an indexed INT column (the raw-default quirk)
// must poison the index, not corrupt results: the evaluator's loose
// numeric-string comparison matches the string row, so index skipping
// would drop it.
func TestPoisonedIndexKeepsLooseCoercionMatches(t *testing.T) {
	e := New(Config{Quirks: Quirks{SkipDefaultTypeCheck: true}})
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE P (ID INT PRIMARY KEY, A INT DEFAULT '7')")
	sessExec(t, s, "CREATE INDEX PA ON P (A)")
	sessExec(t, s, "INSERT INTO P (ID) VALUES (1)") // A = '7' stored verbatim
	sessExec(t, s, "INSERT INTO P (ID, A) VALUES (2, 7), (3, 8)")

	res := sessExec(t, s, "SELECT ID FROM P WHERE A = 7").Clone()
	if p := s.LastPlan(); p.Path != plan.PointLookup {
		t.Fatalf("poisoned-index query planned %v, want the point lookup it falls back from", p.Path)
	}
	if got := rowStrings(res); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("loose-coercion match lost under the index path: %v", got)
	}
	full, err := s.ExecSelectVariant(resolve(t, "SELECT ID FROM P WHERE A = 7"), plan.ForceFullScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowStrings(full), rowStrings(res)) {
		t.Fatalf("forced full scan disagrees: %v vs %v", rowStrings(full), rowStrings(res))
	}
}

// Bind-arity errors must surface identically on every access path: a
// plan whose parameters are not covered by the bound vector cannot skip
// rows (a full scan raises the unbound-parameter error on the
// first row it evaluates).
func TestVariantExecutionRejectsNonPureSelects(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedIndexed(t, s)
	sessExec(t, s, "CREATE SEQUENCE SQ")
	if _, err := s.ExecSelectVariant(resolve(t, "SELECT NEXTVAL(SQ) AS N FROM KV WHERE ID = 1"), plan.ForceFullScan, nil); err == nil {
		t.Fatal("sequence-advancing SELECT accepted for variant re-execution")
	}
}
