package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"divsql/internal/engine/plan"
	"divsql/internal/obs"
	"divsql/internal/sql/types"
)

// seedJoin creates the join-semantics fixture: two INT-keyed tables with
// duplicate, unmatched and NULL keys on both sides, a FLOAT-keyed and a
// string-keyed table whose values match INT keys only through loose
// coercion, an empty table, and one holding neighbouring INTs beyond
// 2^53.
func seedJoin(t testing.TB, s *Session) {
	t.Helper()
	sessExec(t, s, "CREATE TABLE L (K INT, V VARCHAR(5))")
	sessExec(t, s, "INSERT INTO L VALUES (1, 'a'), (2, 'b'), (2, 'c'), (NULL, 'n'), (5, 'e')")
	sessExec(t, s, "CREATE TABLE R (K INT, Z INT, W VARCHAR(5))")
	sessExec(t, s, "INSERT INTO R VALUES (2, 1, 'x'), (1, 1, 'y'), (2, 0, 'z'), (NULL, 1, 'q'), (7, 1, 'r')")
	sessExec(t, s, "CREATE TABLE F (K FLOAT)")
	sessExec(t, s, "INSERT INTO F VALUES (2.0), (1.0), (2.5)")
	sessExec(t, s, "CREATE TABLE ST (K VARCHAR(5))")
	sessExec(t, s, "INSERT INTO ST VALUES ('1'), ('abc'), (' 2 ')")
	sessExec(t, s, "CREATE TABLE EMPTY (K INT)")
	sessExec(t, s, "CREATE TABLE BIG (ID INT PRIMARY KEY, B INT)")
	sessExec(t, s, "INSERT INTO BIG VALUES (9007199254740992, 9007199254740992), (9007199254740993, 9007199254740993)")
}

// joinFuzzShapes seed FuzzSelectVariants beside joinCases: joins whose
// keys meet a view over a join, a poisoned INT column, an indexed core
// and INTs beyond 2^53 (over seedShapes, seedKeyed and seedJoin).
var joinFuzzShapes = []string{
	"SELECT KVU.ID, L.V FROM KVU INNER JOIN L ON KVU.ID = L.K ORDER BY 1, 2",
	"SELECT L.V, KVU.Y FROM L LEFT OUTER JOIN KVU ON L.K = KVU.ID AND KVU.Y IS NOT NULL",
	"SELECT T.A, L.V FROM T FULL OUTER JOIN L ON T.A = L.K",
	"SELECT T.M, R.W FROM R RIGHT OUTER JOIN T ON R.K = T.C",
	"SELECT KV.S, R.W FROM KV INNER JOIN R ON KV.ID = R.K WHERE KV.ID = 2",
	"SELECT L.V, ST.K, F.K FROM L INNER JOIN ST ON L.K = ST.K LEFT OUTER JOIN F ON L.K = F.K",
	"SELECT X.ID, Y.B FROM BIG X INNER JOIN BIG Y ON X.B = Y.ID WHERE Y.ID = 9007199254740993",
	"SELECT L.V FROM L WHERE L.K IN (SELECT R.K FROM R INNER JOIN U ON R.K = U.X)",
}

// joinCases pin what a join returns — rows, their order, errors — so
// that the join's algorithm stays invisible: every case must hold on the
// normal execution and under ForceFullScan alike. Rows are rendered
// cell|cell, in result order.
var joinCases = []struct {
	name string
	sql  string
	args []types.Value
	rows []string
	err  string // substring of the error, when the statement must fail
}{
	{name: "inner: duplicate keys come out left-major, right-minor; NULL keys match nothing",
		sql:  "SELECT L.V, R.W FROM L INNER JOIN R ON L.K = R.K",
		rows: []string{"a|y", "b|x", "b|z", "c|x", "c|z"}},
	{name: "inner: operands the other way round",
		sql:  "SELECT L.V, R.W FROM L INNER JOIN R ON R.K = L.K",
		rows: []string{"a|y", "b|x", "b|z", "c|x", "c|z"}},
	{name: "left: an unmatched left row sits where its matches would",
		sql:  "SELECT L.V, R.W FROM L LEFT OUTER JOIN R ON L.K = R.K",
		rows: []string{"a|y", "b|x", "b|z", "c|x", "c|z", "n|NULL", "e|NULL"}},
	{name: "right: unmatched right rows follow, in right order",
		sql:  "SELECT L.V, R.W FROM L RIGHT OUTER JOIN R ON L.K = R.K",
		rows: []string{"a|y", "b|x", "b|z", "c|x", "c|z", "NULL|q", "NULL|r"}},
	{name: "full: both",
		sql:  "SELECT L.V, R.W FROM L FULL OUTER JOIN R ON L.K = R.K",
		rows: []string{"a|y", "b|x", "b|z", "c|x", "c|z", "n|NULL", "e|NULL", "NULL|q", "NULL|r"}},
	{name: "a second, non-equality conjunct filters the bucket",
		sql:  "SELECT L.V, R.W FROM L LEFT OUTER JOIN R ON L.K = R.K AND R.Z > 0",
		rows: []string{"a|y", "b|x", "c|x", "n|NULL", "e|NULL"}},
	{name: "a second equality conjunct",
		sql:  "SELECT L.V, R.W FROM L INNER JOIN R ON L.K = R.K AND R.Z = L.K",
		rows: []string{"a|y"}},
	{name: "an equality under OR is not a key",
		sql:  "SELECT L.V, R.W FROM L INNER JOIN R ON L.K = R.K OR R.W = 'r'",
		rows: []string{"a|y", "a|r", "b|x", "b|z", "b|r", "c|x", "c|z", "c|r", "n|r", "e|r"}},
	{name: "INT = FLOAT keys match through loose coercion",
		sql:  "SELECT L.V, F.K FROM L INNER JOIN F ON L.K = F.K",
		rows: []string{"a|1", "b|2", "c|2"}},
	{name: "INT = string keys match through loose coercion",
		sql:  "SELECT L.V, ST.K FROM L LEFT OUTER JOIN ST ON L.K = ST.K",
		rows: []string{"a|1", "b| 2 ", "c| 2 ", "n|NULL", "e|NULL"}},
	{name: "string = INT, non-INT keys on the left",
		sql:  "SELECT ST.K, R.W FROM ST INNER JOIN R ON ST.K = R.K",
		rows: []string{"1|y", " 2 |x", " 2 |z"}},
	{name: "a chain joins on columns of the accumulated left side",
		sql:  "SELECT L.V, R.W, F.K FROM L INNER JOIN R ON L.K = R.K INNER JOIN F ON R.K = F.K AND R.Z = 1",
		rows: []string{"a|y|1", "b|x|2", "c|x|2"}},
	{name: "self join under aliases",
		sql:  "SELECT A.V, B.V FROM L A INNER JOIN L B ON A.K = B.K WHERE A.V <> B.V",
		rows: []string{"b|c", "c|b"}},
	{name: "derived tables on both sides",
		sql:  "SELECT A.V, B.W FROM (SELECT K, V FROM L WHERE K > 1) A INNER JOIN (SELECT K, W FROM R) B ON A.K = B.K",
		rows: []string{"b|x", "b|z", "c|x", "c|z"}},
	{name: "empty right input",
		sql:  "SELECT L.V, EMPTY.K FROM L LEFT OUTER JOIN EMPTY ON L.K = EMPTY.K",
		rows: []string{"a|NULL", "b|NULL", "c|NULL", "n|NULL", "e|NULL"}},
	{name: "empty left input",
		sql:  "SELECT EMPTY.K, R.W FROM EMPTY RIGHT OUTER JOIN R ON EMPTY.K = R.K",
		rows: []string{"NULL|x", "NULL|y", "NULL|z", "NULL|q", "NULL|r"}},
	{name: "ON 1 = 1 pairs everything",
		sql:  "SELECT COUNT(*) AS C FROM L INNER JOIN R ON 1 = 1",
		rows: []string{"25"}},
	{name: "CROSS JOIN",
		sql:  "SELECT L.V, F.K FROM L CROSS JOIN F WHERE L.K = 5",
		rows: []string{"e|2", "e|1", "e|2.5"}},
	{name: "a bound parameter in ON",
		sql:  "SELECT L.V, R.W FROM L INNER JOIN R ON L.K = R.K AND R.Z = $1",
		args: []types.Value{types.NewInt(0)},
		rows: []string{"b|z", "c|z"}},
	{name: "a correlated reference inside ON",
		sql:  "SELECT V FROM L WHERE EXISTS (SELECT 1 FROM R INNER JOIN F ON R.K = F.K AND R.Z = L.K)",
		rows: []string{"a"}},
	{name: "an equality against the enclosing query's column is not a key",
		sql:  "SELECT V FROM L WHERE EXISTS (SELECT 1 FROM R INNER JOIN F ON F.K = L.K AND R.Z = 0)",
		rows: []string{"a", "b", "c"}},
	{name: "a right-side name shadows the enclosing query's",
		sql: "SELECT V FROM L WHERE 2 = (SELECT COUNT(*) FROM F INNER JOIN R ON F.K = K AND Z = 1)",
		err: "ambiguous column reference K"},

	// An ON that can raise is evaluated on every pair: narrowing by the
	// key would skip the pair that raises (L5's one row matches no key of
	// R, L1's matches one).
	{name: "division by zero on a pair whose keys differ",
		sql: "SELECT L5.V FROM (SELECT K, V FROM L WHERE K = 5) L5 INNER JOIN R ON 1/(R.Z) > 0 AND L5.K = R.K",
		err: "division by zero"},
	{name: "division by zero behind a NULL key (Unknown AND … still evaluates)",
		sql: "SELECT L5.V FROM (SELECT K, V FROM L WHERE K = 5) L5 INNER JOIN R ON L5.K = R.K AND 1/(R.Z - 1) > 0",
		err: "division by zero"},
	{name: "no division by zero where the key short-circuits every zero",
		sql:  "SELECT L1.V, R.W FROM (SELECT K, V FROM L WHERE K = 1) L1 INNER JOIN R ON L1.K = R.K AND 1/(R.Z) > 0",
		rows: []string{"a|y"}},
	{name: "an ambiguous column in ON",
		sql: "SELECT L.V FROM L INNER JOIN R ON L.K = R.K AND K = 7",
		err: "ambiguous column reference K"},
	{name: "an ambiguous key column",
		sql: "SELECT L.V FROM L INNER JOIN R ON K = R.K",
		err: "ambiguous column reference K"},
	{name: "an unknown column in ON, on pairs whose keys differ",
		sql: "SELECT L5.V FROM (SELECT K, V FROM L WHERE K = 5) L5 INNER JOIN R ON NOPE = 1 AND L5.K = R.K",
		err: "unknown column NOPE"},
	{name: "an unknown column in ON is raised without a pair",
		sql: "SELECT L.V, EMPTY.K FROM L LEFT OUTER JOIN EMPTY ON L.K = EMPTY.K AND NOPE = 1",
		err: "unknown column NOPE"},
	{name: "a column of an earlier FROM entry is not in ON's scope",
		sql: "SELECT L.V FROM L, R INNER JOIN F ON L.K = F.K",
		err: "unknown column L.K"},
	{name: "a parameter in ON with too few arguments bound, no key matching",
		sql: "SELECT L5.V FROM (SELECT K, V FROM L WHERE K = 5) L5 INNER JOIN R ON $1 = R.Z AND L5.K = R.K",
		err: "no value bound for parameter $1"},
	{name: "a parameter behind the key with too few arguments bound",
		sql: "SELECT L.V FROM L INNER JOIN R ON L.K = R.K AND R.Z = $1",
		err: "no value bound for parameter $1"},
}

func TestJoinSemantics(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedJoin(t, s)
	for _, tc := range joinCases {
		p := resolve(t, tc.sql)
		for _, force := range []plan.Force{plan.ForceAuto, plan.ForceFullScan} {
			var res *Result
			var err error
			// Twice on the normal path: compiled, then from the memo.
			for run := 0; run < 2; run++ {
				if force == plan.ForceAuto {
					res, err = s.Exec(p, tc.args)
				} else {
					res, err = s.ExecSelectVariant(p, force, tc.args)
				}
			}
			switch {
			case tc.err != "":
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Errorf("%s (%v): %q: err = %v, want %q", tc.name, force, tc.sql, err, tc.err)
				}
			case err != nil:
				t.Errorf("%s (%v): %q: %v", tc.name, force, tc.sql, err)
			case !reflect.DeepEqual(rowStrings(res), tc.rows):
				t.Errorf("%s (%v): %q:\n got %q\nwant %q", tc.name, force, tc.sql, rowStrings(res), tc.rows)
			}
		}
	}
}

// The algorithm a join was compiled to is visible through LastPlan, in
// compile order, nested joins included; the ForceFullScan variant runs
// every one as the nested loop and leaves LastPlan as it was; and the
// engine counts executions by the algorithm that actually ran, so a hash
// join that met a key it cannot hash shows up as a nested loop in
// divsql_engine_join_execs_total.
func TestJoinAlgorithmChoiceAndCounters(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedJoin(t, s)
	reg := obs.NewRegistry()
	reg.Register(e.MetricsCollector(""))
	execs := func() (hash, nested int) {
		text := reg.Render()
		for algo, n := range map[string]*int{"hash": &hash, "nested-loop": &nested} {
			_, after, ok := strings.Cut(text, `divsql_engine_join_execs_total{algo="`+algo+`"} `)
			if !ok {
				t.Fatalf("no join_execs series for %s in:\n%s", algo, text)
			}
			fmt.Sscan(after, n)
		}
		return hash, nested
	}
	H, N := plan.HashJoin, plan.NestedLoop
	for _, tc := range []struct {
		sql          string
		joins        []plan.JoinAlgo
		hash, nested int // executions counted
	}{
		{"SELECT L.V FROM L INNER JOIN R ON L.K = R.K", []plan.JoinAlgo{H}, 1, 0},
		{"SELECT L.V FROM L LEFT OUTER JOIN R ON R.Z > 0 AND R.K = L.K", []plan.JoinAlgo{H}, 1, 0},
		{"SELECT L.V FROM L INNER JOIN R ON L.K < R.K", []plan.JoinAlgo{N}, 0, 1},
		{"SELECT L.V FROM L INNER JOIN R ON L.K = R.K OR R.Z = 0", []plan.JoinAlgo{N}, 0, 1},
		{"SELECT L.V FROM L INNER JOIN R ON L.K = R.K AND 1/(R.Z + 1) > 0", []plan.JoinAlgo{N}, 0, 1},
		{"SELECT L.V FROM L INNER JOIN R ON L.K = R.Z + 1", []plan.JoinAlgo{N}, 0, 1},
		{"SELECT L.V FROM L INNER JOIN R ON L.K = 2", []plan.JoinAlgo{N}, 0, 1},
		{"SELECT L.V FROM L CROSS JOIN R", nil, 0, 0},
		{"SELECT L.V FROM L, R WHERE L.K = R.K", nil, 0, 0},
		// Compiled to hash, run as the nested loop: FLOAT and string keys.
		{"SELECT L.V FROM L INNER JOIN F ON L.K = F.K", []plan.JoinAlgo{H}, 0, 1},
		{"SELECT ST.K FROM ST INNER JOIN R ON ST.K = R.K", []plan.JoinAlgo{H}, 0, 1},
		// A chain, and joins nested in a derived table and a subquery; the
		// EXISTS runs its join once per row of L.
		{"SELECT L.V FROM L INNER JOIN R ON L.K = R.K INNER JOIN F ON R.Z < F.K", []plan.JoinAlgo{H, N}, 1, 1},
		{"SELECT Q.V FROM (SELECT L.V, R.K FROM L INNER JOIN R ON L.K = R.K) Q INNER JOIN EMPTY ON Q.K = EMPTY.K", []plan.JoinAlgo{H, H}, 2, 0},
		{"SELECT V FROM L WHERE EXISTS (SELECT 1 FROM R INNER JOIN EMPTY ON R.K = EMPTY.K AND R.Z = L.K)", []plan.JoinAlgo{H}, 5, 0},
	} {
		p := resolve(t, tc.sql)
		h0, n0 := execs()
		if _, err := s.Exec(p, nil); err != nil {
			t.Fatalf("%q: %v", tc.sql, err)
		}
		if got := s.LastPlan().Joins; !reflect.DeepEqual(got, tc.joins) {
			t.Errorf("%q: joins = %v, want %v", tc.sql, got, tc.joins)
		}
		if h, n := execs(); h-h0 != tc.hash || n-n0 != tc.nested {
			t.Errorf("%q: counted %d hash + %d nested-loop executions, want %d + %d", tc.sql, h-h0, n-n0, tc.hash, tc.nested)
		}
		h0, n0 = execs()
		if _, err := s.ExecSelectVariant(p, plan.ForceFullScan, nil); err != nil {
			t.Fatalf("%q forced: %v", tc.sql, err)
		}
		if got := s.LastPlan().Joins; !reflect.DeepEqual(got, tc.joins) {
			t.Errorf("%q forced: LastPlan joins = %v, want the normal run's %v", tc.sql, got, tc.joins)
		}
		if h, n := execs(); h != h0 || n-n0 != tc.hash+tc.nested {
			t.Errorf("%q forced: counted %d hash + %d nested-loop executions, want 0 + %d", tc.sql, h-h0, n-n0, tc.hash+tc.nested)
		}
	}
}

// A join allocates nothing per candidate pair or per match: ON is
// evaluated against one scratch row and one scope per join, and the hash
// table, the match list, the joined rows and the result come from the
// session's arena. 16x16 rows, unique keys: 256 pairs, 16 of them
// matches. The nested loop visits all 256 and may not allocate for them
// either.
func TestJoinAllocs(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE JA (K INT, V INT)")
	sessExec(t, s, "CREATE TABLE JB (K INT, V INT)")
	for i := 1; i <= 16; i++ {
		sessExec(t, s, fmt.Sprintf("INSERT INTO JA VALUES (%d, %d)", i, i))
		sessExec(t, s, fmt.Sprintf("INSERT INTO JB VALUES (%d, %d)", 17-i, i))
	}
	sel := resolve(t, "SELECT JA.V, JB.V FROM JA INNER JOIN JB ON JA.K = JB.K AND JB.V > 0")
	// AllocsPerRun's warm-up run is the shape's second: the one that
	// files its plan.
	sessExec(t, s, sel.Text)
	for _, tc := range []struct {
		force plan.Force
		max   float64
	}{
		// Nothing: the result is the session's, and the variant runs the
		// memoised plan.
		{plan.ForceAuto, 0},
		{plan.ForceFullScan, 0},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			res, err := s.ExecSelectVariant(sel, tc.force, nil)
			if err != nil || len(res.Rows) != 16 {
				t.Fatalf("%v: %d rows, err %v", tc.force, len(res.Rows), err)
			}
		})
		t.Logf("%v: %.0f allocations for 256 pairs, 16 matches", tc.force, allocs)
		if allocs > tc.max {
			t.Errorf("%v: %.0f allocations per 16x16 join, want <= %.0f (the plan alone, not O(pairs))", tc.force, allocs, tc.max)
		}
	}
}

// A projection allocates nothing on a warm session, per core or per row:
// its result rows are carved from the session's arena.
func TestProjectionAllocs(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	allocs := map[int]float64{}
	for _, n := range []int{8, 64} {
		table := fmt.Sprintf("P%d", n)
		sessExec(t, s, fmt.Sprintf("CREATE TABLE %s (A INT)", table))
		for i := 0; i < n; i++ {
			sessExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d)", table, i))
		}
		p := resolve(t, fmt.Sprintf("SELECT A, A + 1 FROM %s", table))
		sessExec(t, s, p.Text) // the warm-up run below files the plan
		allocs[n] = testing.AllocsPerRun(20, func() {
			res, err := s.Exec(p, nil)
			if err != nil || len(res.Rows) != n {
				t.Fatalf("%d rows, err %v", len(res.Rows), err)
			}
		})
		t.Logf("%d rows: %.0f allocations", n, allocs[n])
	}
	if allocs[8] > 0 || allocs[64] > 0 {
		t.Errorf("64 rows allocate %.0f, 8 rows %.0f: want 0", allocs[64], allocs[8])
	}
}

// INT comparison is exact beyond 2^53, whichever way a row is reached:
// types.Compare used to go through float64, so a full scan matched both
// 2^53 and 2^53+1 where the int64-keyed index matched one.
func TestIntComparisonIsExactOnEveryPath(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedJoin(t, s)
	for sql, want := range map[string][]string{
		"SELECT ID FROM BIG WHERE ID = 9007199254740993":                           {"9007199254740993"},
		"SELECT ID FROM BIG WHERE B = 9007199254740993":                            {"9007199254740993"},
		"SELECT ID FROM BIG WHERE B > 9007199254740992":                            {"9007199254740993"},
		"SELECT ID FROM BIG WHERE B <> 9007199254740993":                           {"9007199254740992"},
		"SELECT X.ID, Y.ID FROM BIG X INNER JOIN BIG Y ON X.B = Y.ID":              {"9007199254740992|9007199254740992", "9007199254740993|9007199254740993"},
		"SELECT MAX(B) AS M FROM BIG":                                              {"9007199254740993"},
		"SELECT ID FROM BIG ORDER BY B DESC":                                       {"9007199254740993", "9007199254740992"},
		"SELECT ID FROM BIG WHERE B IN (9007199254740993)":                         {"9007199254740993"},
		"SELECT ID FROM BIG WHERE B BETWEEN 9007199254740993 AND 9007199254740993": {"9007199254740993"},
	} {
		p := resolve(t, sql)
		for _, force := range []plan.Force{plan.ForceAuto, plan.ForceFullScan} {
			res, err := s.ExecSelectVariant(p, force, nil)
			if err != nil {
				t.Fatalf("%q (%v): %v", sql, force, err)
			}
			if got := rowStrings(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%q (%v): got %q, want %q", sql, force, got, want)
			}
		}
	}
}
