package engine

import (
	"reflect"
	"slices"
	"testing"

	"divsql/internal/engine/plan"
)

// seedAccess creates T(ID pk, A, B int; S string) with a composite index
// (A, B) and a single-column index (B), whose names sort in that order.
func seedAccess(t *testing.T) *Session {
	t.Helper()
	s := NewOracle().NewSession()
	sessExec(t, s, "CREATE TABLE T (ID INT PRIMARY KEY, A INT, B INT, S VARCHAR(10))")
	sessExec(t, s, "CREATE INDEX TAB ON T (A, B)")
	sessExec(t, s, "CREATE INDEX TB ON T (B)")
	return s
}

// compileSQL compiles a SELECT the way its execution does: names
// resolve against the live catalog and lifted literals become slots of
// the handle. The session is left reading the handle's literals, so the
// plan's key values can be evaluated.
func compileSQL(t *testing.T, s *Session, sql string) (*compiledSelect, error) {
	t.Helper()
	p := resolve(t, sql)
	s.eng.mu.RLock()
	defer s.eng.mu.RUnlock()
	s.lits = p.Lits
	return s.compileSelect(p.Select, nil, p.Select.Distinct)
}

// mustCompile is compileSQL's plan; the test fails if sql does not
// compile.
func mustCompile(t *testing.T, s *Session, sql string) *compiledSelect {
	t.Helper()
	cs, err := compileSQL(t, s, sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return cs
}

// accessOf is the access plan of the first core of sql (a SELECT over
// one base table).
func accessOf(t *testing.T, s *Session, sql string) *visit {
	t.Helper()
	c := &mustCompile(t, s, sql).cores[0]
	if !c.visits() {
		t.Fatalf("%q: no access plan", sql)
	}
	return &c.p
}

func TestPointLookupOnPrimaryKey(t *testing.T) {
	v := accessOf(t, seedAccess(t), "SELECT A FROM T WHERE ID = 1")
	if v.path != plan.PointLookup {
		t.Fatalf("path = %v, want point-lookup", v.path)
	}
	if !reflect.DeepEqual(v.keyCols, []int{0}) {
		t.Fatalf("key cols = %v, want [0]", v.keyCols)
	}
}

func TestPointLookupFlippedOperands(t *testing.T) {
	v := accessOf(t, seedAccess(t), "SELECT A FROM T WHERE 5 = ID")
	if v.path != plan.PointLookup || !reflect.DeepEqual(v.keyCols, []int{0}) {
		t.Fatalf("flipped equality not recognized: %+v", v)
	}
}

func TestCompositePrefixBeatsShorterKeyset(t *testing.T) {
	v := accessOf(t, seedAccess(t), "SELECT S FROM T WHERE A = 1 AND B = 2")
	if v.path != plan.PointLookup {
		t.Fatalf("path = %v, want point-lookup", v.path)
	}
	if !reflect.DeepEqual(v.keyCols, []int{1, 2}) {
		t.Fatalf("key cols = %v, want [1 2] (full composite prefix)", v.keyCols)
	}
}

func TestEqualityPrefixStopsAtGap(t *testing.T) {
	// B alone covers index TB; the composite TAB has no equality on its
	// leading column, so only the single-column keyset applies.
	v := accessOf(t, seedAccess(t), "SELECT S FROM T WHERE B = 2 AND S = 'x'")
	if v.path != plan.PointLookup || !reflect.DeepEqual(v.keyCols, []int{2}) {
		t.Fatalf("key cols = %v, want [2]", v.keyCols)
	}
}

func TestRangeScanOnLeadingIndexColumn(t *testing.T) {
	v := accessOf(t, seedAccess(t), "SELECT A FROM T WHERE B > 3 AND B <= 9")
	if v.path != plan.RangeScan {
		t.Fatalf("path = %v, want range-scan", v.path)
	}
	if v.rangeCol != 2 {
		t.Fatalf("range col = %d, want 2", v.rangeCol)
	}
	if v.lo == nil || !v.loStrict || v.hi == nil || v.hiStrict {
		t.Fatalf("bounds strictness wrong: %+v", v)
	}
}

func TestBetweenBecomesInclusiveRange(t *testing.T) {
	v := accessOf(t, seedAccess(t), "SELECT A FROM T WHERE B BETWEEN 1 AND 9")
	if v.path != plan.RangeScan || v.rangeCol != 2 {
		t.Fatalf("path = %v col = %d, want range-scan on 2", v.path, v.rangeCol)
	}
	if v.lo == nil || v.loStrict || v.hi == nil || v.hiStrict {
		t.Fatalf("BETWEEN bounds must be inclusive: %+v", v)
	}
}

func TestNonIntAndDisjunctiveWheresFullScan(t *testing.T) {
	s := seedAccess(t)
	for _, sql := range []string{
		"SELECT A FROM T WHERE S = 'x'",         // string column: no index key
		"SELECT A FROM T WHERE ID = 1 OR A = 2", // OR is not a conjunct
		"SELECT A FROM T WHERE ID + 0 = 1",      // computed column side
		"SELECT A FROM T",                       // no WHERE
	} {
		if v := accessOf(t, s, sql); v.path != plan.FullScan {
			t.Errorf("%q: path = %v, want full-scan", sql, v.path)
		}
	}
}

func TestAliasQualifierResolution(t *testing.T) {
	s := seedAccess(t)
	if v := accessOf(t, s, "SELECT X.A FROM T X WHERE X.ID = 1"); v.path != plan.PointLookup {
		t.Fatalf("aliased qualifier not resolved: %+v", v)
	}
	// Under an alias the bare table name is not a visible qualifier: at
	// top level T.ID names nothing, and the statement fails before any
	// row is visited; in a subquery it is the enclosing query's column,
	// the same on every row the subquery visits.
	if cs, err := compileSQL(t, s, "SELECT X.A FROM T X WHERE T.ID = 1"); err == nil {
		t.Fatalf("stale table qualifier must not bind: %+v", cs.cores[0])
	}
	cs := mustCompile(t, s, "SELECT A FROM T WHERE EXISTS (SELECT 1 FROM T X WHERE T.ID = 1)")
	if v := nestedSelects(cs)[0].cores[0].p; v.path != plan.FullScan {
		t.Fatalf("an enclosing query's column must not key the visit: %+v", v)
	}
}

// A plan variant runs the memoised plan of the handle's shape and turns
// its narrowing choices off at run time. With the range-bound and
// hash-join defects armed, a range statement and a join answer wrong
// when run normally and right as a ForceFullScan variant; the variant
// is a memo hit, leaves LastPlan as the normal run left it, and counts
// as a full scan whose joins ran as the nested loop.
func TestForceFullScanRunsTheMemoisedPlan(t *testing.T) {
	s := seedAccess(t)
	e := s.eng
	sessExec(t, s, "INSERT INTO T VALUES (1, 1, 5, 'a'), (2, 2, 9, 'b'), (3, 3, 12, 'c')")
	sessExec(t, s, "CREATE TABLE J (K INT)")
	sessExec(t, s, "INSERT INTO J VALUES (1), (NULL), (2)")
	PlantRangeBoundDefect(true)
	defer PlantRangeBoundDefect(false)
	PlantHashJoinNullKeyDefect(true)
	defer PlantHashJoinNullKeyDefect(false)
	for _, tc := range []struct {
		sql             string
		normal, variant []string
		path            plan.AccessPath
		joins           []plan.JoinAlgo
	}{
		{"SELECT ID FROM T WHERE B <= 9", []string{"1"}, []string{"1", "2"}, plan.RangeScan, nil},
		{"SELECT T.ID FROM T INNER JOIN J ON T.ID = J.K", []string{"1"}, []string{"1", "2"}, plan.FullScan, []plan.JoinAlgo{plan.HashJoin}},
	} {
		// The second normal run files the plan the variant runs.
		p := resolve(t, tc.sql)
		sessExec(t, s, tc.sql)
		res, err := s.Exec(p, nil)
		if err != nil {
			t.Fatalf("%q: %v", tc.sql, err)
		}
		if got := rowStrings(res); !reflect.DeepEqual(got, tc.normal) {
			t.Fatalf("%q: normal run answered %q, want the planted defect's %q", tc.sql, got, tc.normal)
		}
		last := s.LastPlan()
		if last.Path != tc.path || !slices.Equal(last.Joins, tc.joins) {
			t.Fatalf("%q: normal run took %v with joins %v, want %v with %v", tc.sql, last.Path, last.Joins, tc.path, tc.joins)
		}
		stats, full, hash, nested := e.PlanCacheStats(), e.pathExecs[plan.FullScan].Load(), e.joinExecs[plan.HashJoin].Load(), e.joinExecs[plan.NestedLoop].Load()
		if res, err = s.ExecSelectVariant(p, plan.ForceFullScan, nil); err != nil {
			t.Fatalf("%q as a variant: %v", tc.sql, err)
		}
		if got := rowStrings(res); !reflect.DeepEqual(got, tc.variant) {
			t.Errorf("%q: variant answered %q, want %q", tc.sql, got, tc.variant)
		}
		if got := e.PlanCacheStats(); got.Misses != stats.Misses || got.Hits != stats.Hits+1 {
			t.Errorf("%q: variant moved the plan memo from %+v to %+v, want one more hit", tc.sql, stats, got)
		}
		if got := s.LastPlan(); !reflect.DeepEqual(got, last) {
			t.Errorf("%q: variant replaced LastPlan %+v with %+v", tc.sql, last, got)
		}
		if n := e.pathExecs[plan.FullScan].Load() - full; n != 1 {
			t.Errorf("%q: variant counted %d full scans, want 1", tc.sql, n)
		}
		if h, n := e.joinExecs[plan.HashJoin].Load()-hash, e.joinExecs[plan.NestedLoop].Load()-nested; h != 0 || n != uint64(len(tc.joins)) {
			t.Errorf("%q: variant ran %d hash and %d nested-loop joins, want 0 and %d", tc.sql, h, n, len(tc.joins))
		}
	}
}

func TestMaxParamCoversWholeStatement(t *testing.T) {
	v := accessOf(t, seedAccess(t), "SELECT A FROM T WHERE ID = $1 AND S = $3")
	if v.maxParam != 3 {
		t.Fatalf("maxParam = %d, want 3", v.maxParam)
	}
}

// The first equality wins, and the plan probes by the value node of that
// equality in the lowered predicate.
func TestDuplicateEqualityFirstWins(t *testing.T) {
	s := seedAccess(t)
	c := mustCompile(t, s, "SELECT A FROM T WHERE ID = 1 AND ID = 2").cores[0]
	v := c.p
	if v.path != plan.PointLookup || len(v.keyVals) != 1 {
		t.Fatalf("duplicate equality mishandled: %+v", v)
	}
	if first := c.where.(*binX).l.(*binX).r; v.keyVals[0] != first {
		t.Fatalf("key value %#v is not the first equality's node %#v", v.keyVals[0], first)
	}
	if k, null, ok := s.keyValue(v.keyVals[0]); !ok || null || k != 1 {
		t.Fatalf("first equality must win, got %d (null %v, ok %v)", k, null, ok)
	}
}

// The join rule: the first top-level conjunct equating one column left
// of the join with one right of it is the key, either way round; an
// enclosing query's column, an equality under OR or NOT, and an equality
// within one side are not. An ambiguous column fails the compile.
func TestEquiJoinKey(t *testing.T) {
	s := NewOracle().NewSession()
	seedJoin(t, s) // the join's scope: L(K, V) then R(K, Z, W)
	sessExec(t, s, "CREATE TABLE O (X INT)")
	for _, tc := range []struct {
		on          string
		left, right int
		ok          bool
	}{
		{"L.K = R.K", 0, 0, true},
		{"R.Z = L.V", 1, 1, true},
		{"R.Z > 0 AND (L.V = R.K AND L.K = R.K)", 1, 0, true},
		{"L.K = L.V AND R.K = R.Z AND L.K = R.Z", 0, 1, true},
		{"L.K = R.K OR L.V = R.Z", 0, 0, false},
		{"NOT (L.K = R.K)", 0, 0, false},
		{"L.K < R.K", 0, 0, false},
		{"L.K = R.K + 0", 0, 0, false},
		{"L.K = 1 AND R.K = 1", 0, 0, false},
		{"O.X = R.K", 0, 0, false},
	} {
		// The join sits in a subquery, so O.X is an enclosing query's column.
		cs := mustCompile(t, s, "SELECT 1 FROM O WHERE EXISTS (SELECT 1 FROM L INNER JOIN R ON "+tc.on+")")
		k := nestedSelects(cs)[0].cores[0].from[1].key
		if ok := k != nil; ok != tc.ok || (ok && (k.left != tc.left || k.right != tc.right)) {
			t.Errorf("ON %s: key = %+v, want (%d, %d, %v)", tc.on, k, tc.left, tc.right, tc.ok)
		}
	}
	const ambiguous = "SELECT 1 FROM O WHERE EXISTS (SELECT 1 FROM L INNER JOIN R ON K = R.K)"
	if _, err := compileSQL(t, s, ambiguous); err == nil || err.Error() != "ambiguous column reference K" {
		t.Errorf("ON K = R.K: err = %v, want ambiguous column reference K", err)
	}
}
