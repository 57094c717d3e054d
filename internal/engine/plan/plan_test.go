package plan

import (
	"strings"
	"testing"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/types"
)

// testMeta: T(ID pk, A, B int; S string) with a composite index (A, B)
// and a single-column index (B).
func testMeta() TableMeta {
	return TableMeta{
		Name: "T",
		Cols: []ColMeta{
			{Name: "ID", Kind: types.KindInt},
			{Name: "A", Kind: types.KindInt},
			{Name: "B", Kind: types.KindInt},
			{Name: "S", Kind: types.KindString},
		},
		PK:      []int{0},
		Indexes: [][]int{{1, 2}, {2}},
	}
}

// mustAnalyze plans the row visit of a single-table SELECT over T the
// way the engine asks for it: the table's meta, the correlation name in
// effect, the WHERE clause and the statement's parameter count.
func mustAnalyze(t *testing.T, sql string, force Force) *SelectPlan {
	t.Helper()
	st, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := st.(*ast.Select)
	if !ok {
		t.Fatalf("%q is not a SELECT", sql)
	}
	p := Analyze(testMeta(), strings.ToUpper(sel.From[0].Table.Alias), sel.Where, ast.NumParams(sel), force)
	return &p
}

func TestPointLookupOnPrimaryKey(t *testing.T) {
	p := mustAnalyze(t, "SELECT A FROM T WHERE ID = 1", ForceAuto)
	if p.Path != PointLookup {
		t.Fatalf("path = %v, want point-lookup", p.Path)
	}
	if len(p.KeyCols) != 1 || p.KeyCols[0] != 0 {
		t.Fatalf("key cols = %v, want [0]", p.KeyCols)
	}
}

func TestPointLookupFlippedOperands(t *testing.T) {
	p := mustAnalyze(t, "SELECT A FROM T WHERE 5 = ID", ForceAuto)
	if p.Path != PointLookup || p.KeyCols[0] != 0 {
		t.Fatalf("flipped equality not recognized: %+v", p)
	}
}

func TestCompositePrefixBeatsShorterKeyset(t *testing.T) {
	p := mustAnalyze(t, "SELECT S FROM T WHERE A = 1 AND B = 2", ForceAuto)
	if p.Path != PointLookup {
		t.Fatalf("path = %v, want point-lookup", p.Path)
	}
	if len(p.KeyCols) != 2 || p.KeyCols[0] != 1 || p.KeyCols[1] != 2 {
		t.Fatalf("key cols = %v, want [1 2] (full composite prefix)", p.KeyCols)
	}
}

func TestEqualityPrefixStopsAtGap(t *testing.T) {
	// B alone covers index {2}; the composite {1,2} has no eq on its
	// leading column, so only the single-column keyset applies.
	p := mustAnalyze(t, "SELECT S FROM T WHERE B = 2 AND S = 'x'", ForceAuto)
	if p.Path != PointLookup || len(p.KeyCols) != 1 || p.KeyCols[0] != 2 {
		t.Fatalf("key cols = %v, want [2]", p.KeyCols)
	}
}

func TestRangeScanOnLeadingIndexColumn(t *testing.T) {
	p := mustAnalyze(t, "SELECT A FROM T WHERE B > 3 AND B <= 9", ForceAuto)
	if p.Path != RangeScan {
		t.Fatalf("path = %v, want range-scan", p.Path)
	}
	if p.RangeCol != 2 {
		t.Fatalf("range col = %d, want 2", p.RangeCol)
	}
	if p.Lo == nil || !p.Lo.Strict || p.Hi == nil || p.Hi.Strict {
		t.Fatalf("bounds strictness wrong: lo=%+v hi=%+v", p.Lo, p.Hi)
	}
}

func TestBetweenBecomesInclusiveRange(t *testing.T) {
	p := mustAnalyze(t, "SELECT A FROM T WHERE B BETWEEN 1 AND 9", ForceAuto)
	if p.Path != RangeScan || p.RangeCol != 2 {
		t.Fatalf("path = %v col = %d, want range-scan on 2", p.Path, p.RangeCol)
	}
	if p.Lo == nil || p.Lo.Strict || p.Hi == nil || p.Hi.Strict {
		t.Fatalf("BETWEEN bounds must be inclusive: lo=%+v hi=%+v", p.Lo, p.Hi)
	}
}

func TestNonIntAndDisjunctiveWheresFullScan(t *testing.T) {
	for _, sql := range []string{
		"SELECT A FROM T WHERE S = 'x'",         // string column: no index key
		"SELECT A FROM T WHERE ID = 1 OR A = 2", // OR is not a conjunct
		"SELECT A FROM T WHERE ID + 0 = 1",      // computed column side
		"SELECT A FROM T",                       // no WHERE
	} {
		p := mustAnalyze(t, sql, ForceAuto)
		if p.Path != FullScan {
			t.Errorf("%q: path = %v, want full-scan", sql, p.Path)
		}
	}
}

func TestAliasQualifierResolution(t *testing.T) {
	p := mustAnalyze(t, "SELECT X.A FROM T X WHERE X.ID = 1", ForceAuto)
	if p.Path != PointLookup {
		t.Fatalf("aliased qualifier not resolved: %+v", p)
	}
	// Under an alias the bare table name is not a visible qualifier.
	p = mustAnalyze(t, "SELECT X.A FROM T X WHERE T.ID = 1", ForceAuto)
	if p.Path != FullScan {
		t.Fatalf("stale table qualifier must not bind: %+v", p)
	}
}

func TestForceFullScanClearsAccessPath(t *testing.T) {
	p := mustAnalyze(t, "SELECT A FROM T WHERE ID = 1", ForceFullScan)
	if p.Path != FullScan || p.KeyCols != nil || p.KeyVals != nil {
		t.Fatalf("forced full scan kept index state: %+v", p)
	}
}

func TestMaxParamCoversWholeStatement(t *testing.T) {
	p := mustAnalyze(t, "SELECT A FROM T WHERE ID = $1 AND S = $3", ForceAuto)
	if p.MaxParam != 3 {
		t.Fatalf("MaxParam = %d, want 3", p.MaxParam)
	}
}

func TestDuplicateEqualityFirstWins(t *testing.T) {
	p := mustAnalyze(t, "SELECT A FROM T WHERE ID = 1 AND ID = 2", ForceAuto)
	if p.Path != PointLookup || len(p.KeyVals) != 1 {
		t.Fatalf("duplicate equality mishandled: %+v", p)
	}
	lit, ok := p.KeyVals[0].(*ast.Literal)
	if !ok || lit.Val.I != 1 {
		t.Fatalf("first equality must win, got %+v", p.KeyVals[0])
	}
}

// The join rule: the first top-level conjunct equating one column left
// of the join with one right of it is the key, either way round;
// anything the ordinal function does not place in the join's own scope,
// an equality under OR, and an equality within one side are not.
func TestEquiJoinKey(t *testing.T) {
	// The join's scope: L(K, V) then R(K, Z); O.X belongs to an enclosing
	// query.
	cols := map[string]int{"L.K": 0, "L.V": 1, "R.K": 2, "R.Z": 3}
	ordinal := func(cr *ast.ColumnRef) int {
		if i, ok := cols[strings.ToUpper(cr.Table+"."+cr.Column)]; ok {
			return i
		}
		return -1
	}
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
		{"K = R.K", 0, 0, false},
	} {
		st, err := parser.Parse("SELECT 1 FROM L INNER JOIN R ON " + tc.on)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.on, err)
		}
		on := st.(*ast.Select).From[0].Joins[0].On
		l, r, ok := EquiJoinKey(on, ordinal, 2)
		if ok != tc.ok || (ok && (l != tc.left || r != tc.right)) {
			t.Errorf("ON %s: key = (%d, %d, %v), want (%d, %d, %v)", tc.on, l, r, ok, tc.left, tc.right, tc.ok)
		}
	}
}

func TestInfoString(t *testing.T) {
	i := Info{Cores: []Core{{Table: "KV", Path: PointLookup}, {Table: "U"}}, Joins: []JoinAlgo{HashJoin, NestedLoop}}
	if got, want := i.String(), "cores KV:point-lookup U:full-scan; joins hash nested-loop"; got != want {
		t.Errorf("Info.String() = %q, want %q", got, want)
	}
}
