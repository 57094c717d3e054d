package fault

import (
	"testing"
	"testing/quick"

	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/types"
)

func fpOf(t *testing.T, sql string) ast.Fingerprint {
	t.Helper()
	st, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return ast.FingerprintOf(st)
}

func TestTriggerMatching(t *testing.T) {
	fp := fpOf(t, "SELECT A, AVG(B) AS M FROM T1 GROUP BY A")
	cases := []struct {
		trig Trigger
		want bool
	}{
		{Trigger{}, true},
		{Trigger{Table: "T1"}, true},
		{Trigger{Table: "t1"}, true}, // table matching is case-insensitive
		{Trigger{Table: "T2"}, false},
		{Trigger{Flag: ast.FlagSelect}, true},
		{Trigger{Flag: ast.FlagInsert}, false},
		{Trigger{Table: "T1", Flag: ast.FlagGroupBy}, true},
		{Trigger{Func: "AVG"}, true},
		{Trigger{Func: "SUM"}, false},
		{Trigger{UnderStressOnly: true}, false},
	}
	matches := func(trig Trigger, stress bool) bool {
		return NewRegistry(dialect.PG, []Fault{{Server: dialect.PG, Trigger: trig}}).Match(fp, stress) != nil
	}
	for i, tc := range cases {
		if got := matches(tc.trig, false); got != tc.want {
			t.Errorf("case %d: %+v = %v want %v", i, tc.trig, got, tc.want)
		}
	}
	if !matches(Trigger{UnderStressOnly: true}, true) {
		t.Error("stress-only trigger must match under stress")
	}
}

func TestRegistryFiltersByServer(t *testing.T) {
	all := []Fault{
		{BugID: "a", Server: dialect.IB, Trigger: Trigger{Table: "t"}},
		{BugID: "b", Server: dialect.PG, Trigger: Trigger{Table: "t"}},
		{BugID: "c", Server: dialect.IB, Trigger: Trigger{Table: "u"}},
	}
	r := NewRegistry(dialect.IB, all)
	if r.Len() != 2 {
		t.Fatalf("registry has %d faults", r.Len())
	}
	fp := fpOf(t, "SELECT X FROM U")
	f := r.Match(fp, false)
	if f == nil || f.BugID != "c" {
		t.Errorf("match: %+v", f)
	}
}

func rowsResult(vals ...types.Value) *engine.Result {
	res := &engine.Result{Kind: engine.ResultRows, Columns: []string{"A", "B"}}
	for i := 0; i+1 < len(vals); i += 2 {
		res.Rows = append(res.Rows, []types.Value{vals[i], vals[i+1]})
	}
	return res
}

func TestMutationsChangeResults(t *testing.T) {
	base := rowsResult(
		types.NewInt(1), types.NewString("x"),
		types.NewInt(2), types.NewString("y"),
	)
	muts := []Mutation{
		MutDropLastRow, MutDupFirstRow, MutNegateInts, MutNullCell,
		MutOffByOne, MutBlankColumns, MutEmptyResult, MutScaleFloats,
	}
	for _, m := range muts {
		out := Apply(m, base)
		if out == base {
			t.Errorf("%s returned the original", m)
		}
		same := len(out.Rows) == len(base.Rows) && out.Columns[0] == base.Columns[0]
		if same {
			diff := false
			for i := range out.Rows {
				for j := range out.Rows[i] {
					if !types.Identical(out.Rows[i][j], base.Rows[i][j]) {
						diff = true
					}
				}
			}
			if !diff {
				t.Errorf("%s did not change the result", m)
			}
		}
	}
}

func TestApplyNeverMutatesOriginal(t *testing.T) {
	base := rowsResult(types.NewInt(5), types.NewFloat(2.5))
	snapshot := base.Clone()
	for _, m := range []Mutation{MutNegateInts, MutNullCell, MutOffByOne, MutScaleFloats, MutBlankColumns} {
		_ = Apply(m, base)
	}
	if base.Rows[0][0].I != snapshot.Rows[0][0].I || base.Columns[0] != snapshot.Columns[0] {
		t.Error("Apply mutated its input")
	}
}

func TestApplySkipsNonRowResults(t *testing.T) {
	ddl := &engine.Result{Kind: engine.ResultDDL}
	if out := Apply(MutDropLastRow, ddl); out != ddl {
		t.Error("DDL results must pass through")
	}
	if out := Apply(MutNone, rowsResult(types.NewInt(1), types.NewInt(2))); out.Kind != engine.ResultRows {
		t.Error("MutNone must pass through")
	}
}

func TestMutationsOnEmptyResults(t *testing.T) {
	empty := &engine.Result{Kind: engine.ResultRows, Columns: []string{"A"}}
	for _, m := range []Mutation{MutDropLastRow, MutDupFirstRow, MutNegateInts, MutNullCell, MutOffByOne, MutEmptyResult} {
		out := Apply(m, empty)
		if out == nil {
			t.Errorf("%s returned nil on empty result", m)
		}
	}
}

// Property: mutations are deterministic.
func TestMutationDeterminism(t *testing.T) {
	f := func(a, b int64) bool {
		r1 := Apply(MutOffByOne, rowsResult(types.NewInt(a), types.NewInt(b)))
		r2 := Apply(MutOffByOne, rowsResult(types.NewInt(a), types.NewInt(b)))
		return types.Identical(r1.Rows[0][0], r2.Rows[0][0]) &&
			types.Identical(r1.Rows[0][1], r2.Rows[0][1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
