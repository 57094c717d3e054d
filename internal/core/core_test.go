package core

import (
	"errors"
	"testing"
	"testing/quick"

	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

func rows(cols []string, cells ...[]types.Value) *engine.Result {
	return &engine.Result{Kind: engine.ResultRows, Columns: cols, Rows: cells}
}

func TestCompareIgnoresRowOrderByDefault(t *testing.T) {
	a := rows([]string{"A"}, []types.Value{types.NewInt(1)}, []types.Value{types.NewInt(2)})
	b := rows([]string{"A"}, []types.Value{types.NewInt(2)}, []types.Value{types.NewInt(1)})
	opts := DefaultCompareOptions()
	if !Equal(a, b, opts) {
		t.Error("multiset comparison must ignore order")
	}
	opts.OrderSensitive = true
	if Equal(a, b, opts) {
		t.Error("order-sensitive comparison must detect order")
	}
}

func TestCompareFloatRepresentationTolerance(t *testing.T) {
	// The paper: "different numbers of digits in the representation of
	// floating point numbers" must compare equal. (x and y are runtime
	// values so the sum is computed at run time, not a folded constant.)
	x, y := 0.1, 0.2
	a := rows([]string{"X"}, []types.Value{types.NewFloat(x + y)})
	b := rows([]string{"X"}, []types.Value{types.NewFloat(0.3)})
	if !Equal(a, b, DefaultCompareOptions()) {
		t.Error("0.1+0.2 vs 0.3 must be equal under 9-significant-digit comparison")
	}
	if Equal(a, b, StrictCompareOptions()) {
		t.Error("strict comparison must distinguish them")
	}
}

func TestCompareIntFloatEquivalence(t *testing.T) {
	a := rows([]string{"X"}, []types.Value{types.NewInt(3)})
	b := rows([]string{"X"}, []types.Value{types.NewFloat(3.0)})
	if !Equal(a, b, DefaultCompareOptions()) {
		t.Error("3 vs 3.0 must be equal")
	}
}

func TestCompareCharPadding(t *testing.T) {
	// "padding of characters in character strings".
	a := rows([]string{"S"}, []types.Value{types.NewString("abc   ")})
	b := rows([]string{"S"}, []types.Value{types.NewString("abc")})
	if !Equal(a, b, DefaultCompareOptions()) {
		t.Error("trailing padding must be ignored")
	}
	if Equal(a, b, StrictCompareOptions()) {
		t.Error("strict comparison must see the padding")
	}
}

func TestCompareColumnNames(t *testing.T) {
	a := rows([]string{"AVG(A)"}, []types.Value{types.NewInt(3)})
	b := rows([]string{""}, []types.Value{types.NewInt(3)})
	if Equal(a, b, DefaultCompareOptions()) {
		t.Error("blank column names (bug 222476) must be detected")
	}
	opts := DefaultCompareOptions()
	opts.CompareColumnNames = false
	if !Equal(a, b, opts) {
		t.Error("names must be ignorable on demand")
	}
}

func TestCompareNullVsValue(t *testing.T) {
	a := rows([]string{"X"}, []types.Value{types.Null()})
	b := rows([]string{"X"}, []types.Value{types.NewInt(0)})
	if Equal(a, b, DefaultCompareOptions()) {
		t.Error("NULL vs 0 must differ")
	}
}

func TestCompareAffectedCounts(t *testing.T) {
	a := &engine.Result{Kind: engine.ResultCount, Affected: 2}
	b := &engine.Result{Kind: engine.ResultCount, Affected: 3}
	if Equal(a, b, DefaultCompareOptions()) {
		t.Error("affected counts must differ")
	}
}

func TestDiffMessages(t *testing.T) {
	opts := DefaultCompareOptions()
	a := rows([]string{"A"}, []types.Value{types.NewInt(1)})
	if d := Diff(a, a.Clone(), opts); d != "" {
		t.Errorf("diff of equal results: %q", d)
	}
	b := rows([]string{"A"})
	if d := Diff(a, b, opts); d == "" {
		t.Error("row count difference not reported")
	}
}

// Property: Digest equality is reflexive and symmetric, and normalization
// is idempotent (digest of a result equals digest of its clone).
func TestDigestProperties(t *testing.T) {
	f := func(x int64, s string, o bool) bool {
		opts := DefaultCompareOptions()
		opts.OrderSensitive = o
		r := rows([]string{"A", "B"}, []types.Value{types.NewInt(x), types.NewString(s)})
		return Equal(r, r, opts) && Equal(r, r.Clone(), opts) &&
			Equal(r.Clone(), r, opts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjudicateUnanimous(t *testing.T) {
	r := rows([]string{"A"}, []types.Value{types.NewInt(1)})
	v := Adjudicate([]ReplicaResult{
		{Name: "a", Res: r},
		{Name: "b", Res: r.Clone()},
		{Name: "c", Res: r.Clone()},
	}, DefaultCompareOptions())
	if !v.Unanimous || !v.Majority || len(v.Outliers) != 0 {
		t.Errorf("verdict: %+v", v)
	}
}

func TestAdjudicateMajorityMasksOutlier(t *testing.T) {
	good := rows([]string{"A"}, []types.Value{types.NewInt(1)})
	bad := rows([]string{"A"}, []types.Value{types.NewInt(99)})
	v := Adjudicate([]ReplicaResult{
		{Name: "a", Res: good},
		{Name: "b", Res: bad},
		{Name: "c", Res: good.Clone()},
	}, DefaultCompareOptions())
	if !v.Majority || v.Unanimous {
		t.Errorf("verdict: %+v", v)
	}
	if len(v.Outliers) != 1 || v.Outliers[0] != 1 {
		t.Errorf("outliers: %v", v.Outliers)
	}
	if v.Agreed.Rows[0][0].I != 1 {
		t.Errorf("agreed on wrong value: %v", v.Agreed.Rows[0][0])
	}
}

func TestAdjudicatePairSplit(t *testing.T) {
	a := rows([]string{"A"}, []types.Value{types.NewInt(1)})
	b := rows([]string{"A"}, []types.Value{types.NewInt(2)})
	v := Adjudicate([]ReplicaResult{
		{Name: "x", Res: a},
		{Name: "y", Res: b},
	}, DefaultCompareOptions())
	if !v.Split || v.Majority {
		t.Errorf("pair split verdict: %+v", v)
	}
}

func TestAdjudicateErrorsAndCrashes(t *testing.T) {
	good := rows([]string{"A"}, []types.Value{types.NewInt(1)})
	v := Adjudicate([]ReplicaResult{
		{Name: "a", Res: good},
		{Name: "b", Err: errors.New("boom")},
		{Name: "c", Crashed: true, Err: errors.New("crash")},
	}, DefaultCompareOptions())
	if len(v.Errored) != 1 || len(v.CrashedIdx) != 1 {
		t.Errorf("verdict: %+v", v)
	}
	if v.Agreed == nil || v.Agreed.Rows[0][0].I != 1 {
		t.Error("survivor's result must be agreed")
	}
	// All failed.
	v = Adjudicate([]ReplicaResult{
		{Name: "a", Err: errors.New("x")},
		{Name: "b", Crashed: true},
	}, DefaultCompareOptions())
	if v.Agreed != nil {
		t.Error("no agreement possible")
	}
}

func TestAdjudicateDeterministicTieBreak(t *testing.T) {
	a := rows([]string{"A"}, []types.Value{types.NewInt(1)})
	b := rows([]string{"A"}, []types.Value{types.NewInt(2)})
	for i := 0; i < 10; i++ {
		v := Adjudicate([]ReplicaResult{{Name: "x", Res: a}, {Name: "y", Res: b}}, DefaultCompareOptions())
		if v.AgreeIdx[0] != 0 {
			t.Fatal("tie break must prefer the lowest replica index")
		}
	}
}

func TestClassificationStrings(t *testing.T) {
	for _, ft := range []FailureType{FailureNone, EngineCrash, IncorrectResult, Performance, OtherFailure} {
		if ft.String() == "unknown" {
			t.Errorf("missing name for %d", ft)
		}
	}
	for _, st := range []RunStatus{StatusCannotRun, StatusFurtherWork, StatusNoFailure, StatusFailure} {
		if st.String() == "unknown" {
			t.Errorf("missing name for %d", st)
		}
	}
	c := Classification{Status: StatusFailure}
	if !c.IsFailure() {
		t.Error("IsFailure")
	}
}
