package engine

import (
	"errors"
	"testing"

	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

func TestExecBindRoundTrip(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT, S VARCHAR(10))")
	s := sessionOf(e)
	if _, err := s.Exec(resolve(t, "INSERT INTO T VALUES ($1, $2)"), []types.Value{types.NewInt(7), types.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(resolve(t, "SELECT S FROM T WHERE A = ?"), []types.Value{types.NewInt(7)})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "x" {
		t.Fatalf("bound select: %+v %v", res, err)
	}
}

// The argument count is checked on the handle, by whoever binds
// (stmt.Parsed.CheckArgs); executed short anyway, a statement fails at
// the first placeholder it evaluates with no value bound.
func TestExecBindCountMismatch(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT)")
	p := resolve(t, "INSERT INTO T VALUES ($1)")
	for _, n := range []int{0, 2} {
		if err := p.CheckArgs(n); !errors.Is(err, stmt.ErrBind) {
			t.Errorf("%d args for 1 placeholder: %v", n, err)
		}
	}
	if _, err := sessionOf(e).Exec(p, nil); !errors.Is(err, stmt.ErrBind) {
		t.Errorf("missing arg: %v", err)
	}
}

func TestParamsRejectedInDDL(t *testing.T) {
	if err := resolve(t, "CREATE TABLE T (A INT DEFAULT $1)").BindErr; !errors.Is(err, stmt.ErrBind) {
		t.Errorf("param in DDL must be a bind error, got %v", err)
	}
}

func TestUnboundParamErrorsAtEval(t *testing.T) {
	// The ad-hoc Exec path carries no arguments: evaluating a Param must
	// fail with a bind error rather than panic or yield NULL.
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT)")
	mustExec(t, e, "INSERT INTO T VALUES (1)")
	if _, err := sessionOf(e).Exec(resolve(t, "SELECT A FROM T WHERE A = $1"), nil); !errors.Is(err, stmt.ErrBind) {
		t.Errorf("unbound param: %v", err)
	}
}

func TestBindRulesApply(t *testing.T) {
	args := func(vs ...types.Value) []types.Value { return vs }
	cases := []struct {
		name  string
		rules BindRules
		in    types.Value
		want  string // Value.String() of the coerced argument
	}{
		{"oracle-empty-string-null", BindRules{EmptyStringAsNull: true}, types.NewString(""), "NULL"},
		{"oracle-nonempty-kept", BindRules{EmptyStringAsNull: true}, types.NewString("a"), "a"},
		{"ib-numeric-string-int", BindRules{NumericStringsAsNumbers: true}, types.NewString("42"), "42"},
		{"ib-numeric-string-float", BindRules{NumericStringsAsNumbers: true}, types.NewString("1.5"), "1.5"},
		{"ib-word-kept", BindRules{NumericStringsAsNumbers: true}, types.NewString("a1"), "a1"},
		{"pg-trailing-trim", BindRules{TrimTrailingSpaces: true}, types.NewString("a  "), "a"},
		{"ms-bool-int-true", BindRules{BoolAsInt: true}, types.NewBool(true), "1"},
		{"ms-bool-int-false", BindRules{BoolAsInt: true}, types.NewBool(false), "0"},
	}
	for _, tc := range cases {
		out := tc.rules.Apply(args(tc.in))
		if got := out[0].String(); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// Kind checks where String() is ambiguous.
	if out := (BindRules{NumericStringsAsNumbers: true}).Apply(args(types.NewString("42"))); out[0].K != types.KindInt {
		t.Errorf("numeric string must re-type to INT, got kind %v", out[0].K)
	}
	if out := (BindRules{BoolAsInt: true}).Apply(args(types.NewBool(true))); out[0].K != types.KindInt {
		t.Errorf("bool must re-type to INT, got kind %v", out[0].K)
	}
}

func TestBindRulesApplyDoesNotMutateInput(t *testing.T) {
	in := []types.Value{types.NewString(""), types.NewInt(1)}
	out := BindRules{EmptyStringAsNull: true}.Apply(in)
	if in[0].K != types.KindString {
		t.Error("caller's vector mutated")
	}
	if !out[0].IsNull() || out[1].I != 1 {
		t.Errorf("coerced vector wrong: %v", out)
	}
	// Identity rules return the input slice itself (no allocation).
	same := BindRules{}.Apply(in)
	if &same[0] != &in[0] {
		t.Error("zero rules must pass the vector through")
	}
}
