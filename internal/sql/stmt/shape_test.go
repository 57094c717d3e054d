package stmt_test

import (
	"fmt"
	"slices"
	"testing"

	"divsql/internal/engine"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

func mustResolve(t *testing.T, sql string) *stmt.Parsed {
	t.Helper()
	p, err := stmt.Resolve(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return p
}

// Texts that differ only in lifted literal values share one shape; a
// literal anywhere else, a lifted literal's kind, or any other difference
// of the tree makes another shape.
func TestShapesShareOnlyLiftedLiterals(t *testing.T) {
	for _, tc := range []struct {
		a, b  string
		share bool
	}{
		{"SELECT A FROM SH1 WHERE B = 1 AND C IN (2, 3)", "SELECT A FROM SH1 WHERE B = 7 AND C IN (8, 9) -- comment", true},
		{"SELECT X.A FROM SH1 X INNER JOIN SH2 Y ON X.A = Y.A AND Y.B > 1 WHERE X.C LIKE 'p%'",
			"SELECT X.A FROM SH1 X INNER JOIN SH2 Y ON X.A = Y.A AND Y.B > 5 WHERE X.C LIKE 'q%'", true},
		{"SELECT A FROM SH1 WHERE EXISTS (SELECT 1 FROM SH2 WHERE SH2.B = 4)",
			"SELECT A FROM SH1 WHERE EXISTS (SELECT 1 FROM SH2 WHERE SH2.B = 5)", true},
		{"UPDATE SH1 SET A = 1, C = 'x' WHERE B BETWEEN 2 AND 3", "UPDATE SH1 SET A = 4, C = 'y' WHERE B BETWEEN 5 AND 6", true},
		{"DELETE FROM SH1 WHERE B = -1", "DELETE FROM SH1 WHERE B = -2", true},
		// Not lifted: the select list (a subquery in it too), a function's
		// arguments, GROUP BY, HAVING, ORDER BY.
		{"SELECT A, 1 FROM SH1 WHERE B = 1", "SELECT A, 2 FROM SH1 WHERE B = 1", false},
		{"SELECT (SELECT B FROM SH2 WHERE A = 1) FROM SH1", "SELECT (SELECT B FROM SH2 WHERE A = 2) FROM SH1", false},
		{"SELECT A FROM SH1 WHERE ABS(B) = 1", "SELECT A FROM SH1 WHERE ABS(B - 1) = 1", false},
		{"SELECT A FROM SH1 WHERE B = ABS(1)", "SELECT A FROM SH1 WHERE B = ABS(2)", false},
		{"SELECT A, COUNT(*) FROM SH1 GROUP BY A HAVING COUNT(*) > 1", "SELECT A, COUNT(*) FROM SH1 GROUP BY A HAVING COUNT(*) > 2", false},
		{"SELECT A, B FROM SH1 ORDER BY 1", "SELECT A, B FROM SH1 ORDER BY 2", false},
		// A lifted literal's kind.
		{"SELECT A FROM SH1 WHERE B = 1", "SELECT A FROM SH1 WHERE B = '1'", false},
		{"SELECT A FROM SH1 WHERE B = 1", "SELECT A FROM SH1 WHERE B = NULL", false},
		// Everything else.
		{"SELECT A FROM SH1 WHERE B = 1", "SELECT A FROM SH1 WHERE C = 1", false},
		{"SELECT A FROM SH1 WHERE B = 1", "SELECT A FROM SH1 WHERE B <> 1", false},
		{"SELECT A FROM SH1 WHERE B = 1", "SELECT A FROM SH1 WHERE B = $1", false},
		{"SELECT A FROM SH1 WHERE B IN (1, 2)", "SELECT A FROM SH1 WHERE B IN (1, 2, 3)", false},
	} {
		a, b := mustResolve(t, tc.a), mustResolve(t, tc.b)
		if a.Shape == nil || b.Shape == nil {
			t.Fatalf("%q / %q: no shape", tc.a, tc.b)
		}
		if (a.Shape == b.Shape) != tc.share {
			t.Errorf("%q and %q: shared shape %v, want %v", tc.a, tc.b, a.Shape == b.Shape, tc.share)
		}
	}

	p := mustResolve(t, "UPDATE SH1 SET A = 5, C = SUBSTR('abc', 1, 2) WHERE B = 6 OR B IN (7, 8) OR B > ABS(9)")
	var got []string
	for _, l := range p.Lits {
		got = append(got, l.Val.String())
	}
	if want := []string{"5", "6", "7", "8"}; !slices.Equal(got, want) {
		t.Errorf("lifted literals %v, want %v", got, want)
	}
	for _, sql := range []string{"INSERT INTO SH1 VALUES (1, 2, 'x')", "CREATE TABLE SH3 (A INT DEFAULT 1)", "COMMIT"} {
		if p := mustResolve(t, sql); p.Shape != nil || p.Lits != nil {
			t.Errorf("%q has a shape", sql)
		}
	}
}

// Two trees that render alike once their literals are masked — the
// parentheses that tell them apart are not rendered — are different
// shapes, and each statement returns its own answer on an engine that
// ran the other first.
func TestShapeKeyIsStructural(t *testing.T) {
	setup := []string{
		"CREATE TABLE SK (A VARCHAR(8), B INT)",
		"INSERT INTO SK VALUES ('TRUE', 1), ('FALSE', 1), ('1', 1), ('0', 0), ('TRUE', 5), ('x', NULL)",
	}
	likeFirst := mustResolve(t, "SELECT A, B FROM SK WHERE A LIKE (B BETWEEN 1 AND 2)")
	betweenFirst := mustResolve(t, "SELECT A, B FROM SK WHERE (A LIKE B) BETWEEN 0 AND 1")
	if likeFirst.Shape == betweenFirst.Shape {
		t.Fatalf("%q and %q share a shape", likeFirst.Text, betweenFirst.Text)
	}
	open := func() *engine.Session {
		s := engine.NewOracle().NewSession()
		for _, sql := range setup {
			if _, err := s.Exec(mustResolve(t, sql), nil); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		return s
	}
	answer := func(s *engine.Session, p *stmt.Parsed) string {
		res, err := s.Exec(p, nil)
		return fmt.Sprint(res, err)
	}
	wantLike, wantBetween := answer(open(), likeFirst), answer(open(), betweenFirst)
	if wantLike == wantBetween {
		t.Fatalf("the two statements answer alike (%s): the test cannot tell their plans apart", wantLike)
	}
	s := open()
	if got := answer(s, likeFirst); got != wantLike {
		t.Errorf("%q: %s, want %s", likeFirst.Text, got, wantLike)
	}
	if got := answer(s, betweenFirst); got != wantBetween {
		t.Errorf("%q after %q: %s, want %s", betweenFirst.Text, likeFirst.Text, got, wantBetween)
	}
}

// A rewrite of a handle's tree gets its own shape and its own lifted
// literals, so an engine that memoised the original's plan runs the
// rewrite's.
func TestRewrittenHasItsOwnShape(t *testing.T) {
	p := mustResolve(t, "SELECT A FROM RW WHERE B > 1")
	rw := mustResolve(t, "SELECT A FROM RW WHERE NOT (B > 2)").AST
	q := p.Rewritten(rw)
	if q.AST != rw || q.Select != rw || q.Text != p.Text || q.Shape == p.Shape || len(q.Lits) != 1 || q.Lits[0].Val.I != 2 {
		t.Errorf("Rewritten = %+v", q)
	}
	if p.Rewritten(p.AST).Shape != p.Shape {
		t.Error("the original's tree, rewritten, has another shape")
	}
}

// A rewrite may hold one literal node in two lifted positions. A plan
// finds a lifted literal's slot by its node, so such a rewrite is its own
// shape and lifts nothing: shared, its plan would read both positions
// from the first slot for every text of the same form run after it.
func TestRewriteLiftingOneLiteralTwice(t *testing.T) {
	s := engine.NewOracle().NewSession()
	run := func(p *stmt.Parsed) string {
		res, err := s.Exec(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", ast.Render(p.AST), err)
		}
		return fmt.Sprint(res.Rows)
	}
	run(mustResolve(t, "CREATE TABLE ZQ (A INT, B INT)"))
	run(mustResolve(t, "INSERT INTO ZQ VALUES (1, 0), (2, 7)"))
	p := mustResolve(t, "SELECT A FROM ZQ WHERE A = 1")
	one := &ast.Literal{Val: types.NewInt(1)}
	rw := *p.Select
	rw.Where = &ast.Binary{Op: ast.OpOr,
		L: &ast.Binary{Op: ast.OpEq, L: &ast.ColumnRef{Column: "A"}, R: one},
		R: &ast.Binary{Op: ast.OpEq, L: &ast.ColumnRef{Column: "B"}, R: one}}
	q := p.Rewritten(&rw)
	if q.Shape != q.AST || q.Lits != nil {
		t.Errorf("the rewrite lifts %d literals into a shared shape", len(q.Lits))
	}
	if got := run(q); got != "[[1]]" {
		t.Errorf("rewrite: %s, want [[1]]", got)
	}
	if got := run(mustResolve(t, "SELECT A FROM ZQ WHERE ((A = 1) OR (B = 7))")); got != "[[1] [2]]" {
		t.Errorf("text of the rewrite's form: %s, want [[1] [2]]", got)
	}
}
