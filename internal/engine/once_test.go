package engine

import (
	"reflect"
	"testing"

	"divsql/internal/engine/plan"
)

// seedOnce creates the once-rule fixture: an outer table O, two small
// tables X and Y whose join is {2, 3}, a view over X, a sequence, and a
// view that advances it.
func seedOnce(t testing.TB, s *Session) {
	t.Helper()
	for _, sql := range []string{
		"CREATE TABLE O (A INT, K INT)",
		"INSERT INTO O VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)",
		"CREATE TABLE X (K INT, V INT)",
		"INSERT INTO X VALUES (1, 10), (2, 2), (3, 3)",
		"CREATE TABLE Y (K INT)",
		"INSERT INTO Y VALUES (2), (3), (9)",
		"CREATE TABLE Z (K INT)",
		"CREATE TABLE W (K INT)",
		"INSERT INTO W VALUES (1), (2), (3), (4), (5)",
		"CREATE VIEW VX AS SELECT K FROM X",
		"CREATE SEQUENCE SQ START WITH 100",
		"CREATE VIEW VS AS SELECT NEXTVAL(SQ) AS N",
	} {
		sessExec(t, s, sql)
	}
}

// joinRuns counts the joins with an ON the engine has executed, by
// either algorithm.
func joinRuns(e *Engine) uint64 {
	return e.joinExecs[plan.HashJoin].Load() + e.joinExecs[plan.NestedLoop].Load()
}

// An uncorrelated IN, EXISTS or scalar subquery runs once per execution
// of a pure SELECT — its join is counted once — and once per outer row
// under ForceFullScan, in UPDATE and DELETE and in an INSERT's source,
// with the same answer.
func TestUncorrelatedSubqueryRunsOnce(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedOnce(t, s)
	const join = "SELECT X.K FROM X INNER JOIN Y ON X.K = Y.K"
	for _, tc := range []struct {
		sql    string
		rows   []string
		perRow uint64 // the rows it is evaluated on
	}{
		{"SELECT A FROM O WHERE A IN (" + join + ")", []string{"2", "3"}, 5},
		{"SELECT A FROM O WHERE A NOT IN (" + join + ")", []string{"1", "4", "5"}, 5},
		{"SELECT A FROM O WHERE EXISTS (" + join + ")", []string{"1", "2", "3", "4", "5"}, 5},
		{"SELECT A FROM O WHERE A > (SELECT MAX(X.K) FROM X INNER JOIN Y ON X.K = Y.K)", []string{"4", "5"}, 5},
		{"SELECT A, (SELECT MIN(X.K) FROM X INNER JOIN Y ON X.K = Y.K) AS M FROM O WHERE A < 3", []string{"1|2", "2|2"}, 2},
	} {
		p := resolve(t, tc.sql)
		for _, v := range []struct {
			force plan.Force
			runs  uint64
		}{{plan.ForceAuto, 1}, {plan.ForceFullScan, tc.perRow}} {
			before := joinRuns(e)
			res, err := s.ExecSelectVariant(p, v.force, nil)
			if err != nil {
				t.Fatalf("%q (%v): %v", tc.sql, v.force, err)
			}
			if got := rowStrings(res); !reflect.DeepEqual(got, tc.rows) {
				t.Errorf("%q (%v): got %q, want %q", tc.sql, v.force, got, tc.rows)
			}
			if n := joinRuns(e) - before; n != v.runs {
				t.Errorf("%q (%v): the subquery ran %d times, want %d", tc.sql, v.force, n, v.runs)
			}
		}
	}

	// A subquery's error is the statement's, once or per row.
	p := resolve(t, "SELECT A FROM O WHERE A IN (SELECT 1 / (X.K - X.K) FROM X INNER JOIN Y ON X.K = Y.K)")
	for _, force := range []plan.Force{plan.ForceAuto, plan.ForceFullScan} {
		if _, err := s.ExecSelectVariant(p, force, nil); err == nil || err.Error() != ErrDivideByZero.Error() {
			t.Errorf("%v: error %v, want %v", force, err, ErrDivideByZero)
		}
	}

	// DML and an INSERT's source evaluate it per row.
	for _, tc := range []struct {
		sql      string
		affected int64
	}{
		{"UPDATE O SET K = K WHERE A IN (" + join + ")", 2},
		{"DELETE FROM O WHERE A IN (" + join + ") AND A < 0", 0},
		{"INSERT INTO Z SELECT A FROM O WHERE A IN (" + join + ")", 2},
	} {
		before := joinRuns(e)
		if res := sessExec(t, s, tc.sql); res.Affected != tc.affected {
			t.Errorf("%q: %d rows affected, want %d", tc.sql, res.Affected, tc.affected)
		}
		if n := joinRuns(e) - before; n != 5 {
			t.Errorf("%q: the subquery ran %d times, want 5 (once per row)", tc.sql, n)
		}
	}

	// Once is per execution: the next one sees what changed since.
	sessExec(t, s, "INSERT INTO Y VALUES (1)")
	if got := rowStrings(sessExec(t, s, "SELECT A FROM O WHERE A IN ("+join+")")); !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Errorf("after an INSERT into the subquery's table: got %q, want [1 2 3]", got)
	}

	// A later row's subquery sees the rows the statement replaced before
	// it: each row passes against a maximum its predecessors raised.
	if res := sessExec(t, s, "UPDATE W SET K = K + 10 WHERE K < (SELECT MAX(K) FROM W)"); res.Affected != 5 {
		t.Errorf("UPDATE read a stale subquery: %d rows affected, want 5", res.Affected)
	}
}

// nestedSelects lists the selects nested in a plan — derived tables, view
// bodies, subqueries — each before those inside it, sources before WHERE
// before the projection.
func nestedSelects(cs *compiledSelect) []*compiledSelect {
	var out []*compiledSelect
	var query func(*compiledSelect)
	var expr func(rexpr)
	nested := func(sub *compiledSelect) {
		out = append(out, sub)
		query(sub)
	}
	query = func(cs *compiledSelect) {
		for i := range cs.cores {
			c := &cs.cores[i]
			for j := range c.from {
				if c.from[j].sub != nil {
					nested(c.from[j].sub)
				}
				expr(c.from[j].on)
			}
			expr(c.where)
			for _, x := range c.projs {
				expr(x)
			}
		}
	}
	expr = func(x rexpr) {
		switch n := x.(type) {
		case *binX:
			expr(n.l)
			expr(n.r)
		case *unX:
			expr(n.x)
		case *funcX:
			for _, a := range n.args {
				expr(a)
			}
		case *inX:
			expr(n.x)
			if n.sub != nil {
				nested(n.sub)
			}
		case *selectX:
			nested(n.sub)
		}
	}
	query(cs)
	return out
}

// A nested select is correlated when a reference inside it, at any
// depth, resolves to a scope outside it, or when it calls a sequence
// function — directly or through a view. A correlated one answers per
// outer row, normally and forced alike.
func TestCorrelatedBit(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedOnce(t, s)
	for _, tc := range []struct {
		name       string
		sql        string
		correlated []bool // nestedSelects' order
		rows       []string
	}{
		{"an unqualified column the subquery's FROM lacks resolves outward",
			"SELECT A FROM O WHERE EXISTS (SELECT 1 FROM X WHERE V = A)", []bool{true}, []string{"2", "3"}},
		{"a column both scopes have resolves inside",
			"SELECT A FROM O WHERE EXISTS (SELECT 1 FROM X WHERE K = 1)", []bool{false}, []string{"1", "2", "3", "4", "5"}},
		{"a sub-subquery references the outermost scope",
			"SELECT A FROM O WHERE EXISTS (SELECT 1 FROM X WHERE EXISTS (SELECT 1 FROM Y WHERE Y.K = O.A))",
			[]bool{true, true}, []string{"2", "3"}},
		{"an uncorrelated sub-subquery inside a correlated subquery",
			"SELECT A FROM O WHERE EXISTS (SELECT 1 FROM X WHERE X.K = O.A AND X.K IN (SELECT K FROM Y))",
			[]bool{true, false}, []string{"2", "3"}},
		{"a view body inside an uncorrelated subquery",
			"SELECT A FROM O WHERE A IN (SELECT K FROM VX)", []bool{false, false}, []string{"1", "2", "3"}},
		{"a view body inside a correlated subquery sees no enclosing scope",
			"SELECT A FROM O WHERE EXISTS (SELECT 1 FROM VX WHERE VX.K = O.A)", []bool{true, false}, []string{"1", "2", "3"}},
		{"a derived table reading the enclosing query",
			"SELECT A FROM O WHERE EXISTS (SELECT 1 FROM (SELECT K FROM X WHERE X.V = O.A) D)",
			[]bool{true, true}, []string{"2", "3"}},
		{"NEXTVAL inside a subquery",
			"SELECT A FROM O WHERE A < (SELECT NEXTVAL(SQ) FROM Y WHERE Y.K = 2)", []bool{true}, nil},
		{"NEXTVAL in a view body inside a subquery",
			"SELECT A FROM O WHERE A < (SELECT N FROM VS)", []bool{true, true}, nil},
	} {
		p := resolve(t, tc.sql)
		e.mu.RLock()
		cs, err := s.compileSelect(p.Select, nil, false)
		e.mu.RUnlock()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		nested := nestedSelects(cs)
		var got []bool
		for _, cs := range nested {
			got = append(got, cs.correlated)
			if (cs.once >= 0) == cs.correlated {
				t.Errorf("%s: once slot %d on a select correlated=%v", tc.name, cs.once, cs.correlated)
			}
		}
		if !reflect.DeepEqual(got, tc.correlated) {
			t.Errorf("%s: correlated bits %v, want %v", tc.name, got, tc.correlated)
		}
		if tc.rows == nil {
			continue
		}
		for _, force := range []plan.Force{plan.ForceAuto, plan.ForceFullScan} {
			res, err := s.ExecSelectVariant(p, force, nil)
			if err != nil {
				t.Fatalf("%s (%v): %v", tc.name, force, err)
			}
			if rows := rowStrings(res); !reflect.DeepEqual(rows, tc.rows) {
				t.Errorf("%s (%v): got %q, want %q", tc.name, force, rows, tc.rows)
			}
		}
	}

	// A subquery that advances a sequence advances it once per outer row.
	// CREATE VIEW VS ran its definition once (101 is next); 5 rows later
	// the next value is 106.
	sessExec(t, s, "SELECT A FROM O WHERE A < (SELECT NEXTVAL(SQ) FROM Y WHERE Y.K = 2)")
	if got := rowStrings(sessExec(t, s, "SELECT NEXTVAL(SQ) AS N")); !reflect.DeepEqual(got, []string{"106"}) {
		t.Errorf("after a 5-row SELECT, NEXTVAL = %q, want 106", got)
	}
}
