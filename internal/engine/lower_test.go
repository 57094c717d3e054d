package engine

import (
	"fmt"
	"reflect"
	"testing"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// evalContextCases pin how an expression evaluates where it sits: the
// items and HAVING of a grouped core, where aggregates read the group
// and everything else its first row, and the scope chain a reference
// resolves through. Rows are rendered cell|cell, in result order; err is
// the whole error text when the statement must fail. They run in order
// on one session over seedShapes and seedJoin (the sequence cases
// advance SQ).
var evalContextCases = []struct {
	sql  string
	rows []string
	err  string
}{
	// Grouped AND/OR evaluate both operands; the same predicate in WHERE
	// short-circuits.
	{sql: "SELECT COUNT(*) AS C FROM KV HAVING COUNT(*) = 0 AND 1/0 > 0", err: "division by zero"},
	{sql: "SELECT COUNT(*) AS C FROM KV HAVING COUNT(*) > 0 OR 1/0 > 0", err: "division by zero"},
	{sql: "SELECT ID FROM KV WHERE ID = 0 AND 1/0 > 0", rows: []string{}},
	{sql: "SELECT ID FROM KV WHERE ID > 0 OR 1/0 > 0", rows: []string{"1", "2", "3", "4"}},
	{sql: "SELECT COUNT(*) > 0 AND 1/0 > 0 AS B FROM KV", err: "division by zero"},
	{sql: "SELECT ID > 1 AND 1/0 > 0 AS B FROM KV WHERE ID = 1", rows: []string{"FALSE"}},
	// Under anything but an operator an aggregate is not the group's.
	{sql: "SELECT CASE WHEN SUM(A) > 0 THEN 1 ELSE 0 END AS C FROM KV", err: "invalid use of aggregate function SUM"},
	{sql: "SELECT COALESCE(SUM(A), 0) AS C FROM KV", err: "invalid use of aggregate function SUM"},
	{sql: "SELECT SUM(A) IS NULL AS C FROM KV", err: "invalid use of aggregate function SUM"},
	{sql: "SELECT ID FROM KV WHERE COUNT(*) > 0", err: "invalid use of aggregate function COUNT"},
	{sql: "SELECT A FROM KV GROUP BY A ORDER BY MAX(SUM(ID))", err: "invalid use of aggregate function SUM"},
	{sql: "SELECT CASE WHEN ID > 1 AND 1/0 > 0 THEN 1 END AS C, COUNT(*) AS N FROM KV WHERE ID = 1", rows: []string{"NULL|1"}},
	{sql: "SELECT SUM(A) + 1 AS C, -SUM(A) AS M, NOT (COUNT(*) > 1) AS B FROM KV", rows: []string{"51|-50|FALSE"}},
	{sql: "SELECT A, SUM(ID) AS T FROM KV GROUP BY A HAVING SUM(ID) * 2 > 4 ORDER BY SUM(ID) DESC", rows: []string{"20|5", "NULL|4"}},
	{sql: "SELECT COUNT(DISTINCT A) AS C, AVG(ID) AS V, MIN(S) AS L, MAX(S) AS H FROM KV", rows: []string{"2|2.5|a|d"}},
	{sql: "SELECT SUM(*) AS C FROM KV", err: "SUM(*) is not valid"},
	// Non-aggregate leaves read the group's first row — or, for a global
	// aggregate over no rows, a row of NULLs.
	{sql: "SELECT A, S, COUNT(*) AS C FROM KV GROUP BY A", rows: []string{"10|a|1", "20|b|2", "NULL|d|1"}},
	{sql: "SELECT S, ID + 1 AS I, COUNT(*) AS C FROM KV WHERE ID > 1", rows: []string{"b|3|3"}},
	{sql: "SELECT ID, ID + 1 AS I, COUNT(*) AS C, MAX(S) AS M FROM KV WHERE ID > 99", rows: []string{"NULL|NULL|0|NULL"}},
	{sql: "SELECT K, COUNT(*) AS C FROM EMPTY", rows: []string{"NULL|0"}},
	// An ambiguous or unknown reference raises before any row is read,
	// the first in evaluation order.
	{sql: "SELECT 1 AS O FROM U A, U B WHERE A.X = 99 AND X = 1", err: "ambiguous column reference X"},
	{sql: "SELECT 1 AS O FROM U A, U B WHERE A.X = 1 AND X = 1", err: "ambiguous column reference X"},
	{sql: "SELECT X, NOPE FROM U A, U B", err: "ambiguous column reference X"},
	{sql: "SELECT X FROM U A, U B WHERE 1 = 0", err: "ambiguous column reference X"},
	// Correlated references resolve outward, two levels up included, and
	// from an aggregate's argument and a subquery's HAVING.
	{sql: "SELECT X FROM U WHERE EXISTS (SELECT 1 FROM KV WHERE KV.ID = 1 AND EXISTS (SELECT 1 FROM OL WHERE OL.N = U.X AND OL.W = KV.ID))", rows: []string{"1", "2"}},
	{sql: "SELECT X, (SELECT SUM(ID + U.X) FROM KV) AS T FROM U WHERE X < 3", rows: []string{"1|14", "2|18"}},
	{sql: "SELECT X FROM U WHERE EXISTS (SELECT A FROM KV GROUP BY A HAVING COUNT(*) = U.X)", rows: []string{"1", "2"}},
	{sql: "SELECT Y, (SELECT COUNT(*) FROM KV WHERE KV.A = U.Y) AS N FROM U ORDER BY X", rows: []string{"20|2", "20|2", "NULL|0", "10|1"}},
	{sql: "SELECT L.V FROM L WHERE EXISTS (SELECT 1 FROM R INNER JOIN F ON R.K = F.K AND R.Z = L.K) ORDER BY 1", rows: []string{"a"}},
	// The first argument of a sequence function names a sequence.
	{sql: "SELECT NEXTVAL(SQ) AS N FROM KV WHERE ID = 1", rows: []string{"1"}},
	{sql: "SELECT NEXTVAL('SQ', 10) AS N FROM KV WHERE ID = 1", rows: []string{"2"}},
	{sql: "SELECT NEXTVAL(SQ) AS N FROM KV WHERE ID = 1", rows: []string{"12"}},
	{sql: "SELECT NEXTVAL(NOSUCHSEQ) AS N FROM KV WHERE ID = 1", err: "table or view not found: sequence NOSUCHSEQ"},
	{sql: "SELECT NEXTVAL(SQ, NOPE) AS N FROM KV WHERE ID = 99", err: "unknown column NOPE"},
	{sql: "SELECT NEXTVAL(SQ, NOPE) AS N FROM KV WHERE ID = 1", err: "unknown column NOPE"},
}

func TestGroupedAndCorrelatedEvaluation(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedShapes(t, s)
	seedJoin(t, s)
	sessExec(t, s, "CREATE SEQUENCE SQ")
	for _, tc := range evalContextCases {
		res, err := gexec(s, tc.sql)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("%q: err = %v, want %q", tc.sql, err, tc.err)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.sql, err)
		case !reflect.DeepEqual(rowStrings(res), tc.rows):
			t.Errorf("%q:\n got %q\nwant %q", tc.sql, rowStrings(res), tc.rows)
		}
	}
}

// What a one-off statement pays, in allocations — the whole of it:
// compile, lower and run. Each case is one that compiles on every
// execution: every SELECT and UPDATE below is a tree the memo has not
// seen, so it files nothing and its plan's structure is the session's
// plan memory, and INSERT has no plan to memoise. The bounds are the
// counts measured on linux/amd64, go1.24, with and without -race: what
// is left is the lowered expression nodes, output names and the
// UPDATE's SET ordinals; literal
// and parameter leaves lower without allocating, and CHECK constraints
// are lowered once per statement.
func TestOneOffStatementAllocs(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE JA (K INT, V INT)")
	sessExec(t, s, "CREATE TABLE JB (K INT, V INT)")
	for i := 1; i <= 16; i++ {
		sessExec(t, s, fmt.Sprintf("INSERT INTO JA VALUES (%d, %d)", i, i%4))
		sessExec(t, s, fmt.Sprintf("INSERT INTO JB VALUES (%d, %d)", 17-i, i))
	}
	sessExec(t, s, "CREATE TABLE PK (ID INT PRIMARY KEY, V INT, W VARCHAR(8))")
	sessExec(t, s, "INSERT INTO PK VALUES (1, 1, 'a'), (7, 2, 'b'), (9, 3, 'c')")
	sessExec(t, s, "CREATE TABLE FIVE (A INT, B INT, C VARCHAR(5), D FLOAT, E INT CHECK (E > 0))")

	const runs = 50
	// One shape per execution — a function's argument is not lifted — so
	// each fresh SELECT and UPDATE is a one-off to the plan memo; the
	// literal variants differ only in lifted literals and share one plan.
	sels := make([]*stmt.Parsed, runs+1)
	updates := make([]*stmt.Parsed, runs+1)
	variants := make([]*stmt.Parsed, runs+1)
	for i := range updates {
		sels[i] = resolve(t, fmt.Sprintf("SELECT JA.V, COUNT(*) AS N, SUM(JB.V) + ABS(%d) AS T FROM JA INNER JOIN JB ON JA.K = JB.K "+
			"WHERE EXISTS (SELECT 1 FROM JB X WHERE X.K = JA.V + 1) GROUP BY JA.V HAVING COUNT(*) > 0", i))
		updates[i] = resolve(t, fmt.Sprintf("UPDATE PK SET V = ABS(%d), W = 'x' WHERE ID = 7", i))
		variants[i] = resolve(t, fmt.Sprintf("UPDATE PK SET V = %d, W = 'x' WHERE ID = %d", i, []int{1, 7, 9}[i%3]))
	}
	insert := resolve(t, "INSERT INTO FIVE VALUES (1, 2, 'x', 4.5, 5)")
	for _, tc := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"fresh join+subquery+group SELECT", 16, func() error {
			p := sels[0]
			sels = sels[1:]
			res, err := s.Exec(p, nil)
			if err == nil && len(res.Rows) != 4 {
				err = fmt.Errorf("%d rows, want 4", len(res.Rows))
			}
			return err
		}},
		{"fresh literal UPDATE", 5, func() error {
			p := updates[0]
			updates = updates[1:]
			_, err := s.Exec(p, nil)
			return err
		}},
		{"literal-variant UPDATE", 1, func() error {
			p := variants[0]
			variants = variants[1:]
			_, err := s.Exec(p, nil)
			return err
		}},
		{"5-column literal INSERT", 5, func() error {
			_, err := s.Exec(insert, nil)
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(runs, func() {
			if rerr := tc.run(); rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations, want <= %.0f", tc.name, allocs, tc.max)
		}
	}

	// The leaves lower to nodes that need no allocation: a literal and a
	// parameter are their AST nodes, a near column a shared node.
	l := lowering{s: s}
	sc := &scope{cols: []scopeCol{{name: "A"}, {name: "B"}}}
	leaves := []ast.Expr{&ast.Literal{Val: types.NewInt(1)}, &ast.Param{N: 1}, &ast.ColumnRef{Column: "B"}}
	if n := testing.AllocsPerRun(runs, func() {
		for _, x := range leaves {
			l.lower(x, sc, false)
		}
	}); n != 0 {
		t.Errorf("lowering a literal, a parameter and a column: %.0f allocations, want 0", n)
	}
}
