package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

// FuzzSelectVariants: a pure SELECT answers the same with and without
// its access paths and join algorithms. Over a small fixed schema —
// indexed, unindexed and NULL-bearing tables, a table whose indexes are
// poisoned, a view over a table and one over a join, join inputs with
// duplicate, NULL, FLOAT and string keys and INTs beyond 2^53 — the
// memoised normal execution and the forced full scan (every core scans,
// every join pairs all rows) must agree on the error, the columns and
// the rows (order-sensitive iff the statement orders them), and neither
// may panic. Seeded from the regress/ corpus and this package's query
// shapes: the ORDER BY 0 and can-fail-predicate cases, the
// join-semantics table, joins over the views and the poisoned table, and
// the grouped and correlated evaluation contexts.
func FuzzSelectVariants(f *testing.F) {
	files, err := filepath.Glob("../../regress/cases/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no regress cases: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var c struct {
			Stream []string `json:"stream"`
		}
		if err := json.Unmarshal(data, &c); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, entry := range c.Stream {
			f.Add(entry)
		}
	}
	for _, sql := range variantShapes {
		f.Add(sql)
	}
	for _, sql := range orderByZeroShapes {
		f.Add(sql)
	}
	for _, where := range dmlWheres {
		f.Add("SELECT A, B FROM T WHERE " + where)
	}
	for _, tc := range joinCases {
		f.Add(tc.sql)
	}
	for _, sql := range joinFuzzShapes {
		f.Add(sql)
	}
	for _, tc := range evalContextCases {
		f.Add(tc.sql)
	}

	e := New(Config{Quirks: Quirks{SkipDefaultTypeCheck: true}})
	s := e.NewSession()
	seedShapes(f, s)
	seedKeyed(f, s, true)
	seedJoin(f, s)

	f.Fuzz(func(t *testing.T, sql string) {
		p, err := stmt.Resolve(sql)
		if err != nil || p.Select == nil || e.SelectAdvancesSequences(p) || fromSources(p.Select) > 4 {
			return
		}
		normal, nerr := s.Exec(p, nil)
		forced, ferr := s.ExecSelectVariant(p, plan.ForceFullScan, nil)
		if (nerr == nil) != (ferr == nil) || (nerr != nil && nerr.Error() != ferr.Error()) {
			t.Fatalf("%q: normal err = %v, forced full scan err = %v", sql, nerr, ferr)
		}
		if nerr != nil {
			return
		}
		if !reflect.DeepEqual(normal.Columns, forced.Columns) {
			t.Fatalf("%q: columns %q vs forced %q", sql, normal.Columns, forced.Columns)
		}
		nr, fr := rowStrings(normal), rowStrings(forced)
		if len(p.Select.OrderBy) == 0 {
			sort.Strings(nr)
			sort.Strings(fr)
		}
		if !reflect.DeepEqual(nr, fr) {
			t.Fatalf("%q: rows %q vs forced %q", sql, nr, fr)
		}
	})
}

// fromSources counts the FROM references of a statement, nested selects
// included. Every one multiplies the rows a join or a correlated
// subquery visits, so a bound keeps one input from costing the run.
func fromSources(sel *ast.Select) int {
	n := 0
	var visit func(*ast.Select)
	visit = func(s *ast.Select) {
		for ; s != nil; s = s.Union {
			for _, f := range s.From {
				n++
				visit(f.Table.Subquery)
				for _, j := range f.Joins {
					n++
					visit(j.Right.Subquery)
				}
			}
		}
	}
	visit(sel)
	ast.WalkSelectExprs(sel, func(x ast.Expr) {
		switch v := x.(type) {
		case *ast.Subquery:
			visit(v.Select)
		case *ast.Exists:
			visit(v.Select)
		case *ast.In:
			visit(v.Select)
		}
	})
	return n
}
