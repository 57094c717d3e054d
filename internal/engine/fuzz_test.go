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
	"divsql/internal/sql/parser"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
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
// shapes (addQueryShapes).
func FuzzSelectVariants(f *testing.F) {
	addQueryShapes(f)
	e := fuzzEngine(f)
	s := e.NewSession()

	f.Fuzz(func(t *testing.T, sql string) {
		p, err := stmt.Resolve(sql)
		if err != nil || p.Select == nil || e.SelectAdvancesSequences(p) || fromSources(p.AST) > 4 {
			return
		}
		normal, nerr := s.Exec(p, nil)
		normal = normal.Clone()
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

// addQueryShapes seeds a fuzz target with the regress/ corpus and this
// package's query shapes: the ORDER BY 0 and can-fail-predicate cases,
// the join-semantics table, joins over the views and the poisoned table,
// the grouped and correlated evaluation contexts, and nested selects
// that do not compile.
func addQueryShapes(f *testing.F) {
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
	for _, sql := range staticErrorShapes {
		f.Add(sql)
	}
}

// staticErrorShapes name a missing column in a nested select beside
// lifted literals, some of which no row reaches: the shape's compile
// error, memoised, answers for every literal sibling.
var staticErrorShapes = []string{
	"SELECT 0 FROM U WHERE 1 IN (SELECT 1) OR 1 IN (SELECT A0 FROM U)",
	"SELECT ID FROM KV WHERE ID = 99 AND EXISTS (SELECT NOPE FROM U WHERE X = 2)",
	"SELECT ID FROM KV WHERE ID = 1 OR ID IN (SELECT NOPE FROM U WHERE X = 1)",
	"SELECT ID, (SELECT NOPE FROM U WHERE X = 3) AS Q FROM KV WHERE ID = 2",
	"SELECT L.V FROM L INNER JOIN R ON L.K = R.K AND R.Z IN (SELECT NOPE FROM U WHERE X = 1)",
	"UPDATE T SET M = 7 WHERE A = 1 AND EXISTS (SELECT NOPE FROM U WHERE X = 3)",
	"DELETE FROM T WHERE A = 2 AND B IN (SELECT NOPE FROM U WHERE X = 1)",
}

// fuzzEngine is the fixed schema the fuzz targets run over.
func fuzzEngine(f *testing.F) *Engine {
	e := New(Config{Quirks: Quirks{SkipDefaultTypeCheck: true}})
	s := e.NewSession()
	seedShapes(f, s)
	seedKeyed(f, s, true)
	seedJoin(f, s)
	return e
}

// FuzzShapeSharing: texts that differ only in lifted literal values share
// one plan, and the plan answers for each of them. For any SELECT, UPDATE
// or DELETE with a lifted literal, a sibling text — every lifted literal
// changed within its kind — runs first on an engine (a write inside a
// transaction it rolls back), then the input: the input's answer (error,
// columns, rows or count, and for a write the rows its table is left
// with) must be the one an engine with the same data and no plan
// memoised gives. Seeded like FuzzSelectVariants, plus UPDATEs and
// DELETEs over the keyed table.
func FuzzShapeSharing(f *testing.F) {
	addQueryShapes(f)
	for _, where := range dmlWheres {
		f.Add("UPDATE T SET M = 7 WHERE " + where)
		f.Add("DELETE FROM T WHERE " + where)
	}
	e := fuzzEngine(f)
	data := e.Snapshot()
	fresh := func() *Session {
		e := New(e.cfg)
		e.Restore(data)
		return e.NewSession()
	}

	f.Fuzz(func(t *testing.T, sql string) {
		p, err := stmt.Resolve(sql)
		if err != nil || len(p.Lits) == 0 || fromSources(p.AST) > 4 || e.SelectAdvancesSequences(p) {
			return
		}
		q, ok := siblingOf(t, p)
		if !ok {
			return
		}
		ss := fresh()
		if p.Select == nil {
			sessExec(t, ss, "BEGIN")
		}
		_, qerr := ss.Exec(q, nil)
		if p.Select == nil {
			sessExec(t, ss, "ROLLBACK")
		}
		got, hit := answerOf(ss, p)
		if qerr == nil && !hit {
			t.Fatalf("%q did not run the plan its sibling %q memoised", p.Text, q.Text)
		}
		if want, _ := answerOf(fresh(), p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q after its sibling %q:\n got  %+v\n want %+v", p.Text, q.Text, got, want)
		}
	})
}

// siblingOf renders p's tree with every lifted literal changed within its
// kind and resolves the text; ok is false when p's tree does not survive
// rendering (a render the parser reads as another tree has another
// shape). The sibling must share p's shape.
func siblingOf(t *testing.T, p *stmt.Parsed) (*stmt.Parsed, bool) {
	st, err := parser.Parse(p.Text)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := stmt.Resolve(ast.Render(st)); err != nil || same.Shape != p.Shape {
		return nil, false
	}
	for _, l := range p.Rewritten(st).Lits {
		switch v := &l.Val; v.K {
		case types.KindInt:
			*v = types.NewInt(v.I ^ 1)
		case types.KindFloat:
			*v = types.NewFloat(v.F() + 1)
		case types.KindString:
			*v = types.NewString(v.S + "x")
		case types.KindBool:
			*v = types.NewBool(!v.B())
		}
	}
	q, err := stmt.Resolve(ast.Render(st))
	if err != nil {
		t.Fatalf("%q: the sibling does not parse: %v", p.Text, err)
	}
	if q.Shape != p.Shape {
		t.Fatalf("%q and its sibling %q have different shapes", p.Text, q.Text)
	}
	return q, true
}

// shapeAnswer is what a statement answers: its error, columns, rows
// (sorted unless it orders them) or count, and for an UPDATE or DELETE
// the rows of its table afterwards, sorted.
type shapeAnswer struct {
	err        string
	cols, rows []string
	affected   int64
	tableAfter []string
}

func answerOf(s *Session, p *stmt.Parsed) (a shapeAnswer, cacheHit bool) {
	res, err := s.Exec(p, nil)
	cacheHit = s.LastPlan().CacheHit
	if err != nil {
		a.err = err.Error()
	} else {
		a.cols, a.rows, a.affected = res.Columns, rowStrings(res), res.Affected
		if p.Select == nil || len(p.Select.OrderBy) == 0 {
			sort.Strings(a.rows)
		}
	}
	var table string
	switch x := p.AST.(type) {
	case *ast.Update:
		table = x.Table
	case *ast.Delete:
		table = x.Table
	default:
		return a, cacheHit
	}
	if after, err := stmt.Resolve("SELECT * FROM " + table); err == nil {
		if res, err := s.Exec(after, nil); err == nil {
			a.tableAfter = rowStrings(res)
			sort.Strings(a.tableAfter)
		}
	}
	return a, cacheHit
}

// fromSources counts the FROM references of a statement, nested selects
// included. Every one multiplies the rows a join or a correlated
// subquery visits, so a bound keeps one input from costing the run.
func fromSources(st ast.Statement) int {
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
	sel, _ := st.(*ast.Select)
	visit(sel)
	ast.WalkStatementExprs(st, func(x ast.Expr) {
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
