package middleware

import (
	"strconv"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
)

// Rephrase rewrites a statement into a logically equivalent form, the
// wrapper technique of the paper's reference [9] ("wrappers rephrasing
// queries into alternative, logically equivalent sets of statements").
// A rephrased statement exercises different code paths in a server, so a
// replica that failed through a Heisenbug or a narrow failure region may
// answer the rephrased form correctly.
//
// Rewritings applied (bottom-up, all semantics-preserving) to WHERE,
// HAVING, ON and UPDATE SET expressions and the subqueries below them:
//
//   - x BETWEEN a AND b      ->  x >= a AND x <= b
//   - x IN (v1, v2, ...)     ->  x = v1 OR x = v2 OR ...
//   - a AND b / a OR b       ->  b AND a / b OR a (operand commutation)
//   - a = b (literals last)  ->  b = a
//   - x IN (A UNION B)       ->  x IN (A) OR x IN (B); NOT IN with AND.
//     PG bug 43 on PG and MS: the parser already drops the parentheses
//     around the branches and the engines' reproduction of the bug keys
//     on the UNION under IN, so that is what the rewriting takes apart.
//
// and to every scalar, IN and EXISTS subquery wherever it sits, and the
// source query of INSERT ... SELECT — the places nobody reads a column
// name:
//
//   - SELECT SUM(x) / AVG(x) ->  SELECT SUM(x) AS alias (bug 222476: MS
//     rejects the unnamed column, IB blanks its name). A client-visible
//     item keeps its name, and an unaliased one, named by its text, keeps
//     that text.
//
// Placeholders keep their ordinals ($N in the rendered text), so a bound
// statement's arguments line up with the rephrased form. It returns the
// rewritten SQL and whether anything changed.
func Rephrase(sql string) (string, bool) {
	st, err := parser.Parse(sql)
	if err != nil {
		return sql, false
	}
	r := &rephraser{}
	r.statement(st)
	r.nameAggregates(st)
	if !r.changed {
		return sql, false
	}
	return ast.Render(st), true
}

type rephraser struct {
	changed bool
	aliases int // aggregate aliases handed out so far
}

func (r *rephraser) statement(st ast.Statement) {
	switch x := st.(type) {
	case *ast.Select:
		r.sel(x)
	case *ast.Update:
		for i := range x.Sets {
			x.Sets[i].Value = r.expr(x.Sets[i].Value)
		}
		x.Where = r.expr(x.Where)
	case *ast.Delete:
		x.Where = r.expr(x.Where)
	case *ast.Insert:
		r.sel(x.Select)
	}
}

func (r *rephraser) sel(s *ast.Select) {
	for ; s != nil; s = s.Union {
		s.Where = r.expr(s.Where)
		s.Having = r.expr(s.Having)
		for i := range s.From {
			for j := range s.From[i].Joins {
				s.From[i].Joins[j].On = r.expr(s.From[i].Joins[j].On)
				r.sel(s.From[i].Joins[j].Right.Subquery)
			}
			r.sel(s.From[i].Table.Subquery)
		}
	}
}

// subqueryOf returns the query under a scalar, IN or EXISTS subquery
// expression (nil for anything else): the queries whose column names
// nobody reads.
func subqueryOf(e ast.Expr) *ast.Select {
	switch x := e.(type) {
	case *ast.In:
		return x.Select
	case *ast.Exists:
		return x.Select
	case *ast.Subquery:
		return x.Select
	}
	return nil
}

// nameAggregates applies the unaliased-aggregate rule throughout the
// statement.
func (r *rephraser) nameAggregates(st ast.Statement) {
	asWritten := make(map[*ast.Select]bool)
	switch x := st.(type) {
	case *ast.Select:
		for s := x; s != nil; s = s.Union {
			for _, it := range s.Items {
				if it.Alias == "" {
					ast.WalkExprs(it.Expr, func(e ast.Expr) { asWritten[subqueryOf(e)] = true })
				}
			}
		}
	case *ast.Insert:
		r.nameItems(x.Select)
	}
	ast.WalkStatementExprs(st, func(e ast.Expr) {
		if s := subqueryOf(e); !asWritten[s] {
			r.nameItems(s)
		}
	})
}

// nameItems gives the unaliased AVG/SUM items of a query (every UNION
// branch of it) an alias no column carries.
func (r *rephraser) nameItems(s *ast.Select) {
	for ; s != nil; s = s.Union {
		for i := range s.Items {
			it := &s.Items[i]
			if f, ok := it.Expr.(*ast.FuncCall); ok && it.Alias == "" && (f.Name == "AVG" || f.Name == "SUM") {
				r.aliases++
				it.Alias = "RPH_AGG" + strconv.Itoa(r.aliases)
				r.changed = true
			}
		}
	}
}

func (r *rephraser) expr(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.Between:
		lo := &ast.Binary{Op: ast.OpGe, L: x.X, R: x.Lo}
		hi := &ast.Binary{Op: ast.OpLe, L: x.X, R: x.Hi}
		r.changed = true
		var out ast.Expr = &ast.Binary{Op: ast.OpAnd, L: lo, R: hi}
		if x.Not {
			out = &ast.Unary{Op: "NOT", X: out}
		}
		return out
	case *ast.In:
		if x.Select != nil {
			r.sel(x.Select)
			return r.splitUnion(x)
		}
		if len(x.List) > 0 && len(x.List) <= 8 {
			var out ast.Expr
			for _, item := range x.List {
				eq := ast.Expr(&ast.Binary{Op: ast.OpEq, L: x.X, R: item})
				if out == nil {
					out = eq
				} else {
					out = &ast.Binary{Op: ast.OpOr, L: out, R: eq}
				}
			}
			r.changed = true
			if x.Not {
				return &ast.Unary{Op: "NOT", X: out}
			}
			return out
		}
		return x
	case *ast.Binary:
		x.L = r.expr(x.L)
		x.R = r.expr(x.R)
		switch x.Op {
		case ast.OpAnd, ast.OpOr:
			// Commute: evaluation order differs, result does not
			// (three-valued logic AND/OR are symmetric).
			x.L, x.R = x.R, x.L
			r.changed = true
		case ast.OpEq:
			if _, lit := x.L.(*ast.Literal); !lit {
				if _, rlit := x.R.(*ast.Literal); rlit {
					x.L, x.R = x.R, x.L
					r.changed = true
				}
			}
		}
		return x
	case *ast.Unary:
		x.X = r.expr(x.X)
		return x
	default:
		r.sel(subqueryOf(e))
		return e
	}
}

// splitUnion distributes [NOT] IN over the branches of a UNION subquery:
// membership in a union is membership in a branch, and OR/AND carry
// UNKNOWN the way IN does. The tested expression is then evaluated once
// per branch, which a function call may not be; a row limit applies to
// the compound. Either keeps the statement as written.
func (r *rephraser) splitUnion(in *ast.In) ast.Expr {
	ok := in.Select.Union != nil
	ast.WalkExprs(in.X, func(e ast.Expr) {
		_, call := e.(*ast.FuncCall)
		ok = ok && !call
	})
	for s := in.Select; s != nil; s = s.Union {
		ok = ok && s.LimitSyn == ast.LimitNone
	}
	if !ok {
		return in
	}
	op := ast.OpOr
	if in.Not {
		op = ast.OpAnd
	}
	in.Select.OrderBy = nil // orders the compound; IN does not look at it
	var out ast.Expr
	for s := in.Select; s != nil; {
		branch := s
		s, branch.Union = s.Union, nil
		member := ast.Expr(&ast.In{X: in.X, Not: in.Not, Select: branch})
		if out == nil {
			out = member
		} else {
			out = &ast.Binary{Op: op, L: out, R: member}
		}
	}
	r.changed = true
	return out
}
