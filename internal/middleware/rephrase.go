package middleware

import (
	"slices"
	"strconv"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

// Rephrase rewrites a statement into a logically equivalent form, the
// wrapper technique of the paper's reference [9] ("wrappers rephrasing
// queries into alternative, logically equivalent sets of statements").
// Its rules sidestep reproduced product quirks, so a replica that rejects
// a statement as written may accept it rephrased:
//
//   - SELECT SUM(x) / AVG(x) ->  SELECT SUM(x) AS alias (bug 222476: MS
//     rejects the unnamed column, IB blanks its name), in every scalar,
//     IN and EXISTS subquery and the source query of INSERT ... SELECT:
//     the places nobody reads a column name. The items of the
//     statement's own result and of a derived table, and anything inside
//     an unaliased one (named by its text), stay as written.
//   - x IN (A UNION B)       ->  x IN (A) OR x IN (B); NOT IN with AND
//     (PG bug 43: the engines' reproduction keys on the UNION under IN).
//     OR and AND stop at the first branch that settles them, so the split
//     applies only where skipping a branch changes nothing (plainBranch).
//
// The tree is rewritten copy-on-write: p is never written, and the
// rewrite shares every node no rule changed. Placeholders keep their
// ordinals. It returns p itself when no rule applies.
func Rephrase(p *stmt.Parsed) *stmt.Parsed {
	r := rephraser{}
	var st ast.Statement
	switch x := p.AST.(type) {
	case *ast.Select:
		st = r.sel(x, true)
	case *ast.Insert:
		st = &ast.Insert{Table: x.Table, Columns: x.Columns, Rows: each(&r, x.Rows, r.exprs), Select: r.sel(x.Select, false)}
	case *ast.Update:
		sets := each(&r, x.Sets, func(c ast.SetClause) ast.SetClause { c.Value = r.expr(c.Value); return c })
		st = &ast.Update{Table: x.Table, Sets: sets, Where: r.expr(x.Where)}
	case *ast.Delete:
		st = &ast.Delete{Table: x.Table, Where: r.expr(x.Where)}
	}
	if r.edits == 0 {
		return p
	}
	return p.Rewritten(st)
}

// rephraser rewrites a tree copy-on-write: a method returns its argument
// itself unless a rule applied below it. edits counts the rules applied
// and numbers the aliases handed out.
type rephraser struct{ edits int }

// each maps f over xs copy-on-write: xs itself when f rewrote nothing.
// Once xs is cloned, n is -1 and every later result is stored.
func each[T any](r *rephraser, xs []T, f func(T) T) []T {
	n, out := r.edits, xs
	for i, x := range xs {
		if y := f(x); r.edits != n {
			if n >= 0 {
				out, n = slices.Clone(xs), -1
			}
			out[i] = y
		}
	}
	return out
}

func (r *rephraser) exprs(xs []ast.Expr) []ast.Expr { return each(r, xs, r.expr) }

// sel rewrites a query expression, every UNION branch of it. named says
// whether its column names are read: then an unaliased item, named by
// its text, is left as written.
func (r *rephraser) sel(s *ast.Select, named bool) *ast.Select {
	if s == nil {
		return nil
	}
	n := r.edits
	c := *s
	c.Items = each(r, s.Items, func(it ast.SelectItem) ast.SelectItem {
		if it.Alias != "" || !named {
			it.Expr = r.expr(it.Expr)
		}
		if f, ok := it.Expr.(*ast.FuncCall); ok && it.Alias == "" && !named && (f.Name == "AVG" || f.Name == "SUM") {
			r.edits++
			it.Alias = "RPH_AGG" + strconv.Itoa(r.edits)
		}
		return it
	})
	c.From = each(r, s.From, func(f ast.FromItem) ast.FromItem {
		f.Table.Subquery = r.sel(f.Table.Subquery, true)
		f.Joins = each(r, f.Joins, func(j ast.Join) ast.Join {
			j.Right.Subquery, j.On = r.sel(j.Right.Subquery, true), r.expr(j.On)
			return j
		})
		return f
	})
	c.Where, c.GroupBy, c.Having = r.expr(s.Where), r.exprs(s.GroupBy), r.expr(s.Having)
	c.OrderBy = each(r, s.OrderBy, func(o ast.OrderItem) ast.OrderItem { o.Expr = r.expr(o.Expr); return o })
	if c.Union = r.sel(s.Union, named); r.edits == n {
		return s
	}
	return &c
}

// expr builds the copy of a node from its rewritten children and keeps
// it only if a rule applied below.
func (r *rephraser) expr(e ast.Expr) ast.Expr {
	n := r.edits
	var c ast.Expr
	switch x := e.(type) {
	case *ast.Binary:
		c = &ast.Binary{Op: x.Op, L: r.expr(x.L), R: r.expr(x.R)}
	case *ast.Unary:
		c = &ast.Unary{Op: x.Op, X: r.expr(x.X)}
	case *ast.FuncCall:
		c = &ast.FuncCall{Name: x.Name, Args: r.exprs(x.Args), Star: x.Star, Distinct: x.Distinct}
	case *ast.In:
		in := &ast.In{X: r.expr(x.X), Not: x.Not, List: r.exprs(x.List), Select: r.sel(x.Select, false)}
		if c = r.splitUnion(in); c == nil {
			c = in
		}
	case *ast.Exists:
		c = &ast.Exists{Not: x.Not, Select: r.sel(x.Select, false)}
	case *ast.Subquery:
		c = &ast.Subquery{Select: r.sel(x.Select, false)}
	case *ast.Between:
		c = &ast.Between{X: r.expr(x.X), Not: x.Not, Lo: r.expr(x.Lo), Hi: r.expr(x.Hi)}
	case *ast.Like:
		c = &ast.Like{X: r.expr(x.X), Not: x.Not, Pattern: r.expr(x.Pattern)}
	case *ast.IsNull:
		c = &ast.IsNull{X: r.expr(x.X), Not: x.Not}
	case *ast.Case:
		whens := each(r, x.Whens, func(w ast.WhenClause) ast.WhenClause { w.Cond, w.Then = r.expr(w.Cond), r.expr(w.Then); return w })
		c = &ast.Case{Operand: r.expr(x.Operand), Whens: whens, Else: r.expr(x.Else)}
	case *ast.Cast:
		c = &ast.Cast{X: r.expr(x.X), To: x.To}
	}
	if r.edits == n {
		return e
	}
	return c
}

// splitUnion distributes [NOT] IN over the branches of a UNION subquery,
// and returns nil where that does not apply: the tested expression must
// be a column, a literal or a parameter — copied once per branch, so no
// node sits in two places — and every branch plain.
func (r *rephraser) splitUnion(in *ast.In) ast.Expr {
	if in.Select == nil || in.Select.Union == nil || leaf(in.X) == nil {
		return nil
	}
	op := ast.OpOr
	if in.Not {
		op = ast.OpAnd
	}
	var out ast.Expr
	for s := in.Select; s != nil; s = s.Union {
		if !plainBranch(s) {
			return nil
		}
		branch := *s
		branch.Union, branch.UnionAll = nil, false
		member := ast.Expr(&ast.In{X: leaf(in.X), Not: in.Not, Select: &branch})
		if out != nil {
			member = &ast.Binary{Op: op, L: out, R: member}
		}
		out = member
	}
	r.edits++
	return out
}

// leaf returns a copy of a column, a literal or a parameter, and nil for
// any other expression.
func leaf(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.ColumnRef:
		return &ast.ColumnRef{Table: x.Table, Column: x.Column}
	case *ast.Literal:
		return &ast.Literal{Val: x.Val}
	case *ast.Param:
		return &ast.Param{N: x.N}
	}
	return nil
}

// plainBranch reports whether a UNION branch can neither fail nor advance
// a sequence once its names resolve: one item, which like its WHERE and
// every ON is plain, over base tables, without grouping, ordering or a
// row limit.
func plainBranch(s *ast.Select) bool {
	ok := len(s.Items) == 1 && !s.Items[0].Star && plain(s.Items[0].Expr) && plain(s.Where) &&
		s.GroupBy == nil && s.Having == nil && s.OrderBy == nil && s.LimitSyn == ast.LimitNone
	for _, f := range s.From {
		ok = ok && f.Table.Subquery == nil
		for _, j := range f.Joins {
			ok = ok && j.Right.Subquery == nil && plain(j.On)
		}
	}
	return ok
}

// plain reports whether an expression is built from columns, literals,
// parameters, comparisons, AND/OR/NOT and IS [NOT] NULL alone.
func plain(e ast.Expr) bool {
	switch x := e.(type) {
	case nil, *ast.ColumnRef, *ast.Literal, *ast.Param:
		return true
	case *ast.Binary:
		return x.Op >= ast.OpEq && x.Op <= ast.OpOr && plain(x.L) && plain(x.R)
	case *ast.Unary:
		return x.Op == "NOT" && plain(x.X)
	case *ast.IsNull:
		return plain(x.X)
	}
	return false
}
