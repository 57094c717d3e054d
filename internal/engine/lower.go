package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// This file is the engine's lowering pass: every scalar expression is
// resolved once, where its plan is compiled, into the tree eval
// (eval.go) runs. No name survives it — a column becomes a scope depth
// and an ordinal, a nested select its compiled plan, held by the node
// that evaluates it. What cannot be resolved is the lowering's static
// error, and its statement fails before anything runs.

// scope is the compile-time image of the row an expression reads: the
// names of its columns, and the scope enclosing it, through which a
// correlated reference resolves. At run time only values remain — the
// env chain (eval.go) mirrors the scope chain level for level.
type scope struct {
	cols   []scopeCol
	parent *scope
}

type scopeCol struct {
	qual string // upper-cased table alias or name ("" when anonymous)
	name string // upper-cased column name
}

// ordinal is the position of the one column of this scope — not of those
// enclosing it — that the upper-cased reference names: -1 when it names
// none, an error when it names several.
func (sc *scope) ordinal(qual, name string) (int, error) {
	found := -1
	for i, c := range sc.cols {
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %s", name)
		}
		found = i
	}
	return found, nil
}

// rexpr is a resolved expression.
type rexpr interface {
	// canFail reports whether evaluating the expression can raise an
	// error, parameters assumed bound (visit.maxParam gates arity
	// apart): arithmetic, unary minus, functions, CASE, CAST and
	// subqueries can; a comparison error is Unknown.
	canFail() bool
}

// fallible is a node's canFail bit, computed bottom-up when it is lowered.
type fallible bool

func (f fallible) canFail() bool { return bool(f) }

type (
	litX   struct{ *ast.Literal } // its value
	paramX struct{ *ast.Param }   // bind slot N
	// slotX is lifted literal i of the executing handle
	// (stmt.Parsed.Lits): a plan compiled for a shape reads the value of
	// whichever text of the shape runs it.
	slotX int
	// colX reads ordinal i of the row depth levels up the env chain.
	colX struct{ depth, i int }
	// unlowered stands in for a node that did not lower: lowering.err
	// says why, and nothing that holds one is evaluated.
	unlowered struct{}

	binX struct {
		l, r rexpr
		op   ast.BinaryOp
		fallible
		// strict marks an operator lowered at the top of a core's item or
		// HAVING: evaluated over a group, AND and OR evaluate both
		// operands.
		strict bool
	}
	unX struct {
		fallible
		op string
		x  rexpr
	}
	funcX struct {
		fn   func(*FuncContext, []types.Value) (types.Value, error)
		args []rexpr
	}
	// aggX is an aggregate over the group the env holds: COUNT(*), or
	// name over arg's value on each of the group's rows.
	aggX struct {
		name           string
		star, distinct bool
		arg            rexpr
	}
	// selectX is a scalar subquery, or EXISTS when exists is set.
	selectX struct {
		sub         *compiledSelect
		exists, not bool
	}
	inX struct {
		fallible
		x    rexpr
		list []rexpr
		sub  *compiledSelect
		not  bool
		err  error // a quirk raised before sub runs
	}
	betweenX struct {
		x, lo, hi rexpr
		fallible
		not bool
	}
	likeX struct {
		x, pat rexpr
		fallible
		not bool
	}
	caseX struct {
		operand rexpr
		whens   []whenX
		els     rexpr
	}
	whenX struct{ cond, then rexpr }
	castX struct {
		x    rexpr
		kind types.Kind
	}
)

func (litX) canFail() bool      { return false }
func (paramX) canFail() bool    { return false }
func (slotX) canFail() bool     { return false }
func (*colX) canFail() bool     { return false }
func (unlowered) canFail() bool { return true }
func (*funcX) canFail() bool    { return true }
func (*aggX) canFail() bool     { return true }
func (*selectX) canFail() bool  { return true }
func (*caseX) canFail() bool    { return true }
func (*castX) canFail() bool    { return true }

// colNodes are the column nodes of the nearest scopes' first columns,
// shared by every plan (a resolved column is immutable), so that most
// references lower without allocating.
var colNodes = func() (t [4][64]colX) {
	for d := range t {
		for i := range t[d] {
			t[d][i] = colX{d, i}
		}
	}
	return t
}()

// column is the node reading ordinal i of the row depth levels up.
func column(depth, i int) rexpr {
	if depth < len(colNodes) && i < len(colNodes[depth]) {
		return &colNodes[depth][i]
	}
	return &colX{depth, i}
}

// lowering is one pass over the expressions of one scope's owner: a
// core, a join's ON, a sort, a DML statement, or expressions no plan
// owns.
type lowering struct {
	s *Session
	// body lists the cores and joins of the nested selects, for the plan
	// that owns them to adopt. Where no plan does (CHECK, DEFAULT, INSERT
	// values) each compile counts as the plan-cache miss it is instead.
	body  planBody
	owned bool
	// err is the first static error met, in evaluation order; aggs
	// records that an aggregate over the scope's own rows was met.
	err  error
	aggs bool
}

// fail records err unless an earlier static error was met, and returns
// the stand-in for the node that did not lower.
func (l *lowering) fail(err error) rexpr {
	if l.err == nil {
		l.err = err
	}
	return unlowered{}
}

// lower resolves x against sc. top marks an item or HAVING of a core:
// there an aggregate reads the core's group, and so do the operators
// above it.
func (l *lowering) lower(x ast.Expr, sc *scope, top bool) rexpr {
	switch n := x.(type) {
	case nil:
		return nil
	case *ast.Literal:
		if i := slices.Index(l.s.lits, n); i >= 0 {
			return slotX(i)
		}
		return litX{n}
	case *ast.Param:
		return paramX{n}
	case *ast.ColumnRef:
		return l.resolve(n, sc)
	case *ast.Binary:
		b := &binX{op: n.Op, l: l.lower(n.L, sc, top), r: l.lower(n.R, sc, top), strict: top}
		switch n.Op {
		case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe, ast.OpAnd, ast.OpOr, ast.OpConcat:
			b.fallible = fallible(b.l.canFail() || b.r.canFail())
		default:
			b.fallible = true // arithmetic: division by zero, non-numeric operands
		}
		return b
	case *ast.Unary:
		u := &unX{op: n.Op, x: l.lower(n.X, sc, top)}
		u.fallible = fallible(u.x.canFail() || (n.Op != "NOT" && n.Op != "+"))
		return u
	case *ast.FuncCall:
		return l.call(n, sc, top)
	case *ast.In:
		in := &inX{x: l.lower(n.X, sc, false), list: l.lowerAll(n.List, sc), not: n.Not}
		if n.Select != nil {
			switch in.sub = l.nested(n.Select, sc); {
			case in.sub != nil && len(in.sub.outCols()) != 1:
				return l.fail(errors.New("IN subquery must return one column"))
			case n.Select.Union == nil:
			case l.s.eng.cfg.Quirks.ParenUnionSubqueryError:
				// Quirk (PG bug 43): the parser chokes on UNION branches
				// inside an IN subquery.
				in.err = errors.New("parse error: unexpected UNION in subquery")
			case l.s.eng.cfg.Quirks.ParenUnionSubqueryMisparse:
				// Quirk (bug 43 on MS): an incorrect parse tree is built for
				// the UNION subquery and a spurious resolution error
				// surfaces when the tree is evaluated.
				in.err = errors.New("internal error: could not resolve column in subquery parse tree")
			}
		}
		in.fallible = fallible(n.Select != nil || in.x.canFail())
		for _, x := range in.list {
			in.fallible = in.fallible || fallible(x.canFail())
		}
		return in
	case *ast.Exists:
		return &selectX{sub: l.nested(n.Select, sc), exists: true, not: n.Not}
	case *ast.Subquery:
		sub := l.nested(n.Select, sc)
		if sub != nil && len(sub.outCols()) != 1 {
			return l.fail(errors.New("scalar subquery must return one column"))
		}
		return &selectX{sub: sub}
	case *ast.Between:
		b := &betweenX{x: l.lower(n.X, sc, false), lo: l.lower(n.Lo, sc, false), hi: l.lower(n.Hi, sc, false), not: n.Not}
		b.fallible = fallible(b.x.canFail() || b.lo.canFail() || b.hi.canFail())
		return b
	case *ast.Like:
		k := &likeX{x: l.lower(n.X, sc, false), pat: l.lower(n.Pattern, sc, false), not: n.Not}
		k.fallible = fallible(k.x.canFail() || k.pat.canFail())
		return k
	case *ast.IsNull:
		u := &unX{op: "IS NULL", x: l.lower(n.X, sc, false)}
		if n.Not {
			u.op = "IS NOT NULL"
		}
		u.fallible = fallible(u.x.canFail())
		return u
	case *ast.Case:
		c := &caseX{operand: l.lower(n.Operand, sc, false), whens: make([]whenX, len(n.Whens))}
		for i, w := range n.Whens {
			c.whens[i] = whenX{l.lower(w.Cond, sc, false), l.lower(w.Then, sc, false)}
		}
		c.els = l.lower(n.Else, sc, false)
		return c
	case *ast.Cast:
		c := &castX{x: l.lower(n.X, sc, false)}
		var err error
		if c.kind, err = l.s.eng.cfg.ResolveType(n.To); err != nil {
			return l.fail(err)
		}
		return c
	}
	return l.fail(fmt.Errorf("unsupported expression %T", x))
}

func (l *lowering) lowerAll(xs []ast.Expr, sc *scope) []rexpr {
	if len(xs) == 0 {
		return nil
	}
	out := l.s.pm.exprList(len(xs))
	for i, x := range xs {
		out[i] = l.lower(x, sc, false)
	}
	return out
}

// resolve finds the column a reference names through the scope chain:
// the first scope with a column of that name decides, and an error if
// it has several.
func (l *lowering) resolve(n *ast.ColumnRef, sc *scope) rexpr {
	qual, name := up(n.Table), up(n.Column)
	for depth := 0; sc != nil; depth, sc = depth+1, sc.parent {
		if i, err := sc.ordinal(qual, name); err != nil {
			return l.fail(err)
		} else if i >= 0 {
			l.s.noteRef(sc)
			return column(depth, i)
		}
	}
	return l.fail(fmt.Errorf("unknown column %s", refName(n)))
}

func refName(n *ast.ColumnRef) string {
	if n.Table != "" {
		return n.Table + "." + n.Column
	}
	return n.Column
}

// call resolves a function call to its builtin, after its arguments:
// their static errors come first, as evaluation order has them.
func (l *lowering) call(n *ast.FuncCall, sc *scope, top bool) rexpr {
	name := strings.ToUpper(n.Name)
	b, known := l.s.eng.cfg.Funcs[name]
	seq := known && b.SeqFunc
	xs := n.Args
	if seq && len(xs) > 0 {
		xs = xs[1:] // the first names the sequence
	}
	args := l.lowerAll(xs, sc)
	if ast.IsAggregate(name) {
		l.aggs = true
		switch {
		case !top:
			return l.fail(fmt.Errorf("invalid use of aggregate function %s", name))
		case n.Star && name != "COUNT":
			return l.fail(fmt.Errorf("%s(*) is not valid", name))
		case n.Star:
			return &aggX{name: name, star: true}
		case len(args) != 1:
			return l.fail(fmt.Errorf("%s takes exactly one argument", name))
		}
		return &aggX{name: name, distinct: n.Distinct, arg: args[0]}
	}
	switch {
	case !known:
		return l.fail(fmt.Errorf("unknown function %s", name))
	case len(n.Args) < b.MinArgs || (b.MaxArgs >= 0 && len(n.Args) > b.MaxArgs):
		// A sequence function's sequence name counts as an argument.
		return l.fail(fmt.Errorf("wrong number of arguments to %s", name))
	case seq:
		// The first argument is a sequence name, written as a bare
		// identifier or a string.
		var seqName string
		if len(n.Args) > 0 {
			switch a := n.Args[0].(type) {
			case *ast.ColumnRef:
				seqName = a.Column
			case *ast.Literal:
				if a.Val.K == types.KindString {
					seqName = a.Val.S
				}
			}
		}
		if seqName == "" {
			return l.fail(fmt.Errorf("%s requires a sequence name", name))
		}
		l.s.noteSeqCall()
		// Its builtin is the advance of that sequence, by the second
		// argument (1 without one).
		return &funcX{args: args, fn: func(ctx *FuncContext, a []types.Value) (types.Value, error) {
			incr := int64(1)
			if len(a) > 0 {
				var err error
				if incr, err = IntArg(a[0]); err != nil {
					return types.Value{}, err
				}
			}
			return ctx.Sess.SequenceNext(seqName, incr)
		}}
	}
	return &funcX{fn: b.Fn, args: args}
}

// nested compiles a select met in an expression, against the scope it is
// evaluated in: nil when it does not compile, its static error the
// lowering's.
func (l *lowering) nested(sel *ast.Select, sc *scope) *compiledSelect {
	cs, err := l.s.compileSelect(sel, sc, sel.Distinct)
	if !l.owned {
		l.s.eng.memoMisses.Add(1)
	}
	if err != nil {
		l.fail(err)
	} else if l.owned {
		l.s.pm.appendBody(&l.body, cs.paths, cs.joins)
	}
	return cs
}
