package stmt

import (
	"encoding/binary"
	"slices"
	"sync/atomic"

	"divsql/internal/sql/ast"
)

// A query's or an UPDATE's or DELETE's shape is its tree with the values
// of its lifted literals left out: texts that differ only in those values
// share one shape, and with it one compiled plan in every engine. A
// literal is lifted when it is an operand of a WHERE or JOIN ON predicate
// (at any depth, in any query block reached from one) or an UPDATE SET
// value, and is not inside a function's arguments. Every other literal is
// part of the shape, because something decided at compile time reads it:
// a select list names the result's columns (a subquery's text included),
// GROUP BY and ORDER BY may be positional, a function argument may name a
// sequence, and HAVING, INSERT VALUES and DDL are left as they are. A
// lifted literal's kind is part of the shape too.

// shapes is the shape table: shape key → the tree of the first text with
// that shape, bounded like the intern table (at most one shape per text
// interned in a generation). shapesMade counts shapes created.
var (
	shapes     = newTable[ast.Statement]()
	shapesMade atomic.Uint64
)

// shapeOf returns a statement's shape tree and its lifted literals, in
// slot order. A statement that has no shape (INSERT, DDL, transaction
// control) gets a nil tree. A rewritten tree that lifts one literal node
// twice is its own shape (Parsed.Rewritten).
func shapeOf(st ast.Statement, rewritten bool) (ast.Statement, []*ast.Literal) {
	var lb [16]*ast.Literal
	var kb [256]byte
	sh := shaper{key: kb[:0], lits: lb[:0]}
	switch {
	case !sh.statement(st):
		return nil, nil
	case sh.opaque, rewritten && liftsTwice(sh.lits):
		return st, nil
	}
	var lits []*ast.Literal
	if len(sh.lits) > 0 {
		lits = append([]*ast.Literal(nil), sh.lits...)
	}
	key := string(sh.key)
	shape, young := shapes.lookup(key)
	if young {
		return shape, lits
	}
	if shape == nil {
		shape = st
	}
	if shape = shapes.keep(key, shape); shape == st {
		shapesMade.Add(1)
	}
	return shape, lits
}

// liftsTwice reports whether one literal node sits in two positions.
func liftsTwice(lits []*ast.Literal) bool {
	for i, l := range lits {
		if slices.Contains(lits[i+1:], l) {
			return true
		}
	}
	return false
}

// shaper serialises a statement's shape into key — an encoding every
// node of which starts with its own tag and whose strings and lists carry
// their lengths, so two trees share a key only when they are equal but
// for the values of their lifted literals — and collects those literals.
type shaper struct {
	key  []byte
	lits []*ast.Literal
	// opaque marks a tree holding a node the encoding does not know: it
	// is its own shape and lifts nothing.
	opaque bool
}

func (s *shaper) tag(b byte) { s.key = append(s.key, b) }

func (s *shaper) flag(b bool) {
	if b {
		s.tag(1)
	} else {
		s.tag(0)
	}
}

func (s *shaper) int(n int64) { s.key = binary.AppendVarint(s.key, n) }

func (s *shaper) str(v string) {
	s.key = append(binary.AppendUvarint(s.key, uint64(len(v))), v...)
}

func (s *shaper) statement(st ast.Statement) bool {
	switch x := st.(type) {
	case *ast.Select:
		s.tag('S')
		s.sel(x, true)
	case *ast.Update:
		s.tag('U')
		s.str(x.Table)
		s.int(int64(len(x.Sets)))
		for _, c := range x.Sets {
			s.str(c.Column)
			s.expr(c.Value, true)
		}
		s.expr(x.Where, true)
	case *ast.Delete:
		s.tag('D')
		s.str(x.Table)
		s.expr(x.Where, true)
	default:
		return false
	}
	return true
}

// sel encodes one query block; lift says whether its WHERE and ON
// predicates may lift literals (not when the block sits where nothing is
// lifted, such as a subquery in a select list).
func (s *shaper) sel(x *ast.Select, lift bool) {
	if x == nil {
		s.tag(0)
		return
	}
	s.tag('s')
	s.flag(x.Distinct)
	s.int(int64(len(x.Items)))
	for _, it := range x.Items {
		s.flag(it.Star)
		s.str(it.StarTable)
		s.expr(it.Expr, false)
		s.str(it.Alias)
	}
	s.int(int64(len(x.From)))
	for _, f := range x.From {
		s.ref(f.Table, lift)
		s.int(int64(len(f.Joins)))
		for _, j := range f.Joins {
			s.int(int64(j.Type))
			s.ref(j.Right, lift)
			s.expr(j.On, lift)
		}
	}
	s.expr(x.Where, lift)
	s.exprs(x.GroupBy, false)
	s.expr(x.Having, false)
	s.int(int64(len(x.OrderBy)))
	for _, o := range x.OrderBy {
		s.expr(o.Expr, false)
		s.flag(o.Desc)
	}
	s.int(x.Limit)
	s.int(int64(x.LimitSyn))
	s.flag(x.UnionAll)
	s.sel(x.Union, lift)
}

func (s *shaper) ref(r ast.TableRef, lift bool) {
	s.str(r.Name)
	s.str(r.Alias)
	s.sel(r.Subquery, lift)
}

func (s *shaper) exprs(xs []ast.Expr, lift bool) {
	s.int(int64(len(xs)))
	for _, x := range xs {
		s.expr(x, lift)
	}
}

func (s *shaper) expr(x ast.Expr, lift bool) {
	switch n := x.(type) {
	case nil:
		s.tag(0)
	case *ast.Literal:
		if lift {
			s.tag('?')
			s.int(int64(n.Val.K))
			s.lits = append(s.lits, n)
		} else {
			s.tag('l')
			s.key = append(n.Val.AppendEncode(s.key), ',')
		}
	case *ast.Param:
		s.tag('$')
		s.int(int64(n.N))
	case *ast.ColumnRef:
		s.tag('c')
		s.str(n.Table)
		s.str(n.Column)
	case *ast.Binary:
		s.tag('b')
		s.int(int64(n.Op))
		s.expr(n.L, lift)
		s.expr(n.R, lift)
	case *ast.Unary:
		s.tag('u')
		s.str(n.Op)
		s.expr(n.X, lift)
	case *ast.FuncCall:
		s.tag('f')
		s.str(n.Name)
		s.flag(n.Star)
		s.flag(n.Distinct)
		s.exprs(n.Args, false)
	case *ast.In:
		s.tag('i')
		s.flag(n.Not)
		s.expr(n.X, lift)
		s.exprs(n.List, lift)
		s.sel(n.Select, lift)
	case *ast.Exists:
		s.tag('e')
		s.flag(n.Not)
		s.sel(n.Select, lift)
	case *ast.Subquery:
		s.tag('q')
		s.sel(n.Select, lift)
	case *ast.Between:
		s.tag('w')
		s.flag(n.Not)
		s.expr(n.X, lift)
		s.expr(n.Lo, lift)
		s.expr(n.Hi, lift)
	case *ast.Like:
		s.tag('k')
		s.flag(n.Not)
		s.expr(n.X, lift)
		s.expr(n.Pattern, lift)
	case *ast.IsNull:
		s.tag('n')
		s.flag(n.Not)
		s.expr(n.X, lift)
	case *ast.Case:
		s.tag('C')
		s.expr(n.Operand, lift)
		s.int(int64(len(n.Whens)))
		for _, w := range n.Whens {
			s.expr(w.Cond, lift)
			s.expr(w.Then, lift)
		}
		s.expr(n.Else, lift)
	case *ast.Cast:
		s.tag('T')
		s.expr(n.X, lift)
		s.str(n.To.Name)
		s.int(int64(len(n.To.Args)))
		for _, a := range n.To.Args {
			s.int(int64(a))
		}
	default:
		s.opaque = true
	}
}
