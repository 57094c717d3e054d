package engine

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// ErrDivideByZero is returned by / and % with a zero divisor.
var ErrDivideByZero = errors.New("division by zero")

// scope resolves column references during evaluation. Scopes nest so that
// correlated subqueries can see the columns of enclosing queries. A scope
// without values is a probe: compilation resolves references against the
// columns an expression will see.
type scope struct {
	cols   []scopeCol
	vals   []types.Value
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

func (sc *scope) lookup(qual, name string) (types.Value, bool, error) {
	qual, name = up(qual), up(name)
	for s := sc; s != nil; s = s.parent {
		switch i, err := s.ordinal(qual, name); {
		case err != nil:
			return types.Value{}, false, err
		case i < 0:
		case s.vals == nil:
			return types.Value{}, true, nil
		default:
			return s.vals[i], true, nil
		}
	}
	return types.Value{}, false, nil
}

// evalConst evaluates an expression with no row context (DEFAULT values,
// literal-only expressions).
func (e *Session) evalConst(x ast.Expr) (types.Value, error) {
	return e.evalExpr(x, nil)
}

func (e *Session) evalExpr(x ast.Expr, sc *scope) (types.Value, error) {
	switch n := x.(type) {
	case *ast.Literal:
		return n.Val, nil
	case *ast.Param:
		if n.N < 1 || n.N > len(e.bind) {
			return types.Value{}, fmt.Errorf("%w: no value bound for parameter $%d", ErrBind, n.N)
		}
		return e.bind[n.N-1], nil
	case *ast.ColumnRef:
		v, ok, err := sc.lookupRef(n)
		if err != nil {
			return types.Value{}, err
		}
		if !ok {
			return types.Value{}, fmt.Errorf("unknown column %s", refName(n))
		}
		return v, nil
	case *ast.Binary:
		return e.evalBinary(n, sc)
	case *ast.Unary:
		return e.evalUnary(n, sc)
	case *ast.FuncCall:
		return e.evalFunc(n, sc)
	case *ast.In:
		return e.evalIn(n, sc)
	case *ast.Exists:
		_, rows, err := e.subquery(n.Select, sc)
		if err != nil {
			return types.Value{}, err
		}
		has := len(rows) > 0
		if n.Not {
			has = !has
		}
		return types.NewBool(has), nil
	case *ast.Subquery:
		_, rows, err := e.subquery(n.Select, sc)
		if err != nil {
			return types.Value{}, err
		}
		if len(rows) == 0 {
			return types.Null(), nil
		}
		if len(rows) > 1 {
			return types.Value{}, errors.New("scalar subquery returned more than one row")
		}
		if len(rows[0]) != 1 {
			return types.Value{}, errors.New("scalar subquery must return one column")
		}
		return rows[0][0], nil
	case *ast.Between:
		v, err := e.evalExpr(n.X, sc)
		if err != nil {
			return types.Value{}, err
		}
		lo, err := e.evalExpr(n.Lo, sc)
		if err != nil {
			return types.Value{}, err
		}
		hi, err := e.evalExpr(n.Hi, sc)
		if err != nil {
			return types.Value{}, err
		}
		geLo := compareTruth(v, lo, func(c int) bool { return c >= 0 })
		leHi := compareTruth(v, hi, func(c int) bool { return c <= 0 })
		t := geLo.And(leHi)
		if n.Not {
			t = t.Not()
		}
		return t.Val(), nil
	case *ast.Like:
		v, err := e.evalExpr(n.X, sc)
		if err != nil {
			return types.Value{}, err
		}
		pat, err := e.evalExpr(n.Pattern, sc)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return types.Null(), nil
		}
		m := likeMatch(v.String(), pat.String())
		if n.Not {
			m = !m
		}
		return types.NewBool(m), nil
	case *ast.IsNull:
		v, err := e.evalExpr(n.X, sc)
		if err != nil {
			return types.Value{}, err
		}
		isNull := v.IsNull()
		if n.Not {
			isNull = !isNull
		}
		return types.NewBool(isNull), nil
	case *ast.Case:
		return e.evalCase(n, sc)
	case *ast.Cast:
		v, err := e.evalExpr(n.X, sc)
		if err != nil {
			return types.Value{}, err
		}
		kind, err := e.eng.cfg.ResolveType(n.To)
		if err != nil {
			return types.Value{}, err
		}
		return coerce(v, kind)
	case nil:
		return types.Null(), nil
	default:
		return types.Value{}, fmt.Errorf("unsupported expression %T", x)
	}
}

func (sc *scope) lookupRef(n *ast.ColumnRef) (types.Value, bool, error) {
	if sc == nil {
		return types.Value{}, false, nil
	}
	return sc.lookup(n.Table, n.Column)
}

func refName(n *ast.ColumnRef) string {
	if n.Table != "" {
		return n.Table + "." + n.Column
	}
	return n.Column
}

func compareTruth(a, b types.Value, ok func(int) bool) types.Truth {
	if a.IsNull() || b.IsNull() {
		return types.Unknown
	}
	c, err := compareCoercing(a, b)
	if err != nil {
		return types.Unknown
	}
	if ok(c) {
		return types.True
	}
	return types.False
}

// compareCoercing compares values, normalizing date-vs-string pairs so
// that '2000-9-6' matches a DATE column holding 2000-09-06.
func compareCoercing(a, b types.Value) (int, error) {
	if a.K == types.KindDate && b.K == types.KindString {
		if d, err := types.ParseDate(b.S); err == nil {
			b = d
		}
	}
	if b.K == types.KindDate && a.K == types.KindString {
		if d, err := types.ParseDate(a.S); err == nil {
			a = d
		}
	}
	return types.Compare(a, b)
}

func (e *Session) evalBinary(n *ast.Binary, sc *scope) (types.Value, error) {
	switch n.Op {
	case ast.OpAnd:
		l, err := e.evalExpr(n.L, sc)
		if err != nil {
			return types.Value{}, err
		}
		lt := types.TruthOf(l)
		if lt == types.False {
			return types.NewBool(false), nil
		}
		r, err := e.evalExpr(n.R, sc)
		if err != nil {
			return types.Value{}, err
		}
		return lt.And(types.TruthOf(r)).Val(), nil
	case ast.OpOr:
		l, err := e.evalExpr(n.L, sc)
		if err != nil {
			return types.Value{}, err
		}
		lt := types.TruthOf(l)
		if lt == types.True {
			return types.NewBool(true), nil
		}
		r, err := e.evalExpr(n.R, sc)
		if err != nil {
			return types.Value{}, err
		}
		return lt.Or(types.TruthOf(r)).Val(), nil
	}

	l, err := e.evalExpr(n.L, sc)
	if err != nil {
		return types.Value{}, err
	}
	r, err := e.evalExpr(n.R, sc)
	if err != nil {
		return types.Value{}, err
	}

	switch n.Op {
	case ast.OpEq:
		return compareTruth(l, r, func(c int) bool { return c == 0 }).Val(), nil
	case ast.OpNe:
		return compareTruth(l, r, func(c int) bool { return c != 0 }).Val(), nil
	case ast.OpLt:
		return compareTruth(l, r, func(c int) bool { return c < 0 }).Val(), nil
	case ast.OpLe:
		return compareTruth(l, r, func(c int) bool { return c <= 0 }).Val(), nil
	case ast.OpGt:
		return compareTruth(l, r, func(c int) bool { return c > 0 }).Val(), nil
	case ast.OpGe:
		return compareTruth(l, r, func(c int) bool { return c >= 0 }).Val(), nil
	case ast.OpConcat:
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		return types.NewString(l.String() + r.String()), nil
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
		return e.arith(n.Op, l, r)
	default:
		return types.Value{}, fmt.Errorf("unsupported operator %s", n.Op)
	}
}

func numericOperand(v types.Value) (types.Value, error) {
	if v.IsNumeric() {
		return v, nil
	}
	if v.K == types.KindString {
		s := strings.TrimSpace(v.S)
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return types.NewInt(i), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return types.NewFloat(f), nil
		}
	}
	return types.Value{}, fmt.Errorf("%w: %s is not numeric", ErrType, v.K)
}

func (e *Session) arith(op ast.BinaryOp, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	l, err := numericOperand(l)
	if err != nil {
		return types.Value{}, err
	}
	r, err = numericOperand(r)
	if err != nil {
		return types.Value{}, err
	}
	bothInt := l.K == types.KindInt && r.K == types.KindInt
	switch op {
	case ast.OpAdd:
		if bothInt {
			return types.NewInt(l.I + r.I), nil
		}
		return types.NewFloat(l.AsFloat() + r.AsFloat()), nil
	case ast.OpSub:
		if bothInt {
			return types.NewInt(l.I - r.I), nil
		}
		return types.NewFloat(l.AsFloat() - r.AsFloat()), nil
	case ast.OpMul:
		if bothInt {
			return types.NewInt(l.I * r.I), nil
		}
		f := l.AsFloat() * r.AsFloat()
		if e.eng.cfg.Quirks.FloatMulPrecisionLoss {
			// Quirk (PG bug 77, shared by MS): the result passes through
			// 32-bit precision, silently losing significant digits.
			f = float64(float32(f))
		}
		return types.NewFloat(f), nil
	case ast.OpDiv:
		if r.AsFloat() == 0 {
			return types.Value{}, ErrDivideByZero
		}
		if bothInt {
			return types.NewInt(l.I / r.I), nil
		}
		return types.NewFloat(l.AsFloat() / r.AsFloat()), nil
	case ast.OpMod:
		return e.mod(l, r)
	default:
		return types.Value{}, fmt.Errorf("unsupported arithmetic operator %s", op)
	}
}

// mod implements MOD/% semantics: the sign of the result follows the
// dividend. Two quirks model the paper's arithmetic bugs (OR 1059835 and
// the PG member of the same failure region) with different incorrect
// results, so a diverse pair detects the failure.
func (e *Session) mod(l, r types.Value) (types.Value, error) {
	if r.AsFloat() == 0 {
		return types.Value{}, ErrDivideByZero
	}
	if l.K == types.KindInt && r.K == types.KindInt {
		res := l.I % r.I
		if l.I < 0 {
			switch {
			case e.eng.cfg.Quirks.ModNegativePlus && res != 0:
				res += abs64(r.I)
			case e.eng.cfg.Quirks.ModNegativeAbs:
				res = abs64(res)
			}
		}
		return types.NewInt(res), nil
	}
	res := math.Mod(l.AsFloat(), r.AsFloat())
	if l.AsFloat() < 0 {
		switch {
		case e.eng.cfg.Quirks.ModNegativePlus && res != 0:
			res += math.Abs(r.AsFloat())
		case e.eng.cfg.Quirks.ModNegativeAbs:
			res = math.Abs(res)
		}
	}
	return types.NewFloat(res), nil
}

func abs64(i int64) int64 {
	if i < 0 {
		return -i
	}
	return i
}

func (e *Session) evalUnary(n *ast.Unary, sc *scope) (types.Value, error) {
	v, err := e.evalExpr(n.X, sc)
	if err != nil {
		return types.Value{}, err
	}
	switch n.Op {
	case "-":
		if v.IsNull() {
			return v, nil
		}
		v, err := numericOperand(v)
		if err != nil {
			return types.Value{}, err
		}
		if v.K == types.KindInt {
			return types.NewInt(-v.I), nil
		}
		return types.NewFloat(-v.F), nil
	case "+":
		return v, nil
	case "NOT":
		if v.IsNull() && plantedNotNullDefect.Load() {
			return types.True.Val(), nil
		}
		return types.TruthOf(v).Not().Val(), nil
	default:
		return types.Value{}, fmt.Errorf("unsupported unary operator %s", n.Op)
	}
}

func (e *Session) evalIn(n *ast.In, sc *scope) (types.Value, error) {
	v, err := e.evalExpr(n.X, sc)
	if err != nil {
		return types.Value{}, err
	}
	var candidates []types.Value
	if n.Select != nil {
		if n.Select.Union != nil {
			if e.eng.cfg.Quirks.ParenUnionSubqueryError {
				// Quirk (PG bug 43): the parser chokes on UNION branches
				// inside an IN subquery.
				return types.Value{}, errors.New("parse error: unexpected UNION in subquery")
			}
			if e.eng.cfg.Quirks.ParenUnionSubqueryMisparse {
				// Quirk (bug 43 on MS): an incorrect parse tree is built
				// for the UNION subquery and a spurious resolution error
				// surfaces when the tree is evaluated.
				return types.Value{}, errors.New("internal error: could not resolve column in subquery parse tree")
			}
		}
		cs, rows, err := e.subquery(n.Select, sc)
		if err != nil {
			return types.Value{}, err
		}
		if len(cs.outCols()) != 1 {
			return types.Value{}, errors.New("IN subquery must return one column")
		}
		for _, row := range rows {
			candidates = append(candidates, row[0])
		}
	} else {
		for _, item := range n.List {
			iv, err := e.evalExpr(item, sc)
			if err != nil {
				return types.Value{}, err
			}
			candidates = append(candidates, iv)
		}
	}
	if v.IsNull() {
		return types.Null(), nil
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if cmp, err := compareCoercing(v, c); err == nil && cmp == 0 {
			if n.Not {
				return types.NewBool(false), nil
			}
			return types.NewBool(true), nil
		}
	}
	if sawNull {
		return types.Null(), nil
	}
	return types.NewBool(n.Not), nil
}

func (e *Session) evalCase(n *ast.Case, sc *scope) (types.Value, error) {
	if n.Operand != nil {
		op, err := e.evalExpr(n.Operand, sc)
		if err != nil {
			return types.Value{}, err
		}
		for _, w := range n.Whens {
			wv, err := e.evalExpr(w.Cond, sc)
			if err != nil {
				return types.Value{}, err
			}
			if types.Equal(op, wv) {
				return e.evalExpr(w.Then, sc)
			}
		}
	} else {
		for _, w := range n.Whens {
			cv, err := e.evalExpr(w.Cond, sc)
			if err != nil {
				return types.Value{}, err
			}
			if types.TruthOf(cv) == types.True {
				return e.evalExpr(w.Then, sc)
			}
		}
	}
	if n.Else != nil {
		return e.evalExpr(n.Else, sc)
	}
	return types.Null(), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		if s == "" {
			return false
		}
		return likeRec(s[1:], p[1:])
	default:
		if s == "" || s[0] != p[0] {
			return false
		}
		return likeRec(s[1:], p[1:])
	}
}

// coerce converts a value to a column kind, returning an error when the
// conversion is not allowed.
func coerce(v types.Value, kind types.Kind) (types.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch kind {
	case types.KindInt:
		switch v.K {
		case types.KindInt:
			return v, nil
		case types.KindFloat:
			return types.NewInt(int64(v.F)), nil
		case types.KindBool:
			if v.B {
				return types.NewInt(1), nil
			}
			return types.NewInt(0), nil
		case types.KindString:
			s := strings.TrimSpace(v.S)
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				return types.NewInt(i), nil
			}
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				return types.NewInt(int64(f)), nil
			}
			return types.Value{}, fmt.Errorf("%w: cannot store '%s' in INTEGER column", ErrType, v.S)
		}
	case types.KindFloat:
		switch v.K {
		case types.KindFloat:
			return v, nil
		case types.KindInt:
			return types.NewFloat(float64(v.I)), nil
		case types.KindString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
				return types.NewFloat(f), nil
			}
			return types.Value{}, fmt.Errorf("%w: cannot store '%s' in NUMERIC column", ErrType, v.S)
		}
	case types.KindString:
		switch v.K {
		case types.KindString, types.KindDate:
			return types.NewString(v.S), nil
		default:
			return types.NewString(v.String()), nil
		}
	case types.KindDate:
		switch v.K {
		case types.KindDate:
			return v, nil
		case types.KindString:
			d, err := types.ParseDate(v.S)
			if err != nil {
				return types.Value{}, fmt.Errorf("%w: cannot store '%s' in DATE column", ErrType, v.S)
			}
			return d, nil
		}
	case types.KindBool:
		switch v.K {
		case types.KindBool:
			return v, nil
		case types.KindInt:
			return types.NewBool(v.I != 0), nil
		}
	}
	return types.Value{}, fmt.Errorf("%w: cannot store %s in %s column", ErrType, v.K, kind)
}
