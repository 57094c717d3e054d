package engine

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// ErrDivideByZero is returned by / and % with a zero divisor.
var ErrDivideByZero = errors.New("division by zero")

// env is the run-time image of a scope chain: the row the expressions of
// one scope read and the env of the scope enclosing it. A grouped core
// evaluates its items and HAVING over an env whose row is the group's
// first (all NULLs for a global aggregate over no rows) and whose group
// holds every row of it, for the aggregates.
type env struct {
	row     []types.Value
	outer   *env
	group   [][]types.Value
	grouped bool
}

// eval is the engine's one scalar evaluator: it runs an expression lower
// resolved over the env chain en (nil for an expression that reads no
// row).
func (s *Session) eval(x rexpr, en *env) (types.Value, error) {
	switch n := x.(type) {
	case litX:
		return n.Val, nil
	case slotX:
		return s.lits[n].Val, nil
	case paramX:
		if n.N < 1 || n.N > len(s.bind) {
			return types.Value{}, fmt.Errorf("%w: no value bound for parameter $%d", stmt.ErrBind, n.N)
		}
		return s.bind[n.N-1], nil
	case *colX:
		for d := n.depth; d > 0; d-- {
			en = en.outer
		}
		return en.row[n.i], nil
	case *binX:
		return s.evalBinary(n, en)
	case *unX:
		return s.evalUnary(n, en)
	case *funcX:
		m := s.mem.mark()
		v, err := s.evalFunc(n, en)
		s.mem.rewind(m)
		return v, err
	case *aggX:
		return s.evalAggregate(n, en)
	case *inX:
		return s.evalIn(n, en)
	case *selectX:
		m := s.mem.mark()
		v, err := s.evalSubquery(n, en)
		s.mem.rewind(m)
		return v, err
	case *betweenX:
		v, err := s.eval(n.x, en)
		if err != nil {
			return types.Value{}, err
		}
		lo, err := s.eval(n.lo, en)
		if err != nil {
			return types.Value{}, err
		}
		hi, err := s.eval(n.hi, en)
		if err != nil {
			return types.Value{}, err
		}
		geLo := compareTruth(v, lo, func(c int) bool { return c >= 0 })
		leHi := compareTruth(v, hi, func(c int) bool { return c <= 0 })
		t := geLo.And(leHi)
		if n.not {
			t = t.Not()
		}
		return t.Val(), nil
	case *likeX:
		v, err := s.eval(n.x, en)
		if err != nil {
			return types.Value{}, err
		}
		pat, err := s.eval(n.pat, en)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return types.Null(), nil
		}
		return types.NewBool(likeMatch(v.String(), pat.String()) != n.not), nil
	case *caseX:
		return s.evalCase(n, en)
	case *castX:
		v, err := s.eval(n.x, en)
		if err != nil {
			return types.Value{}, err
		}
		return coerce(v, n.kind)
	}
	return types.Value{}, fmt.Errorf("unresolved expression %T", x)
}

// evalFunc calls a builtin. Its argument vector, and whatever evaluating
// the arguments took from the arena, die with the call: eval rewinds the
// arena past them.
func (s *Session) evalFunc(n *funcX, en *env) (types.Value, error) {
	args := s.mem.values(len(n.args))
	for i, a := range n.args {
		v, err := s.eval(a, en)
		if err != nil {
			return types.Value{}, err
		}
		args[i] = v
	}
	return n.fn(&s.fctx, args)
}

// evalSubquery answers EXISTS or a scalar subquery; eval rewinds the
// arena past the rows the run took once the answer is read.
func (s *Session) evalSubquery(n *selectX, en *env) (types.Value, error) {
	rows, err := s.runSelect(n.sub, en, &s.mem)
	switch {
	case err != nil:
		return types.Value{}, err
	case n.exists:
		return types.NewBool((len(rows) > 0) != n.not), nil
	case len(rows) == 0:
		return types.Null(), nil
	case len(rows) > 1:
		return types.Value{}, errors.New("scalar subquery returned more than one row")
	}
	return rows[0][0], nil
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

func (s *Session) evalBinary(n *binX, en *env) (types.Value, error) {
	l, err := s.eval(n.l, en)
	if err != nil {
		return types.Value{}, err
	}
	if n.op == ast.OpAnd || n.op == ast.OpOr {
		// The left operand decides unless it is Unknown — except over a
		// group, where both operands are always evaluated.
		lt := types.TruthOf(l)
		decided := lt == types.False
		if n.op == ast.OpOr {
			decided = lt == types.True
		}
		if decided && !(n.strict && en.grouped) {
			return lt.Val(), nil
		}
		r, err := s.eval(n.r, en)
		if err != nil {
			return types.Value{}, err
		}
		if n.op == ast.OpAnd {
			return lt.And(types.TruthOf(r)).Val(), nil
		}
		return lt.Or(types.TruthOf(r)).Val(), nil
	}
	r, err := s.eval(n.r, en)
	if err != nil {
		return types.Value{}, err
	}
	switch n.op {
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
		return s.arith(n.op, l, r)
	default:
		return types.Value{}, fmt.Errorf("unsupported operator %s", n.op)
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

func (s *Session) evalUnary(n *unX, en *env) (types.Value, error) {
	v, err := s.eval(n.x, en)
	if err != nil {
		return types.Value{}, err
	}
	switch n.op {
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
		return types.NewFloat(-v.F()), nil
	case "+":
		return v, nil
	case "NOT":
		if v.IsNull() && plantedNotNullDefect.Load() {
			return types.True.Val(), nil
		}
		return types.TruthOf(v).Not().Val(), nil
	case "IS NULL", "IS NOT NULL":
		return types.NewBool(v.IsNull() == (n.op == "IS NULL")), nil
	default:
		return types.Value{}, fmt.Errorf("unsupported unary operator %s", n.op)
	}
}

// evalIn evaluates every candidate — the list's, or the subquery's rows —
// before it answers, so an error anywhere in the list surfaces.
func (s *Session) evalIn(n *inX, en *env) (types.Value, error) {
	v, err := s.eval(n.x, en)
	if err != nil {
		return types.Value{}, err
	}
	found, sawNull := false, false
	match := func(c types.Value) {
		switch {
		case c.IsNull():
			sawNull = true
		case !found && !v.IsNull():
			cmp, err := compareCoercing(v, c)
			found = err == nil && cmp == 0
		}
	}
	if n.sub != nil {
		m := s.mem.mark()
		err := s.matchSubquery(n, v, en, match)
		s.mem.rewind(m)
		if err != nil {
			return types.Value{}, err
		}
	} else {
		for _, item := range n.list {
			c, err := s.eval(item, en)
			if err != nil {
				return types.Value{}, err
			}
			match(c)
		}
	}
	switch {
	case v.IsNull():
		return types.Null(), nil
	case found:
		return types.NewBool(!n.not), nil
	case sawNull:
		return types.Null(), nil
	}
	return types.NewBool(n.not), nil
}

// matchSubquery hands match every value the IN subquery produces — or,
// when its rows are chained (inSet), only what decides: v itself if its
// chain holds it, and a NULL if the rows hold one. evalIn rewinds the
// arena past the rows once they are matched.
func (s *Session) matchSubquery(n *inX, v types.Value, en *env, match func(types.Value)) error {
	if n.err != nil {
		return n.err
	}
	rows, err := s.runSelect(n.sub, en, &s.mem)
	if err != nil {
		return err
	}
	if r := s.inSet(n.sub, rows); r != nil && v.K == types.KindInt {
		// Every value is an INT or NULL: v equals one exactly when its
		// chain holds it.
		if r.set.first(v, rows, 0) >= 0 {
			match(v)
		}
		if r.hasNull {
			match(types.Null())
		}
		return nil
	}
	for _, row := range rows {
		match(row[0])
	}
	return nil
}

func (s *Session) evalCase(n *caseX, en *env) (types.Value, error) {
	var op types.Value
	if n.operand != nil {
		var err error
		if op, err = s.eval(n.operand, en); err != nil {
			return types.Value{}, err
		}
	}
	for _, w := range n.whens {
		c, err := s.eval(w.cond, en)
		if err != nil {
			return types.Value{}, err
		}
		if n.operand != nil && types.Equal(op, c) || n.operand == nil && types.TruthOf(c) == types.True {
			return s.eval(w.then, en)
		}
	}
	if n.els != nil {
		return s.eval(n.els, en)
	}
	return types.Null(), nil
}

// evalAggregate folds the aggregate's argument over the rows of the group
// en holds, each read through an env of its own under the core's outer.
func (s *Session) evalAggregate(n *aggX, en *env) (types.Value, error) {
	if n.star {
		return types.NewInt(int64(len(en.group))), nil
	}
	vals := s.mem.values(len(en.group))[:0]
	var seen map[string]struct{}
	if n.distinct {
		seen = make(map[string]struct{})
	}
	row := s.mem.env(en.outer)
	for _, r := range en.group {
		row.row = r
		v, err := s.eval(n.arg, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if n.distinct {
			// Values are distinct by their text and kind.
			s.keyBuf = append(append(v.AppendText(s.keyBuf[:0]), 0x1f), v.K.String()...)
			if _, dup := seen[string(s.keyBuf)]; dup {
				continue
			}
			seen[string(s.keyBuf)] = struct{}{}
		}
		vals = append(vals, v)
	}
	switch {
	case n.name == "COUNT":
		return types.NewInt(int64(len(vals))), nil
	case len(vals) == 0:
		return types.Null(), nil
	case n.name == "MIN" || n.name == "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := types.Compare(v, best)
			if err != nil {
				return types.Value{}, err
			}
			if (n.name == "MIN" && c < 0) || (n.name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	// SUM, AVG
	allInt, sum, isum := true, 0.0, int64(0)
	for _, v := range vals {
		nv, err := numericOperand(v)
		if err != nil {
			return types.Value{}, err
		}
		allInt = allInt && nv.K == types.KindInt
		sum += nv.AsFloat()
		isum += nv.AsInt() // read only when every value is an INT
	}
	switch {
	case n.name == "AVG":
		return types.NewFloat(sum / float64(len(vals))), nil
	case allInt:
		return types.NewInt(isum), nil
	}
	return types.NewFloat(sum), nil
}

// likeMatch implements SQL LIKE over bytes: % matches any run, _ any one
// byte. Only the last % met is ever backtracked to — it can absorb
// whatever an earlier one would have — so the match is iterative and
// O(len(s)·len(p)).
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // the pattern position after the last %, and the s position it resumes from
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			pi++
			star, mark = pi, si
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// floatToInt truncates f toward zero into an INTEGER. Outside
// [-2^63, 2^63), NaN included, it fails instead: Go's int64(f) is
// implementation-defined there.
func floatToInt(f float64) (types.Value, error) {
	if !inIntRange(f) {
		return types.Value{}, fmt.Errorf("%w: %v out of range for INTEGER column", ErrType, f)
	}
	return types.NewInt(int64(f)), nil
}

func inIntRange(f float64) bool { return f >= -(1<<63) && f < 1<<63 }

// IntArg reads a builtin's integer argument — a length, a position, a
// digit count, an increment: an INT as it is, a FLOAT truncated toward
// zero under floatToInt's range rule (ErrType outside it), any other
// kind as 0.
func IntArg(v types.Value) (int64, error) {
	if v.K != types.KindFloat {
		return v.AsInt(), nil
	}
	f := v.F()
	if !inIntRange(f) {
		return 0, fmt.Errorf("%w: %v out of range for an INTEGER argument", ErrType, f)
	}
	return int64(f), nil
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
			return floatToInt(v.F())
		case types.KindBool:
			if v.B() {
				return types.NewInt(1), nil
			}
			return types.NewInt(0), nil
		case types.KindString:
			s := strings.TrimSpace(v.S)
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				return types.NewInt(i), nil
			}
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				return floatToInt(f)
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
