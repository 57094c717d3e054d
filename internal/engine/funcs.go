package engine

import (
	"fmt"
	"math"
	"strings"

	"divsql/internal/sql/types"
)

// SequenceNext advances a sequence by incr and returns the new value.
// The cursor is guarded by the engine's seqMu: sequences advance from
// DML expressions and sequence-advancing SELECTs that hold only the
// engine read lock, outside any table latch.
func (e *Session) SequenceNext(name string, incr int64) (types.Value, error) {
	n := up(name)
	s, ok := e.eng.st.seqs[n]
	if !ok {
		return types.Value{}, fmt.Errorf("%w: sequence %s", ErrTableNotFound, name)
	}
	e.eng.seqMu.Lock()
	val := s.Next
	s.Next += incr
	e.eng.seqMu.Unlock()
	e.logUndoSeq(func(dst *state, _ bool) {
		if sq, ok := dst.seqs[n]; ok {
			sq.Next = val
		}
	})
	return types.NewInt(val), nil
}

// argNull reports whether any argument is NULL (the common NULL-in,
// NULL-out rule for scalar functions).
func argNull(args []types.Value) bool {
	for _, a := range args {
		if a.IsNull() {
			return true
		}
	}
	return false
}

// AllBuiltins returns the full scalar-function catalogue keyed by
// canonical name. Dialects remap subsets of these under their own names.
func AllBuiltins() map[string]Builtin {
	m := make(map[string]Builtin)
	add := func(b Builtin) { m[b.Name] = b }

	add(Builtin{Name: "UPPER", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		return types.NewString(strings.ToUpper(a[0].String())), nil
	}})
	add(Builtin{Name: "LOWER", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		return types.NewString(strings.ToLower(a[0].String())), nil
	}})
	add(Builtin{Name: "LENGTH", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		return types.NewInt(int64(len(a[0].String()))), nil
	}})
	add(Builtin{Name: "TRIM", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		return types.NewString(strings.TrimSpace(a[0].String())), nil
	}})
	add(Builtin{Name: "SUBSTR", MinArgs: 2, MaxArgs: 3, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		s := a[0].String()
		start, err := IntArg(a[1])
		if err != nil {
			return types.Value{}, err
		}
		n := int64(len(s))
		if len(a) == 3 {
			if n, err = IntArg(a[2]); err != nil {
				return types.Value{}, err
			}
		}
		if start < 1 {
			start = 1
		}
		if start > int64(len(s)) {
			return types.NewString(""), nil
		}
		rest := s[start-1:]
		if n < 0 {
			n = 0
		}
		if n < int64(len(rest)) {
			rest = rest[:n]
		}
		return types.NewString(rest), nil
	}})
	add(Builtin{Name: "REPLACE", MinArgs: 3, MaxArgs: 3, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		return types.NewString(strings.ReplaceAll(a[0].String(), a[1].String(), a[2].String())), nil
	}})
	add(Builtin{Name: "ABS", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		v, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		if v.K == types.KindInt {
			return types.NewInt(abs64(v.I)), nil
		}
		return types.NewFloat(math.Abs(v.F())), nil
	}})
	add(Builtin{Name: "SIGN", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		v, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		f := v.AsFloat()
		switch {
		case f > 0:
			return types.NewInt(1), nil
		case f < 0:
			return types.NewInt(-1), nil
		default:
			return types.NewInt(0), nil
		}
	}})
	add(Builtin{Name: "FLOOR", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		v, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		return types.NewFloat(math.Floor(v.AsFloat())), nil
	}})
	add(Builtin{Name: "CEIL", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		v, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		return types.NewFloat(math.Ceil(v.AsFloat())), nil
	}})
	add(Builtin{Name: "ROUND", MinArgs: 1, MaxArgs: 2, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		v, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		var digits int64
		if len(a) == 2 {
			if digits, err = IntArg(a[1]); err != nil {
				return types.Value{}, err
			}
		}
		// A scale below float64's range is 0, and one above it, or a
		// scaled value, is not finite: no digit there to round.
		x, scale := v.AsFloat(), math.Pow(10, float64(digits))
		if scale == 0 {
			return types.NewFloat(0), nil
		} else if y := x * scale; math.IsInf(y, 0) || math.IsNaN(y) {
			return types.NewFloat(x), nil
		}
		return types.NewFloat(math.Round(x*scale) / scale), nil
	}})
	add(Builtin{Name: "POWER", MinArgs: 2, MaxArgs: 2, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		x, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		y, err := numericOperand(a[1])
		if err != nil {
			return types.Value{}, err
		}
		return types.NewFloat(math.Pow(x.AsFloat(), y.AsFloat())), nil
	}})
	add(Builtin{Name: "SQRT", MinArgs: 1, MaxArgs: 1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		v, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		if v.AsFloat() < 0 {
			return types.Value{}, fmt.Errorf("%w: SQRT of negative number", ErrType)
		}
		return types.NewFloat(math.Sqrt(v.AsFloat())), nil
	}})
	add(Builtin{Name: "MOD", MinArgs: 2, MaxArgs: 2, Fn: func(ctx *FuncContext, a []types.Value) (types.Value, error) {
		if argNull(a) {
			return types.Null(), nil
		}
		l, err := numericOperand(a[0])
		if err != nil {
			return types.Value{}, err
		}
		r, err := numericOperand(a[1])
		if err != nil {
			return types.Value{}, err
		}
		return ctx.Sess.mod(l, r)
	}})
	add(Builtin{Name: "COALESCE", MinArgs: 1, MaxArgs: -1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null(), nil
	}})
	add(Builtin{Name: "NULLIF", MinArgs: 2, MaxArgs: 2, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		if !a[0].IsNull() && !a[1].IsNull() && types.Equal(a[0], a[1]) {
			return types.Null(), nil
		}
		return a[0], nil
	}})
	add(Builtin{Name: "CONCAT", MinArgs: 2, MaxArgs: -1, Fn: func(_ *FuncContext, a []types.Value) (types.Value, error) {
		var sb strings.Builder
		for _, v := range a {
			if v.IsNull() {
				continue
			}
			sb.WriteString(v.String())
		}
		return types.NewString(sb.String()), nil
	}})
	add(Builtin{Name: "NEXTVAL", MinArgs: 1, MaxArgs: 2, SeqFunc: true})
	return m
}
