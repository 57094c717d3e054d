package fault

import (
	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

// Apply deterministically corrupts a result set according to the
// mutation. The input is cloned; the original result is never modified.
// Non-row results are returned unchanged (mutations target query output).
func Apply(m Mutation, res *engine.Result) *engine.Result {
	if res == nil || res.Kind != engine.ResultRows || m == MutNone {
		return res
	}
	out := res.Clone()
	switch m {
	case MutDropLastRow:
		if len(out.Rows) > 0 {
			out.Rows = out.Rows[:len(out.Rows)-1]
		}
	case MutDupFirstRow:
		if len(out.Rows) > 0 {
			dup := append([]types.Value(nil), out.Rows[0]...)
			out.Rows = append(out.Rows, dup)
		}
	case MutNegateInts:
		mutateFirst(out, func(v types.Value) (types.Value, bool) {
			if v.K == types.KindInt {
				return types.NewInt(-v.I), true
			}
			if v.K == types.KindFloat {
				return types.NewFloat(-v.F()), true
			}
			return v, false
		})
	case MutNullCell:
		if len(out.Rows) > 0 && len(out.Rows[0]) > 0 {
			out.Rows[0][0] = types.Null()
		}
	case MutOffByOne:
		mutateFirst(out, func(v types.Value) (types.Value, bool) {
			if v.K == types.KindInt {
				return types.NewInt(v.I + 1), true
			}
			if v.K == types.KindFloat {
				return types.NewFloat(v.F() + 1), true
			}
			return v, false
		})
	case MutBlankColumns:
		for i := range out.Columns {
			out.Columns[i] = ""
		}
	case MutEmptyResult:
		out.Rows = nil
	case MutScaleFloats:
		for _, row := range out.Rows {
			for i, v := range row {
				switch v.K {
				case types.KindFloat:
					row[i] = types.NewFloat(v.F() * 10)
				case types.KindInt:
					row[i] = types.NewInt(v.I * 10)
				}
			}
		}
	}
	return out
}

// mutateFirst applies fn to the first cell (scanning row-major) for which
// fn reports success.
func mutateFirst(res *engine.Result, fn func(types.Value) (types.Value, bool)) {
	for _, row := range res.Rows {
		for i, v := range row {
			if nv, ok := fn(v); ok {
				row[i] = nv
				return
			}
		}
	}
}
