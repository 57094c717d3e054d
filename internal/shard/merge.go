package shard

import (
	"fmt"
	"sort"
	"strings"

	"divsql/internal/engine"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// mergeScatter combines per-shard fragments of one SELECT into the
// result an unsharded server would have produced, under the
// co-partitioning assumption documented in the package comment (joins
// between banded tables join rows of one band, so the union of
// per-shard joins is the global join).
//
// Three shapes are handled:
//
//   - global aggregates (every projection a COUNT/SUM/MIN/MAX call, no
//     GROUP BY): recombined column-wise — COUNT and SUM sum across
//     shards, MIN/MAX take the extreme; AVG cannot be recombined from
//     per-shard AVGs and is rejected;
//   - GROUP BY: rejected (grouped fragments cannot be recombined
//     without re-aggregating, which the router does not do);
//   - plain row sets: concatenated in ascending shard order, re-sorted
//     by the statement's ORDER BY with the engine's comparator
//     (NULLs first), DISTINCT/UNION re-deduplicated, LIMIT re-applied.
func mergeScatter(sel *ast.Select, results []*engine.Result) (*engine.Result, error) {
	var frags []*engine.Result
	for _, res := range results {
		if res != nil && res.Kind == engine.ResultRows {
			frags = append(frags, res)
		}
	}
	if len(frags) == 0 {
		// Non-row results (possible when a view expands to something
		// odd); return the first shard's result as-is.
		for _, res := range results {
			if res != nil {
				return res, nil
			}
		}
		return nil, nil
	}
	if sel == nil {
		return nil, fmt.Errorf("shard: scatter-gather needs the parsed SELECT to merge")
	}
	if len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("shard: cross-shard GROUP BY is not supported (add a band predicate)")
	}
	if aggs, ok := aggregateShape(sel); ok {
		return mergeAggregates(aggs, frags)
	}
	if hasAggregate(sel) {
		return nil, fmt.Errorf("shard: cross-shard aggregate shape is not supported (add a band predicate)")
	}

	out := &engine.Result{
		Kind:    engine.ResultRows,
		Columns: append([]string(nil), frags[0].Columns...),
	}
	for _, f := range frags {
		out.Rows = append(out.Rows, f.Rows...)
	}
	// Each shard deduplicated its own fragment; equal rows from
	// different shards must collapse again.
	if sel.Distinct || (sel.Union != nil && !sel.UnionAll) {
		out.Rows = types.DistinctRows(out.Rows)
	}
	if len(sel.OrderBy) > 0 {
		if err := orderMerged(out, sel.OrderBy); err != nil {
			return nil, err
		}
	}
	if sel.LimitSyn != ast.LimitNone && int64(len(out.Rows)) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}
	return out, nil
}

// aggregateShape reports whether every projection is a recombinable
// aggregate call, returning the per-column function names.
func aggregateShape(sel *ast.Select) ([]string, bool) {
	if len(sel.Items) == 0 || sel.Union != nil {
		return nil, false
	}
	fns := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		fc, ok := it.Expr.(*ast.FuncCall)
		if !ok {
			return nil, false
		}
		if fc.Distinct {
			// COUNT(DISTINCT x) / SUM(DISTINCT x) cannot be recombined by
			// summing per-shard results: a distinct value of a non-band
			// column can exist on several shards, so the sum over-counts.
			return nil, false
		}
		fn := strings.ToUpper(fc.Name)
		switch fn {
		case "COUNT", "SUM", "MIN", "MAX":
			fns[i] = fn
		default:
			return nil, false
		}
	}
	return fns, true
}

// hasAggregate reports whether any projection contains an aggregate
// call (used to reject mixed shapes the merge cannot recombine). It
// recurses through UNION branches and derived tables: a per-shard
// aggregate anywhere in the compound query yields one local value per
// shard, which a plain row-set merge cannot recombine.
func hasAggregate(sel *ast.Select) bool {
	agg := false
	var walkSel func(s *ast.Select)
	walkSel = func(s *ast.Select) {
		if s == nil || agg {
			return
		}
		for _, it := range s.Items {
			if it.Expr == nil {
				continue
			}
			ast.WalkExprs(it.Expr, func(e ast.Expr) {
				if fc, ok := e.(*ast.FuncCall); ok {
					if fc.Distinct || ast.IsAggregate(strings.ToUpper(fc.Name)) {
						agg = true
					}
				}
			})
		}
		for _, f := range s.From {
			walkSel(f.Table.Subquery)
			for _, j := range f.Joins {
				walkSel(j.Right.Subquery)
			}
		}
		walkSel(s.Union)
	}
	walkSel(sel)
	return agg
}

// mergeAggregates recombines one-row aggregate fragments column-wise.
func mergeAggregates(fns []string, frags []*engine.Result) (*engine.Result, error) {
	out := &engine.Result{
		Kind:    engine.ResultRows,
		Columns: append([]string(nil), frags[0].Columns...),
	}
	acc := make([]types.Value, len(fns))
	for i := range acc {
		acc[i] = types.Null()
	}
	for _, f := range frags {
		if len(f.Rows) != 1 {
			return nil, fmt.Errorf("shard: aggregate fragment has %d rows, want 1", len(f.Rows))
		}
		row := f.Rows[0]
		if len(row) != len(fns) {
			return nil, fmt.Errorf("shard: aggregate fragment has %d columns, want %d", len(row), len(fns))
		}
		for i, fn := range fns {
			v := row[i]
			if v.IsNull() {
				continue
			}
			if acc[i].IsNull() {
				acc[i] = v
				continue
			}
			switch fn {
			case "COUNT", "SUM":
				acc[i] = addValues(acc[i], v)
			case "MIN":
				if c, err := types.Compare(v, acc[i]); err == nil && c < 0 {
					acc[i] = v
				}
			case "MAX":
				if c, err := types.Compare(v, acc[i]); err == nil && c > 0 {
					acc[i] = v
				}
			}
		}
	}
	out.Rows = [][]types.Value{acc}
	return out, nil
}

// addValues sums two numeric values, preserving integer kind when both
// sides are integers (matching the engine's SUM/COUNT typing).
func addValues(a, b types.Value) types.Value {
	if a.K == types.KindInt && b.K == types.KindInt {
		return types.NewInt(a.I + b.I)
	}
	return types.NewFloat(a.AsFloat() + b.AsFloat())
}

// orderMerged re-sorts concatenated rows by the statement's ORDER BY.
// Keys must be output columns (by name, qualifier ignored) or 1-based
// positions — the shapes the engine itself supports on merged output;
// computed keys were already consumed per-shard and cannot be re-read
// here, so they are rejected.
func orderMerged(res *engine.Result, order []ast.OrderItem) error {
	keyIdx := make([]int, len(order))
	for k, item := range order {
		switch x := item.Expr.(type) {
		case *ast.Literal:
			if x.Val.K != types.KindInt {
				return fmt.Errorf("shard: unsupported cross-shard ORDER BY key")
			}
			idx := int(x.Val.I) - 1
			if idx < 0 || idx >= len(res.Columns) {
				return fmt.Errorf("ORDER BY position %d out of range", x.Val.I)
			}
			keyIdx[k] = idx
		case *ast.ColumnRef:
			idx := -1
			for i, c := range res.Columns {
				if strings.EqualFold(c, x.Column) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("ORDER BY column %s must appear in the select list of a cross-shard query", x.Column)
			}
			keyIdx[k] = idx
		default:
			return fmt.Errorf("shard: cross-shard ORDER BY keys must be output columns or positions")
		}
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for k, item := range order {
			c := types.CompareNullsFirst(res.Rows[i][keyIdx[k]], res.Rows[j][keyIdx[k]])
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}
