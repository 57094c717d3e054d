package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

// adjudicateByDigest is the reference adjudicator: every successful
// result is digested and grouped, with no shortcut. Adjudicate must
// return exactly its verdicts.
func adjudicateByDigest(results []ReplicaResult, opts CompareOptions) Verdict {
	var v Verdict
	ok := 0
	for i, r := range results {
		switch {
		case r.Crashed:
			v.CrashedIdx = append(v.CrashedIdx, i)
		case r.Err != nil:
			v.Errored = append(v.Errored, i)
		default:
			ok++
		}
	}
	if ok == 0 {
		return v
	}
	v.AgreeIdx, v.Outliers = groupByDigest(results, opts)
	v.Agreed = results[v.AgreeIdx[0]].Res
	v.Unanimous = len(v.AgreeIdx) == len(results)
	v.Majority = 2*len(v.AgreeIdx) > len(results)
	v.Split = len(v.Outliers) > 0 && !v.Majority
	return v
}

// resultGen generates replica results the way diverse replicas produce
// them: one true answer, re-represented per replica (3 vs 3.0, float
// noise past the compared digits, CHAR padding, column-name case, DATE
// vs VARCHAR kinds, row order) and now and then genuinely wrong.
type resultGen struct{ r *rand.Rand }

func (g resultGen) cell() types.Value {
	switch g.r.Intn(8) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(int64(g.r.Intn(7) - 3))
	case 2:
		return types.NewInt(1_000_000_000 + int64(g.r.Intn(3))) // equal to 9 digits, different as integers
	case 3:
		return types.NewFloat(float64(g.r.Intn(5)) / 4)
	case 4:
		return types.NewFloat([]float64{0.1 + 0.2, 0.3, math.Copysign(0, -1), 0, math.Inf(1), 1e-300}[g.r.Intn(6)])
	case 5:
		return types.NewString([]string{"", "a", "a  ", " a", "A", "n:1", "x\x1fy"}[g.r.Intn(7)])
	case 6:
		return types.NewBool(g.r.Intn(2) == 0)
	default:
		return types.NewDate(fmt.Sprintf("2004-06-%02d", 1+g.r.Intn(3)))
	}
}

func (g resultGen) base() *engine.Result {
	switch g.r.Intn(10) {
	case 0:
		return nil
	case 1:
		return &engine.Result{Kind: engine.ResultDDL}
	case 2:
		return &engine.Result{Kind: engine.ResultCount, Affected: int64(g.r.Intn(3))}
	}
	res := &engine.Result{Kind: engine.ResultRows}
	for c := 0; c < 1+g.r.Intn(3); c++ {
		res.Columns = append(res.Columns, []string{"A", "b", "Total", "ſ"}[g.r.Intn(4)])
	}
	for n := g.r.Intn(5); n > 0; n-- {
		row := make([]types.Value, len(res.Columns))
		for c := range row {
			row[c] = g.cell()
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// represent returns an equivalent representation of v under the tolerant
// options.
func (g resultGen) represent(v types.Value) types.Value {
	switch v.K {
	case types.KindInt:
		if g.r.Intn(3) == 0 {
			return types.NewFloat(float64(v.I))
		}
	case types.KindFloat:
		if g.r.Intn(3) == 0 && v.F() != 0 && !math.IsInf(v.F(), 0) {
			return types.NewFloat(v.F() * (1 + 1e-13))
		}
		if g.r.Intn(3) == 0 && v.F() == math.Trunc(v.F()) && math.Abs(v.F()) < 1e9 && !math.Signbit(v.F()) {
			return types.NewInt(int64(v.F()))
		}
	case types.KindString:
		if g.r.Intn(3) == 0 {
			return types.NewString(v.S + strings.Repeat(" ", g.r.Intn(3)))
		}
	case types.KindDate:
		if g.r.Intn(3) == 0 {
			return types.NewString(v.S)
		}
	}
	return v
}

// replica derives one replica's result from the true answer: always
// re-represented, sometimes wrong.
func (g resultGen) replica(base *engine.Result) *engine.Result {
	if base == nil || base.Kind != engine.ResultRows {
		if base != nil && g.r.Intn(8) == 0 {
			return &engine.Result{Kind: base.Kind, Affected: base.Affected + 1}
		}
		return base
	}
	res := base.Clone()
	for c := range res.Columns {
		if g.r.Intn(3) == 0 {
			res.Columns[c] = strings.ToLower(res.Columns[c])
		}
	}
	for _, row := range res.Rows {
		for c := range row {
			row[c] = g.represent(row[c])
		}
	}
	if g.r.Intn(3) == 0 {
		g.r.Shuffle(len(res.Rows), func(i, j int) { res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i] })
	}
	switch g.r.Intn(12) { // the occasional value failure
	case 0:
		if len(res.Rows) > 0 {
			res.Rows[0][0] = g.cell()
		}
	case 1:
		if len(res.Rows) > 0 {
			res.Rows = res.Rows[1:]
		}
	case 2:
		res.Columns[0] = "OTHER"
	}
	return res
}

// TestAdjudicateMatchesDigestGrouping: on 10 000 generated replica
// triples (and some pairs and quintuples), under tolerant, strict and
// order-sensitive options, the cell-wise fast path and its digest
// fallback return the verdict pure digest grouping returns — same
// groups, same tie-breaks, same Agreed pointer.
func TestAdjudicateMatchesDigestGrouping(t *testing.T) {
	g := resultGen{rand.New(rand.NewSource(20040628))}
	ordered := DefaultCompareOptions()
	ordered.OrderSensitive = true
	noNames := DefaultCompareOptions()
	noNames.CompareColumnNames = false
	options := []CompareOptions{DefaultCompareOptions(), StrictCompareOptions(), ordered, noNames}
	fast := 0
	for n := 0; n < 10000; n++ {
		base := g.base()
		size := []int{3, 3, 3, 2, 5}[g.r.Intn(5)]
		results := make([]ReplicaResult, size)
		for i := range results {
			results[i] = ReplicaResult{Name: fmt.Sprint("r", i), Res: g.replica(base)}
			switch g.r.Intn(20) {
			case 0:
				results[i] = ReplicaResult{Name: results[i].Name, Err: errors.New("boom")}
			case 1:
				results[i] = ReplicaResult{Name: results[i].Name, Err: errors.New("down"), Crashed: true}
			}
		}
		for _, opts := range options {
			got, want := Adjudicate(results, opts), adjudicateByDigest(results, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d, options %+v:\n got %+v\nwant %+v\nresults %s", n, opts, got, want, describe(results, opts))
			}
			if got.Unanimous {
				fast++
			}
		}
		// The pairwise comparator rides on the same fast path.
		a, b := results[0].Res, results[1].Res
		if Equal(a, b, options[0]) != (Digest(a, options[0]) == Digest(b, options[0])) {
			t.Fatalf("case %d: Equal disagrees with the digests of\n%s\n%s", n, Digest(a, options[0]), Digest(b, options[0]))
		}
	}
	if fast < 1000 {
		t.Errorf("only %d unanimous verdicts: the generator no longer exercises the fast path", fast)
	}
}

func describe(results []ReplicaResult, opts CompareOptions) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "\n  %s crashed=%v err=%v digest=%q", r.Name, r.Crashed, r.Err, Digest(r.Res, opts))
	}
	return b.String()
}

// TestSameCellMatchesNormalizeCell pins the allocation-free cell
// comparison to the normal form it stands in for, over every pair of a
// value set chosen at the representation boundaries.
func TestSameCellMatchesNormalizeCell(t *testing.T) {
	values := []types.Value{
		types.Null(), types.NewInt(0), types.NewInt(3), types.NewInt(-3),
		types.NewInt(1_000_000_001), types.NewInt(1_000_000_002), types.NewInt(math.MaxInt64),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(3), types.NewFloat(3.0000000001),
		types.NewFloat(0.1 + 0.2), types.NewFloat(0.3), types.NewFloat(math.NaN()), types.NewFloat(math.Inf(-1)),
		types.NewFloat(float64(math.MaxInt64)),
		types.NewString(""), types.NewString(" "), types.NewString("3"), types.NewString("n:3"), types.NewString("abc"), types.NewString("abc  "),
		types.NewDate("2004-06-28"), types.NewString("2004-06-28"), types.NewString("b:1"),
		types.NewBool(true), types.NewBool(false), {K: types.Kind(42), S: "x"}, {K: types.Kind(42), S: "y"},
	}
	for _, opts := range []CompareOptions{DefaultCompareOptions(), StrictCompareOptions()} {
		for _, a := range values {
			for _, b := range values {
				if got, want := sameCell(a, b, opts), NormalizeCell(a, opts) == NormalizeCell(b, opts); got != want {
					t.Errorf("sameCell(%#v, %#v) = %v under %+v; normal forms %q and %q", a, b, got, opts, NormalizeCell(a, opts), NormalizeCell(b, opts))
				}
			}
		}
	}
}

var verdictSink Verdict

// BenchmarkAdjudicate is the adjudication cost the stack benchmark's
// core_adjudicate_us reports, isolated: three replicas' results of 1, 10
// and 1000 rows, unanimous (the fast path) and with the last replica
// outvoted on its last cell (fast path abandoned late, digests built).
func BenchmarkAdjudicate(b *testing.B) {
	for _, n := range []int{1, 10, 1000} {
		base := &engine.Result{Kind: engine.ResultRows, Columns: []string{"ID", "NAME", "BALANCE"}}
		for i := 0; i < n; i++ {
			base.Rows = append(base.Rows, []types.Value{
				types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cust_%d", i)), types.NewFloat(float64(i) * 1.25),
			})
		}
		for _, outlier := range []bool{false, true} {
			results := []ReplicaResult{{Name: "PG", Res: base}, {Name: "OR", Res: base.Clone()}, {Name: "MS", Res: base.Clone()}}
			name := fmt.Sprintf("rows=%d/unanimous", n)
			if outlier {
				results[2].Res.Rows[n-1][2] = types.NewFloat(-1)
				name = fmt.Sprintf("rows=%d/one-outlier", n)
			}
			b.Run(name, func(b *testing.B) {
				opts := DefaultCompareOptions()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					verdictSink = Adjudicate(results, opts)
				}
				if verdictSink.Unanimous == outlier {
					b.Fatalf("verdict %+v", verdictSink)
				}
			})
		}
	}
}
