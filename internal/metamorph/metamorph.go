// Package metamorph implements the self-check oracles — plan variants,
// TLP, NoREC and CERT — that convict a single SQL endpoint of a wrong
// answer without any second opinion. They close the blind spot the
// paper's fault-diversity argument warns differential testing about:
// when every replica and the pristine reference fail the same way
// (shared engine defect, common-mode fault), cross-server voting sees
// nothing, but a violated metamorphic relation still does.
//
// Each oracle re-executes an already-answered SELECT, or rewrites of
// it whose results are logically constrained by the original's,
// through an Executor (a fault-layer-bypassing variant path, e.g.
// server.Session.ExecVariant), and reports a Finding when the
// constraint is violated:
//
//   - Plan (plan variants, DQP-lite): the statement itself re-runs with
//     every access path forced to a full scan and every join to the
//     nested loop. Access-path and join-algorithm choice may only change
//     which rows the engine skipped, never the result, so the forced
//     run must equal the base result under the comparator's options for
//     the statement. It applies to every SELECT, grouped, limited and
//     compound ones included.
//   - TLP (ternary logic partitioning): WHERE p splits into p, NOT p and
//     p IS NULL. The three partitions' row multisets must union back to
//     the unpartitioned query, and COUNT/SUM aggregates must decompose
//     additively across the partitions.
//   - NoREC (non-optimizing reference construction): the predicate is
//     re-evaluated in unoptimizable form — SELECT CASE WHEN p THEN 1
//     ELSE 0 END over the same FROM under a forced full scan, summed
//     client-side — and the count of 1s must equal the optimized query's
//     cardinality.
//   - CERT (cardinality restriction): appending a conjunct to WHERE can
//     only shrink the result, so a restricted rewrite returning more
//     rows than the original convicts the original's access path.
//
// The original's own result is reused as Plan's normal execution, as
// TLP's TRUE partition and as NoREC's and CERT's optimized cardinality:
// the relation then spans the genuinely served answer (fault layer,
// plan cache, compiled access path and all) against pristine
// re-evaluations, which is what makes silent result corruption on a
// single endpoint visible.
package metamorph

import (
	"fmt"

	"divsql/internal/core"
	"divsql/internal/engine"
	engplan "divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Oracle names one self-check oracle.
type Oracle string

// The oracle suite.
const (
	Plan  Oracle = "planvariants"
	TLP   Oracle = "tlp"
	NoREC Oracle = "norec"
	CERT  Oracle = "cert"
)

// Oracles lists every oracle in deterministic order.
var Oracles = []Oracle{Plan, TLP, NoREC, CERT}

// Executor re-runs one SELECT's handle as a plan variant, bypassing any
// fault layer, and describes the plan of the session's most recent
// normal execution. *server.Session satisfies it.
type Executor interface {
	ExecVariant(p *stmt.Parsed, force engplan.Force, args ...types.Value) (*engine.Result, error)
	LastPlan() engplan.Info
}

// runner executes one rewrite of the checked SELECT with its arguments.
type runner func(rw *ast.Select, force engplan.Force) (*engine.Result, error)

// Finding is one violated metamorphic relation.
type Finding struct {
	Oracle Oracle
	Detail string
}

// Check runs every armed oracle that applies to the SELECT against the
// endpoint's already-produced base result, which must be the last
// statement the executor ran (Check reads a copy of it: the rewrites
// run on the session whose next statement reclaims it). checked lists
// the oracles whose relation was actually evaluated (the coverage "hits"
// signal); findings lists the violations. A rewrite that errors makes
// its oracle inapplicable rather than a finding: removing or widening a
// WHERE can legitimately surface row-evaluation errors (e.g. a division
// the original predicate filtered out), and an execution error is never
// evidence about the base result's correctness. Plan is the exception: it re-runs the
// statement itself, so its forced run failing is a finding.
func Check(ex Executor, p *stmt.Parsed, args []types.Value, base *engine.Result, armed []Oracle) (checked []Oracle, findings []Finding) {
	sel := p.Select
	if base == nil || len(armed) == 0 {
		return nil, nil
	}
	// The base execution's plan, read before any rewrite replaces it.
	normal := ex.LastPlan()
	base = base.Clone()
	plain := structurallyPlain(sel)
	run := func(rw *ast.Select, force engplan.Force) (*engine.Result, error) {
		return ex.ExecVariant(p.Rewritten(rw), force, args...)
	}
	allAgg, anyAgg := aggregateItems(sel)
	for _, o := range armed {
		var f *Finding
		ok := false
		switch {
		case o == Plan:
			ok, f = true, checkPlan(ex, p, args, base, normal)
		case !plain:
			// The rewrite oracles constrain only plain row multisets.
		case o == TLP:
			switch {
			case sel.Where == nil:
				// No predicate to partition.
			case allAgg:
				ok, f = checkTLPAgg(run, sel, base)
			case !anyAgg:
				ok, f = checkTLPRows(run, sel, base)
			}
		case o == NoREC:
			if sel.Where != nil && !anyAgg {
				ok, f = checkNoREC(run, sel, base)
			}
		case o == CERT:
			if sel.Where != nil && !anyAgg {
				ok, f = checkCERT(run, sel, base)
			}
		}
		if ok {
			checked = append(checked, o)
		}
		if f != nil {
			findings = append(findings, *f)
		}
	}
	return checked, findings
}

// checkPlan asserts the Plan relation: the statement re-run under
// ForceFullScan equals the base result under the options the
// server-vs-oracle vote compares it with (core.CompareFor). A finding
// names the base execution's plan — access paths and join algorithms —
// the one the variant contradicts.
func checkPlan(ex Executor, p *stmt.Parsed, args []types.Value, base *engine.Result, normal engplan.Info) *Finding {
	const force = engplan.ForceFullScan
	res, err := ex.ExecVariant(p, force, args...)
	if err != nil {
		return &Finding{Oracle: Plan, Detail: fmt.Sprintf(
			"plan variant %v failed where normal execution (%v) succeeded: %v", force, normal, err)}
	}
	if d := core.Diff(res, base, core.CompareFor(p)); d != "" {
		return &Finding{Oracle: Plan, Detail: fmt.Sprintf(
			"plan variant %v disagrees with normal execution (%v): %s", force, normal, d)}
	}
	return nil
}

// structurallyPlain gates the rewrite oracles to SELECTs whose row multiset the
// relations constrain exactly: no compound query, no row limit, no
// DISTINCT, no grouping. ORDER BY is tolerated (the comparisons are
// multiset comparisons); the rewrites drop it.
func structurallyPlain(sel *ast.Select) bool {
	return sel.Union == nil && sel.LimitSyn == ast.LimitNone &&
		!sel.Distinct && len(sel.GroupBy) == 0 && sel.Having == nil &&
		len(sel.From) > 0
}

// aggregateItems classifies the top-level select items: allAgg is true
// when every item is a plain COUNT or SUM call (the additively
// decomposable aggregates; non-distinct), anyAgg when any item contains
// an aggregate call at the outer query's level. Subqueries are opaque:
// an aggregate inside a scalar subquery aggregates the inner query, not
// this one.
func aggregateItems(sel *ast.Select) (allAgg, anyAgg bool) {
	allAgg = len(sel.Items) > 0
	for _, it := range sel.Items {
		if it.Star || it.Expr == nil {
			allAgg = false
			continue
		}
		if fc, ok := it.Expr.(*ast.FuncCall); ok && !fc.Distinct && (fc.Name == "COUNT" || fc.Name == "SUM") {
			anyAgg = true
			continue
		}
		allAgg = false
		if exprHasAggregate(it.Expr) {
			anyAgg = true
		}
	}
	return allAgg && anyAgg, anyAgg
}

// exprHasAggregate reports whether the expression calls an aggregate at
// this query's level (it does not descend into subqueries).
func exprHasAggregate(e ast.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ast.FuncCall:
		if ast.IsAggregate(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *ast.Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *ast.Unary:
		return exprHasAggregate(x.X)
	case *ast.IsNull:
		return exprHasAggregate(x.X)
	case *ast.Between:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Lo) || exprHasAggregate(x.Hi)
	case *ast.Like:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Pattern)
	case *ast.Cast:
		return exprHasAggregate(x.X)
	case *ast.Case:
		if exprHasAggregate(x.Operand) || exprHasAggregate(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasAggregate(w.Cond) || exprHasAggregate(w.Then) {
				return true
			}
		}
	case *ast.In:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, l := range x.List {
			if exprHasAggregate(l) {
				return true
			}
		}
	}
	return false
}

// Partitions returns the three TLP rewrites of predicate p: p itself,
// NOT (p), and (p) IS NULL. The IS NULL partition peels leading NOT
// wrappers first — exact in three-valued logic (NOT x is UNKNOWN iff x
// is) and necessary for render/parse stability: the canonical rendering
// NOT (x) IS NULL would re-parse as NOT ((x) IS NULL), which selects the
// complementary rows.
func Partitions(p ast.Expr) (pTrue, pFalse, pNull ast.Expr) {
	return p, &ast.Unary{Op: "NOT", X: p}, &ast.IsNull{X: stripNot(p)}
}

func stripNot(p ast.Expr) ast.Expr {
	for {
		u, ok := p.(*ast.Unary)
		if !ok || u.Op != "NOT" {
			return p
		}
		p = u.X
	}
}

// rewrite shallow-copies the SELECT with a new WHERE and no ORDER BY
// (all comparisons are multiset comparisons, so ordering the rewrites is
// wasted work).
func rewrite(sel *ast.Select, where ast.Expr) *ast.Select {
	cp := *sel
	cp.Where = where
	cp.OrderBy = nil
	return &cp
}

// checkTLPRows asserts the row-multiset TLP relation: the base result
// (the TRUE partition, as actually served) plus the NOT-p and p-IS-NULL
// partitions must union to the unpartitioned query.
func checkTLPRows(run runner, sel *ast.Select, base *engine.Result) (bool, *Finding) {
	q0, rf, rn, ok := runPartitions(run, sel)
	if !ok {
		return false, nil
	}
	union := &engine.Result{Kind: q0.Kind, Columns: base.Columns}
	union.Rows = make([][]types.Value, 0, len(base.Rows)+len(rf.Rows)+len(rn.Rows))
	union.Rows = append(union.Rows, base.Rows...)
	union.Rows = append(union.Rows, rf.Rows...)
	union.Rows = append(union.Rows, rn.Rows...)
	opts := core.DefaultCompareOptions()
	opts.OrderSensitive = false
	if d := core.Diff(union, q0, opts); d != "" {
		return true, &Finding{Oracle: TLP, Detail: fmt.Sprintf(
			"TLP partition union (%d+%d+%d rows) disagrees with the unpartitioned query (%d rows): %s",
			len(base.Rows), len(rf.Rows), len(rn.Rows), len(q0.Rows), d)}
	}
	return true, nil
}

// checkTLPAgg asserts the additive TLP relation for all-COUNT/SUM item
// lists: each aggregate over the unpartitioned query must equal the sum
// of the same aggregate over the three partitions (the base result
// supplying the TRUE partition's value).
func checkTLPAgg(run runner, sel *ast.Select, base *engine.Result) (bool, *Finding) {
	q0, rf, rn, ok := runPartitions(run, sel)
	if !ok {
		return false, nil
	}
	if len(base.Rows) != 1 || len(q0.Rows) != 1 || len(rf.Rows) != 1 || len(rn.Rows) != 1 {
		return false, nil
	}
	for i := range sel.Items {
		if i >= len(base.Rows[0]) || i >= len(q0.Rows[0]) || i >= len(rf.Rows[0]) || i >= len(rn.Rows[0]) {
			return false, nil
		}
		whole := q0.Rows[0][i]
		parts := []types.Value{base.Rows[0][i], rf.Rows[0][i], rn.Rows[0][i]}
		if ok, detail := additive(whole, parts); !ok {
			return true, &Finding{Oracle: TLP, Detail: fmt.Sprintf(
				"TLP aggregate %s does not decompose additively across partitions: %s",
				ast.Render(rewrite(sel, nil)), detail)}
		}
	}
	return true, nil
}

// runPartitions runs the unpartitioned query and the NOT-p and
// p-IS-NULL partitions, one after the other on one session: each but
// the last is copied before the next reclaims it. ok is false when one
// fails.
func runPartitions(run runner, sel *ast.Select) (q0, rf, rn *engine.Result, ok bool) {
	_, pFalse, pNull := Partitions(sel.Where)
	q0, err := run(rewrite(sel, nil), engplan.ForceAuto)
	if err != nil {
		return nil, nil, nil, false
	}
	q0 = q0.Clone()
	rf, err = run(rewrite(sel, pFalse), engplan.ForceAuto)
	if err != nil {
		return nil, nil, nil, false
	}
	rf = rf.Clone()
	rn, err = run(rewrite(sel, pNull), engplan.ForceAuto)
	if err != nil {
		return nil, nil, nil, false
	}
	return q0, rf, rn, true
}

// additive checks whole == sum(parts) under SQL aggregate semantics: a
// NULL part is an empty partition's SUM and contributes nothing; a NULL
// whole requires every part to be NULL. Integer sums compare exactly;
// float sums tolerate the reassociation error of summing the partitions
// separately.
func additive(whole types.Value, parts []types.Value) (bool, string) {
	sum := 0.0
	allNull, anyFloat := true, whole.K == types.KindFloat
	for _, p := range parts {
		switch p.K {
		case types.KindNull:
		case types.KindInt:
			allNull = false
			sum += float64(p.I)
		case types.KindFloat:
			allNull, anyFloat = false, true
			sum += p.F()
		default:
			return false, fmt.Sprintf("non-numeric partition aggregate %s", p.String())
		}
	}
	if whole.IsNull() {
		if allNull {
			return true, ""
		}
		return false, "unpartitioned aggregate is NULL but a partition is not"
	}
	if allNull {
		return false, fmt.Sprintf("every partition aggregate is NULL but the whole is %s", whole.String())
	}
	var w float64
	switch whole.K {
	case types.KindInt:
		w = float64(whole.I)
	case types.KindFloat:
		w = whole.F()
	default:
		return false, fmt.Sprintf("non-numeric aggregate %s", whole.String())
	}
	if anyFloat {
		tol := 1e-9 * (maxAbs(w, sum) + 1)
		if diff := w - sum; diff < -tol || diff > tol {
			return false, fmt.Sprintf("whole %v vs partition sum %v", w, sum)
		}
		return true, ""
	}
	if w != sum {
		return false, fmt.Sprintf("whole %v vs partition sum %v", w, sum)
	}
	return true, ""
}

func maxAbs(a, b float64) float64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

// checkNoREC asserts the NoREC relation: re-evaluating the predicate in
// unoptimizable form — CASE WHEN p THEN 1 ELSE 0 END over the same FROM,
// forced to a full scan and counted client-side — must agree with the
// optimized query's cardinality.
func checkNoREC(run runner, sel *ast.Select, base *engine.Result) (bool, *Finding) {
	probe := &ast.Select{
		Items: []ast.SelectItem{{Expr: &ast.Case{
			Whens: []ast.WhenClause{{Cond: sel.Where, Then: intLit(1)}},
			Else:  intLit(0),
		}, Alias: "NR"}},
		From: sel.From,
	}
	res, err := run(probe, engplan.ForceFullScan)
	if err != nil {
		return false, nil
	}
	n := 0
	for _, row := range res.Rows {
		if len(row) == 1 && row[0].K == types.KindInt && row[0].I == 1 {
			n++
		}
	}
	if n != len(base.Rows) {
		return true, &Finding{Oracle: NoREC, Detail: fmt.Sprintf(
			"optimized query returned %d row(s) but the unoptimizable full-scan re-evaluation of its predicate holds on %d of %d row(s)",
			len(base.Rows), n, len(res.Rows))}
	}
	return true, nil
}

// checkCERT asserts the CERT relation: appending a conjunct to WHERE can
// only shrink the result. Two restrictions are probed — the
// self-conjunction p AND p (row-set preserving, so any growth convicts
// the original) and p AND c IS NOT NULL for a column referenced by p.
// Both run under a forced full scan: the restricted rewrite must not
// inherit the original's access path, or a defect shared by both sides
// cancels out of the comparison.
func checkCERT(run runner, sel *ast.Select, base *engine.Result) (bool, *Finding) {
	p := sel.Where
	restricted := []ast.Expr{&ast.Binary{Op: ast.OpAnd, L: p, R: p}}
	if c := firstColumnRef(p); c != nil {
		restricted = append(restricted, &ast.Binary{
			Op: ast.OpAnd, L: p,
			R: &ast.IsNull{X: &ast.ColumnRef{Table: c.Table, Column: c.Column}, Not: true},
		})
	}
	applied := false
	for _, rp := range restricted {
		res, err := run(rewrite(sel, rp), engplan.ForceFullScan)
		if err != nil {
			continue
		}
		applied = true
		if len(res.Rows) > len(base.Rows) {
			return true, &Finding{Oracle: CERT, Detail: fmt.Sprintf(
				"restricting the predicate grew the result: %d row(s) under the appended conjunct vs %d unrestricted",
				len(res.Rows), len(base.Rows))}
		}
	}
	return applied, nil
}

// firstColumnRef finds a column reference in the predicate (not
// descending into subqueries, whose columns belong to another scope).
func firstColumnRef(e ast.Expr) *ast.ColumnRef {
	switch x := e.(type) {
	case *ast.ColumnRef:
		return x
	case *ast.Binary:
		if c := firstColumnRef(x.L); c != nil {
			return c
		}
		return firstColumnRef(x.R)
	case *ast.Unary:
		return firstColumnRef(x.X)
	case *ast.IsNull:
		return firstColumnRef(x.X)
	case *ast.Between:
		for _, sub := range []ast.Expr{x.X, x.Lo, x.Hi} {
			if c := firstColumnRef(sub); c != nil {
				return c
			}
		}
	case *ast.Like:
		if c := firstColumnRef(x.X); c != nil {
			return c
		}
		return firstColumnRef(x.Pattern)
	case *ast.Cast:
		return firstColumnRef(x.X)
	case *ast.In:
		if c := firstColumnRef(x.X); c != nil {
			return c
		}
		for _, l := range x.List {
			if c := firstColumnRef(l); c != nil {
				return c
			}
		}
	case *ast.Case:
		if c := firstColumnRef(x.Operand); c != nil {
			return c
		}
		for _, w := range x.Whens {
			if c := firstColumnRef(w.Cond); c != nil {
				return c
			}
			if c := firstColumnRef(w.Then); c != nil {
				return c
			}
		}
		return firstColumnRef(x.Else)
	}
	return nil
}

func intLit(n int64) ast.Expr { return &ast.Literal{Val: types.NewInt(n)} }
