package engine

import (
	"sort"
	"strings"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

// LatchSet is latchSet under the engine read lock, for the external
// tests that drive generated workloads (qgen imports this package).
func (e *Engine) LatchSet(p *stmt.Parsed) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.latchSet(p)
}

// TreeWalkLatchSet is the reference latchSet is held to: what the engine
// computed on every latched execution before the schema facts, walking
// the statement's tree, the target's CHECK and DEFAULT expressions and
// every view definition reached, into a fresh set.
func (e *Engine) TreeWalkLatchSet(st ast.Statement) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	set := ast.Tables(st)
	switch x := st.(type) {
	case *ast.Insert:
		e.addConstraintRefs(set, strings.ToUpper(x.Table))
	case *ast.Update:
		e.addConstraintRefs(set, strings.ToUpper(x.Table))
	}
	work := make([]string, 0, len(set))
	for n := range set {
		work = append(work, n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		v, ok := e.st.views[n]
		if !ok {
			continue
		}
		for dep := range ast.Tables(v.Select) {
			if !set[dep] {
				set[dep] = true
				work = append(work, dep)
			}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// addConstraintRefs adds the tables read from inside the target table's
// CHECK and DEFAULT expressions.
func (e *Engine) addConstraintRefs(set map[string]bool, target string) {
	t, ok := e.st.tables[target]
	if !ok {
		return
	}
	exprs := append([]ast.Expr(nil), t.Checks...)
	for _, c := range t.Cols {
		if c.Default != nil {
			exprs = append(exprs, c.Default)
		}
	}
	for _, x := range exprs {
		ast.WalkExprs(x, func(x ast.Expr) {
			var sel *ast.Select
			switch n := x.(type) {
			case *ast.Subquery:
				sel = n.Select
			case *ast.Exists:
				sel = n.Select
			case *ast.In:
				sel = n.Select
			}
			if sel != nil {
				for dep := range ast.Tables(sel) {
					set[dep] = true
				}
			}
		})
	}
}

// TreeWalkAdvances is the reference selectAdvancesSequences is held to:
// the query's every expression walked for a SeqFunc call, and every view
// it reads walked the same way, recursively.
func (e *Engine) TreeWalkAdvances(sel *ast.Select) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.treeWalkAdvances(sel, map[string]bool{})
}

func (e *Engine) treeWalkAdvances(sel *ast.Select, visited map[string]bool) bool {
	advances := false
	ast.WalkSelectExprs(sel, func(x ast.Expr) {
		if fc, ok := x.(*ast.FuncCall); ok && e.cfg.Funcs[strings.ToUpper(fc.Name)].SeqFunc {
			advances = true
		}
	})
	if advances {
		return true
	}
	for name := range ast.Tables(sel) {
		v, ok := e.st.views[name]
		if !ok || visited[name] {
			continue
		}
		visited[name] = true
		if e.treeWalkAdvances(v.Select, visited) {
			return true
		}
	}
	return false
}
