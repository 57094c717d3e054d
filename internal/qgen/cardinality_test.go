package qgen

import (
	"testing"

	"divsql/internal/engine"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

// Replaying a capped stream on a live engine must never leave any
// generated table above MaxRowsPerTable — not at the end, and not at
// any point in between. The generator's row estimates are upper bounds,
// so the engine's reality can only be at or below them.
func TestCardinalityCapRespected(t *testing.T) {
	const capRows = 48
	opts := CommonProfile(5)
	opts.MaxRowsPerTable = capRows
	opts.TableNames = []string{"TRIG1", "TRIG2", "TRIG3"}
	g := New(opts)
	e := engine.NewOracle()
	sess := e.NewSession()
	inserts, aged := 0, 0
	for i := 0; i < 12000; i++ {
		st := g.Next()
		switch st.(type) {
		case *ast.Insert:
			inserts++
		case *ast.Delete:
			aged++
		}
		p, err := stmt.Resolve(ast.Render(st))
		if err != nil {
			t.Fatalf("statement %d does not parse: %v", i, err)
		}
		if _, err := sess.Exec(p, nil); err != nil {
			continue
		}
		for _, tn := range e.TableNames() {
			n, err := e.TableRowCount(tn)
			if err != nil {
				t.Fatalf("statement %d: %v", i, err)
			}
			if n > capRows {
				t.Fatalf("statement %d: table %s holds %d rows, cap is %d (stmt: %s)",
					i, tn, n, capRows, ast.Render(st))
			}
		}
	}
	if inserts == 0 {
		t.Fatal("capped stream emitted no INSERTs")
	}
	if aged == 0 {
		t.Fatal("capped stream emitted no DELETEs (aging never happened)")
	}
}

// The cap must hold across transaction rewinds: a ROLLBACK restores the
// servers' rows AND the generator's row estimates, so post-rollback
// streams may neither overflow the cap (estimate undershot reality) nor
// starve inserts forever (estimate overshot).
func TestCardinalityCapAcrossRollbacks(t *testing.T) {
	const capRows = 24
	opts := CommonProfile(11)
	opts.MaxRowsPerTable = capRows
	g := New(opts)
	// A txn-heavy mix so BEGIN/ROLLBACK brackets much of the stream.
	w := g.Weights()
	w.Txn, w.Insert = 30, 40
	g.SetWeights(w)
	e := engine.NewOracle()
	sess := e.NewSession()
	rollbacks := 0
	insertsAfterRollback := 0
	for i := 0; i < 8000; i++ {
		st := g.Next()
		if _, ok := st.(*ast.Rollback); ok {
			rollbacks++
		}
		if _, ok := st.(*ast.Insert); ok && rollbacks > 0 {
			insertsAfterRollback++
		}
		p, err := stmt.Resolve(ast.Render(st))
		if err != nil {
			t.Fatalf("statement %d does not parse: %v", i, err)
		}
		if _, err := sess.Exec(p, nil); err != nil {
			continue
		}
		for _, tn := range e.TableNames() {
			n, _ := e.TableRowCount(tn)
			if n > capRows {
				t.Fatalf("statement %d (after %d rollbacks): table %s holds %d rows, cap is %d",
					i, rollbacks, tn, n, capRows)
			}
		}
	}
	if rollbacks < 10 {
		t.Fatalf("stream produced only %d rollbacks; the rewind path is untested", rollbacks)
	}
	if insertsAfterRollback == 0 {
		t.Fatal("no INSERT after a rollback: estimates overshot and starved the stream")
	}
}

// Capped streams stay deterministic under seed, exactly like uncapped
// ones, and the cap is part of the stream identity (a different cap
// yields a different stream).
func TestCardinalityDeterministicUnderSeed(t *testing.T) {
	render := func(capRows int) []string {
		opts := CommonProfile(21)
		opts.MaxRowsPerTable = capRows
		g := New(opts)
		out := make([]string, 3000)
		for i := range out {
			out[i] = g.NextSQL()
		}
		return out
	}
	a, b := render(32), render(32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("capped streams diverge at statement %d:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
	c := render(96)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("cap 32 and cap 96 produced identical streams; the cap is not in effect")
	}
}

// Retargeting weights mid-stream is deterministic too: the same
// sequence of SetWeights calls at the same stream positions reproduces
// the same statements, and the new plane visibly shifts the mix.
func TestSetWeightsDeterministicAndEffective(t *testing.T) {
	heavy := Weights{Insert: 95, Select: 5, SimpleSelect: 1}
	render := func() ([]string, int) {
		g := New(CommonProfile(9))
		var out []string
		inserts := 0
		for i := 0; i < 2000; i++ {
			if i == 1000 {
				g.SetWeights(heavy)
			}
			st := g.Next()
			if _, ok := st.(*ast.Insert); ok && i >= 1000 {
				inserts++
			}
			out = append(out, ast.Render(st))
		}
		return out, inserts
	}
	a, na := render()
	b, nb := render()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retargeted streams diverge at statement %d", i)
		}
	}
	if na != nb {
		t.Fatalf("insert counts differ: %d vs %d", na, nb)
	}
	// 95% insert weight must dominate the tail mix.
	if na < 500 {
		t.Fatalf("only %d/1000 inserts after retargeting to 95%% insert weight", na)
	}
	// Negative weights are clamped, not panicked on.
	g := New(CommonProfile(1))
	g.SetWeights(Weights{Insert: -5, Select: -1})
	for i := 0; i < 50; i++ {
		g.Next()
	}
}

// ClassOf and ShapeOf must agree with what the generator actually
// produced — they are the coverage attribution keys.
func TestClassAndShapeTaxonomy(t *testing.T) {
	g := New(CommonProfile(17))
	seenClass := map[Class]bool{}
	seenShape := map[Shape]bool{}
	for i := 0; i < 4000; i++ {
		st := g.Next()
		cl := ClassOf(st)
		seenClass[cl] = true
		if sh := ShapeOf(st); sh != "" {
			if cl != ClassSelect {
				t.Fatalf("non-select statement classified with shape %q", sh)
			}
			seenShape[sh] = true
		}
	}
	for _, cl := range Classes {
		if !seenClass[cl] {
			t.Errorf("class %s never produced by the common profile", cl)
		}
	}
	for _, sh := range Shapes {
		if !seenShape[sh] {
			t.Errorf("shape %s never produced by the common profile", sh)
		}
	}
}
