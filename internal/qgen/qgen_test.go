package qgen

import (
	"strings"
	"testing"

	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/stmt"
)

// Same seed, same options: byte-identical statement streams.
func TestSeedDeterminism(t *testing.T) {
	const n = 800
	render := func() []string {
		g := New(CommonProfile(42))
		out := make([]string, n)
		for i := range out {
			out[i] = g.NextSQL()
		}
		return out
	}
	a, b := render(), render()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at statement %d:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
	g2 := New(CommonProfile(43))
	diff := 0
	for i := 0; i < n; i++ {
		if g2.NextSQL() != a[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical streams")
	}
}

// Everything the generator emits must survive parse -> render -> parse
// with a stable render and a stable fingerprint: the differential
// harness ships rendered text and dedups on fingerprints.
func TestGeneratedStatementsRoundTrip(t *testing.T) {
	opts := CommonProfile(7)
	// Exercise the sequence toggle too: round-tripping must hold for
	// every construct, not just the common profile.
	opts.Sequences = true
	g := New(opts)
	for i := 0; i < 5000; i++ {
		st := g.Next()
		sql := ast.Render(st)
		st2, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("statement %d does not re-parse: %q: %v", i, sql, err)
		}
		if r2 := ast.Render(st2); r2 != sql {
			t.Fatalf("statement %d render not stable:\n  r1: %s\n  r2: %s", i, sql, r2)
		}
		if f1, f2 := ast.FingerprintOf(st).String(), ast.FingerprintOf(st2).String(); f1 != f2 {
			t.Fatalf("statement %d fingerprint unstable:\n  sql: %s\n  f1: %s\n  f2: %s", i, sql, f1, f2)
		}
	}
}

// The stream must be semantically coherent, not just parseable: on the
// pristine oracle the overwhelming majority of statements execute, and
// none fail for schema-tracking reasons (unknown table/column).
func TestStreamExecutesOnOracle(t *testing.T) {
	g := New(CommonProfile(11))
	orc := server.NewOracle()
	sess := orc.NewSession()
	const n = 3000
	failures := 0
	for i := 0; i < n; i++ {
		sql := g.NextSQL()
		_, _, err := sess.Exec(sql)
		if err != nil {
			failures++
			low := strings.ToLower(err.Error())
			if strings.Contains(low, "syntax") || strings.Contains(low, "unknown table") ||
				strings.Contains(low, "no such") || strings.Contains(low, "not found") ||
				strings.Contains(low, "unknown column") {
				t.Fatalf("statement %d lost schema coherence: %q: %v", i, sql, err)
			}
		}
	}
	if failures > n/10 {
		t.Errorf("%d/%d statements errored on the oracle; the generator should be mostly well-formed", failures, n)
	}
}

// Pool names must be created early and never dropped; generated names
// must carry the prefix.
func TestTableNamePoolAndPrefix(t *testing.T) {
	opts := CommonProfile(3)
	opts.TableNames = []string{"TIB0001", "TMS0042"}
	opts.NamePrefix = "S7_"
	g := New(opts)
	created := map[string]bool{}
	dropped := map[string]bool{}
	for i := 0; i < 1500; i++ {
		switch st := g.Next().(type) {
		case *ast.CreateTable:
			created[st.Name] = true
			if !strings.HasPrefix(st.Name, "S7_") && st.Name != "TIB0001" && st.Name != "TMS0042" {
				t.Fatalf("unprefixed generated table %q", st.Name)
			}
		case *ast.CreateView:
			if !strings.HasPrefix(st.Name, "S7_") {
				t.Fatalf("unprefixed view %q", st.Name)
			}
		case *ast.CreateIndex:
			if !strings.HasPrefix(st.Name, "S7_") {
				t.Fatalf("unprefixed index %q", st.Name)
			}
		case *ast.DropTable:
			dropped[st.Name] = true
		}
	}
	if !created["TIB0001"] || !created["TMS0042"] {
		t.Errorf("pool tables not created: %v", created)
	}
	if dropped["TIB0001"] || dropped["TMS0042"] {
		t.Error("pool (fault-trigger) tables must never be dropped")
	}
}

// Statements referencing pool tables must actually reach them with
// query shapes (the fault triggers key on SELECT/INSERT flags).
func TestPoolTablesAreExercised(t *testing.T) {
	opts := CommonProfile(5)
	opts.TableNames = []string{"TPG0001"}
	g := New(opts)
	selects, inserts := 0, 0
	for i := 0; i < 2000; i++ {
		st := g.Next()
		fp := ast.FingerprintOf(st)
		if !fp.UsesTable("TPG0001") {
			continue
		}
		if fp.Has(ast.FlagSelect) {
			selects++
		}
		if fp.Has(ast.FlagInsert) {
			inserts++
		}
	}
	if selects == 0 || inserts == 0 {
		t.Errorf("pool table underexercised: %d selects, %d inserts", selects, inserts)
	}
}

// Transactions must stay balanced: no COMMIT/ROLLBACK without BEGIN and
// no nested BEGIN (the servers would reject them identically, but the
// stream should not waste its budget on rejected statements).
func TestTransactionsBalanced(t *testing.T) {
	g := New(CommonProfile(9))
	in := false
	for i := 0; i < 2000; i++ {
		switch g.Next().(type) {
		case *ast.Begin:
			if in {
				t.Fatal("nested BEGIN")
			}
			in = true
		case *ast.Commit, *ast.Rollback:
			if !in {
				t.Fatal("COMMIT/ROLLBACK outside transaction")
			}
			in = false
		}
	}
}

// With sequences enabled the stream must contain sequence-advancing
// SELECTs, and every one of them must classify as NOT read-only on the
// server — the property each layer's write-path gating hangs off.
func TestSequenceAdvancingSelectsEmitted(t *testing.T) {
	opts := CommonProfile(5)
	opts.Sequences = true
	g := New(opts)
	orc := server.NewOracle()
	sess := orc.NewSession()
	seen := 0
	for i := 0; i < 4000; i++ {
		st := g.Next()
		sql := ast.Render(st)
		if _, ok := st.(*ast.Select); ok && strings.Contains(sql, "NEXTVAL(") {
			p, err := stmt.Resolve(sql)
			if err != nil {
				t.Fatal(err)
			}
			if !orc.SelectAdvancesSequences(p) {
				t.Fatalf("sequence-advancing SELECT classified read-only: %q", sql)
			}
			seen++
		}
		_, _, _ = sess.Exec(sql) // keep oracle schema in lockstep
	}
	if seen == 0 {
		t.Fatal("no sequence-advancing SELECT generated in 4000 statements")
	}
}
