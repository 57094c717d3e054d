package difftest

import (
	"errors"
	"strings"
	"testing"

	"divsql/internal/core"
	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/qgen"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
)

// A seeded fault whose trigger table belongs to one stream's pool share
// must be attributed to exactly that stream, with every divergence
// inside the fault's own region: per-stream scoped oracle resync cuts
// the cascade a missed write would otherwise spray over later
// statements (as non-self-evident data divergences).
func TestConcurrentStreamAttribution(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "swallow-insert",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "AX_TRIG", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious internal failure"},
	}}
	gen := qgen.CommonProfile(31)
	gen.TableNames = []string{"ZZ_OTHER", "AX_TRIG"}
	// Without transactions the scoped resync lands immediately after the
	// diverging statement, so the run must be strictly cascade-free.
	gen.Transactions = false
	cfg := Config{Seed: 31, N: 1200, Streams: 2, Faults: faults, Gen: &gen}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerServer[dialect.PG] == 0 {
		t.Fatal("seeded fault not found")
	}
	for _, d := range res.Divergences {
		if d.Server != dialect.PG {
			t.Errorf("only PG is faulted, yet %s diverged: %s", d.Server, d.SQL)
		}
		if d.Stream != 1 {
			t.Errorf("fault attributed to stream %d, want 1: %s", d.Stream, d.SQL)
		}
		if !strings.Contains(d.SQL, "AX_TRIG") {
			t.Errorf("divergence outside the fault region: %s", d.SQL)
		}
		if !d.Class.SelfEvident {
			t.Errorf("cascade divergence slipped past the scoped resync: [%s] %s (%s)",
				d.Class.Type, d.SQL, d.Class.Detail)
		}
	}
}

// Multi-stream mode keeps sibling streams clean: the stream that owns
// the fault region absorbs it, the other finds nothing at all.
func TestConcurrentStreamSiblingUnaffected(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "swallow-insert",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "AX_TRIG", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious internal failure"},
	}}
	gen := qgen.CommonProfile(47)
	gen.TableNames = []string{"ZZ_OTHER", "AX_TRIG"}
	cfg := Config{Seed: 47, N: 1200, Streams: 2, Faults: faults, Gen: &gen}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Divergences {
		if d.Stream == 0 {
			t.Errorf("sibling stream polluted: [%s on %s] %s", d.Class.Type, d.Server, d.SQL)
		}
	}
}

// Fault-free sequence mode: the PG/OR server set executes a stream
// containing sequence-advancing SELECTs in lockstep with the oracle and
// must agree byte for byte — the sequence-advancing SELECT
// classification is exercised end to end by the fuzzer.
func TestSequenceStreamFaultFree(t *testing.T) {
	cfg := DefaultConfig(21, 1500).WithSequences()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Divergences {
		t.Errorf("fault-free sequence divergence on %s: [%s] %s (%s)", d.Server, d.Class.Type, d.SQL, d.Class.Detail)
	}
	// The run must actually have exercised NEXTVAL: regenerate the same
	// deterministic stream and count sequence-advancing SELECTs.
	opts := *cfg.Gen
	opts.Seed = cfg.Seed
	g := qgen.New(opts)
	seen := 0
	for i := 0; i < cfg.N; i++ {
		st := g.Next()
		if _, ok := st.(*ast.Select); ok && strings.Contains(ast.Render(st), "NEXTVAL(") {
			seen++
		}
	}
	if seen == 0 {
		t.Error("sequence profile emitted no sequence-advancing SELECT")
	}
}

// An error-for-error swap — the server rejects a statement the oracle
// also rejects, but with a different error class — is a divergence now.
// Same-class rewording stays representational and is tolerated.
func TestErrorClassSwapDetected(t *testing.T) {
	sql := "DROP TABLE MISSING"
	st, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	orc := server.NewOracle()
	sess := orc.NewSession()
	_, _, oerr := sess.Exec(sql)
	if oerr == nil {
		t.Fatal("oracle must reject the drop of a missing table")
	}
	oo := server.StmtOutcome{SQL: sql, Err: oerr}

	swapped := server.StmtOutcome{SQL: sql, Err: errors.New("spurious internal failure")}
	if cls := classifyPair(st, swapped, oo); !cls.IsFailure() {
		t.Error("error class swap not detected")
	} else if cls.Type != core.IncorrectResult {
		t.Errorf("swap classified as %s", cls.Type)
	}

	reworded := server.StmtOutcome{SQL: sql, Err: errors.New("relation MISSING does not exist")}
	if cls := classifyPair(st, reworded, oo); cls.IsFailure() {
		t.Errorf("same-class rewording flagged: %s", cls.Detail)
	}
}

// Corpus-driven: for every injected error-message fault in the corpus,
// the harness flags it against a legitimate oracle error exactly when
// the normalized classes differ — and identical errors never diverge.
func TestErrorClassCorpusDriven(t *testing.T) {
	sql := "DROP TABLE MISSING"
	st, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	orc := server.NewOracle()
	sess := orc.NewSession()
	_, _, oerr := sess.Exec(sql)
	oo := server.StmtOutcome{SQL: sql, Err: oerr}

	total, swaps := 0, 0
	for _, f := range corpus.AllFaults() {
		if f.Effect.Kind != fault.EffectError {
			continue
		}
		total++
		serr := errors.New(f.Effect.Message)
		so := server.StmtOutcome{SQL: sql, Err: serr}
		mismatch := core.ErrorClass(serr) != core.ErrorClass(oerr)
		if got := classifyPair(st, so, oo).IsFailure(); got != mismatch {
			t.Errorf("fault %s (%q): flagged=%v, class mismatch=%v", f.BugID, f.Effect.Message, got, mismatch)
		}
		if mismatch {
			swaps++
		}
		// The same error on both sides always agrees.
		same := server.StmtOutcome{SQL: sql, Err: errors.New(f.Effect.Message)}
		if classifyPair(st, so, same).IsFailure() {
			t.Errorf("identical errors diverged for fault %s", f.BugID)
		}
	}
	if total == 0 {
		t.Fatal("corpus has no error-message faults")
	}
	if swaps == 0 {
		t.Error("corpus error faults never swap classes; the comparison is untested")
	}
}
