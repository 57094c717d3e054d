package difftest

import (
	"strings"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/qgen"
	"divsql/internal/sql/ast"
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
