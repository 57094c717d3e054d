package difftest

import (
	"runtime"
	"testing"
	"time"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/qgen"
	"divsql/internal/sql/ast"
)

// The generator's common profile stays inside the subset the four
// dialects implement identically to the oracle, so the fault-free
// configuration must adjudicate every statement without a divergence.
// (This is the CI smoke property: any hit here is a harness or engine
// bug, not a fault find.)
func TestFaultFreeZeroDivergences(t *testing.T) {
	res, err := Run(DefaultConfig(1, 2500))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 0 {
		for _, d := range res.Divergences {
			t.Errorf("unexpected divergence on %s: [%s] %s (%s)", d.Server, d.Class.Type, d.SQL, d.Class.Detail)
		}
	}
	if res.Statements != 2500 {
		t.Errorf("adjudicated %d statements, want 2500", res.Statements)
	}
}

// Same configuration, same seed: identical divergence sets.
func TestRunDeterminism(t *testing.T) {
	cfg := CalibratedConfig(7, 1200)
	cfg.Shrink = false
	key := func(r *Result) []string {
		var out []string
		for _, d := range r.Divergences {
			out = append(out, string(d.Server)+"|"+d.Fingerprint+"|"+d.SQL)
		}
		return out
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		t.Fatalf("runs found %d vs %d divergences", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Errorf("divergence %d differs:\n  a: %s\n  b: %s", i, ka[i], kb[i])
		}
	}
}

// A stream's endpoint workers live exactly as long as the stream: once
// Run returns, every goroutine it started has exited, with one stream
// or several, faults and crash restarts included.
func TestHuntWorkers(t *testing.T) {
	for _, streams := range []int{1, 4} {
		// A goroutine of an earlier test may still be unwinding: count
		// only once the number has stopped moving.
		before := settledGoroutines()
		cfg := CalibratedConfig(3, 300)
		cfg.Streams = streams
		cfg.Shrink = false
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		// A worker that has signalled its exit may still be unwinding.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after != before {
			t.Errorf("%d streams: %d goroutines before Run, %d after", streams, before, after)
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine once five consecutive
// samples a millisecond apart agree, or after five seconds.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// The calibrated configuration must surface at least one deduplicated
// divergence on every fault-injected server, each with a shrunk,
// replayable report.
func TestCalibratedFindsDivergencesPerServer(t *testing.T) {
	cfg := CalibratedConfig(1, 5000)
	cfg.MaxReportsPerServer = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dialect.AllServers {
		if res.PerServer[s] == 0 {
			t.Errorf("no divergence found on %s", s)
		}
	}
	reports := 0
	for _, d := range res.Divergences {
		if d.Report == nil {
			continue
		}
		reports++
		if len(d.Report.Stream) == 0 || len(d.Report.Stream) > 25 {
			t.Errorf("%s/%s: shrunk stream has %d statements", d.Server, d.Class.Type, len(d.Report.Stream))
		}
		ok, err := Replay(d.Report)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("report on %s does not replay:\n%s", d.Server, d.Report.Render())
		}
	}
	if reports == 0 {
		t.Error("no shrunk reports were produced")
	}
	if out := res.Render(true); len(out) == 0 {
		t.Error("Render returned nothing")
	}
}

// A known injected divergence must shrink to a minimal stream: removing
// any single statement from the report must break reproduction.
func TestShrinkProducesMinimalStream(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "SYN-1",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "TSHRINK", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutDropLastRow},
	}}
	gen := qgen.CommonProfile(3)
	gen.TableNames = []string{"TSHRINK"}
	cfg := Config{Seed: 3, N: 600, Faults: faults, Shrink: true, MaxReportsPerServer: 1}
	cfg.Gen = &gen
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rep *Report
	for _, d := range res.Divergences {
		if d.Server == dialect.PG && d.Report != nil {
			rep = d.Report
			break
		}
	}
	if rep == nil {
		t.Fatal("synthetic fault produced no shrunk report")
	}
	// The mutation needs a table, at least one row, and a SELECT: the
	// minimal stream is a handful of statements, not the whole history.
	if len(rep.Stream) > 6 {
		t.Errorf("stream not minimal: %d statements\n%s", len(rep.Stream), rep.Render())
	}
	ok, err := Replay(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("shrunk stream does not replay:\n%s", rep.Render())
	}
	// 1-minimality: every remaining statement is necessary.
	shr := &shrinker{cfg: cfg, key: dedupKey{server: dialect.PG, fp: rep.Fingerprint}}
	for i := range rep.Stream {
		cand := make([]string, 0, len(rep.Stream)-1)
		cand = append(cand, rep.Stream[:i]...)
		cand = append(cand, rep.Stream[i+1:]...)
		if shr.reproduces(cand) {
			t.Errorf("statement %d (%s) is removable; stream not 1-minimal", i, rep.Stream[i])
		}
	}
}

// Divergences repeatedly triggered by the same fault region must
// collapse by fingerprint: raw occurrences exceed distinct records.
func TestDedupCollapsesRepeatedTriggers(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "SYN-2",
		Server:  dialect.MS,
		Trigger: fault.Trigger{Table: "TDEDUP", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious failure"},
	}}
	gen := qgen.CommonProfile(5)
	gen.TableNames = []string{"TDEDUP"}
	cfg := Config{Seed: 5, N: 1500, Faults: faults, Shrink: false}
	cfg.Gen = &gen
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) == 0 {
		t.Fatal("synthetic fault never triggered")
	}
	if res.Raw <= len(res.Divergences) {
		t.Errorf("expected repeated triggers to collapse: %d raw vs %d distinct", res.Raw, len(res.Divergences))
	}
	for _, d := range res.Divergences {
		if d.Server != dialect.MS {
			t.Errorf("divergence attributed to %s; only MS carries the fault", d.Server)
		}
	}
}
