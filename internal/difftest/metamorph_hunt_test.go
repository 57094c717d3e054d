package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"divsql/internal/metamorph"
)

// rewriteOracles are the oracles that rewrite the checked SELECT.
var rewriteOracles = []metamorph.Oracle{metamorph.TLP, metamorph.NoREC, metamorph.CERT}

// metamorphicKeys flattens a run's divergences into comparable strings.
func metamorphicKeys(res *Result) []string {
	var keys []string
	for _, d := range res.Divergences {
		keys = append(keys, fmt.Sprintf("%s|%s|%s|%d", d.Server, d.Oracle, d.Fingerprint, d.Count))
	}
	return keys
}

// TestFaultFreeMetamorphicGate is the in-tree twin of the CI smoke
// steps: with no faults armed, the full oracle stack (Plan, TLP, NoREC
// and CERT, over params and isolation) must stay divergence-free at two
// seeds — any finding is a false positive in an
// oracle or a real engine bug, and either must fail loudly.
func TestFaultFreeMetamorphicGate(t *testing.T) {
	for _, seed := range []int64{17, 19} {
		cfg := DefaultConfig(seed, 1500)
		cfg.Shrink = false
		cfg.Oracles = metamorph.Oracles
		cfg.Params, cfg.Isolation = true, true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Divergences {
			t.Errorf("seed %d: fault-free divergence on %s <%s>: %s (%s)",
				seed, d.Server, d.Oracle, d.SQL, d.Class.Detail)
		}
		// The gate only means something if the oracles actually ran.
		for _, o := range metamorph.Oracles {
			bc, ok := res.Coverage.ByOracle[string(o)]
			if !ok || bc.Hits == 0 {
				t.Errorf("seed %d: verdict source %q never applied", seed, o)
			}
		}
	}
}

// TestMetamorphicHuntDeterministicAndYields runs the same calibrated
// metamorphic hunt twice and asserts (a) the verdict stream is
// seed-deterministic — identical (server, oracle, fingerprint, count)
// sets — and (b) the calibrated fault set yields at least one
// metamorphic-class fingerprint per armed oracle, the acceptance signal
// that the oracles can see the corpus's silent result mutations.
func TestMetamorphicHuntDeterministicAndYields(t *testing.T) {
	run := func() *Result {
		cfg := CalibratedConfig(42, 2500)
		cfg.Shrink = false
		cfg.Oracles = rewriteOracles
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	ka, kb := metamorphicKeys(a), metamorphicKeys(b)
	if !reflect.DeepEqual(ka, kb) {
		t.Fatalf("verdict stream not seed-deterministic:\nrun1: %d records\nrun2: %d records", len(ka), len(kb))
	}
	perOracle := map[string]int{}
	for _, d := range a.Divergences {
		perOracle[d.Oracle]++
	}
	for _, o := range []string{"tlp", "norec", "cert"} {
		if perOracle[o] == 0 {
			t.Errorf("calibrated hunt yielded no %s-class fingerprints (per-oracle: %v)", o, perOracle)
		}
		// Divergent counts the oracle's convictions; NewFingerprints stays
		// 0 here because the differential vote convicts the same mutated
		// statements first and statement-fingerprint novelty is shared
		// across verdict planes.
		if bc := a.Coverage.ByOracle[o]; bc == nil || bc.Divergent == 0 {
			t.Errorf("ByOracle coverage shows no convictions for %s", o)
		}
	}
}

// TestRegressExportLoadReplay exercises the corpus lifecycle end to
// end: a calibrated hunt with RegressDir set exports its shrunk reports
// as case files; LoadCases reads them back; every case replays; and a
// second export of the same run leaves the files untouched (dedup by
// verdict fingerprint).
func TestRegressExportLoadReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := CalibratedConfig(42, 2000)
	cfg.Oracles = rewriteOracles
	// The per-server shrink cap fills in record order and the
	// differential vote records before the metamorphic ones on the same
	// mutated statement, so leave enough room for oracle-tagged reports.
	cfg.MaxReportsPerServer = 8
	cfg.RegressDir = dir
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := LoadCases(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("calibrated hunt exported no regress cases")
	}
	metamorphic := 0
	for _, c := range cases {
		if c.Oracle != srcDifferential && c.Oracle != string(metamorph.Plan) {
			metamorphic++
		}
	}
	if metamorphic == 0 {
		t.Errorf("no metamorphic-verdict case among %d exported", len(cases))
	}
	for i, c := range cases {
		if i >= 8 {
			break // replay cost cap; the regress/ gate replays everything committed
		}
		ok, err := Replay(c)
		if err != nil {
			t.Fatalf("case %s: %v", c.Name, err)
		}
		if !ok {
			t.Errorf("case %s does not reproduce right after export", c.Name)
		}
	}
	// Dedup: re-exporting the same reports must not rewrite files.
	stamp := map[string]int64{}
	for _, c := range cases {
		fi, err := os.Stat(filepath.Join(dir, c.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		stamp[c.Name] = fi.Size()
	}
	for _, d := range res.Divergences {
		if d.Report != nil {
			if _, err := ExportCase(dir, d.Report); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := LoadCases(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(cases) {
		t.Errorf("re-export changed corpus size: %d -> %d", len(cases), len(after))
	}
}
