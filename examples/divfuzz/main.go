// Divfuzz example: hunt for cross-server divergences with a generated,
// schema-aware workload instead of the fixed bug corpus.
//
// The example runs the differential harness three times: fault-free
// (the oracle-agreement smoke check — zero divergences expected), armed
// with the calibrated corpus fault set under fixed weights, and armed
// again with the coverage feedback loop closed plus bounded table
// cardinality (the -adaptive / -maxrows mode of cmd/divfuzz). The
// adaptive run retunes the generator's statement-class and query-shape
// weights from its own observed coverage every few hundred statements,
// so the same statement budget reaches noticeably more distinct
// divergence fingerprints; the printed coverage summary shows where the
// budget went. Each finding is deduplicated by statement fingerprint,
// shrunk to a minimal statement stream, and replayed to confirm.
//
// The calibrated runs draw SET TRANSACTION ISOLATION LEVEL statements
// (CalibratedConfig arms Config.Isolation by default), so per-dialect
// level acceptance shows up among the fingerprints. cmd/divfuzz exposes
// further dimensions this example leaves at their defaults: -isolation
// adds the same statements to fault-free gates, -params routes a
// weighted share of statements through prepare/bind with typed
// argument vectors (the servers' bind-time coercion surface),
// -planvariants (the Plan self-check oracle) re-runs every answered
// SELECT on its endpoint under forced full-scan and nested-loop plans
// as a self-check of the compiled execution path, and
// -metrics-every prints live hunt telemetry on long runs.
//
// The final stage arms the metamorphic self-check oracles (divfuzz
// -tlp -norec -cert): TLP partition reassembly, NoREC forced full-scan
// re-evaluation and CERT conjunct cardinality restriction convict an
// endpoint from rewrites of its own statements — the verdict source
// that still works when every endpoint shares the same wrong answer —
// and exports the shrunk findings as replayable regression cases
// (divfuzz -regress-out), the corpus format committed under
// regress/cases and replayed by `go test ./regress/...`.
package main

import (
	"fmt"
	"log"
	"os"

	"divsql/internal/difftest"
	"divsql/internal/metamorph"
)

func main() {
	// 1. Fault-free smoke: the four dialects implement the generator's
	// common subset identically to the oracle.
	clean, err := difftest.Run(difftest.DefaultConfig(1, 2000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free: %d statements adjudicated, %d divergences (want 0)\n\n",
		clean.Statements, len(clean.Divergences))

	// 2. Armed baseline: corpus faults injected, generator pool aimed at
	// their trigger tables, fixed statement-class weights.
	base := difftest.CalibratedConfig(1, 4000)
	base.Streams = 1
	base.Shrink = false
	baseline, err := difftest.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed weights:    %d distinct divergence fingerprints in %d statements\n",
		len(baseline.Divergences), baseline.Statements)

	// 3. The same budget, coverage-guided and cardinality-bounded
	// (divfuzz -adaptive -maxrows 32): the feedback loop pushes the
	// stream into regions still yielding new fingerprints, and bounded
	// tables keep per-statement adjudication cost flat however deep the
	// run goes.
	ad := difftest.CalibratedConfig(1, 4000)
	ad.Streams = 1
	ad.Adaptive = true
	ad.MaxRowsPerTable = 32
	ad.MaxReportsPerServer = 1
	res, err := difftest.Run(ad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage-guided:  %d distinct divergence fingerprints in %d statements\n\n",
		len(res.Divergences), res.Statements)
	fmt.Print(res.Coverage.Render())

	// 4. Shrunk reports replay standalone: print and confirm the first.
	for _, d := range res.Divergences {
		if d.Report == nil {
			continue
		}
		fmt.Println()
		fmt.Print(d.Report.Render())
		ok, err := difftest.Replay(d.Report)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replay reproduces: %v\n", ok)
		break
	}

	// 5. Metamorphic self-checks + regress export (divfuzz -tlp -norec
	// -cert -regress-out DIR): the oracles re-derive every answered
	// SELECT from rewrites of itself on each endpoint, so silent result
	// mutations convict without a cross-server vote; each shrunk report
	// lands as a replayable JSON case, deduped by fingerprint.
	regressDir, err := os.MkdirTemp("", "divfuzz-regress-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(regressDir)
	meta := difftest.CalibratedConfig(1, 4000)
	meta.Streams = 1
	meta.Oracles = []metamorph.Oracle{metamorph.TLP, metamorph.NoREC, metamorph.CERT}
	meta.MaxReportsPerServer = 4
	meta.RegressDir = regressDir
	mres, err := difftest.Run(meta)
	if err != nil {
		log.Fatal(err)
	}
	perOracle := map[string]int{}
	for _, d := range mres.Divergences {
		if d.Oracle != "" {
			perOracle[d.Oracle]++
		}
	}
	fmt.Printf("\nmetamorphic verdicts by oracle: %v\n", perOracle)
	cases, err := difftest.LoadCases(regressDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regress cases exported: %d\n", len(cases))
	for _, c := range cases {
		ok, err := difftest.Replay(c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s (source %q) replays: %v\n", c.Name, c.Oracle, ok)
		break
	}
}
