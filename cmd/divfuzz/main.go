// Command divfuzz hunts for cross-server divergences with generated
// workloads: it feeds a seeded, schema-aware SQL stream (internal/qgen)
// through the four simulated servers and the pristine oracle, and
// reports every fingerprint-deduplicated divergence with a shrunk,
// replayable reproduction (internal/difftest).
//
// Usage:
//
//	divfuzz [-seed N] [-n N] [-streams N] [-shards N] [-faults=false] [-stress]
//	        [-sequences] [-isolation] [-params] [-planvariants]
//	        [-tlp] [-norec] [-cert] [-regress-out DIR]
//	        [-adaptive] [-maxrows N] [-batch N] [-shrink=false]
//	        [-maxreports N] [-metrics-every N] [-o FILE] [-cov FILE] [-v]
//
// -shards N (N > 1) switches to the sharded smoke configuration: the
// streams run fault-free through the shard router (internal/shard) over
// N diverse replica sets and are adjudicated in lockstep against the
// oracle. The router replicates every table, so writes broadcast to
// every shard, reads pin to the session's home shard and transactions
// commit or roll back across the shards they reached. Routing,
// per-shard adjudication and the router's session layer must be
// semantically invisible, so any divergence is a router or middleware
// bug and the exit status is 1. The run prints its route mix. Fault
// flags do not combine with -shards.
//
// -metrics-every N prints a one-line hunt telemetry summary to stderr
// every N seconds — statements/s, coverage breadth, distinct divergence
// fingerprints, feedback retargets — so deep hunts (-n 100k+) are
// observable while they run instead of silent until exit.
//
// -planvariants arms the DQP-lite self-check oracle (metamorph.Plan):
// every SELECT an endpoint answers — the oracle and every server — is
// re-executed on that endpoint with every access path forced to a full
// scan and every join to the nested loop, and any disagreement with the
// normal execution is reported as a divergence against that endpoint —
// a direct differential test of the engine's index-backed execution
// under each dialect.
//
// -tlp, -norec and -cert arm the metamorphic self-check oracles
// (internal/metamorph): every answered SELECT is rewritten into queries
// whose results it logically constrains — ternary-logic partitioning
// (WHERE p / NOT p / p IS NULL must reassemble the unfiltered result),
// non-optimizing re-execution (a forced full scan counting the
// predicate must agree with the optimized cardinality), and cardinality
// restriction (adding a conjunct can never grow the result). A violated
// relation convicts the endpoint that produced the base result without
// any cross-server vote, so these oracles catch correlated failures a
// differential vote is structurally blind to. Arming any of them leans
// the generator toward the oracles' applicability region.
//
// -regress-out DIR exports every shrunk report of the run as a
// replayable regression case (JSON) under DIR, deduplicated across runs
// by verdict fingerprint — the committed corpus under regress/cases is
// grown this way and replayed by `go test ./regress/...`.
//
// -params enables the parameterized statement mode: a weighted share of
// the generated DML/queries executes through prepare/bind with typed
// argument vectors instead of inline literals, so the hunt reaches each
// server's bind-time coercion rules (a fault surface inline SQL cannot
// touch). With faults armed the argument values also target the
// bind-coercion quirk regions; the fault-free -params gate must stay
// divergence-free like any other common-subset stream.
//
// With -faults (the default) the harness is armed with the calibrated
// 181-bug corpus fault set and the generator's table pool targets the
// faults' trigger regions. With -faults=false the run is the smoke
// configuration: the common dialect subset must be divergence-free, so
// any finding is a harness or engine bug and the exit status is 1.
//
// Concurrent hunting is the default (-streams 4): per-stream scoped
// oracle snapshots give multi-stream runs the same resync precision and
// cascade-free attribution as a single stream, so the extra streams buy
// throughput without costing adjudication quality.
//
// -adaptive closes the coverage feedback loop: each stream retunes the
// generator's statement-class and query-shape weights from its own
// observed coverage every -batch statements, so the budget flows to
// under-explored regions still yielding new divergence fingerprints.
// -maxrows bounds generated-table cardinality, which keeps adjudicated
// cost per statement ~flat as -n grows — the two flags together are
// what make deep hunts (-n 100k+) affordable. Every run prints its
// coverage summary; -cov writes it to a separate artifact file.
//
// -sequences enables sequence DDL and sequence-advancing SELECTs
// (NEXTVAL) in the stream, restricting the run to the PG/OR server set
// (MS has no sequences; IB spells the function GEN_ID).
//
// -isolation weaves SET TRANSACTION ISOLATION LEVEL statements into
// the transactional streams, so read-view pinning (snapshot levels),
// per-statement fresh views (READ COMMITTED) and each dialect's
// acceptance of the level names enter adjudication (see ISOLATION.md).
// Fault-free runs draw only the universally accepted names and must
// stay divergence-free; calibrated runs (which arm isolation by
// default) draw all five, so per-dialect acceptance surfaces as
// isolation-class fingerprints.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"divsql/internal/difftest"
	"divsql/internal/metamorph"
)

// isFlagSet reports whether the named flag was passed explicitly.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	seed := flag.Int64("seed", 1, "generator seed (same seed, same stream, same findings)")
	n := flag.Int("n", 5000, "statements per stream")
	streams := flag.Int("streams", 4, "concurrent client streams (disjoint table namespaces, per-stream oracle resync)")
	shards := flag.Int("shards", 1, "run the fault-free sharded smoke over this many diverse replica sets (>1; see internal/shard)")
	faults := flag.Bool("faults", true, "arm the calibrated corpus fault set")
	stress := flag.Bool("stress", false, "stressful environment (Heisenbug triggers active)")
	sequences := flag.Bool("sequences", false, "exercise sequence-advancing SELECTs (PG/OR server set)")
	isolation := flag.Bool("isolation", false, "emit SET TRANSACTION ISOLATION LEVEL statements: read views and per-dialect level acceptance enter adjudication (fault-free runs draw only universally accepted levels)")
	params := flag.Bool("params", false, "parameterized mode: a weighted share of statements executes through prepare/bind with typed argument vectors, covering the servers' bind-time coercion rules")
	planVariants := flag.Bool("planvariants", false, "DQP-lite self-check: re-run every answered SELECT on the endpoint that answered it as a forced full scan and fail on any disagreement")
	tlp := flag.Bool("tlp", false, "metamorphic self-check: ternary-logic partitioning (WHERE p / NOT p / p IS NULL must reassemble the unfiltered result)")
	norec := flag.Bool("norec", false, "metamorphic self-check: non-optimizing re-execution (forced full-scan predicate count must match the optimized cardinality)")
	cert := flag.Bool("cert", false, "metamorphic self-check: cardinality restriction (an appended conjunct can never grow the result)")
	regressOut := flag.String("regress-out", "", "export every shrunk report as a replayable regression case (JSON) under this directory, deduplicated by verdict fingerprint")
	adaptive := flag.Bool("adaptive", false, "coverage-guided: retune generator weights from observed coverage between batches")
	maxrows := flag.Int("maxrows", 0, "bound generated-table cardinality (0: unbounded); keeps per-statement cost flat on deep runs")
	batch := flag.Int("batch", 0, "adaptive retargeting interval in statements (0: 500)")
	shrink := flag.Bool("shrink", true, "shrink each divergence to a minimal repro stream")
	maxReports := flag.Int("maxreports", 6, "shrunk reports per server")
	metricsEvery := flag.Int("metrics-every", 0, "print a one-line hunt telemetry summary (statements/s, coverage breadth, divergence fingerprints, retargets) to stderr every N seconds (0: off)")
	out := flag.String("o", "", "also write the report to this file (CI artifact)")
	covOut := flag.String("cov", "", "also write the coverage summary to this file (CI artifact)")
	verbose := flag.Bool("v", false, "print full repro reports")
	flag.Parse()

	if *shards > 1 {
		// The sharded smoke is its own fault-free configuration: arming
		// faults would make every stream diverge by design and convict
		// the router for the fault layer's work.
		if *faults && isFlagSet("faults") {
			fmt.Fprintln(os.Stderr, "divfuzz: -shards does not combine with -faults")
			os.Exit(2)
		}
		res, err := difftest.RunSharded(difftest.ShardedConfig{
			Seed: *seed, N: *n, Streams: *streams, Shards: *shards,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "divfuzz:", err)
			os.Exit(2)
		}
		fmt.Print(res.RenderSharded())
		if len(res.Divergences) > 0 {
			fmt.Fprintln(os.Stderr, "divfuzz: divergences in the sharded fault-free configuration — router or middleware bug")
			os.Exit(1)
		}
		return
	}

	var cfg difftest.Config
	if *faults {
		cfg = difftest.CalibratedConfig(*seed, *n)
	} else {
		cfg = difftest.DefaultConfig(*seed, *n)
	}
	cfg.Streams = *streams
	cfg.Stress = *stress
	cfg.Shrink = *shrink
	cfg.MaxReportsPerServer = *maxReports
	cfg.Adaptive = *adaptive
	cfg.MaxRowsPerTable = *maxrows
	cfg.FeedbackBatch = *batch
	cfg.Params = *params
	// CalibratedConfig turns isolation on by default; the flag can only
	// add it to a fault-free run, not strip it from a calibrated one.
	cfg.Isolation = cfg.Isolation || *isolation
	armed := map[metamorph.Oracle]bool{
		metamorph.Plan: *planVariants, metamorph.TLP: *tlp, metamorph.NoREC: *norec, metamorph.CERT: *cert,
	}
	for _, o := range metamorph.Oracles {
		if armed[o] {
			cfg.Oracles = append(cfg.Oracles, o)
		}
	}
	cfg.RegressDir = *regressOut
	if *sequences {
		cfg = cfg.WithSequences()
	}

	if *metricsEvery > 0 {
		tel := difftest.SharedTelemetry()
		tel.Snapshot() // open the rate window
		tick := time.NewTicker(time.Duration(*metricsEvery) * time.Second)
		defer tick.Stop()
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-tick.C:
					fmt.Fprintln(os.Stderr, tel.Snapshot().String())
				case <-done:
					return
				}
			}
		}()
		// A run shorter than the interval still reports once at the end.
		defer func() { fmt.Fprintln(os.Stderr, tel.Snapshot().String()) }()
	}

	res, err := difftest.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divfuzz:", err)
		os.Exit(2)
	}
	report := res.Render(*verbose)
	fmt.Print(report)
	if *out != "" {
		// Artifacts always carry the full repro reports, independent of
		// the console verbosity.
		if err := os.WriteFile(*out, []byte(res.Render(true)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "divfuzz: write report:", err)
			os.Exit(2)
		}
	}
	if *covOut != "" && res.Coverage != nil {
		if err := os.WriteFile(*covOut, []byte(res.Coverage.Render()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "divfuzz: write coverage:", err)
			os.Exit(2)
		}
	}

	if !*faults && len(res.Divergences) > 0 {
		fmt.Fprintln(os.Stderr, "divfuzz: divergences in the fault-free configuration — harness or engine bug")
		os.Exit(1)
	}
}
