package difftest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"divsql/internal/obs"
)

// Telemetry is the live counter set of hunt runs: what a long adaptive
// campaign looks like from the outside while it is still running. All
// hot-path recording is atomic (the per-statement cost is a handful of
// uncontended adds); snapshots and rate computation take a small lock.
//
// One Telemetry may span several Run calls — the counters are
// cumulative over the process, which is what both consumers want:
// divfuzz's periodic -metrics-every stderr summaries, and divsqld's
// hunt collector (zeros while no hunt has run).
type Telemetry struct {
	statements atomic.Uint64 // generated statements adjudicated
	execs      atomic.Uint64 // statement executions across all endpoints
	raw        atomic.Uint64 // pre-dedup divergent executions
	divFPs     atomic.Uint64 // distinct (server, fingerprint) divergences
	genFPs     atomic.Uint64 // generated-fingerprint breadth (summed per stream)
	retargets  atomic.Uint64 // adaptive feedback retargetings
	active     atomic.Int64  // currently running streams

	metaChecks   atomic.Uint64 // self-check oracle relations evaluated (metamorph.Oracles)
	metaFindings atomic.Uint64 // self-check oracle verdicts that convicted

	mu       sync.Mutex
	prevStmt uint64
	prevAt   time.Time
}

// shared is the process-global telemetry Run falls back to when the
// Config carries none.
var shared = &Telemetry{}

// SharedTelemetry returns the process-global hunt telemetry. Runs
// without an explicit Config.Telemetry record here, so a divsqld
// process that also hosts hunts (or none at all) can always register
// the hunt collector.
func SharedTelemetry() *Telemetry { return shared }

// Snapshot is one consistent read of the counters, with the statement
// rate over the window since the previous Snapshot call.
type Snapshot struct {
	Statements             uint64
	Execs                  uint64
	RawDivergences         uint64
	DivergenceFingerprints uint64
	GeneratedFingerprints  uint64
	Retargets              uint64
	MetamorphicChecks      uint64
	MetamorphicFindings    uint64
	ActiveStreams          int
	StmtsPerSec            float64 // 0 on the first snapshot of a window
}

// Snapshot reads the counters and computes the statement rate since the
// previous call (the -metrics-every ticker calls it once per interval,
// so the rate is per-interval, not lifetime-averaged).
func (t *Telemetry) Snapshot() Snapshot {
	now := time.Now()
	s := Snapshot{
		Statements:             t.statements.Load(),
		Execs:                  t.execs.Load(),
		RawDivergences:         t.raw.Load(),
		DivergenceFingerprints: t.divFPs.Load(),
		GeneratedFingerprints:  t.genFPs.Load(),
		Retargets:              t.retargets.Load(),
		MetamorphicChecks:      t.metaChecks.Load(),
		MetamorphicFindings:    t.metaFindings.Load(),
		ActiveStreams:          int(t.active.Load()),
	}
	t.mu.Lock()
	if !t.prevAt.IsZero() {
		if dt := now.Sub(t.prevAt).Seconds(); dt > 0 {
			s.StmtsPerSec = float64(s.Statements-t.prevStmt) / dt
		}
	}
	t.prevStmt = s.Statements
	t.prevAt = now
	t.mu.Unlock()
	return s
}

// String renders the snapshot as the one-line stderr summary divfuzz
// prints between batches.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"hunt: %d stmts (%.0f/s), %d execs, coverage %d fps, divergences %d raw / %d distinct, %d retargets, %d streams",
		s.Statements, s.StmtsPerSec, s.Execs, s.GeneratedFingerprints,
		s.RawDivergences, s.DivergenceFingerprints, s.Retargets, s.ActiveStreams)
}

// MetricsCollector returns the hunt telemetry's obs collector
// (divsql_hunt_* families). Rates are left to the scraper — the
// counters carry everything rate() needs.
func (t *Telemetry) MetricsCollector() obs.Collector {
	return obs.NewCollector("hunt", func(f *obs.Feed) {
		f.Count("divsql_hunt_statements_total",
			"Generated statements adjudicated across hunt runs.", t.statements.Load())
		f.Count("divsql_hunt_execs_total",
			"Statement executions across all endpoints.", t.execs.Load())
		f.Count("divsql_hunt_raw_divergences_total",
			"Pre-dedup divergent statement executions.", t.raw.Load())
		f.Count("divsql_hunt_divergence_fingerprints_total",
			"Distinct (server, fingerprint) divergences recorded.", t.divFPs.Load())
		f.Count("divsql_hunt_generated_fingerprints_total",
			"Generated-fingerprint coverage breadth (summed per stream).", t.genFPs.Load())
		f.Count("divsql_hunt_feedback_retargets_total",
			"Adaptive feedback retargetings of generator weights.", t.retargets.Load())
		f.Count("divsql_hunt_metamorphic_checks_total",
			"Self-check oracle relations (Plan/TLP/NoREC/CERT) evaluated.", t.metaChecks.Load())
		f.Count("divsql_hunt_metamorphic_findings_total",
			"Self-check oracle verdicts that convicted an endpoint.", t.metaFindings.Load())
		f.Gauge("divsql_hunt_active_streams",
			"Hunt streams currently running.", float64(t.active.Load()))
	})
}

// streamStarted/streamDone bracket one runStream goroutine.
func (t *Telemetry) streamStarted() { t.active.Add(1) }
func (t *Telemetry) streamDone()    { t.active.Add(-1) }
