package middleware

import (
	"time"

	"divsql/internal/obs"
)

// This file is the middleware's observability surface: the adjudication
// counters of Metrics rendered as divsql_middleware_* families, the
// per-replica health state, and the resync-duration histogram. The
// per-replica engines contribute their own divsql_engine_* families
// through MetricsCollectors, labeled by replica name.

// resyncBuckets bounds the resync-duration histogram: a snapshot resync
// of the in-memory engines is sub-millisecond when small and grows with
// table cardinality and journal depth.
func resyncBuckets() []time.Duration {
	return []time.Duration{
		100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		time.Second,
	}
}

// replicaHealth is one replica's health snapshot for the collector.
type replicaHealth struct {
	name        string
	quarantined bool
	suspicions  int
}

// replicaHealthSnapshot reads per-replica health under d.mu.
func (d *DiverseServer) replicaHealthSnapshot() []replicaHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]replicaHealth, len(d.replicas))
	for i, r := range d.replicas {
		out[i] = replicaHealth{
			name:        string(r.srv.Name()),
			quarantined: r.quarantined,
			suspicions:  r.suspicions,
		}
	}
	return out
}

// sessionCount reads the live client-session count under d.mu.
func (d *DiverseServer) sessionCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}

// MetricsCollector returns the middleware's own obs collector: the
// adjudication counters, per-replica quarantine state and the resync
// duration histogram.
func (d *DiverseServer) MetricsCollector() obs.Collector {
	return obs.NewCollector("middleware", func(f *obs.Feed) {
		m := d.Metrics()
		f.Count("divsql_middleware_statements_total",
			"Statements adjudicated across the replica set.", uint64(m.Statements))
		f.Count("divsql_middleware_unanimous_total",
			"Statements on which every active replica agreed.", uint64(m.Unanimous))
		f.Count("divsql_middleware_masked_failures_total",
			"Outvoted wrong results masked by the majority.", uint64(m.MaskedFailures))
		f.Count("divsql_middleware_detected_splits_total",
			"Divergences detected but not maskable.", uint64(m.DetectedSplits))
		f.Count("divsql_middleware_replica_errors_total",
			"Replica error messages outvoted by healthy replicas.", uint64(m.ReplicaErrors))
		f.Count("divsql_middleware_crashes_detected_total",
			"Replica engine crashes detected.", uint64(m.CrashesDetected))
		f.Count("divsql_middleware_perf_outliers_total",
			"Replicas flagged as performance outliers.", uint64(m.PerfOutliers))
		f.Count("divsql_middleware_rephrase_recovered_total",
			"Replica failures repaired by rephrasing the statement.", uint64(m.RephraseRecovered))
		f.Count("divsql_middleware_resyncs_total",
			"Snapshot resyncs of quarantined replicas.", uint64(m.Resyncs))
		f.Count("divsql_middleware_journal_replays_total",
			"Journal statements replayed on top of resync snapshots.", uint64(m.JournalReplays))
		f.Gauge("divsql_middleware_last_resync_seq",
			"Donor commit high-water mark of the most recent resync.", float64(m.LastResyncSeq))
		f.Histo("divsql_middleware_resync_duration_seconds",
			"Wall-clock duration of snapshot resyncs (capture + restore + replay).",
			d.resyncDur)
		f.Gauge("divsql_middleware_sessions",
			"Live client sessions.", float64(d.sessionCount()))
		for _, rh := range d.replicaHealthSnapshot() {
			q := 0.0
			if rh.quarantined {
				q = 1
			}
			f.Gauge("divsql_middleware_replica_quarantined",
				"1 while the replica is quarantined.", q, obs.L("replica", rh.name))
			f.Gauge("divsql_middleware_replica_suspicions",
				"Consecutive suspicions against the replica.", float64(rh.suspicions),
				obs.L("replica", rh.name))
		}
	})
}

// MetricsCollectors returns the full collector set of a diverse
// deployment: the middleware collector plus one per-replica server
// collector (engine plan-cache, access paths, catalog gauges — labeled
// by replica).
func (d *DiverseServer) MetricsCollectors() []obs.Collector {
	return d.MetricsCollectorsWith()
}

// MetricsCollectorsWith is MetricsCollectors with extra labels appended
// to every sample. A sharded deployment runs N DiverseServers whose
// families would otherwise collide — divsql_middleware_last_resync_seq
// and friends carry no distinguishing labels of their own — so the
// shard router qualifies each shard's collectors with its shard label
// and the same-named families merge into per-shard series.
func (d *DiverseServer) MetricsCollectorsWith(extra ...obs.Label) []obs.Collector {
	cs := []obs.Collector{obs.Labeled(d.MetricsCollector(), extra...)}
	d.mu.Lock()
	for _, r := range d.replicas {
		cs = append(cs, obs.Labeled(r.srv.MetricsCollector(), extra...))
	}
	d.mu.Unlock()
	return cs
}
