package engine

import (
	"divsql/internal/engine/plan"
	"divsql/internal/obs"
)

// This file is the engine's observability surface: a consistent stats
// snapshot taken under the read lock, and an obs.Collector that turns it
// (plus the lock-free plan-cache and access-path counters) into
// divsql_engine_* metric families. In a diverse deployment every replica
// runs its own engine, so the collector labels each series with the
// replica name and the middleware registers one collector per replica
// into the shared family set.

// TableRows is one base table's live row count.
type TableRows struct {
	Name string
	Rows int
}

// Stats is a consistent engine-state snapshot for introspection.
type Stats struct {
	Sessions      int
	InTxn         int // sessions with an open transaction
	Tables        int
	Views         int
	Indexes       int
	Sequences     int
	TableRows     []TableRows // sorted by table name
	CommitSeq     uint64
	SchemaVersion uint64
}

// StatsSnapshot reads the engine's introspection stats under one read
// lock acquisition, so the counts are mutually consistent.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{
		Sessions:      len(e.sessions),
		Tables:        len(e.st.tables),
		Views:         len(e.st.views),
		Indexes:       len(e.st.indexs),
		Sequences:     len(e.st.seqs),
		CommitSeq:     e.commitSeq.Load(),
		SchemaVersion: e.schemaVersion,
	}
	for s := range e.sessions {
		s.txMu.Lock()
		if s.inTxn {
			st.InTxn++
		}
		s.txMu.Unlock()
	}
	st.TableRows = make([]TableRows, 0, len(e.st.tables))
	for _, n := range e.facts().tables {
		t := e.st.tables[n]
		e.lockLatch(t)
		rows := len(t.Rows)
		t.latch.Unlock()
		st.TableRows = append(st.TableRows, TableRows{Name: n, Rows: rows})
	}
	return st
}

// ReadViewStats is the read-view and latch observability surface: how
// often views were rebuilt vs served from cache, how table images were
// materialized, and how much time writers spent contending on latches.
type ReadViewStats struct {
	Builds           uint64
	Hits             uint64
	TableReuses      uint64
	MatCleans        uint64
	MatRewinds       uint64
	LatchWaits       uint64
	LatchWaitSeconds float64
}

// ReadViewStats returns the lock-free read-view and latch counters.
func (e *Engine) ReadViewStats() ReadViewStats {
	return ReadViewStats{
		Builds:           e.viewBuilds.Load(),
		Hits:             e.viewHits.Load(),
		TableReuses:      e.viewReuses.Load(),
		MatCleans:        e.matCleans.Load(),
		MatRewinds:       e.matRewinds.Load(),
		LatchWaits:       e.latchWaits.Load(),
		LatchWaitSeconds: float64(e.latchWaitNs.Load()) / 1e9,
	}
}

// MetricsCollector returns the engine's obs collector. The replica label
// distinguishes engines in a diverse/replicated deployment; pass "" for
// a single-server deployment to omit per-replica labeling entirely.
func (e *Engine) MetricsCollector(replica string) obs.Collector {
	var labels []obs.Label
	if replica != "" {
		labels = []obs.Label{obs.L("replica", replica)}
	}
	return obs.NewCollector("engine", func(f *obs.Feed) {
		cs := e.PlanCacheStats()
		f.Count("divsql_engine_plan_cache_hits_total",
			"Compiled-plan cache hits (memo tier folded in).", cs.Hits, labels...)
		f.Count("divsql_engine_plan_cache_misses_total",
			"Compiled-plan cache misses (compilations).", cs.Misses, labels...)
		f.Count("divsql_engine_plan_cache_invalidations_total",
			"Compiled plans invalidated by schema change.", cs.Invalidations, labels...)
		f.Gauge("divsql_engine_plan_cache_hit_rate",
			"Plan-cache hit rate over the process lifetime.", cs.HitRate(), labels...)

		for p := range e.pathExecs {
			f.Count("divsql_engine_compiled_exec_total",
				"SELECT statements executed, by the access path of a single base-table statement (full-scan: every other shape too).", e.pathExecs[p].Load(),
				append(labels[:len(labels):len(labels)], obs.L("path", plan.AccessPath(p).String()))...)
		}

		for a := range e.joinExecs {
			f.Count("divsql_engine_join_execs_total",
				"Joins with an ON predicate executed, by the algorithm that ran (a hash join that fell back at run time counts as nested-loop).", e.joinExecs[a].Load(),
				append(labels[:len(labels):len(labels)], obs.L("algo", plan.JoinAlgo(a).String()))...)
		}

		st := e.StatsSnapshot()
		f.Gauge("divsql_engine_sessions",
			"Live engine sessions.", float64(st.Sessions), labels...)
		f.Gauge("divsql_engine_sessions_in_txn",
			"Sessions with an open transaction.", float64(st.InTxn), labels...)
		f.Gauge("divsql_engine_tables",
			"Base tables in the catalog.", float64(st.Tables), labels...)
		f.Gauge("divsql_engine_views",
			"Views in the catalog.", float64(st.Views), labels...)
		f.Gauge("divsql_engine_indexes",
			"Declared secondary indexes.", float64(st.Indexes), labels...)
		f.Gauge("divsql_engine_sequences",
			"Sequences in the catalog.", float64(st.Sequences), labels...)
		f.Count("divsql_engine_commit_seq",
			"Commit high-water mark.", st.CommitSeq, labels...)
		f.Gauge("divsql_engine_schema_version",
			"Current schema generation stamp.", float64(st.SchemaVersion), labels...)
		for _, tr := range st.TableRows {
			f.Gauge("divsql_engine_table_rows",
				"Live rows per base table.", float64(tr.Rows),
				append(labels[:len(labels):len(labels)], obs.L("table", tr.Name))...)
		}

		rv := e.ReadViewStats()
		f.Count("divsql_engine_readview_builds_total",
			"Read views built (cached view was stale).", rv.Builds, labels...)
		f.Count("divsql_engine_readview_hits_total",
			"Statements served by the cached read view.", rv.Hits, labels...)
		f.Count("divsql_engine_readview_table_reuses_total",
			"Per-table wrappers carried over between consecutive views.", rv.TableReuses, labels...)
		f.Count("divsql_engine_readview_mat_clean_total",
			"Zero-copy table materializations (stable slice capture).", rv.MatCleans, labels...)
		f.Count("divsql_engine_readview_mat_rewind_total",
			"Table materializations that cloned rows and rewound open transactions.", rv.MatRewinds, labels...)
		f.Count("divsql_engine_latch_waits_total",
			"Contended table-latch acquisitions.", rv.LatchWaits, labels...)
		f.Gauge("divsql_engine_latch_wait_seconds_total",
			"Cumulative time spent waiting on contended table latches.", rv.LatchWaitSeconds, labels...)
	})
}
