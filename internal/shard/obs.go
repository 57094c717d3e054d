package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"divsql/internal/obs"
)

// This file is the router's observability and introspection surface:
// routing counters rendered as divsql_shard_* families, the per-shard
// backend collectors qualified with a shard label (so same-named
// middleware families from different shards merge into distinct
// series), and the \shards status report.

// routerMetrics counts routing decisions. All fields are atomics; the
// router increments them on the dispatch path without extra locking.
type routerMetrics struct {
	statements atomic.Uint64 // every statement entering dispatch
	rejected   atomic.Uint64 // statements the analyzer refused to route
	single     atomic.Uint64 // single-shard routes
	scatter    atomic.Uint64 // cross-shard scatter-gather SELECTs
	broadcast  atomic.Uint64 // broadcasts (DDL, replicated writes, SET)

	perShard []shardCounters // index-aligned with backends
}

// shardCounters is one shard's share of the routed traffic.
type shardCounters struct {
	statements atomic.Uint64
}

// MetricsCollector returns the router's own collector: routing decision
// counters plus per-shard statement counts.
func (r *Router) MetricsCollector() obs.Collector {
	return obs.NewCollector("shard-router", func(f *obs.Feed) {
		m := &r.metrics
		f.Count("divsql_shard_statements_total",
			"Statements entering the shard router.", m.statements.Load())
		f.Count("divsql_shard_rejected_total",
			"Statements the router refused to route.", m.rejected.Load())
		f.Count("divsql_shard_single_total",
			"Statements routed to a single shard.", m.single.Load())
		f.Count("divsql_shard_scatter_total",
			"Cross-shard scatter-gather SELECTs.", m.scatter.Load())
		f.Count("divsql_shard_broadcast_total",
			"Statements broadcast to every shard.", m.broadcast.Load())
		f.Gauge("divsql_shard_shards",
			"Shards behind the router.", float64(len(r.backends)))
		for i := range m.perShard {
			f.Count("divsql_shard_routed_statements_total",
				"Statements executed on the shard (routing fan-out counts each shard).",
				m.perShard[i].statements.Load(), obs.L("shard", r.names[i]))
		}
	})
}

// backendCollectors is the optional interface a Backend implements to
// contribute labeled collectors (middleware.DiverseServer does).
type backendCollectors interface {
	MetricsCollectorsWith(extra ...obs.Label) []obs.Collector
}

// backendCollector is the single-collector fallback.
type backendCollector interface {
	MetricsCollector() obs.Collector
}

// MetricsCollectors returns the router collector plus every backend's
// collectors, each qualified with its shard label so that same-named
// families from different shards render as distinct label sets.
func (r *Router) MetricsCollectors() []obs.Collector {
	cs := []obs.Collector{r.MetricsCollector()}
	for i, b := range r.backends {
		label := obs.L("shard", r.names[i])
		switch x := b.(type) {
		case backendCollectors:
			cs = append(cs, x.MetricsCollectorsWith(label)...)
		case backendCollector:
			cs = append(cs, obs.Labeled(x.MetricsCollector(), label))
		}
	}
	return cs
}

// ShardStatus is one shard's introspection snapshot for \shards.
type ShardStatus struct {
	Name        string
	Statements  uint64
	Replicas    []string
	Quarantined []string
}

// replicaNamer / quarantineReporter are the optional backend interfaces
// feeding Status (middleware.DiverseServer implements both).
type replicaNamer interface{ ReplicaNames() []string }
type quarantineReporter interface{ QuarantinedReplicas() []string }

// Status snapshots every shard's replica fleet and quarantine state.
func (r *Router) Status() []ShardStatus {
	out := make([]ShardStatus, len(r.backends))
	for i, b := range r.backends {
		st := ShardStatus{
			Name:       r.names[i],
			Statements: r.metrics.perShard[i].statements.Load(),
		}
		if rn, ok := b.(replicaNamer); ok {
			st.Replicas = rn.ReplicaNames()
			sort.Strings(st.Replicas)
		}
		if qr, ok := b.(quarantineReporter); ok {
			st.Quarantined = qr.QuarantinedReplicas()
			sort.Strings(st.Quarantined)
		}
		out[i] = st
	}
	return out
}

// RouteCounts snapshots the router's routing decisions.
type RouteCounts struct {
	Single, Broadcast, Scatter, Rejected uint64
}

// Routes reads the routing-decision counters.
func (r *Router) Routes() RouteCounts {
	m := &r.metrics
	return RouteCounts{
		Single:    m.single.Load(),
		Broadcast: m.broadcast.Load(),
		Scatter:   m.scatter.Load(),
		Rejected:  m.rejected.Load(),
	}
}

// DescribeText renders Status for the CLI's \shards command.
func (r *Router) DescribeText() string {
	var b strings.Builder
	sts := r.Status()
	fmt.Fprintf(&b, "%d shard(s)\n", len(sts))
	for _, st := range sts {
		fmt.Fprintf(&b, "%s: %s statement(s)", st.Name, strconv.FormatUint(st.Statements, 10))
		if len(st.Replicas) > 0 {
			q := make(map[string]bool, len(st.Quarantined))
			for _, name := range st.Quarantined {
				q[name] = true
			}
			parts := make([]string, 0, len(st.Replicas))
			for _, name := range st.Replicas {
				if q[name] {
					parts = append(parts, name+" (quarantined)")
				} else {
					parts = append(parts, name)
				}
			}
			fmt.Fprintf(&b, ", replicas: %s", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
