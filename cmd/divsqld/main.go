// Command divsqld serves a SQL endpoint over the wire protocol: a
// single simulated server, a non-diverse replication group, or the
// diverse fault-tolerant middleware — the off-the-shelf middleware
// deployment the paper's conclusions call for.
//
// Usage:
//
//	divsqld -listen :5433 -mode diverse -servers PG,OR,MS
//	divsqld -listen :5433 -mode single  -servers IB
//	divsqld -listen :5433 -mode replicated -servers PG -n 3
//	divsqld -listen :5433 -mode diverse -shards 4
//	divsqld -listen :5433 -metrics :9090
//
// -shards N (with -mode diverse) runs N independent diverse replica
// sets behind a shard router. divsqld passes the router no band map, so
// it replicates every table to every shard: reads run on the session's
// home shard and so spread over the N sets, but every write runs on all
// N sets in one global order — N times the write work, and no added
// write capacity (see internal/shard; divsql.OpenSharded with
// BandColumns partitions rows instead). The wire SHARDS frame —
// divsql-cli \shards — reports per-shard replica and quarantine state.
//
// -metrics serves a Prometheus text /metrics endpoint covering every
// subsystem: middleware adjudication (statements, masked failures,
// splits, resyncs, per-replica quarantine), per-replica engines
// (plan-cache hit rate, access paths, catalog gauges), the wire
// protocol (per-frame request counters, latency histograms, bytes),
// and hunt telemetry. The same registry answers the wire METRICS
// frame, so sqldriver/CLI clients can introspect the deployment on the
// SQL port alone.
//
// Diagnostics go to stderr; stdout stays scriptable.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"divsql"
	"divsql/internal/difftest"
	"divsql/internal/obs"
	"divsql/internal/sql/stmt"
	"divsql/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5433", "address to listen on")
	mode := flag.String("mode", "diverse", "single | replicated | diverse")
	servers := flag.String("servers", "PG,OR,MS", "comma-separated server names (IB, PG, OR, MS)")
	n := flag.Int("n", 2, "replica count for -mode replicated")
	shards := flag.Int("shards", 1, "shard count for -mode diverse (>1 enables the shard router)")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics on this address (e.g. :9090; empty: off)")
	flag.Parse()

	d, err := start(*listen, *mode, *servers, *n, *shards, *metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divsqld:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "divsqld: %s mode with %v listening on %s\n", *mode, d.names, d.wireAddr)
	if d.metricsAddr != "" {
		fmt.Fprintf(os.Stderr, "divsqld: metrics on http://%s/metrics\n", d.metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "divsqld: shutting down")
	if err := d.close(); err != nil {
		fmt.Fprintln(os.Stderr, "divsqld:", err)
		os.Exit(1)
	}
}

// daemon is one running divsqld instance. start/close are separated
// from main so the metrics smoke test can run the daemon in-process on
// ephemeral ports.
type daemon struct {
	db          divsql.DB
	names       []divsql.ServerName
	wireSrv     *wire.Server
	wireAddr    string
	metricsLn   net.Listener
	metricsAddr string
}

// start opens the endpoint, begins serving the wire protocol on listen
// and, when metricsAddr is non-empty, the /metrics HTTP endpoint.
func start(listen, mode, serverList string, n, shards int, metricsAddr string) (*daemon, error) {
	var names []divsql.ServerName
	for _, s := range strings.Split(serverList, ",") {
		names = append(names, divsql.ServerName(strings.ToUpper(strings.TrimSpace(s))))
	}
	var (
		db  divsql.DB
		err error
	)
	switch {
	case shards > 1 && mode != "diverse":
		return nil, fmt.Errorf("-shards requires -mode diverse")
	case mode == "single":
		db, err = divsql.Open(names[0])
	case mode == "replicated":
		db, err = divsql.OpenReplicated(names[0], n)
	case mode == "diverse" && shards > 1:
		db, err = divsql.OpenSharded(divsql.ShardedConfig{Shards: shards}, names...)
	case mode == "diverse":
		db, err = divsql.OpenDiverse(names...)
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		return nil, err
	}

	exec, ok := divsql.Executor(db)
	if !ok {
		_ = db.Close()
		return nil, fmt.Errorf("mode %q has no executor", mode)
	}
	srv := wire.NewServer(exec)

	// One registry backs both exposure paths: the HTTP /metrics endpoint
	// and the wire METRICS frame. The hunt collector reports zeros until
	// a hunt runs in this process — present either way, so dashboards
	// can rely on the family set.
	reg := obs.NewRegistry()
	reg.Register(obs.ProcessCollector())
	reg.Register(stmt.ResolverCollector())
	reg.Register(divsql.Collectors(db)...)
	reg.Register(srv.MetricsCollector())
	reg.Register(difftest.SharedTelemetry().MetricsCollector())
	srv.ServeMetrics(reg)
	if _, ok := divsql.ShardsDescription(db); ok {
		srv.ServeShards(func() string {
			doc, _ := divsql.ShardsDescription(db)
			return doc
		})
	}

	addr, err := srv.Listen(listen)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	d := &daemon{db: db, names: names, wireSrv: srv, wireAddr: addr}

	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			_ = d.close()
			return nil, fmt.Errorf("metrics listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go func() { _ = http.Serve(ln, mux) }()
		d.metricsLn = ln
		d.metricsAddr = ln.Addr().String()
	}
	return d, nil
}

// close stops the listeners and releases the endpoint.
func (d *daemon) close() error {
	var first error
	if d.metricsLn != nil {
		if err := d.metricsLn.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := d.wireSrv.Close(); err != nil && first == nil {
		first = err
	}
	if err := d.db.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
