// Package divsql is a reproduction study and library for "Fault
// Diversity among Off-The-Shelf SQL Database Servers" (Gashi, Popov &
// Strigini, DSN 2004).
//
// It provides:
//
//   - four simulated off-the-shelf SQL servers (Interbase 6, PostgreSQL
//     7.0, Oracle 8.0.5 and MS SQL Server 7 — abbreviated IB, PG, OR,
//     MS) built on a shared SQL-92 engine, diversified by per-server
//     dialects and per-server fault/quirk sets calibrated against the
//     paper's published bug data;
//
//   - the paper's study harness: run the 181-bug corpus on every server
//     and regenerate Tables 1-4 and the headline statistics;
//
//   - the fault-tolerant middleware the paper motivates: a diverse
//     replicated SQL server with result comparison, failure masking,
//     quarantine and state resynchronization, plus the crash-only
//     non-diverse baseline it is compared against;
//
//   - a TPC-C-like workload for statistical testing of any
//     configuration;
//
//   - a differential fuzzing rig (internal/qgen + internal/difftest,
//     cmd/divfuzz) that scales the paper's question to open-ended
//     generated workloads: schema-aware statement streams adjudicated
//     across all four servers and a pristine oracle, with
//     coverage-guided budget allocation and bounded table cardinality
//     for deep runs.
//
// The execution contract is prepare/bind/execute end to end: Exec(sql)
// is one-shot prepare-and-execute, and Prepare(sql) plans a statement
// (with ? or $n placeholders) once for repeated execution with typed
// arguments, bound server-side under each simulated server's own
// coercion rules. Results carry both the typed cells (Result.Values)
// and the string rendering the comparator works over (Result.Rows).
//
// Quickstart:
//
//	db, _ := divsql.OpenDiverse(divsql.PG, divsql.OR, divsql.MS)
//	defer db.Close()
//	db.Exec(`CREATE TABLE T (A INT)`)
//	ins, _ := db.Prepare(`INSERT INTO T VALUES (?)`)
//	ins.Exec(divsql.Int(1))
//	res, _ := db.Exec(`SELECT A FROM T`)
//	fmt.Println(res.Rows)
package divsql

import (
	"errors"
	"fmt"
	"time"

	"divsql/internal/core"
	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/fault"
	"divsql/internal/middleware"
	"divsql/internal/obs"
	"divsql/internal/replication"
	"divsql/internal/server"
	"divsql/internal/shard"
	"divsql/internal/sql/types"
)

// ServerName identifies a simulated server product.
type ServerName string

// The four simulated off-the-shelf servers.
const (
	IB ServerName = "IB" // Interbase 6.0 (simulated)
	PG ServerName = "PG" // PostgreSQL 7.0.0 (simulated)
	OR ServerName = "OR" // Oracle 8.0.5 (simulated)
	MS ServerName = "MS" // MS SQL Server 7 (simulated)
)

// AllServers lists the four simulated servers.
func AllServers() []ServerName { return []ServerName{IB, PG, OR, MS} }

// Row is one result row, rendered as strings ("NULL" for SQL NULL).
type Row []string

// Value is one typed SQL scalar: the argument type of prepared-statement
// execution and the cell type of Result.Values. Construct arguments with
// Int, Float, Str, Bool and Null.
type Value = types.Value

// Typed argument constructors for Stmt.Exec.
func Int(i int64) Value     { return types.NewInt(i) }
func Float(f float64) Value { return types.NewFloat(f) }
func Str(s string) Value    { return types.NewString(s) }
func Bool(b bool) Value     { return types.NewBool(b) }
func Null() Value           { return types.Null() }

// Result is the outcome of one statement.
type Result struct {
	// Columns are the result column names (empty for non-queries).
	Columns []string
	// Rows are the data rows rendered as strings — the representation
	// the comparator and fingerprinting work over ("NULL" for SQL NULL).
	Rows []Row
	// Values are the same data rows as typed values (queries only;
	// index-aligned with Rows).
	Values [][]Value
	// Affected is the row count of INSERT/UPDATE/DELETE.
	Affected int64
	// Latency is the simulated execution time.
	Latency time.Duration
}

// DB is a SQL endpoint: a single simulated server, a non-diverse
// replication group, a diverse fault-tolerant server or a sharded
// deployment of those. Every statement runs in a session; Exec and
// Prepare are a convenience over one session the DB opens for you.
type DB interface {
	// Exec executes one SQL statement on the DB's own session (a
	// one-shot prepare-and-execute).
	Exec(sql string) (*Result, error)
	// Prepare plans one statement on the DB's own session for repeated
	// execution with typed arguments (? or $n placeholders).
	Prepare(sql string) (Stmt, error)
	// Session opens a client session: an independent transaction scope.
	// Sessions of one endpoint execute concurrently (queries in
	// parallel, writes serialized); each session is used by one client
	// at a time, like a connection.
	Session() (Session, error)
	// Close releases the DB's own session (rolling back its open
	// transaction).
	Close() error
}

// Session is one client session of a DB: its own transaction scope.
// BEGIN/COMMIT/ROLLBACK on one session never affect another.
type Session interface {
	// Exec executes one SQL statement in this session.
	Exec(sql string) (*Result, error)
	// Prepare plans one statement in this session for repeated execution
	// with typed arguments.
	Prepare(sql string) (Stmt, error)
	// Close rolls back any open transaction and releases the session.
	Close() error
}

// Stmt is a prepared statement: parsed, dialect-checked and planned
// once, executed any number of times with typed arguments bound
// server-side (per-dialect coercion rules and all — see
// engine.BindRules). On a diverse endpoint every execution is broadcast
// and adjudicated across the replica set like any other statement.
type Stmt interface {
	// Exec executes the statement with the given arguments.
	Exec(args ...Value) (*Result, error)
	// NumParams reports how many arguments Exec expects.
	NumParams() int
	// Close releases the statement.
	Close() error
}

// coreSession adapts a core.Session to the public Session interface.
type coreSession struct{ s core.Session }

func (cs *coreSession) Exec(sql string) (*Result, error) {
	res, lat, err := cs.s.Exec(sql)
	if err != nil {
		return nil, err
	}
	return convertResult(res, lat), nil
}

func (cs *coreSession) Prepare(sql string) (Stmt, error) {
	st, err := cs.s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &coreStmt{st: st}, nil
}

func (cs *coreSession) Close() error { return cs.s.Close() }

// coreStmt adapts a core.Statement to the public Stmt interface.
type coreStmt struct{ st core.Statement }

func (s *coreStmt) Exec(args ...Value) (*Result, error) {
	res, lat, err := s.st.Exec(args...)
	if err != nil {
		return nil, err
	}
	return convertResult(res, lat), nil
}

func (s *coreStmt) NumParams() int { return s.st.NumParams() }
func (s *coreStmt) Close() error   { return s.st.Close() }

// Option configures Open* constructors.
type Option func(*options)

type options struct {
	withFaults bool
}

// resolve applies opts over the defaults.
func resolve(opts []Option) options {
	o := options{withFaults: true}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithFaults controls whether the calibrated fault corpus is injected
// into the simulated servers (default true). Disable it to get
// idealized fault-free servers.
func WithFaults(on bool) Option { return func(o *options) { o.withFaults = on } }

// newServers builds one simulated server per name and the options.
func newServers(o options, names ...ServerName) ([]*server.Server, error) {
	var faults []fault.Fault
	if o.withFaults {
		faults = corpus.AllFaults()
	}
	servers := make([]*server.Server, 0, len(names))
	for _, name := range names {
		srv, err := server.New(dialect.ServerName(name), faults)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", name, err)
		}
		servers = append(servers, srv)
	}
	return servers, nil
}

// newReplicaSet builds the diverse middleware over one server per name.
func newReplicaSet(o options, wallClock bool, names ...ServerName) (*middleware.DiverseServer, error) {
	servers, err := newServers(o, names...)
	if err != nil {
		return nil, err
	}
	cfg := middleware.DefaultConfig()
	cfg.WallClock = wallClock
	return middleware.New(cfg, servers...)
}

// ---------------------------------------------------------------------------
// The one DB implementation

// endpointDB is every DB this package returns: an endpoint, and the one
// session on it that backs DB.Exec and DB.Prepare (embedded; opened when
// the DB is, closed with it).
type endpointDB struct {
	coreSession
	ep         core.SessionExecutor
	collectors []obs.Collector
	diverse    *middleware.DiverseServer // non-nil for OpenDiverse
	router     *shard.Router             // non-nil for OpenSharded
}

func newDB(ep core.SessionExecutor, collectors []obs.Collector) *endpointDB {
	return &endpointDB{coreSession: coreSession{s: ep.OpenSession()}, ep: ep, collectors: collectors}
}

func (db *endpointDB) Session() (Session, error) {
	return &coreSession{s: db.ep.OpenSession()}, nil
}

// ---------------------------------------------------------------------------
// Single server

// Open returns a single simulated server.
func Open(name ServerName, opts ...Option) (DB, error) {
	servers, err := newServers(resolve(opts), name)
	if err != nil {
		return nil, err
	}
	return newDB(servers[0], []obs.Collector{servers[0].MetricsCollector()}), nil
}

// ---------------------------------------------------------------------------
// Diverse middleware

// OpenDiverse returns a fault-tolerant diverse server over the named
// replicas (two replicas detect failures; three or more also mask them
// by majority voting).
func OpenDiverse(names ...ServerName) (DB, error) {
	return OpenDiverseWith(nil, names...)
}

// OpenDiverseWith is OpenDiverse with options.
func OpenDiverseWith(opts []Option, names ...ServerName) (DB, error) {
	if len(names) == 0 {
		return nil, errors.New("divsql: OpenDiverse needs at least one server name")
	}
	d, err := newReplicaSet(resolve(opts), false, names...)
	if err != nil {
		return nil, err
	}
	db := newDB(d, d.MetricsCollectors())
	db.diverse = d
	return db, nil
}

// DiverseMetrics is the middleware's event counters.
type DiverseMetrics = middleware.Metrics

// Metrics returns the diverse middleware's counters; ok is false when
// db is not a diverse server.
func Metrics(db DB) (DiverseMetrics, bool) {
	d, ok := db.(*endpointDB)
	if !ok || d.diverse == nil {
		return DiverseMetrics{}, false
	}
	return d.diverse.Metrics(), true
}

// ---------------------------------------------------------------------------
// Sharded deployment

// ShardedConfig configures OpenSharded.
type ShardedConfig struct {
	// Shards is the number of independent diverse replica sets.
	Shards int
	// BandColumns maps TABLE name (upper case) to its partitioning
	// column: every shard holds a mapped table and its rows split by
	// band value. Tables absent from the map (every table when it is
	// empty) are replicated to every shard: writes broadcast to every
	// shard in one global order (N times the write work), reads run on
	// the session's home shard.
	BandColumns map[string]string
	// WallClock makes each replica set's adjudication loop spend the
	// adjudicated latency in real time (see middleware.Config.WallClock)
	// — the regime in which sharding measurably multiplies throughput.
	WallClock bool
}

// OpenSharded returns a horizontally scaled deployment: cfg.Shards
// independent diverse replica sets, each over the named replicas and
// with its own adjudication loop, quarantine policy and resync
// machinery, behind a shard router. See internal/shard for the routing
// and ordering rules.
func OpenSharded(cfg ShardedConfig, names ...ServerName) (DB, error) {
	return OpenShardedWith(cfg, nil, names...)
}

// OpenShardedWith is OpenSharded with replica-set options.
func OpenShardedWith(cfg ShardedConfig, opts []Option, names ...ServerName) (DB, error) {
	if cfg.Shards <= 0 {
		return nil, errors.New("divsql: OpenSharded needs at least one shard")
	}
	if len(names) == 0 {
		return nil, errors.New("divsql: OpenSharded needs at least one server name")
	}
	o := resolve(opts)
	backends := make([]shard.Backend, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		d, err := newReplicaSet(o, cfg.WallClock, names...)
		if err != nil {
			return nil, err
		}
		backends = append(backends, d)
	}
	r, err := shard.New(shard.Config{BandColumns: cfg.BandColumns}, backends...)
	if err != nil {
		return nil, err
	}
	db := newDB(r, r.MetricsCollectors())
	db.router = r
	return db, nil
}

// ShardsDescription returns the per-shard replica and quarantine state
// of a sharded DB (the text behind divsql-cli's \shards); ok is false
// when db is not sharded.
func ShardsDescription(db DB) (string, bool) {
	s, ok := db.(*endpointDB)
	if !ok || s.router == nil {
		return "", false
	}
	return s.router.DescribeText(), true
}

// ---------------------------------------------------------------------------
// Non-diverse replication baseline

// OpenReplicated returns the paper's baseline: n identical replicas of
// one product under primary/backup replication with the fail-stop
// assumption (only crashes are detected; results are never compared).
func OpenReplicated(name ServerName, n int, opts ...Option) (DB, error) {
	if n <= 0 {
		return nil, errors.New("divsql: OpenReplicated needs n >= 1")
	}
	o := resolve(opts)
	names := make([]ServerName, n)
	for i := range names {
		names[i] = name
	}
	servers, err := newServers(o, names...)
	if err != nil {
		return nil, err
	}
	// Warm standby: a crashed primary restarts and rejoins as a backup.
	g, err := replication.NewGroup(true, servers...)
	if err != nil {
		return nil, err
	}
	return newDB(g, g.MetricsCollectors()), nil
}

// ---------------------------------------------------------------------------
// helpers

func convertResult(res *engine.Result, lat time.Duration) *Result {
	out := &Result{Latency: lat}
	if res == nil {
		return out
	}
	out.Affected = res.Affected
	if res.Kind == engine.ResultRows {
		out.Columns = append([]string(nil), res.Columns...)
		out.Rows = make([]Row, len(res.Rows))
		out.Values = make([][]Value, len(res.Rows))
		for i, r := range res.Rows {
			row := make(Row, len(r))
			out.Values[i] = append([]Value(nil), r...)
			for j, v := range r {
				row[j] = v.String()
			}
			out.Rows[i] = row
		}
	}
	return out
}

// Executor exposes the internal endpoint of a DB for advanced uses
// (serving it over the wire protocol, opening core sessions to drive the
// TPC-C workload). All DBs returned by this package have one.
func Executor(db DB) (core.SessionExecutor, bool) {
	x, ok := db.(*endpointDB)
	if !ok {
		return nil, false
	}
	return x.ep, true
}

// Collectors returns the DB's metric collectors for an obs.Registry —
// the middleware adjudication counters and per-replica engine families
// of a diverse server, the replication counters of a group, or the
// single server's own families. divsqld registers these behind its
// -metrics HTTP endpoint and the wire METRICS frame.
func Collectors(db DB) []obs.Collector {
	x, ok := db.(*endpointDB)
	if !ok {
		return nil
	}
	return x.collectors
}
