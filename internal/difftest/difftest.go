// Package difftest is the differential divergence-hunting harness: it
// replays seeded, schema-aware statement streams (internal/qgen) through
// the four simulated servers and the pristine oracle, adjudicates every
// statement with the paper's representation-tolerant comparator and
// observational failure classification, deduplicates divergences by
// statement fingerprint (the paper's per-bug counting), shrinks each
// first occurrence to a minimal repro stream by greedy statement
// elision, and emits self-contained, replayable reports.
//
// The paper studies a fixed 181-bug corpus; this harness scales its
// central question — do diverse servers fail on the same statement? — to
// open-ended generated workloads, in the spirit of automated database
// testing work (Rigger & Su's pivoted query synthesis and successors).
//
// Every run exports a Coverage signal (statement-class × fingerprint ×
// error-class hits, per-class divergence yield), and Config.Adaptive
// closes the loop: a Feedback controller retargets the generator's
// Weights plane between batches so the remaining budget flows to
// under-explored regions still yielding new divergence fingerprints.
// Config.MaxRowsPerTable bounds generated-table cardinality, holding
// adjudicated cost per statement ~flat on deep runs.
//
// With fault injection disabled and the generator's CommonProfile, a run
// must report zero divergences: every server implements the common
// dialect subset identically to the oracle. Every divergence under
// injection is therefore attributable to a fault (or, under concurrent
// streams, to a fault's collateral crash observed by another stream).
package difftest

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/fault"
	"divsql/internal/metamorph"
	"divsql/internal/qgen"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
	"divsql/internal/study"
)

// Config parameterizes one differential run.
type Config struct {
	// Seed drives the workload generator (and, with it, the whole run:
	// same config, same divergence set on a single stream).
	Seed int64
	// N is the number of statements per stream.
	N int
	// Streams is the number of concurrent client streams. Each stream
	// works in its own table namespace so adjudication stays exact; more
	// than one stream exercises the per-session execution path of every
	// layer (run under -race). Every stream — concurrent or not — keeps
	// its own oracle resync: after a state-diverging fault the server is
	// realigned from a committed oracle snapshot scoped to the stream's
	// namespace, so cascades are cut without disturbing sibling streams.
	Streams int
	// Gen overrides the generator profile (nil: qgen.CommonProfile).
	// Seed, NamePrefix and TableNames are managed per stream.
	Gen *qgen.Options
	// Servers under test (default: all four).
	Servers []dialect.ServerName
	// Faults is the injected fault set (nil: fault-free configuration).
	Faults []fault.Fault
	// Stress enables the stressful environment (Heisenbug triggers).
	Stress bool
	// Shrink minimizes the stream behind each deduplicated divergence
	// and builds a replayable report.
	Shrink bool
	// MaxReportsPerServer caps shrinking work (divergences beyond the
	// cap are still counted and listed, just not shrunk). 0 means 6.
	MaxReportsPerServer int
	// Adaptive closes the coverage feedback loop: each stream runs in
	// batches of FeedbackBatch statements, and between batches the
	// generator's Weights plane is retargeted from the stream's own
	// cumulative coverage (see Feedback), so under-explored statement
	// classes and shapes — and regions still yielding new divergence
	// fingerprints — receive the remaining budget. A single-stream
	// adaptive run is exactly as reproducible as a fixed-weight one: the
	// feedback derives only from the stream's own deterministic
	// observations.
	Adaptive bool
	// FeedbackBatch is the adaptive retargeting interval in statements
	// (0: 500).
	FeedbackBatch int
	// MaxRowsPerTable bounds generated-table cardinality (plumbed into
	// qgen.Options.MaxRowsPerTable; 0 leaves the generator profile's
	// setting). Bounding keeps per-statement evaluation and adjudication
	// cost ~flat as N grows, which is what makes deep runs (N ≥ 100k)
	// affordable.
	MaxRowsPerTable int
	// Telemetry receives live counters while the run executes (nil: the
	// process-global SharedTelemetry). Consumers are divfuzz's periodic
	// -metrics-every summaries and divsqld's divsql_hunt_* collector.
	Telemetry *Telemetry
	// Isolation enables SET TRANSACTION ISOLATION LEVEL statements in
	// the generated streams: the replicas' read views, journal replay of
	// session defaults, and each dialect's acceptance of the level names
	// all enter adjudication. Fault-free runs draw only the universally
	// accepted levels (READ COMMITTED, SERIALIZABLE) and must stay
	// divergence-free; with faults armed the full five names are drawn,
	// so per-dialect acceptance divergence (REPEATABLE READ on OR/IB,
	// SNAPSHOT on PG/OR) surfaces as isolation-class fingerprints.
	Isolation bool
	// Params enables the parameterized statement mode: a weighted share
	// of the generated DML/queries executes through prepare/bind with a
	// typed argument vector instead of inline literals, so the hunt
	// covers each server's bind-time coercion rules (engine.BindRules) as
	// a statement-class dimension of its own. With faults armed the
	// generator also aims argument values at the bind-coercion quirk
	// regions; fault-free runs keep safe values and must stay
	// divergence-free like any other common-subset stream.
	Params bool
	// Oracles arms the self-check oracles (internal/metamorph): every
	// answered deterministic SELECT is re-run forced (metamorph.Plan) or
	// rewritten into queries whose results its own result logically
	// constrains (TLP, NoREC, CERT), and a violated relation is recorded
	// as a divergence tagged with the oracle that found it. The checks
	// run against the pristine oracle's session (a pure engine
	// self-check) and against every server whose own execution succeeded
	// — the server's base result carries its fault layer while the
	// re-runs bypass it, so silent result corruption on a single endpoint
	// becomes visible without any cross-server vote. Each armed oracle
	// executes every SELECT at least once more, so none is on by default;
	// fault-free gates arm them. Arming a rewrite oracle (any but Plan)
	// also turns on the generator's PartitionSympathy so the stream
	// leans into their applicability region.
	Oracles []metamorph.Oracle
	// RegressDir, when non-empty, exports every shrunk report
	// (differential or metamorphic) of the run as a replayable regression
	// case under this directory, deduplicated across runs by verdict
	// fingerprint (see ExportCase).
	RegressDir string
}

// DefaultConfig is the fault-free smoke configuration.
func DefaultConfig(seed int64, n int) Config {
	return Config{Seed: seed, N: n, Streams: 1, Shrink: true}
}

// CalibratedConfig arms the harness with the full corpus fault set and
// points the generator's table-name pool at the faults' trigger tables,
// one per (server, effect-kind), so generated statements fall into every
// server's calibrated failure regions.
func CalibratedConfig(seed int64, n int) Config {
	cfg := Config{Seed: seed, N: n, Streams: 1, Shrink: true, Isolation: true, Faults: corpus.AllFaults()}
	gen := qgen.CommonProfile(seed)
	gen.TableNames = triggerTables(cfg.Faults)
	cfg.Gen = &gen
	return cfg
}

// WithSequences returns the config adjusted to exercise sequences end to
// end: the generator emits CREATE SEQUENCE and sequence-advancing
// SELECTs (NEXTVAL), and the server set is restricted to the servers
// that spell the canonical NEXTVAL — PG and OR. MS offers no sequences
// at all and IB spells the function GEN_ID, so either would reject the
// shared stream at the dialect gate and drown the run in spurious
// divergences.
func (cfg Config) WithSequences() Config {
	gen := qgen.CommonProfile(cfg.Seed)
	if cfg.Gen != nil {
		gen = *cfg.Gen
	}
	gen.Sequences = true
	cfg.Gen = &gen
	cfg.Servers = []dialect.ServerName{dialect.PG, dialect.OR}
	return cfg
}

// triggerTables picks one trigger table per (server, effect kind,
// stress-only) slot from the fault set, in deterministic corpus order.
// Stress-only (Heisenbug) regions get their own slots so a -stress run
// aims at them too; on a quiet run their tables are ordinary workload
// tables.
func triggerTables(faults []fault.Fault) []string {
	type slot struct {
		s      dialect.ServerName
		k      fault.EffectKind
		stress bool
	}
	seen := make(map[slot]bool)
	dup := make(map[string]bool)
	var out []string
	for _, f := range faults {
		if f.Trigger.Table == "" || dup[f.Trigger.Table] {
			continue
		}
		sl := slot{f.Server, f.Effect.Kind, f.Trigger.UnderStressOnly}
		if seen[sl] {
			continue
		}
		seen[sl] = true
		dup[f.Trigger.Table] = true
		out = append(out, f.Trigger.Table)
	}
	return out
}

// Divergence is one deduplicated deviation of one server from the
// oracle: all occurrences whose triggering statements share a syntactic
// fingerprint count as one. For table-scoped faults hit by repeated
// statements of one shape this matches the paper's per-bug counting; a
// broad failure region still splits across the distinct statement
// shapes that fall into it, so the distinct-fingerprint count is an
// upper bound on distinct faults, not a bug census.
type Divergence struct {
	Server      dialect.ServerName
	Fingerprint string
	// Oracle is the verdict source that convicted the statement: ""
	// for the differential server-vs-oracle vote, or a self-check
	// oracle's name (metamorph.Oracles). Distinct sources dedup
	// separately — the same statement fingerprint convicted by two
	// oracles is two records, because each names a different violated
	// relation.
	Oracle string
	Class  core.Classification
	// SQL is the first triggering statement observed.
	SQL string
	// Stream and Index locate the first occurrence.
	Stream, Index int
	// Count is the number of raw occurrences collapsed into this record.
	Count int
	// Report is the shrunk, replayable reproduction (nil when shrinking
	// was disabled or the per-server report cap was reached).
	Report *Report
}

// Result is the outcome of one differential run.
type Result struct {
	// Statements is the number of generated statements adjudicated.
	Statements int
	// Execs counts statement executions across all endpoints.
	Execs int
	// Divergences is the deduplicated list, sorted by server then
	// fingerprint.
	Divergences []*Divergence
	// PerServer counts deduplicated divergences per server.
	PerServer map[dialect.ServerName]int
	// Raw counts total (pre-dedup) divergent statement executions.
	Raw int
	// Coverage is the run's aggregated exploration signal (per-class and
	// per-shape hits, fingerprint breadth, divergence yield).
	Coverage *Coverage
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// srcDifferential names the differential vote in Divergence.Oracle /
// dedupKey.src terms; the self-check sources are the metamorph.Oracle
// names.
const srcDifferential = ""

type dedupKey struct {
	server dialect.ServerName
	fp     string
	src    string // verdict source: srcDifferential or an oracle name
}

// hunt is the shared state of one run.
type hunt struct {
	cfg     Config
	servers []*server.Server
	orc     *server.Server

	tel *Telemetry

	mu      sync.Mutex
	seen    map[dedupKey]*Divergence
	pending []pendingShrink
	raw     int
	cov     *Coverage
}

type pendingShrink struct {
	key     dedupKey
	history []string
}

// Run executes one differential run.
func Run(cfg Config) (*Result, error) {
	start := time.Now()
	if cfg.N <= 0 {
		cfg.N = 1000
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if len(cfg.Servers) == 0 {
		cfg.Servers = append([]dialect.ServerName(nil), dialect.AllServers...)
	}
	if cfg.MaxReportsPerServer == 0 {
		cfg.MaxReportsPerServer = 6
	}
	if cfg.FeedbackBatch <= 0 {
		cfg.FeedbackBatch = 500
	}
	h := &hunt{cfg: cfg, seen: make(map[dedupKey]*Divergence), cov: NewCoverage(), tel: cfg.Telemetry}
	if h.tel == nil {
		h.tel = SharedTelemetry()
	}
	for _, name := range cfg.Servers {
		srv, err := server.New(name, cfg.Faults)
		if err != nil {
			return nil, err
		}
		srv.SetStress(cfg.Stress)
		h.servers = append(h.servers, srv)
	}
	h.orc = server.NewOracle()

	var wg sync.WaitGroup
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			h.runStream(stream)
		}(s)
	}
	wg.Wait()

	res := &Result{
		Statements: cfg.N * cfg.Streams,
		Execs:      cfg.N * cfg.Streams * (len(cfg.Servers) + 1),
		PerServer:  make(map[dialect.ServerName]int),
		Raw:        h.raw,
		Coverage:   h.cov,
	}
	for _, d := range h.seen {
		res.Divergences = append(res.Divergences, d)
		res.PerServer[d.Server]++
	}
	sort.Slice(res.Divergences, func(i, j int) bool {
		a, b := res.Divergences[i], res.Divergences[j]
		if a.Server != b.Server {
			return serverRank(cfg.Servers, a.Server) < serverRank(cfg.Servers, b.Server)
		}
		if a.Fingerprint != b.Fingerprint {
			return a.Fingerprint < b.Fingerprint
		}
		return a.Oracle < b.Oracle
	})

	if cfg.Shrink {
		sort.Slice(h.pending, func(i, j int) bool {
			a, b := h.pending[i], h.pending[j]
			if a.key.server != b.key.server {
				return serverRank(cfg.Servers, a.key.server) < serverRank(cfg.Servers, b.key.server)
			}
			if a.key.fp != b.key.fp {
				return a.key.fp < b.key.fp
			}
			return a.key.src < b.key.src
		})
		for _, p := range h.pending {
			rep := shrinkAndReport(cfg, p.key, p.history)
			if rep != nil {
				h.seen[p.key].Report = rep
			}
		}
	}
	if cfg.RegressDir != "" {
		for _, d := range res.Divergences {
			if d.Report != nil {
				if _, err := ExportCase(cfg.RegressDir, d.Report); err != nil {
					return nil, fmt.Errorf("export regress case: %w", err)
				}
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// checkMetamorphic runs the armed self-check oracles against one
// endpoint's answered SELECT, feeding the coverage/telemetry planes and
// recording every violated relation as an oracle-tagged divergence.
func (h *hunt) checkMetamorphic(cov *Coverage, ex metamorph.Executor, name dialect.ServerName,
	st ast.Statement, p *stmt.Parsed, args []types.Value, base *engine.Result,
	fp, entry string, history []string, stream, i int) {
	checked, findings := metamorph.Check(ex, p, args, base, h.cfg.Oracles)
	for _, o := range checked {
		cov.ObserveOracleCheck(string(o), fp)
	}
	h.tel.metaChecks.Add(uint64(len(checked)))
	for _, f := range findings {
		isNew := cov.ObserveDivergence(st, fp)
		cov.ObserveOracleDivergence(string(f.Oracle), isNew)
		h.tel.metaFindings.Add(1)
		cls := core.Classification{Status: core.StatusFailure, Type: core.IncorrectResult, Detail: f.Detail}
		h.record(name, fp, string(f.Oracle), entry, cls, history, stream, i)
	}
}

func serverRank(order []dialect.ServerName, s dialect.ServerName) int {
	for i, n := range order {
		if n == s {
			return i
		}
	}
	return len(order)
}

// genOptionsFor derives the per-stream generator options: distinct seed,
// a private table namespace, and a round-robin share of the trigger-
// table pool.
func (h *hunt) genOptionsFor(stream int) qgen.Options {
	var opts qgen.Options
	if h.cfg.Gen != nil {
		opts = *h.cfg.Gen
	} else {
		opts = qgen.CommonProfile(h.cfg.Seed)
	}
	opts.Seed = h.cfg.Seed + int64(stream)*1_000_003
	if h.cfg.MaxRowsPerTable > 0 {
		opts.MaxRowsPerTable = h.cfg.MaxRowsPerTable
	}
	if h.cfg.Isolation {
		opts.Isolation = true
		// Dialect-specific level names only make sense when divergences
		// are expected; the fault-free gate draws the universally
		// accepted subset.
		if len(h.cfg.Faults) > 0 {
			opts.IsolationLevels = qgen.AllIsolationLevels
		}
	}
	for _, o := range h.cfg.Oracles {
		if o != metamorph.Plan {
			// Lean the stream into the rewrite oracles' applicability
			// region: near-universal WHEREs on simple selects plus the
			// additive COUNT/SUM form.
			opts.PartitionSympathy = true
		}
	}
	if h.cfg.Params {
		opts.Params = true
		// Quirk-region argument values only make sense when divergences
		// are expected (faults armed); the fault-free gate must agree
		// with the oracle byte-for-byte.
		opts.ParamQuirks = len(h.cfg.Faults) > 0
	}
	if h.cfg.Streams > 1 {
		opts.NamePrefix = fmt.Sprintf("S%d_%s", stream, opts.NamePrefix)
		var share []string
		for i, t := range opts.TableNames {
			if i%h.cfg.Streams == stream {
				share = append(share, t)
			}
		}
		opts.TableNames = share
	}
	return opts
}

// streamScope builds the keep-predicate for one stream's namespace: the
// stream's generated-name prefix plus its share of the trigger-table
// pool. A single-stream hunt owns the whole engine.
func (h *hunt) streamScope(opts qgen.Options) func(string) bool {
	if h.cfg.Streams == 1 {
		return func(string) bool { return true }
	}
	pool := make(map[string]bool, len(opts.TableNames))
	for _, n := range opts.TableNames {
		pool[strings.ToUpper(n)] = true
	}
	prefix := strings.ToUpper(opts.NamePrefix)
	return func(name string) bool {
		return pool[name] || (prefix != "" && strings.HasPrefix(name, prefix))
	}
}

// genStmt is one generated statement as every endpoint of a stream runs
// it: its handle (nil when the text does not parse), the text for the
// syntax error each endpoint then reports, and its bound arguments.
type genStmt struct {
	sql, entry string
	p          *stmt.Parsed
	args       []types.Value
}

// runOn executes the statement in one endpoint session.
func (x genStmt) runOn(e *server.Session) study.Outcome {
	var res *engine.Result
	var lat time.Duration
	var err error
	if x.p == nil {
		res, lat, err = e.Exec(x.sql)
	} else {
		res, lat, err = e.Run(x.p, x.args)
	}
	return study.Outcome{
		SQL: x.entry, P: x.p, Res: res, Err: err, Latency: lat,
		Crashed: errors.Is(err, server.ErrCrashed),
	}
}

// lockstep runs a stream's statements on its server sessions, one
// long-lived worker goroutine per session: a worker's stack grows to
// what execution needs once per stream, not once per statement. run
// hands every worker the statement, executes it on the oracle session
// in the calling goroutine meanwhile, and returns when every outcome is
// in; outs[i] is server session i's, outs[len(sess)] the oracle's.
type lockstep struct {
	oracle *server.Session
	outs   []study.Outcome
	feeds  []chan genStmt
	step   sync.WaitGroup // outcomes of the statement in flight
	exit   sync.WaitGroup // live workers
}

func newLockstep(sess []*server.Session, oracle *server.Session) *lockstep {
	ls := &lockstep{oracle: oracle, outs: make([]study.Outcome, len(sess)+1), feeds: make([]chan genStmt, len(sess))}
	ls.exit.Add(len(sess))
	for i, e := range sess {
		ls.feeds[i] = make(chan genStmt)
		go func(feed <-chan genStmt, out *study.Outcome) {
			defer ls.exit.Done()
			for x := range feed {
				*out = x.runOn(e)
				ls.step.Done()
			}
		}(ls.feeds[i], &ls.outs[i])
	}
	return ls
}

func (ls *lockstep) run(x genStmt) {
	ls.step.Add(len(ls.feeds))
	for _, feed := range ls.feeds {
		feed <- x
	}
	ls.outs[len(ls.feeds)] = x.runOn(ls.oracle)
	ls.step.Wait()
}

// close stops the workers and waits for them to exit.
func (ls *lockstep) close() {
	for _, feed := range ls.feeds {
		close(feed)
	}
	ls.exit.Wait()
}

// runStream drives one client stream in lockstep across every endpoint:
// the statement is executed on the oracle and all servers (each through
// this stream's own session, concurrently), then each server's outcome
// is adjudicated against the oracle's before the next statement.
func (h *hunt) runStream(stream int) {
	h.tel.streamStarted()
	defer h.tel.streamDone()
	opts := h.genOptionsFor(stream)
	gen := qgen.New(opts)
	scope := h.streamScope(opts)
	oSess := h.orc.NewSession()
	defer oSess.Close()
	sess := make([]*server.Session, len(h.servers))
	for i, srv := range h.servers {
		sess[i] = srv.NewSession()
		defer sess[i].Close()
	}
	ls := newLockstep(sess, oSess)
	defer ls.close()
	outs := ls.outs

	// Per-stream coverage: the feedback controller reads only this
	// stream's own observations, so an adaptive single-stream run stays
	// exactly reproducible from its seed. The stream's coverage merges
	// into the run-level signal at the end.
	cov := NewCoverage()
	var fb *Feedback
	if h.cfg.Adaptive {
		fb = NewFeedback(gen.Weights())
	}
	defer func() {
		h.mu.Lock()
		h.cov.Merge(cov)
		h.mu.Unlock()
	}()

	history := make([]string, 0, h.cfg.N)
	stale := make([]bool, len(sess))
	for i := 0; i < h.cfg.N; i++ {
		st := gen.Next()
		args := gen.LastArgs()
		sql := ast.Render(st)
		// History (and with it divergence records, shrink streams and
		// reports) carries bound statements in their replayable encoded
		// form; the suffix is a SQL comment, so parsing, fingerprinting
		// and dependency slicing all see the bare statement.
		entry := core.EncodeBound(sql, args)
		history = append(history, entry)

		// One handle for all five servers: the statement is parsed here,
		// not once per endpoint. Text the parser refuses goes to each
		// server as text, for the syntax error each reports.
		p, _ := stmt.Resolve(sql)
		ls.run(genStmt{sql: sql, entry: entry, p: p, args: args})

		oo := outs[len(sess)]
		var fpv ast.Fingerprint
		if p != nil {
			fpv = p.Fingerprint
		} else {
			fpv = ast.FingerprintOf(st)
		}
		fp := fpv.String()
		breadth := cov.GeneratedFingerprints()
		cov.Observe(st, fp, oo.Err)
		h.tel.statements.Add(1)
		h.tel.execs.Add(uint64(len(sess) + 1))
		h.tel.genFPs.Add(uint64(cov.GeneratedFingerprints() - breadth))
		// A sequence-advancing SELECT mutates state: if it diverged, the
		// sequence counters are desynchronized too.
		seqAdvances := p != nil && p.Select != nil && h.orc.SelectAdvancesSequences(p)
		for j := range sess {
			so := outs[j]
			if so.Crashed {
				// Bring the server back (committed state survives) so the
				// hunt continues; the crash itself is the divergence.
				h.servers[j].Restart()
			}
			cls := study.ClassifyStmt(so, oo)
			if cls.IsFailure() {
				cov.ObserveDivergence(st, fp)
				h.record(h.servers[j].Name(), fp, srcDifferential, entry, cls, history, stream, i)
				if stateDiverging(st, so, oo, cls, seqAdvances) {
					stale[j] = true
				}
			}
		}
		// Self-checks (Plan / TLP / NoREC / CERT): each armed, applicable
		// oracle re-derives the answered SELECT's result from a forced
		// re-run or rewrites of itself and convicts the endpoint on any
		// violated relation — no second opinion involved. The pristine
		// oracle's session is checked first (a pure engine self-check);
		// then every server whose own execution succeeded is checked
		// against its own base result, whose fault-layer effects the
		// re-runs bypass.
		if len(h.cfg.Oracles) > 0 && !seqAdvances && p != nil && p.Select != nil {
			if oo.Err == nil {
				h.checkMetamorphic(cov, oSess, h.orc.Name(), st, p, args, oo.Res, fp, entry, history, stream, i)
			}
			for j := range sess {
				if outs[j].Err == nil && !outs[j].Crashed {
					h.checkMetamorphic(cov, sess[j], h.servers[j].Name(), st, p, args, outs[j].Res, fp, entry, history, stream, i)
				}
			}
		}
		// A state-diverging fault (crash, missed or extra write, dropped
		// connection) would cascade: every later statement over the
		// affected state diverges too, burying the signal and blaming the
		// wrong region. Resync the server from the oracle at the stream's
		// next transaction boundary. The oracle snapshot is a committed-
		// state image (sibling streams' open transactions are rewound on
		// the copy-on-write clone) and the restore is scoped to this
		// stream's namespace, so concurrent hunts stay as precise as the
		// single-stream mode: siblings' state, transactions and
		// adjudication are untouched.
		if !oSess.InTxn() {
			var snap *engine.State
			for j := range stale {
				if !stale[j] {
					continue
				}
				if snap == nil {
					snap = h.orc.Snapshot()
				}
				// A fault may have desynchronized this stream's server-side
				// transaction (e.g. a dropped connection rolled it back);
				// clear it before installing the oracle image.
				sess[j].Abort()
				h.servers[j].RestoreScoped(snap, scope)
				stale[j] = false
			}
		}
		// Between batches, retune the generator's Weights plane from this
		// stream's cumulative coverage so the remaining budget flows to
		// under-explored, still-yielding regions.
		if fb != nil && (i+1)%h.cfg.FeedbackBatch == 0 && i+1 < h.cfg.N {
			gen.SetWeights(fb.Retarget(cov))
			h.tel.retargets.Add(1)
		}
	}
}

// stateDiverging reports whether a divergent outcome implies the
// server's durable state now differs from the oracle's (so the hunt
// must resync before adjudicating further statements). Mutated or
// wrongly-produced query output leaves state intact; crashes (open
// transactions lost), dropped connections (transaction rolled back on
// one side only), error mismatches on writes and diverging sequence-
// advancing SELECTs (counter desync) do not.
func stateDiverging(st ast.Statement, so, oo study.Outcome, cls core.Classification, seqAdvances bool) bool {
	if cls.Type == core.EngineCrash {
		return true
	}
	if errors.Is(so.Err, server.ErrConnAborted) {
		return true
	}
	if _, isSel := st.(*ast.Select); isSel {
		return seqAdvances && cls.Type != core.Performance
	}
	return (so.Err == nil) != (oo.Err == nil)
}

// record deduplicates one divergent execution by (server, fingerprint,
// verdict source).
func (h *hunt) record(name dialect.ServerName, fp, src string, sql string, cls core.Classification, history []string, stream, index int) {
	key := dedupKey{name, fp, src}
	h.tel.raw.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	if d, ok := h.seen[key]; ok {
		d.Count++
		h.raw++
		return
	}
	h.raw++
	h.tel.divFPs.Add(1)
	h.seen[key] = &Divergence{
		Server: name, Fingerprint: key.fp, Oracle: src, Class: cls,
		SQL: sql, Stream: stream, Index: index, Count: 1,
	}
	if h.cfg.Shrink && h.perServerPending(name) < h.cfg.MaxReportsPerServer {
		h.pending = append(h.pending, pendingShrink{
			key:     key,
			history: append([]string(nil), history...),
		})
	}
}

func (h *hunt) perServerPending(name dialect.ServerName) int {
	n := 0
	for _, p := range h.pending {
		if p.key.server == name {
			n++
		}
	}
	return n
}
