// Package middleware implements the fault-tolerant SQL server that the
// paper motivates: diverse modular redundancy over off-the-shelf servers.
// Every statement is broadcast to all replicas; the normalized results
// are adjudicated (detection with two replicas, masking by majority with
// three or more). A replica that rejects what the majority ran, or answers
// a query differently, is asked again in rephrased form (Rephrase); one
// that still disagrees, or crashed, is quarantined, restarted and
// resynchronized by state transfer from a healthy replica.
//
// Clients attach through sessions (NewSession): each client session maps
// to one session per replica, so transactions stay per-client and the
// broadcast + adjudication of each statement happens within the client's
// own session. Sessions execute concurrently: queries from different
// sessions run in parallel (sharing a read lock), while state-changing
// statements serialize across sessions so that every replica applies
// writes in the same order — the determinism replicated adjudication
// depends on.
//
// Within one statement the client session's own goroutine executes the
// replicas: all of them, one after the other, while the statement is
// cheap, and the first of them next to helper goroutines running the rest
// once the statement's measured cost says the overlap is worth a
// goroutine hand-off (Session.broadcast). Locks nest cs.mu → execMu →
// d.mu; d.mu is held only to read or change replica health and the
// event counters, never across a broadcast or its adjudication (only a
// resync and the rephrased retry of a replica found at odds with the rest
// run under it).
//
// Resynchronization never waits for a global transaction boundary. A
// quarantined replica rejoins at the start of the next statement,
// whichever it is: while one waits, even a query takes the statement lock
// exclusively, so no other statement is in flight. The donor serves a
// copy-on-write snapshot of its COMMITTED state (engine.Snapshot — open
// transactions are rewound on the clone while the donor keeps
// executing), and the redo above the snapshot's high-water mark — each
// client session's in-flight transaction journal — is replayed into the
// replica's per-client sessions, re-establishing the open transactions
// the committed image necessarily excludes. Donor sessions can therefore
// sit mid-transaction under sustained load and the replica still
// completes its rejoin.
//
// Unlike the crash-only data-replication solutions the paper criticizes
// (see internal/replication for that baseline), this middleware detects
// and contains non-fail-stop failures: wrong results, spurious errors
// and performance outliers — exactly the failure classes Table 1 shows
// dominate the field data.
package middleware

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/obs"
	"divsql/internal/server"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Sentinel errors.
var (
	// ErrNoReplicas is returned when a diverse server is built without
	// replicas.
	ErrNoReplicas = errors.New("diverse server needs at least one replica")
	// ErrAllReplicasFailed is returned when no replica produced a result.
	ErrAllReplicasFailed = errors.New("all replicas failed")
)

// DivergenceError reports a detected disagreement that could not be
// masked (a 1-1 split in a two-version configuration): the paper's
// "detection without masking" case. The client sees a detected failure
// instead of silently wrong data.
type DivergenceError struct {
	Replicas []string
	Detail   string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("replica divergence detected (%s): %s",
		strings.Join(e.Replicas, " vs "), e.Detail)
}

// ReadPolicy selects how queries (SELECTs) are executed. The paper's
// conclusions envisage exactly this dial: "The user could decide on an
// ongoing basis which architecture is giving the best trade-off between
// performance and dependability, from a single server to the most
// pessimistic fault-tolerant configuration (with tight synchronisation
// and comparison of results at each query)."
type ReadPolicy int

// Read policies.
const (
	// ReadCompareAll broadcasts every query and compares all results —
	// the most pessimistic configuration; full detection coverage.
	ReadCompareAll ReadPolicy = iota + 1
	// ReadOne sends queries to a single (rotating) replica and reserves
	// broadcasting/voting for state-changing statements. Faster, but a
	// replica's wrong query result reaches the client undetected — the
	// dependability cost is measured by BenchmarkMaskingAblation.
	ReadOne
)

// Config tunes the middleware.
//
// Results are compared under the paper's representation-tolerant rule,
// statement by statement (core.CompareFor): rows in order exactly when
// the query has an ORDER BY, so a replica that orders them differently
// is outvoted or splits the vote like any other wrong answer.
type Config struct {
	// Reads selects the query execution policy (default ReadCompareAll).
	Reads ReadPolicy
	// AutoResync restores quarantined or crashed replicas from a healthy
	// replica's state and returns them to service at the next statement.
	AutoResync bool
	// WallClock makes the adjudication loop spend the adjudicated
	// latency in real time, holding the statement lock for the duration
	// (in the mode the statement took it). By default the replicas'
	// simulated latencies are reported but not slept, which is
	// right for tests; with WallClock each replica set behaves like a
	// networked deployment whose adjudication loop is a real capacity
	// bottleneck — the regime the shard router's scaling benchmarks
	// measure.
	WallClock bool
}

// DefaultConfig returns the recommended configuration.
func DefaultConfig() Config {
	return Config{
		Reads:      ReadCompareAll,
		AutoResync: true,
	}
}

// Metrics counts middleware events. Retrieve a consistent snapshot with
// DiverseServer.Metrics.
type Metrics struct {
	Statements        int64
	Unanimous         int64
	MaskedFailures    int64 // outvoted wrong results masked by majority
	DetectedSplits    int64 // divergences detected but not maskable
	ReplicaErrors     int64 // error messages outvoted by healthy replicas
	CrashesDetected   int64
	PerfOutliers      int64 // replicas slower than the fastest by core.PerfThreshold
	RephraseRecovered int64 // error-voting replicas, and queries with outliers, repaired by rephrasing
	Resyncs           int64
	// JournalReplays counts redo statements shipped on top of committed
	// snapshots during resync (the open-transaction journals replayed
	// into a rejoining replica).
	JournalReplays int64
	// LastResyncSeq is the donor commit high-water mark of the most
	// recent snapshot resync.
	LastResyncSeq uint64
}

// replica wraps one diverse server with its health state. With
// AutoResync a quarantined replica waits to rejoin (flushPendingResyncs).
type replica struct {
	srv         *server.Server
	quarantined bool
	suspicions  int
}

// DiverseServer is the fault-tolerant diverse SQL server.
type DiverseServer struct {
	// mu guards the replicas' health state, the event counters in
	// metrics and the session registry. It is the innermost lock and is
	// never held while a replica executes or while results are
	// adjudicated, except by a resync (execMu held exclusively) and the
	// rephrased retry of a replica at odds with the rest.
	mu       sync.Mutex
	cfg      Config
	replicas []*replica
	metrics  Metrics // Statements and Unanimous are the atomics below
	sessions map[*Session]struct{}

	// statements and unanimous are the two counters every statement
	// bumps; kept out of mu so that an uneventful statement takes it at
	// most once.
	statements atomic.Int64
	unanimous  atomic.Int64

	// setGen numbers the active set: it advances (under mu) whenever a
	// replica is quarantined or rejoins. Sessions cache their view of the
	// active set and rebuild it when the number has moved on.
	setGen atomic.Uint64

	// inlineLimit is inlineCostLimit. Tests set it to force every
	// statement onto one side of broadcast's cost rule.
	inlineLimit time.Duration
	// execHook, set only by tests, brackets each replica execution of a
	// broadcast.
	execHook func(entering bool)

	// execMu orders statements across sessions: state-changing statements
	// take it exclusively, so every replica applies writes in one global
	// order (and reads never interleave with a write broadcast, which
	// would surface as spurious divergence); queries share it, so
	// read-only sessions proceed in parallel. Session transaction
	// journals are written and read only while it is held exclusively.
	execMu sync.RWMutex

	// resyncDur records wall-clock duration of each snapshot resync
	// (capture + restore + journal replay). The histogram itself is
	// atomic; it is populated under the same locks as the resync.
	resyncDur *obs.Histogram
}

var (
	_ core.SessionExecutor = (*DiverseServer)(nil)
	_ core.Session         = (*Session)(nil)
	_ core.Statement       = (*Stmt)(nil)
)

// New assembles a diverse server from replicas. The replica set may mix
// any of the simulated servers; the paper's analysis corresponds to
// two-version (detection) and three-or-more (masking) configurations.
func New(cfg Config, servers ...*server.Server) (*DiverseServer, error) {
	if len(servers) == 0 {
		return nil, ErrNoReplicas
	}
	d := &DiverseServer{
		cfg:         cfg,
		sessions:    make(map[*Session]struct{}),
		resyncDur:   obs.NewHistogram(resyncBuckets()...),
		inlineLimit: inlineCostLimit,
	}
	for _, s := range servers {
		d.replicas = append(d.replicas, &replica{srv: s})
	}
	return d, nil
}

// Session is one client session of the diverse server: it holds one
// server session per replica, so the client's transaction scope spans
// the whole replica set while remaining invisible to other clients.
type Session struct {
	d *DiverseServer
	// mu serializes statements of this session (a session is one client).
	mu   sync.Mutex
	subs []*server.Session // index-aligned with d.replicas; written under d.mu
	// retired holds, per replica, the session a rejoin replaced in subs
	// since this session's last statement (see flushPendingResyncs), nil
	// where none; closed when this session next rebuilds its active set.
	// Index-aligned with d.replicas and guarded by d.mu.
	retired []*server.Session

	// active is this session's view of the active (non-quarantined)
	// replicas, in replica order, as of active-set number activeGen;
	// results is the per-statement vote buffer, index-aligned with it.
	// Owned by the session's goroutine (cs.mu); see refreshActive.
	active    []member
	activeGen uint64
	results   []core.ReplicaResult

	// inTxn and journal track the session's open transaction as redo for
	// resync: BEGIN plus every successfully adjudicated state-changing
	// statement since. Guarded by d.execMu held exclusively (the write
	// path), which is also when resync replays them.
	inTxn   bool
	journal []redo
	// argArena backs the journal's argument copies, carved back to back
	// (carveArgs). It and the journal are emptied, not dropped, at BEGIN
	// and at transaction end (resetJournal). Guarded like the journal.
	argArena []types.Value
	// isoStmt is the session's last successful SET TRANSACTION issued
	// outside a transaction (the session-default isolation level). A
	// rejoining replica replays it before the journal so the rebuilt
	// per-client sessions carry the same isolation defaults as their live
	// siblings. Guarded by d.execMu held exclusively, like the journal.
	isoStmt *stmt.Parsed
}

// redo is one journaled statement: the handle it ran by and a copy of
// the arguments it ran with.
type redo struct {
	p    *stmt.Parsed
	args []types.Value
}

// NewSession opens a client session across every replica.
func (d *DiverseServer) NewSession() *Session {
	d.mu.Lock()
	defer d.mu.Unlock()
	cs := &Session{d: d, retired: make([]*server.Session, len(d.replicas))}
	for _, r := range d.replicas {
		cs.subs = append(cs.subs, r.srv.NewSession())
	}
	cs.rebuildActiveLocked()
	d.sessions[cs] = struct{}{}
	return cs
}

// member is one active replica as a client session reaches it.
type member struct {
	r   *replica
	sub *server.Session // this client's session on the replica
}

// refreshActive brings the session's view of the active set up to date.
// Steady state is one atomic load: d.mu is taken only after a replica was
// quarantined or rejoined. A quarantine raised by a sibling session after
// the load is not seen until the next statement — the same window a
// statement already in flight has always had. Caller holds cs.mu.
func (cs *Session) refreshActive() {
	if cs.activeGen == cs.d.setGen.Load() {
		return
	}
	cs.d.mu.Lock()
	cs.rebuildActiveLocked()
	cs.d.mu.Unlock()
}

// rebuildActiveLocked recomputes active and results. Called with d.mu
// held.
func (cs *Session) rebuildActiveLocked() {
	d := cs.d
	for i, old := range cs.retired {
		if old != nil {
			_ = old.Close() // the rejoin's Restore discarded its transaction: nothing to roll back
			cs.retired[i] = nil
		}
	}
	cs.activeGen = d.setGen.Load()
	cs.active, cs.results = cs.active[:0], cs.results[:0]
	for i, r := range d.replicas {
		if !r.quarantined {
			cs.active = append(cs.active, member{r: r, sub: cs.subs[i]})
			cs.results = append(cs.results, core.ReplicaResult{Name: string(r.srv.Name())})
		}
	}
}

// setQuarantined moves a replica out of or back into the active set.
// Called with d.mu held.
func (d *DiverseServer) setQuarantined(r *replica, q bool) {
	if r.quarantined != q {
		r.quarantined = q
		d.setGen.Add(1)
	}
}

// OpenSession implements core.SessionExecutor.
func (d *DiverseServer) OpenSession() core.Session { return d.NewSession() }

// classifierServer picks the replica that classifies statements: the
// first non-quarantined one, whose catalog reflects what the active set
// has applied (a quarantined replica may have missed DDL, e.g. a view
// wrapping a sequence call, and would misclassify queries over it).
// Falls back to replica 0 when everything is quarantined — the caller
// fails with ErrAllReplicasFailed anyway. Caller holds cs.mu.
func (cs *Session) classifierServer() *server.Server {
	cs.refreshActive()
	if len(cs.active) == 0 {
		return cs.d.replicas[0].srv
	}
	return cs.active[0].r.srv
}

// Close rolls back the session's open transaction on every replica and
// releases the per-replica sessions.
func (cs *Session) Close() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	d := cs.d
	d.mu.Lock()
	delete(d.sessions, cs)
	d.mu.Unlock()
	// No rejoin reaches cs now: subs and retired are settled.
	var first error
	for _, sub := range slices.Concat(cs.subs, cs.retired) {
		if sub == nil {
			continue
		}
		if err := sub.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReplicaNames lists the replica identities in order.
func (d *DiverseServer) ReplicaNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, len(d.replicas))
	for i, r := range d.replicas {
		names[i] = string(r.srv.Name())
	}
	return names
}

// Metrics returns a snapshot of the counters. It is safe to call
// concurrently with statement execution. The event counters are written
// under d.mu (execAdjudicated, flushPendingResyncs, the crash/rephrase
// paths) and copied under it, so they are consistent with each other —
// as of one moment between (not within) updates. Statements and
// Unanimous are atomics read in the opposite order to the one a statement
// bumps them in, so a snapshot never shows more unanimous statements
// than statements.
func (d *DiverseServer) Metrics() Metrics {
	unanimous := d.unanimous.Load()
	statements := d.statements.Load()
	d.mu.Lock()
	m := d.metrics
	d.mu.Unlock()
	m.Statements, m.Unanimous = statements, unanimous
	return m
}

// QuarantinedReplicas lists replicas currently out of service.
func (d *DiverseServer) QuarantinedReplicas() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, r := range d.replicas {
		if r.quarantined {
			out = append(out, string(r.srv.Name()))
		}
	}
	return out
}

// Exec broadcasts one statement to every active replica within this
// session, adjudicates the responses and returns the agreed result. The
// reported latency is the slowest active replica's simulated latency (a
// deployment's replicas are separate machines working in parallel,
// however this process schedules them).
func (cs *Session) Exec(sql string) (*engine.Result, time.Duration, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, server.BaseLatency, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.exec(&boundStmt{p: p})
}

// boundStmt is the unit the adjudication path executes: the statement's
// handle — the one every replica runs — and the typed argument vector of
// this execution (nil for text).
type boundStmt struct {
	p    *stmt.Parsed
	args []types.Value
	// cost is what one replica last took to execute the statement: wall
	// time of the first active replica, measured by broadcast on every
	// execution. A prepared statement carries it from one execution to
	// the next; text starts at zero (unknown) each time.
	cost time.Duration
	// alt is the statement rephrased, derived when a replica first needs
	// it: p itself when no rule rewrites it.
	alt *stmt.Parsed
}

// rephraseOn runs the rephrased form of the statement on one replica,
// with the same arguments, and reports whether there is such a form and
// the replica executed it. A prepared statement that hits a product quirk
// on every execution is rephrased once.
func (b *boundStmt) rephraseOn(sub *server.Session) (*engine.Result, bool) {
	if b.alt == nil {
		b.alt = Rephrase(b.p)
	}
	if b.alt == b.p {
		return nil, false
	}
	res, _, err := sub.Run(b.alt, b.args)
	return res, err == nil
}

// exec is the one body of Exec and of a prepared statement: lock-mode
// selection, broadcast adjudication and journal bookkeeping. The caller
// holds cs.mu.
//
// A quarantined replica rejoins at the next statement, whichever it is:
// while one waits, a query too takes the statement lock exclusively, and
// execAdjudicated resyncs the replica before broadcasting. Under faulted
// read-only traffic the quarantine window is thus exactly one statement,
// paid for by that one query not running beside its siblings.
func (cs *Session) exec(b *boundStmt) (*engine.Result, time.Duration, error) {
	d := cs.d
	// A statement counts as a query only if it is genuinely read-only:
	// a SELECT that advances a sequence mutates replica state and must
	// go down the write path, or replicas would apply it in different
	// orders (spurious divergence) — and ReadOne would desynchronize
	// sequence state entirely. Any active replica can classify; they
	// share the view/sequence schema, which can change between
	// executions.
	query := b.p.Select != nil && !cs.classifierServer().SelectAdvancesSequences(b.p)
	// Classifying a query has refreshed the session's active set.
	exclusive := !query || cs.resyncPending()
	if exclusive {
		d.execMu.Lock()
		defer d.execMu.Unlock()
	} else {
		d.execMu.RLock()
		defer d.execMu.RUnlock()
	}

	res, lat, err := cs.execAdjudicated(b, query, exclusive)
	if d.cfg.WallClock && lat > 0 {
		// Model a networked replica set: the statement's adjudicated
		// latency passes in real time while the statement lock is held,
		// so this replica set's throughput is bounded by its one
		// adjudication loop — the bottleneck sharding multiplies.
		time.Sleep(lat)
	}
	if !query {
		// Journal bookkeeping (the exclusive statement lock is held): the
		// redo a rejoining replica needs on top of a committed snapshot is
		// exactly BEGIN plus the successfully adjudicated state-changing
		// statements of every open transaction.
		if err == nil { // a failed statement changed no replica state
			cs.noteWrite(b)
		}
	}
	return res, lat, err
}

// Stmt is a prepared statement of one middleware session: the handle
// every replica executes under the session's broadcast + adjudication. A
// replica whose dialect rejects the statement votes with that error on
// every execution — cross-replica divergence in acceptance or bind-time
// coercion is contained exactly like any other failure.
type Stmt struct {
	*core.Prepared
	// b is the statement as the adjudication path executes it; only its
	// args, its remembered cost and its rephrased form change between
	// executions (under cs.mu).
	b *boundStmt
}

// Prepare resolves the statement and asks every replica whether it would
// prepare it (server.Accepts); it fails only when every replica rejects
// the text. Implements core.Session.
func (cs *Session) Prepare(sql string) (core.Statement, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, err
	}
	for _, r := range cs.d.replicas {
		rerr := r.srv.Accepts(p)
		if rerr == nil {
			b := &boundStmt{p: p}
			return &Stmt{Prepared: core.NewPrepared(p, func(_ *stmt.Parsed, args []types.Value) (*engine.Result, time.Duration, error) {
				cs.mu.Lock()
				defer cs.mu.Unlock()
				b.args = args
				return cs.exec(b)
			}, nil), b: b}, nil
		}
		if err == nil {
			err = rerr
		}
	}
	return nil, err
}

// noteWrite maintains the session's open-transaction redo journal after
// a successfully adjudicated state-changing statement. An autocommit
// write leaves nothing to redo. Must be called with d.execMu held
// exclusively.
func (cs *Session) noteWrite(b *boundStmt) {
	switch b.p.Class {
	case stmt.ClassBegin:
		cs.inTxn = true
		cs.resetJournal()
		cs.journal = append(cs.journal, redo{p: b.p})
	case stmt.ClassEnd:
		cs.inTxn = false
		cs.resetJournal()
	case stmt.ClassSetTxn:
		// SET TRANSACTION outside a transaction sets the session
		// default (replayed on resync via isoStmt); inside one it is
		// transaction-scoped and replays with the journal.
		if cs.inTxn {
			cs.journal = append(cs.journal, redo{p: b.p})
		} else {
			cs.isoStmt = b.p
		}
	default:
		if cs.inTxn {
			// The caller owns args and may reuse the vector.
			cs.journal = append(cs.journal, redo{p: b.p, args: cs.carveArgs(b.args)})
		}
	}
}

// Past these capacities the journal and its argument arena are dropped
// at transaction end rather than kept for the next transaction: one long
// transaction must not pin its high-water mark to the session.
const (
	journalKeep  = 64
	argArenaKeep = 256
)

// resetJournal empties the journal and its argument arena, zeroing what
// they referenced, and keeps their arrays unless they grew past
// journalKeep and argArenaKeep.
func (cs *Session) resetJournal() {
	clear(cs.journal)
	clear(cs.argArena)
	cs.journal, cs.argArena = cs.journal[:0], cs.argArena[:0]
	if cap(cs.journal) > journalKeep {
		cs.journal = nil
	}
	if cap(cs.argArena) > argArenaKeep {
		cs.argArena = nil
	}
}

// carveArgs copies args into the session's argument arena and returns
// the copy, capacity-clipped. An arena that grows moves to a new array;
// copies carved earlier keep the old one, which is never written again.
func (cs *Session) carveArgs(args []types.Value) []types.Value {
	if len(args) == 0 {
		return nil
	}
	n := len(cs.argArena)
	cs.argArena = append(cs.argArena, args...)
	return cs.argArena[n:len(cs.argArena):len(cs.argArena)]
}

// execAdjudicated runs one statement through broadcast + adjudication.
// The caller holds cs.mu and d.execMu: exclusively for state-changing
// statements and while a replica waits to rejoin, shared otherwise.
//
// d.mu is not held while replicas execute or while their results are
// compared: a unanimous statement — nearly all of them — takes it only
// when the active set has changed under the session, and sibling read
// sessions adjudicate side by side. Only a statement with something to
// record (a crash, an outvoted or erroring replica, a performance
// outlier, a replica to rejoin) takes it again, for the containment
// bookkeeping.
func (cs *Session) execAdjudicated(b *boundStmt, query, exclusive bool) (*engine.Result, time.Duration, error) {
	d := cs.d
	stmtNo := d.statements.Add(1)
	cs.refreshActive()
	if exclusive && cs.resyncPending() {
		// No statement is in flight on any replica — sibling reads have
		// drained — so quarantined replicas can rejoin now (committed
		// snapshot + journal redo), in time to take part in this
		// statement's broadcast.
		d.mu.Lock()
		d.flushPendingResyncs()
		d.mu.Unlock()
		cs.refreshActive()
	}
	if len(cs.active) == 0 {
		return nil, 0, ErrAllReplicasFailed
	}
	if d.cfg.Reads == ReadOne && query && !cs.anyInTxn() {
		return cs.execReadOne(b, stmtNo)
	}

	results := cs.broadcast(b)
	lat, slow := latencies(results)
	opts := core.CompareFor(b.p)
	verdict := core.Adjudicate(results, opts)
	if verdict.Unanimous && slow == 0 {
		d.unanimous.Add(1)
		return verdict.Agreed, lat, nil
	}

	active := cs.active
	d.mu.Lock()
	defer d.mu.Unlock()

	// Performance containment: replicas slower than the fastest by
	// core.PerfThreshold are flagged. (Their results still vote.)
	d.metrics.PerfOutliers += slow

	// Crash handling: restart and resync crashed replicas.
	for _, i := range verdict.CrashedIdx {
		d.metrics.CrashesDetected++
		d.recover(active[i].r, agreeingPeer(active[i].r, active, verdict))
	}

	if verdict.Agreed == nil && len(verdict.Errored) == len(results)-len(verdict.CrashedIdx) {
		// Every live replica returned an error: treat the (agreeing)
		// error as the statement's legitimate outcome.
		if len(verdict.Errored) > 0 {
			return nil, lat, results[verdict.Errored[0]].Err
		}
		return nil, lat, ErrAllReplicasFailed
	}

	// Error containment. Errors and successes are votes like any other
	// outcome: when more replicas error than agree on a result, the
	// error is taken as the statement's legitimate outcome and the
	// minority that accepted the statement is the suspect (this is how
	// silently-accepted invalid statements — the paper's "other
	// non-self-evident" failures — are contained). A 1-1 split in a
	// pair is detected but cannot be adjudicated.
	if len(verdict.Errored) > 0 && verdict.Agreed != nil {
		switch {
		case len(verdict.Errored) > len(verdict.AgreeIdx):
			d.metrics.MaskedFailures += int64(len(verdict.AgreeIdx))
			for _, i := range verdict.AgreeIdx {
				d.suspect(active[i].r, active, verdict)
			}
			return nil, lat, results[verdict.Errored[0]].Err
		case len(verdict.Errored) == len(verdict.AgreeIdx) && len(verdict.Outliers) == 0:
			d.metrics.DetectedSplits++
			return nil, lat, &DivergenceError{
				Replicas: replicaNames(results),
				Detail:   "one replica errored, the other succeeded: " + results[verdict.Errored[0]].Err.Error(),
			}
		default:
			// A statement that fails changes nothing on its replica, so
			// the rephrased form can still be applied there, write or
			// query; a replica that then agrees never was out of step.
			d.metrics.ReplicaErrors += int64(len(verdict.Errored))
			for _, i := range verdict.Errored {
				if d.repair(b, active[i], verdict.Agreed) {
					d.metrics.RephraseRecovered++
				} else {
					d.suspect(active[i].r, active, verdict)
				}
			}
		}
	}

	// Value containment: outvoted or split results.
	if len(verdict.Outliers) > 0 {
		// A split is described before the outliers are asked again: the
		// rephrased run reclaims an outlier's result.
		var split string
		if !verdict.Majority {
			split = core.Diff(results[verdict.AgreeIdx[0]].Res, results[verdict.Outliers[0]].Res, opts)
		}
		// Only a query's outliers are asked again: an outvoted write has
		// been applied, and any second form of it would apply it twice.
		if !query || !d.tryRephrase(active, verdict, b) {
			if verdict.Majority {
				d.metrics.MaskedFailures += int64(len(verdict.Outliers))
				for _, i := range verdict.Outliers {
					d.suspect(active[i].r, active, verdict)
				}
			} else {
				d.metrics.DetectedSplits++
				return nil, lat, &DivergenceError{Replicas: replicaNames(results), Detail: split}
			}
		}
	}

	if verdict.Unanimous {
		d.unanimous.Add(1)
	}
	return verdict.Agreed, lat, nil
}

// inlineCostLimit is the one threshold of broadcast's cost rule: a
// statement whose replicas each take longer than this is worth
// overlapping. Handing a replica to a helper goroutine and collecting it
// again costs the session about 15 us on the two-core machine the stack
// benchmark runs on (a prepared point read on three replicas: 3 us
// inline, 32 us through two helpers) — several times what a point read
// or a keyed update costs on all replicas together. At the limit the two
// hand-offs are a fifth of the 150 us of serial work they can overlap
// away, and a smaller share of anything slower.
const inlineCostLimit = 50 * time.Microsecond

// broadcast executes the statement on every active replica, through this
// session's per-replica sessions, and returns the votes in replica order
// (index-aligned with cs.active whichever goroutine produced them).
//
// The session's own goroutine always executes a replica itself rather
// than parking. While the statement is cheap it executes all of them,
// one after the other. Once the statement's cost — what the first
// replica took, remembered from the previous execution of a prepared
// statement or measured a moment ago for text — exceeds the limit, the
// replicas still to run go to helper goroutines, all but one, which the
// session runs alongside them before collecting the helpers.
func (cs *Session) broadcast(b *boundStmt) []core.ReplicaResult {
	last := len(cs.active) - 1
	for i := 0; i <= last; i++ {
		if i < last && b.cost > cs.d.inlineLimit {
			var wg sync.WaitGroup
			wg.Add(last - i)
			for j := i + 1; j <= last; j++ {
				go func(j int) {
					defer wg.Done()
					cs.execReplica(j, b)
				}(j)
			}
			cs.execReplica(i, b)
			wg.Wait()
			break
		}
		cs.execReplica(i, b)
	}
	return cs.results
}

// execReplica runs the statement on the i-th active replica and records
// its vote. The first replica's execution is timed: that is the
// statement's cost.
func (cs *Session) execReplica(i int, b *boundStmt) {
	if hook := cs.d.execHook; hook != nil {
		hook(true)
		defer hook(false)
	}
	m := cs.active[i]
	var start time.Time
	if i == 0 {
		start = time.Now()
	}
	res, lat, err := m.sub.Run(b.p, b.args)
	if i == 0 {
		b.cost = time.Since(start)
	}
	vote := &cs.results[i]
	vote.Res, vote.Err, vote.Latency = res, err, lat
	vote.Crashed = errors.Is(err, server.ErrCrashed)
}

// repair re-executes the statement in rephrased form on a replica that
// failed it, within the same session and transaction, and reports whether
// the replica now returns want — or, with nothing to hold it to (journal
// replay), executes it at all. Error votes, query outliers and resync
// redo all retry through it.
func (d *DiverseServer) repair(b *boundStmt, m member, want *engine.Result) bool {
	res, ok := b.rephraseOn(m.sub)
	return ok && (want == nil || core.Equal(res, want, core.CompareFor(b.p)))
}

// tryRephrase re-executes a query on its outlier replicas in rephrased
// form; if they all now agree with the majority the divergence is treated
// as transient.
func (d *DiverseServer) tryRephrase(active []member, verdict core.Verdict, b *boundStmt) bool {
	for _, i := range verdict.Outliers {
		if !d.repair(b, active[i], verdict.Agreed) {
			return false
		}
	}
	d.metrics.RephraseRecovered++
	return true
}

// replay executes one journaled statement on a rejoining replica's
// session, rephrased when the replica rejects it as written.
func (d *DiverseServer) replay(sub *server.Session, e redo) {
	b := boundStmt{p: e.p, args: e.args}
	if _, _, err := sub.Run(b.p, b.args); err != nil {
		d.repair(&b, member{sub: sub}, nil)
	}
}

// suspect records a replica misbehaviour and schedules it for
// resynchronization from a healthy peer so that error propagation is
// contained.
func (d *DiverseServer) suspect(r *replica, active []member, verdict core.Verdict) {
	r.suspicions++
	d.recover(r, agreeingPeer(r, active, verdict))
}

// agreeingPeer reports whether a replica other than r voted with the
// verdict's agreed outcome: a healthy donor to resync r from.
func agreeingPeer(r *replica, active []member, verdict core.Verdict) bool {
	for _, i := range verdict.AgreeIdx {
		if active[i].r != r {
			return true
		}
	}
	return false
}

// recover restarts a crashed replica and, when a healthy donor exists,
// quarantines it for resync. The resync itself happens at the start of
// the next statement (flushPendingResyncs), which runs under the
// exclusive statement lock while a replica waits, so no statement is
// mid-flight on any replica — one statement away, never a wait for a
// transaction boundary. Suspicion raised on the shared query path thus
// cannot mutate a replica out from under a sibling session's in-flight
// read. Called with d.mu held.
func (d *DiverseServer) recover(r *replica, donor bool) {
	if !d.cfg.AutoResync {
		d.setQuarantined(r, true)
		return
	}
	if r.srv.Crashed() {
		r.srv.Restart()
	}
	if donor {
		d.setQuarantined(r, true)
	}
	// Without a healthy donor the replica stays in service with its own
	// state (it may still agree on subsequent statements).
}

// resyncPending reports whether a replica waits to rejoin: one is
// quarantined and AutoResync brings it back. It reads the session's view
// of the active set, so it costs no lock; the caller holds cs.mu and has
// refreshed that view.
func (cs *Session) resyncPending() bool {
	return cs.d.cfg.AutoResync && len(cs.active) < len(cs.d.replicas)
}

// flushPendingResyncs rejoins quarantined replicas from any healthy
// donor. Called with d.mu held, d.execMu held exclusively and AutoResync
// on.
//
// The donor does not have to be idle: its committed state is captured
// copy-on-write at this instant (open transactions rewound on the
// clone), and the redo above the snapshot — every client session's
// open-transaction journal — is replayed into the rejoining replica's
// per-client sessions. A journal statement the replica rejects as
// written is replayed rephrased, as it ran live: dropping it would commit
// the transaction without it and rejoin the replica diverged. What no
// rule rewrites fails there again and is outvoted at the next statement.
//
// A client with something to replay gets a new session on the replica
// for it, not its old one there: a client between statements may still
// read the result its last statement returned, which came from its
// session on some replica — this one, when it agreed then — and which
// that session's next statement would reclaim. The old session is
// retired, and closed at the client's next statement
// (rebuildActiveLocked). A session an earlier rejoin made, which the
// client has run nothing on since, holds none of its results and is
// closed at once, so a client idle across many rejoins keeps at most one
// retired session per replica. A client with nothing to replay keeps its
// session: no statement runs on it.
func (d *DiverseServer) flushPendingResyncs() {
	for idx, r := range d.replicas {
		if !r.quarantined {
			continue
		}
		donor := d.liveDonor(r)
		if donor == nil {
			continue // try again on a later statement
		}
		start := time.Now()
		snap := donor.srv.Snapshot()
		r.srv.Restore(snap)
		for cs := range d.sessions {
			if cs.isoStmt == nil && !cs.inTxn {
				continue
			}
			if cs.retired[idx] == nil {
				cs.retired[idx] = cs.subs[idx]
			} else {
				_ = cs.subs[idx].Close()
			}
			sub := r.srv.NewSession()
			cs.subs[idx] = sub
			if cs.isoStmt != nil {
				// Restore the session-default isolation level first: the
				// journal below may open a transaction that inherits it.
				// A replica whose dialect rejects the level fails here
				// exactly as it did live.
				d.replay(sub, redo{p: cs.isoStmt})
			}
			if !cs.inTxn {
				continue
			}
			for _, entry := range cs.journal {
				d.replay(sub, entry)
				d.metrics.JournalReplays++
			}
		}
		d.setQuarantined(r, false)
		d.metrics.Resyncs++
		d.metrics.LastResyncSeq = snap.CommitSeq
		d.resyncDur.Observe(time.Since(start))
	}
}

// execReadOne serves a query from a single rotating replica; crashed
// replicas fail over to the next one. Results are NOT compared: this is
// the performance end of the paper's trade-off dial. A crash is contained
// as on the broadcast path: it rolled back every session's open
// transaction on the replica, so the replica is quarantined and rejoins,
// journals replayed, from any other live replica.
func (cs *Session) execReadOne(b *boundStmt, stmtNo int64) (*engine.Result, time.Duration, error) {
	d := cs.d
	n := len(cs.active)
	start := int(stmtNo) % n
	for i := 0; i < n; i++ {
		m := cs.active[(start+i)%n]
		res, lat, err := m.sub.Run(b.p, b.args)
		if errors.Is(err, server.ErrCrashed) {
			d.mu.Lock()
			d.metrics.CrashesDetected++
			d.recover(m.r, d.liveDonor(m.r) != nil)
			d.mu.Unlock()
			continue
		}
		return res, lat, err
	}
	return nil, 0, ErrAllReplicasFailed
}

// liveDonor returns a replica other than r that is in service and not
// crashed, or nil. Called with d.mu held.
func (d *DiverseServer) liveDonor(r *replica) *replica {
	for _, cand := range d.replicas {
		if cand != r && !cand.quarantined && !cand.srv.Crashed() {
			return cand
		}
	}
	return nil
}

// anyInTxn reports whether any of the session's active replica sessions
// has an open transaction (queries inside transactions must see the
// transaction's own writes, so they are always broadcast).
func (cs *Session) anyInTxn() bool {
	for _, m := range cs.active {
		if m.sub.InTxn() {
			return true
		}
	}
	return false
}

// latencies returns the statement's reported latency — the slowest
// replica's — and how many successful replicas were slower than the
// fastest successful one by at least core.PerfThreshold.
func latencies(results []core.ReplicaResult) (slowest time.Duration, outliers int64) {
	fastest := time.Duration(-1)
	for _, r := range results {
		if r.Latency > slowest {
			slowest = r.Latency
		}
		if r.Err == nil && (fastest < 0 || r.Latency < fastest) {
			fastest = r.Latency
		}
	}
	if fastest < 0 || slowest-fastest < core.PerfThreshold {
		return slowest, 0
	}
	for _, r := range results {
		if r.Err == nil && r.Latency-fastest >= core.PerfThreshold {
			outliers++
		}
	}
	return slowest, outliers
}

func replicaNames(results []core.ReplicaResult) []string {
	names := make([]string, len(results))
	for i, r := range results {
		names[i] = r.Name
	}
	return names
}
