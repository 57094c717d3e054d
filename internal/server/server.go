// Package server assembles a simulated off-the-shelf SQL server: the
// shared relational engine configured with one dialect (what the server
// accepts), that dialect's quirk set, and a registry of injected faults
// (how the server misbehaves). A Server presents the observable contract
// of the paper's study subjects: it executes SQL text, returning results,
// error messages, simulated latencies, engine crashes, and connection
// aborts.
//
// Clients attach through sessions (NewSession): each session carries its
// own transaction scope, and sessions execute concurrently — parsing and
// dialect checks run fully in parallel, while the shared engine lets
// read-only statements overlap and serializes writes. An engine crash
// takes every session's open transaction down with it.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	engplan "divsql/internal/engine/plan"
	"divsql/internal/fault"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/types"
)

// Sentinel errors observable by clients.
var (
	// ErrCrashed is returned once the server's engine has crashed; every
	// subsequent call fails until Restart.
	ErrCrashed = errors.New("engine crash: server is down")
	// ErrConnAborted models a dropped client connection: the engine
	// survives, the session's transaction is rolled back.
	ErrConnAborted = errors.New("connection aborted by server")
)

// BaseLatency is the simulated execution time of a healthy statement.
const BaseLatency = time.Millisecond

// Server is one simulated SQL server instance.
type Server struct {
	name   dialect.ServerName
	d      *dialect.Dialect
	eng    *engine.Engine
	faults *fault.Registry

	mu      sync.Mutex // guards crashed, stress, log fields
	crashed bool
	stress  bool

	// panics counts engine panics contained by Session.run (each one is
	// reported to the client as a crash).
	panics atomic.Uint64

	// Statement log: opt-in (EnableLog) and ring-buffered, so long-lived
	// servers and deep fuzzing runs pay neither the append allocation nor
	// the unbounded growth. logBuf is a fixed-capacity ring; logStart is
	// the index of the oldest entry; logLen the number of live entries.
	logOn    bool
	logBuf   []string
	logStart int
	logLen   int
}

// DefaultLogCapacity is the ring capacity EnableLog uses when given a
// non-positive capacity.
const DefaultLogCapacity = 1024

// Session is one client session of a server: its own transaction scope
// over the shared engine. Obtain one with NewSession; a session is used
// by one client at a time, like a connection.
type Session struct {
	srv *Server
	es  *engine.Session

	// plans is the session's parse-once plan cache: Prepare resolves a
	// statement text to its parsed, dialect-checked plan exactly once.
	// Owned by the session's single client, so no lock. Bounded: at
	// maxSessionPlans the cache is dropped wholesale (re-preparing is
	// just a reparse).
	plans map[string]*plan
}

// maxSessionPlans bounds the per-session plan cache.
const maxSessionPlans = 512

var (
	_ core.SessionExecutor = (*Server)(nil)
	_ core.Session         = (*Session)(nil)
	_ core.Statement       = (*Stmt)(nil)
	_ core.Snapshotter     = (*Server)(nil)
)

// New builds a server of the given name carrying the provided faults
// (only those registered for this server are installed).
func New(name dialect.ServerName, faults []fault.Fault) (*Server, error) {
	d, err := dialect.New(name)
	if err != nil {
		return nil, err
	}
	return &Server{
		name:   name,
		d:      d,
		eng:    engine.New(d.EngineConfig()),
		faults: fault.NewRegistry(name, faults),
	}, nil
}

// OracleName is the pristine reference server's identity, as reported
// by Name(). Replay and regression machinery that rebuilds an endpoint
// from a recorded name uses it to distinguish the oracle from the four
// servers under test.
const OracleName dialect.ServerName = "ORACLE-REF"

// NewOracle builds the pristine reference server: permissive dialect
// (it understands every server's spellings), no quirks, no faults. It is
// the correctness oracle of the study.
func NewOracle() *Server {
	return &Server{
		name:   OracleName,
		eng:    engine.New(dialect.OracleConfig()),
		faults: fault.NewRegistry(OracleName, nil),
	}
}

// Name returns the server's identity.
func (s *Server) Name() dialect.ServerName { return s.name }

// Dialect returns the server's dialect (nil for the pristine oracle).
func (s *Server) Dialect() *dialect.Dialect { return s.d }

// SetStress toggles the stressful environment in which Heisenbug-class
// faults can manifest (Section 3.2 of the paper).
func (s *Server) SetStress(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stress = on
}

// Crashed reports whether the engine is down.
func (s *Server) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Restart brings a crashed server back up. Committed state survives (the
// simulated servers journal to stable storage); any open transaction was
// already rolled back by the crash.
func (s *Server) Restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = false
}

// NewSession opens a client session.
func (s *Server) NewSession() *Session {
	return &Session{srv: s, es: s.eng.NewSession()}
}

// OpenSession implements core.SessionExecutor.
func (s *Server) OpenSession() core.Session { return s.NewSession() }

// crash halts the engine: every session's open transaction is rolled
// back (committed state survives) and all subsequent statements fail
// with ErrCrashed until Restart.
func (s *Server) crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.eng.AbortAll()
}

// Close rolls back the session's open transaction and releases it.
func (c *Session) Close() error { return c.es.Close() }

// Abort rolls back the session's open transaction, if any, keeping the
// session usable. The differential harness uses it to clear a
// transaction that a fault desynchronized from the oracle before
// restoring the server from an oracle snapshot.
func (c *Session) Abort() { c.es.Abort() }

// InTxn reports whether this session has an open transaction.
func (c *Session) InTxn() bool { return c.es.InTxn() }

// Server returns the server the session is attached to.
func (c *Session) Server() *Server { return c.srv }

// LastPlan describes how the session's most recent SELECT executed on
// the engine (access path, compiled vs interpreter, plan-cache hit).
func (c *Session) LastPlan() engplan.Info { return c.es.LastPlan() }

// ExecVariant executes an already parsed pure SELECT under a forced
// access-path variant, bypassing the engine's plan caches and this
// server's fault layer. It is the probe of the forced-variant
// differential oracle (difftest's DQP-lite gate): the caller runs the
// same statement once per variant and compares the results.
func (c *Session) ExecVariant(sel *ast.Select, force engplan.Force, args ...types.Value) (*engine.Result, error) {
	return c.es.ExecSelectVariant(sel, force, args)
}

// PlanCacheStats returns the engine's shared compiled-plan cache
// counters (hits, misses, DDL invalidations).
func (s *Server) PlanCacheStats() engplan.CacheStats { return s.eng.PlanCacheStats() }

// Exec executes one SQL statement in this session, returning the result
// and the simulated latency. It is a one-shot prepare-and-execute: the
// statement is parsed and dialect-checked, then runs through the same
// execution path as a prepared statement (with no arguments bound).
func (c *Session) Exec(sql string) (*engine.Result, time.Duration, error) {
	s := c.srv
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil, 0, ErrCrashed
	}
	s.mu.Unlock()

	st, err := parser.Parse(sql)
	if err != nil {
		return nil, BaseLatency, fmt.Errorf("syntax error: %w", err)
	}
	if err := s.checkDialect(st); err != nil {
		return nil, BaseLatency, err
	}
	return c.run(sql, st, nil, nil)
}

// ExecArgs is one-shot prepare-bind-execute: the statement is planned
// through the session's plan cache (so repeated texts parse once) and
// executed with the given arguments.
func (c *Session) ExecArgs(sql string, args ...types.Value) (*engine.Result, time.Duration, error) {
	st, err := c.PrepareStmt(sql)
	if err != nil {
		return nil, BaseLatency, err
	}
	return st.Exec(args...)
}

// plan is one parse-once execution plan, cached per session by statement
// text: the parsed tree, its fingerprint (fault matching) and its
// parameter count.
type plan struct {
	sql string
	st  ast.Statement
	fp  ast.Fingerprint
	np  int
}

// Stmt is a prepared statement of one session. It implements
// core.Statement.
type Stmt struct {
	sess   *Session
	p      *plan
	closed bool
}

// PrepareStmt parses, dialect-checks and plans one statement for
// repeated execution. Plans are cached per session by statement text, so
// re-preparing a text this session has already planned costs a map
// lookup — the parse leaves the hot path.
func (c *Session) PrepareStmt(sql string) (*Stmt, error) {
	s := c.srv
	s.mu.Lock()
	crashed := s.crashed
	s.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	p, err := c.plan(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: c, p: p}, nil
}

// Prepare implements core.Session.
func (c *Session) Prepare(sql string) (core.Statement, error) {
	st, err := c.PrepareStmt(sql)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (c *Session) plan(sql string) (*plan, error) {
	if p, ok := c.plans[sql]; ok {
		return p, nil
	}
	st, err := parser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("syntax error: %w", err)
	}
	if err := c.srv.checkDialect(st); err != nil {
		return nil, err
	}
	np := ast.NumParams(st)
	if err := engine.CheckBindable(st, np); err != nil {
		return nil, err // parameters in a statement class that cannot bind
	}
	p := &plan{sql: sql, st: st, fp: ast.FingerprintOf(st), np: np}
	if len(c.plans) >= maxSessionPlans {
		c.plans = nil
	}
	if c.plans == nil {
		c.plans = make(map[string]*plan)
	}
	c.plans[sql] = p
	return p, nil
}

// SQL returns the statement text as prepared.
func (st *Stmt) SQL() string { return st.p.sql }

// NumParams reports how many arguments Exec expects.
func (st *Stmt) NumParams() int { return st.p.np }

// Close releases the statement (the session keeps the cached plan).
func (st *Stmt) Close() error {
	st.closed = true
	return nil
}

// Bound returns the prepared statement's parsed tree (read-only; used by
// the middleware to classify the statement without reparsing).
func (st *Stmt) Bound() ast.Statement { return st.p.st }

// ReadOnly reports whether executing the statement is a pure query: a
// SELECT that does not (directly or through views) advance a sequence.
// Resolved per call — view chains can change between executions.
func (st *Stmt) ReadOnly() bool {
	sel, ok := st.p.st.(*ast.Select)
	if !ok {
		return false
	}
	return !st.sess.srv.eng.SelectAdvancesSequences(sel)
}

// Exec executes the prepared statement with the given arguments. The
// argument count must match the statement's parameter count; the
// server's bind-time coercion rules (engine.BindRules) then normalize
// the values before the plan runs.
func (st *Stmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	if st.closed {
		return nil, 0, errors.New("statement is closed")
	}
	if len(args) != st.p.np {
		return nil, BaseLatency, fmt.Errorf("%w: statement wants %d parameters, %d bound",
			engine.ErrBind, st.p.np, len(args))
	}
	return st.sess.run(st.p.sql, st.p.st, &st.p.fp, args)
}

// run executes one planned statement: fault matching on the (cached)
// fingerprint, engine execution with the bound arguments, fault effects
// and crash bookkeeping. fp may be nil for ad-hoc statements (computed
// on demand, and only when the server carries faults at all).
//
// A panic below this point is a bug in this server's engine, and it is
// contained as what it amounts to — an engine crash: the server is marked
// down (every session's open transaction aborts) and the statement fails
// with ErrCrashed, so a replicated deployment outvotes, restarts and
// resynchronizes this server instead of dying with it on whichever
// goroutine happened to be executing the replica.
func (c *Session) run(sql string, st ast.Statement, fp *ast.Fingerprint, args []types.Value) (res *engine.Result, latency time.Duration, err error) {
	s := c.srv
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil, 0, ErrCrashed
	}
	stress := s.stress
	s.mu.Unlock()

	latency = BaseLatency
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.crash()
			res, err = nil, fmt.Errorf("%w (engine panic: %v)", ErrCrashed, p)
		}
	}()
	var matched *fault.Fault
	if s.d != nil {
		var f ast.Fingerprint
		if fp != nil {
			f = *fp
		} else {
			f = ast.FingerprintOf(st)
		}
		matched = s.faults.Match(f, stress)
	}
	if matched != nil {
		switch matched.Effect.Kind {
		case fault.EffectCrash:
			s.crash()
			return nil, latency, ErrCrashed
		case fault.EffectError:
			return nil, latency, errors.New(matched.Effect.Message)
		case fault.EffectAbortConnection:
			// Only this session's connection drops; other sessions keep
			// their transactions.
			c.es.Abort()
			return nil, latency, ErrConnAborted
		case fault.EffectLatency:
			latency += time.Duration(matched.Effect.LatencyMillis) * time.Millisecond
		}
	}

	var execErr error
	if args == nil {
		res, execErr = c.es.Exec(st)
	} else {
		res, execErr = c.es.ExecBound(st, args)
	}
	// Re-check the crash flag: another session may have crashed the
	// server while this statement was in flight. The outcome of such a
	// statement is ambiguous (as on a real server that dies mid-request);
	// the client sees the crash, never a "healthy" result.
	s.mu.Lock()
	crashedNow := s.crashed
	s.mu.Unlock()
	if crashedNow {
		return nil, latency, ErrCrashed
	}
	if matched != nil && matched.Effect.Kind == fault.EffectSuppressError && execErr != nil {
		// The fault swallows a legitimate error: the invalid statement is
		// silently "accepted" (and has no effect).
		return &engine.Result{Kind: engine.ResultDDL}, latency, nil
	}
	if execErr != nil {
		return nil, latency, execErr
	}
	if matched != nil && matched.Effect.Kind == fault.EffectMutateResult {
		res = fault.Apply(matched.Effect.Mutation, res)
	}
	if isStateChanging(st) {
		s.logWrite(sql, args)
	}
	return res, latency, nil
}

// ReadOnly reports whether sql is a pure query on this server: a SELECT
// that does not (directly or through views) advance a sequence. A parse
// failure classifies as not read-only — the conservative direction for
// callers deciding lock modes or read policies.
func (s *Server) ReadOnly(sql string) bool {
	st, err := parser.Parse(sql)
	if err != nil {
		return false
	}
	sel, ok := st.(*ast.Select)
	if !ok {
		return false
	}
	return !s.eng.SelectAdvancesSequences(sel)
}

// SelectAdvancesSequences is ReadOnly for callers that already hold the
// parsed query (saves the re-parse on hot adjudication paths).
func (s *Server) SelectAdvancesSequences(sel *ast.Select) bool {
	return s.eng.SelectAdvancesSequences(sel)
}

// checkDialect rejects constructs the server's dialect does not offer
// (the parser accepts the superset; real servers reject at parse time).
func (s *Server) checkDialect(st ast.Statement) error {
	if s.d == nil {
		return nil // pristine oracle accepts everything
	}
	switch x := st.(type) {
	case *ast.CreateView:
		if x.Select != nil && x.Select.Union != nil && !s.d.Supports(dialect.FeatViewUnion) {
			return fmt.Errorf("syntax error: %s does not support UNION in view definitions", s.name)
		}
	case *ast.CreateIndex:
		if x.Clustered && !s.d.Supports(dialect.FeatClusteredIndex) {
			return fmt.Errorf("syntax error: %s does not support CLUSTERED indexes", s.name)
		}
	case *ast.CreateSequence:
		if !s.d.Supports(dialect.FeatSequences) {
			return fmt.Errorf("syntax error: %s does not support sequences", s.name)
		}
	case *ast.Select:
		if x.LimitSyn != ast.LimitNone {
			if x.LimitSyn != s.d.LimitSyntax() {
				return fmt.Errorf("syntax error: row-limit syntax not accepted by %s", s.name)
			}
		}
	case *ast.SetTxn:
		if !s.d.SupportsIsolation(x.Level) {
			return fmt.Errorf("syntax error: %s does not support isolation level %s", s.name, x.Level)
		}
	}
	return nil
}

func isStateChanging(st ast.Statement) bool {
	switch st.(type) {
	case *ast.Select:
		return false
	default:
		return true
	}
}

// StmtOutcome is the observable outcome of one statement of a replayed
// stream (study.RunSource).
type StmtOutcome struct {
	SQL     string
	Res     *engine.Result
	Err     error
	Crashed bool
	Latency time.Duration
}

// InTxnAny reports whether any session has a transaction open (used by
// the middleware to gate state transfers on transaction boundaries).
func (s *Server) InTxnAny() bool { return s.eng.AnyInTxn() }

// Snapshot captures a consistent image of the engine's COMMITTED state
// at this instant for state transfer. It never waits for transaction
// boundaries: the engine rewinds open transactions on a copy-on-write
// clone while the server keeps executing.
func (s *Server) Snapshot() *engine.State {
	return s.eng.Snapshot()
}

// CommitSeq returns the engine's commit high-water mark (stamped into
// snapshots, used to anchor resync redo).
func (s *Server) CommitSeq() uint64 { return s.eng.CommitSeq() }

// Restore replaces the engine state (used for replica resync). Open
// transactions on every session are discarded.
func (s *Server) Restore(st *engine.State) {
	s.eng.Restore(st)
}

// RestoreScoped replaces only the objects selected by keep with the
// snapshot's objects selected by keep. State — and open transactions —
// outside the scope are untouched; the caller manages the transaction
// state of sessions working inside the scope (Session.Abort).
func (s *Server) RestoreScoped(st *engine.State, keep func(name string) bool) {
	s.eng.RestoreScoped(st, keep)
}

// Reset drops all state (fresh install). Log capture stays in whatever
// mode it was; captured entries are discarded.
func (s *Server) Reset() {
	s.eng.Reset()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logStart, s.logLen = 0, 0
	s.crashed = false
}

// EnableLog turns on capture of successfully executed state-changing
// statements into a fixed-capacity ring buffer (the newest capacity
// entries are kept). Logging is off by default: with no consumer it
// would only cost an allocation per write on long hunts. A non-positive
// capacity selects DefaultLogCapacity.
func (s *Server) EnableLog(capacity int) {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logOn = true
	s.logBuf = make([]string, capacity)
	s.logStart, s.logLen = 0, 0
}

// DisableLog turns off statement capture and releases the ring.
func (s *Server) DisableLog() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logOn = false
	s.logBuf = nil
	s.logStart, s.logLen = 0, 0
}

// logWrite records one state-changing statement when logging is enabled
// (the replayable entry is only encoded then).
func (s *Server) logWrite(sql string, args []types.Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.logOn || len(s.logBuf) == 0 {
		return
	}
	entry := core.EncodeBound(sql, args)
	if s.logLen < len(s.logBuf) {
		s.logBuf[(s.logStart+s.logLen)%len(s.logBuf)] = entry
		s.logLen++
		return
	}
	s.logBuf[s.logStart] = entry
	s.logStart = (s.logStart + 1) % len(s.logBuf)
}

// Log returns the captured state-changing statements, oldest first (at
// most the ring capacity; nil when logging is disabled). Bound
// statements appear in the replayable core.EncodeBound form.
func (s *Server) Log() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.logOn || s.logLen == 0 {
		return nil
	}
	out := make([]string, 0, s.logLen)
	for i := 0; i < s.logLen; i++ {
		out = append(out, s.logBuf[(s.logStart+i)%len(s.logBuf)])
	}
	return out
}

// PlantEnginePanic arms or disarms a panic inside this server's engine on
// its next SELECT or DML statement (engine.PlantPanic). Test-only.
func (s *Server) PlantEnginePanic(on bool) { s.eng.PlantPanic(on) }

// FaultCount reports how many faults are installed (used by tests).
func (s *Server) FaultCount() int { return s.faults.Len() }
