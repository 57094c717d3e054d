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
	"divsql/internal/sql/stmt"
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

	mu      sync.Mutex // guards crashed, stress
	crashed bool
	stress  bool

	// panics counts engine panics contained by Session.run (each one is
	// reported to the client as a crash).
	panics atomic.Uint64
}

// Session is one client session of a server: its own transaction scope
// over the shared engine. Obtain one with NewSession; a session is used
// by one client at a time, like a connection.
type Session struct {
	srv *Server
	es  *engine.Session
}

var (
	_ core.SessionExecutor = (*Server)(nil)
	_ core.Session         = (*Session)(nil)
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

// LastPlan describes how the session's most recent SELECT, UPDATE or
// DELETE reached its rows on the engine (the access path of the
// statement and of every core nested in it, plan-cache hit).
func (c *Session) LastPlan() engplan.Info { return c.es.LastPlan() }

// ExecVariant executes a pure SELECT's handle as a plan variant,
// bypassing this server's fault layer: the engine runs the statement's
// memoised plan with the narrowing choices force turns off. It is the
// probe of the self-check oracles (internal/metamorph): Plan runs the
// same statement normally and as ForceFullScan and compares the results.
func (c *Session) ExecVariant(p *stmt.Parsed, force engplan.Force, args ...types.Value) (*engine.Result, error) {
	return c.es.ExecSelectVariant(p, force, args)
}

// PlanCacheStats returns the engine's shared compiled-plan cache
// counters (hits, misses, DDL invalidations).
func (s *Server) PlanCacheStats() engplan.CacheStats { return s.eng.PlanCacheStats() }

// Exec executes one SQL statement in this session, returning the result
// and the simulated latency: stmt.Resolve, then Run with nothing bound.
func (c *Session) Exec(sql string) (*engine.Result, time.Duration, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		if c.srv.Crashed() {
			return nil, 0, ErrCrashed
		}
		return nil, BaseLatency, err
	}
	return c.Run(p, nil)
}

// Prepare resolves one statement for repeated execution and reports now
// what would stop every execution: a syntax error, a construct this
// server's dialect does not offer, placeholders in a statement that
// cannot bind. Its executions run Run on the handle. Implements
// core.Session.
func (c *Session) Prepare(sql string) (core.Statement, error) {
	if c.srv.Crashed() {
		return nil, ErrCrashed
	}
	p, err := stmt.Resolve(sql)
	if err == nil {
		err = c.srv.Accepts(p)
	}
	if err != nil {
		return nil, err
	}
	return core.NewPrepared(p, c.Run, nil), nil
}

// Accepts reports why this server would refuse to prepare the statement
// (nil when it would not): its dialect gate, then the statement's own
// bindability.
func (s *Server) Accepts(p *stmt.Parsed) error {
	if err := s.checkDialect(p.AST); err != nil {
		return err
	}
	return p.BindErr
}

// Run executes one resolved statement, with args bound to its
// placeholders (nil: nothing bound, as inline text executes). It is the
// one execution body below the text contract — Exec and every
// execution of a prepared statement end here, and the layers that hold
// this server by its concrete type (the middleware's replicas, the
// differential harness's five servers) hand it the handle they
// resolved once for all of them. The dialect gate,
// fault matching on the handle's fingerprint, engine execution, fault
// effects and crash bookkeeping happen here.
//
// A panic below this point is a bug in this server's engine, and it is
// contained as what it amounts to — an engine crash: the server is marked
// down (every session's open transaction aborts) and the statement fails
// with ErrCrashed, so a replicated deployment outvotes, restarts and
// resynchronizes this server instead of dying with it on whichever
// goroutine happened to be executing the replica.
//
// The result is the engine session's: valid until this session's next
// Run, Exec, ExecVariant or Close (engine.Result). A fault that mutates
// a result mutates a copy (fault.Apply), never the engine's.
func (c *Session) Run(p *stmt.Parsed, args []types.Value) (res *engine.Result, latency time.Duration, err error) {
	s := c.srv
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil, 0, ErrCrashed
	}
	stress := s.stress
	s.mu.Unlock()
	if err := s.checkDialect(p.AST); err != nil {
		return nil, BaseLatency, err
	}

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
		matched = s.faults.Match(p.Fingerprint, stress)
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

	res, execErr := c.es.Exec(p, args)
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
	return res, latency, nil
}

// SelectAdvancesSequences reports whether the query would mutate state on
// this server: it advances a sequence, directly or through views. A
// statement is read-only when it is a SELECT (stmt.Parsed.Select) that
// does not.
func (s *Server) SelectAdvancesSequences(p *stmt.Parsed) bool {
	return s.eng.SelectAdvancesSequences(p)
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

// SessionCount reports the number of live sessions on the server.
func (s *Server) SessionCount() int { return s.eng.SessionCount() }

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

// Reset drops all state (fresh install) and brings a crashed server
// back up.
func (s *Server) Reset() {
	s.eng.Reset()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = false
}

// PlantEnginePanic arms or disarms a panic inside this server's engine on
// its next SELECT or DML statement (engine.PlantPanic). Test-only.
func (s *Server) PlantEnginePanic(on bool) { s.eng.PlantPanic(on) }

// FaultCount reports how many faults are installed (used by tests).
func (s *Server) FaultCount() int { return s.faults.Len() }
