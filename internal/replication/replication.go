// Package replication implements the baseline the paper argues against:
// conventional data replication over identical servers under the
// fail-stop assumption. The primary executes every statement; updates
// are propagated to the backups; the only failures detected are clean
// crashes, on which a backup is promoted.
//
// Because results are never compared, non-fail-stop failures — wrong
// results, spurious errors, silent acceptance of invalid statements —
// pass straight through to the client and are *propagated to every
// replica*, exactly the shortcoming described in Section 2.1.
//
// Clients attach through sessions (NewSession): each client session maps
// to one session per group member, so a client's transaction survives a
// failover onto whichever member is promoted. The group serializes
// statements across sessions (primary/backup log shipping imposes a
// single global order — the scalability cost of the baseline, in
// contrast to the diverse middleware's parallel reads).
package replication

import (
	"errors"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/server"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// ErrNoReplicas is returned when the group is built empty.
var ErrNoReplicas = errors.New("replication group needs at least one server")

// ErrGroupDown is returned when every replica has crashed.
var ErrGroupDown = errors.New("all replicas have crashed")

// Metrics counts replication events.
type Metrics struct {
	Statements  int64
	Failovers   int64
	Propagated  int64
	UncheckedOK int64 // results returned to clients without comparison
}

// Group is a primary/backup replication group of identical servers.
type Group struct {
	mu       sync.Mutex
	servers  []*server.Server
	primary  int
	metrics  Metrics
	restarts bool
}

var (
	_ core.SessionExecutor = (*Group)(nil)
	_ core.Session         = (*Session)(nil)
)

// NewGroup builds a replication group; servers[0] starts as primary.
// When autoRestart is set, crashed primaries are restarted and rejoin as
// backups after failover (warm standby).
func NewGroup(autoRestart bool, servers ...*server.Server) (*Group, error) {
	if len(servers) == 0 {
		return nil, ErrNoReplicas
	}
	return &Group{servers: servers, restarts: autoRestart}, nil
}

// Session is one client session of the group: one server session per
// member, so the client's transaction scope follows the primary across
// failovers.
type Session struct {
	g    *Group
	subs []*server.Session // index-aligned with g.servers
}

// NewSession opens a client session on every group member.
func (g *Group) NewSession() *Session {
	gs := &Session{g: g}
	for _, s := range g.servers {
		gs.subs = append(gs.subs, s.NewSession())
	}
	return gs
}

// OpenSession implements core.SessionExecutor.
func (g *Group) OpenSession() core.Session { return g.NewSession() }

// Close rolls back the session's open transaction on every member.
func (gs *Session) Close() error {
	var first error
	for _, sub := range gs.subs {
		if err := sub.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Primary returns the current primary's name.
func (g *Group) Primary() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return string(g.servers[g.primary].Name())
}

// Metrics returns a snapshot of the counters.
func (g *Group) Metrics() Metrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.metrics
}

// Prepare implements core.Session. It fails only when every
// member rejects the text (under the fail-stop assumption a member's
// prepare error is its legitimate outcome, surfaced if it is primary).
// Its executions run like Exec's text.
func (gs *Session) Prepare(sql string) (core.Statement, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, err
	}
	for _, s := range gs.g.servers {
		serr := s.Accepts(p)
		if serr == nil {
			return core.NewPrepared(p, gs.run, nil), nil
		}
		if err == nil {
			err = serr
		}
	}
	return nil, err
}

// Exec executes the statement on the primary and, for state-changing
// statements, propagates it to the backups. Only crash failures trigger
// recovery; results are returned unchecked.
func (gs *Session) Exec(sql string) (*engine.Result, time.Duration, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, server.BaseLatency, err
	}
	return gs.run(p, nil)
}

// run is the one body of Exec and of a prepared statement's executions.
func (gs *Session) run(p *stmt.Parsed, args []types.Value) (*engine.Result, time.Duration, error) {
	g := gs.g
	g.mu.Lock()
	defer g.mu.Unlock()
	g.metrics.Statements++

	for attempts := 0; attempts < len(g.servers)+1; attempts++ {
		res, lat, err := gs.subs[g.primary].Run(p, args)
		if errors.Is(err, server.ErrCrashed) {
			if !g.failover() {
				return nil, lat, ErrGroupDown
			}
			continue
		}
		if err != nil {
			// Under the fail-stop assumption a non-crash error is assumed
			// to be the statement's legitimate outcome; it is NOT treated
			// as a server failure.
			return nil, lat, err
		}
		if p.Select == nil {
			g.propagate(gs, p, args)
		}
		g.metrics.UncheckedOK++
		return res, lat, nil
	}
	return nil, 0, ErrGroupDown
}

// failover promotes the next live backup. It returns false when none is
// available.
//
// Warm-standby rejoin rides on the engine's committed-state snapshot:
// the restarted server receives the new primary's COMMITTED image (open
// client transactions are rewound on the copy-on-write clone, so a
// transaction that later rolls back never contaminates the standby).
// Unlike the diverse middleware, the baseline ships no redo on top: a
// client transaction open across the failover simply does not exist on
// the rejoined backup — propagated statements autocommit there — which
// is part of the fail-stop baseline's documented weakness.
func (g *Group) failover() bool {
	g.metrics.Failovers++
	crashed := g.servers[g.primary]
	if g.restarts {
		crashed.Restart()
		// Rejoin with state copied from a live peer below, once a new
		// primary is found.
	}
	for i := range g.servers {
		cand := (g.primary + 1 + i) % len(g.servers)
		if !g.servers[cand].Crashed() {
			if g.restarts && cand != g.primary {
				crashed.Restore(g.servers[cand].Snapshot())
			}
			g.primary = cand
			return true
		}
	}
	return false
}

// propagate replays an update on every backup, within the same client
// session (so transactional updates stay inside the client's transaction
// on every member). Failures of individual backups are ignored unless
// they crash (fail-stop assumption); wrong results cannot occur here
// because backups' outputs are never read — which is precisely how
// incorrect updates spread silently.
func (g *Group) propagate(gs *Session, p *stmt.Parsed, args []types.Value) {
	for i, s := range g.servers {
		if i == g.primary || s.Crashed() {
			continue
		}
		_, _, _ = gs.subs[i].Run(p, args)
		g.metrics.Propagated++
	}
}
