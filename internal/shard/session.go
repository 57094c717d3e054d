package shard

import (
	"fmt"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Session is one client's transaction scope across the shard fleet: one
// backend session per shard, opened eagerly (backend sessions are
// cheap), joined to a transaction lazily. Implements core.Session.
type Session struct {
	r  *Router
	mu sync.Mutex // a session is one client; serialize its statements

	subs []core.Session // index-aligned with r.backends
	home int            // shard for statements with no routable reference

	inTxn    bool
	beginSQL string       // the client's BEGIN text, replayed on lazy joins
	touched  map[int]bool // shards the open transaction has reached
}

// OpenSession opens a session on every shard. Implements
// core.SessionExecutor.
func (r *Router) OpenSession() core.Session { return r.NewSession() }

// NewSession opens a session with its concrete type.
func (r *Router) NewSession() *Session {
	s := &Session{r: r, touched: make(map[int]bool)}
	for _, b := range r.backends {
		s.subs = append(s.subs, b.OpenSession())
	}
	r.mu.Lock()
	s.home = int(r.nextHome % uint64(len(r.backends)))
	r.nextHome++
	r.mu.Unlock()
	return s
}

// Close rolls back the session's open transaction (on the shards it
// reached) and releases every per-shard session.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sub := range s.subs {
		if err := sub.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Exec routes and executes one SQL statement.
func (s *Session) Exec(sql string) (*engine.Result, time.Duration, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		// The router cannot classify what it cannot parse; the shards
		// share one parser, so the statement would fail there identically.
		return nil, server.BaseLatency, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dispatch(p, inlineExec(sql), nil)
}

// shardExec runs one already-routed statement on one shard — inline
// text or a per-shard prepared statement.
type shardExec interface {
	run(s *Session, shard int) (*engine.Result, time.Duration, error)
}

type inlineExec string

func (q inlineExec) run(s *Session, shard int) (*engine.Result, time.Duration, error) {
	return s.subs[shard].Exec(string(q))
}

// dispatch routes the statement and executes it through ex. Caller holds
// s.mu.
func (s *Session) dispatch(p *stmt.Parsed, ex shardExec, args []types.Value) (*engine.Result, time.Duration, error) {
	r := s.r
	r.metrics.statements.Add(1)
	st := p.AST
	rt, err := r.analyze(p, args, s.home)
	if err != nil {
		r.metrics.rejected.Add(1)
		return nil, server.BaseLatency, err
	}
	switch rt.kind {
	case routeTxn:
		return s.execTxnControl(st, ex)
	case routeSetTxn:
		return s.execBroadcast(st, ex, false)
	case routeSingle:
		r.metrics.single.Add(1)
		res, lat, err := s.execOn(rt.shard, ex)
		if err == nil {
			r.noteDDL(st)
		}
		return res, lat, err
	case routeBroadcast:
		return s.execBroadcast(st, ex, true)
	case routeScatter:
		r.metrics.scatter.Add(1)
		return s.execScatter(p.Select, ex)
	default:
		return nil, 0, fmt.Errorf("shard: unroutable statement %T", st)
	}
}

// execOn runs on one shard, joining it to the open transaction first if
// needed.
func (s *Session) execOn(shard int, ex shardExec) (*engine.Result, time.Duration, error) {
	if err := s.joinTxn(shard); err != nil {
		return nil, server.BaseLatency, err
	}
	s.r.metrics.perShard[shard].statements.Add(1)
	return ex.run(s, shard)
}

// joinTxn lazily propagates the session's open BEGIN to a shard the
// transaction is reaching for the first time.
func (s *Session) joinTxn(shard int) error {
	if !s.inTxn || s.touched[shard] {
		return nil
	}
	if _, _, err := s.subs[shard].Exec(s.beginSQL); err != nil {
		return fmt.Errorf("shard %d: propagating %s: %w", shard, s.beginSQL, err)
	}
	s.touched[shard] = true
	return nil
}

// execTxnControl handles BEGIN/COMMIT/ROLLBACK.
//
// BEGIN is not sent anywhere: the session only records that a
// transaction is open, and shards join it on first contact (joinTxn).
// The synthesized result matches the engine's (*Result{Kind:
// ResultDDL}, base latency), so lockstep comparisons against an
// unsharded oracle agree. A second BEGIN routes to a joined shard (or
// home) so the engine's own "transaction already in progress" error
// surfaces. COMMIT/ROLLBACK visit exactly the joined shards in
// ascending order.
func (s *Session) execTxnControl(st ast.Statement, ex shardExec) (*engine.Result, time.Duration, error) {
	switch st.(type) {
	case *ast.Begin:
		if s.inTxn {
			return s.execOn(s.firstTouched(), ex)
		}
		s.inTxn = true
		s.beginSQL = exSQL(ex)
		return &engine.Result{Kind: engine.ResultDDL}, server.BaseLatency, nil
	default: // Commit, Rollback
		if !s.inTxn {
			// No transaction: forward for the engine's authentic outcome.
			return ex.run(s, s.home)
		}
		targets := s.touchedAscending()
		s.inTxn = false
		s.touched = make(map[int]bool)
		if len(targets) == 0 {
			// Opened but never touched a shard: nothing to finish.
			return &engine.Result{Kind: engine.ResultDDL}, server.BaseLatency, nil
		}
		var (
			res      *engine.Result
			maxLat   time.Duration
			firstErr error
		)
		for _, shard := range targets {
			rr, lat, err := ex.run(s, shard)
			if lat > maxLat {
				maxLat = lat
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %d: %w", shard, err)
				}
				// The session's transaction record is already cleared, so
				// a COMMIT that failed leaving the backend transaction
				// open would have later autocommit-style statements
				// silently execute inside it. Best-effort ROLLBACK puts
				// the backend session in a known state either way.
				if _, isCommit := st.(*ast.Commit); isCommit {
					_, _, _ = s.subs[shard].Exec("ROLLBACK")
				}
				continue
			}
			res = rr
		}
		if firstErr != nil {
			return nil, maxLat, firstErr
		}
		return res, maxLat, nil
	}
}

// execBroadcast runs a statement on every shard in ascending order,
// summing affected counts and reporting the slowest shard's latency
// (shards execute back to back, but each models an independent replica
// set — the deployment's wall-clock cost is the slowest one's).
func (s *Session) execBroadcast(st ast.Statement, ex shardExec, write bool) (*engine.Result, time.Duration, error) {
	s.r.metrics.broadcast.Add(1)
	var (
		res      *engine.Result
		affected int64
		maxLat   time.Duration
	)
	for shard := range s.subs {
		rr, lat, err := s.execOn(shard, ex)
		if lat > maxLat {
			maxLat = lat
		}
		if err != nil {
			// Ascending-order abort: shards before this one have applied
			// the statement. The shards share engine semantics, so a
			// genuine error (bad DDL, constraint) fails on shard 0 before
			// any state changes; divergence past shard 0 indicates a
			// harness bug and is surfaced, not masked.
			return nil, maxLat, fmt.Errorf("shard %d: %w", shard, err)
		}
		res = rr
		if rr != nil {
			affected += rr.Affected
		}
	}
	if write && res != nil {
		cp := *res
		cp.Affected = affected
		res = &cp
	}
	if st != nil {
		s.r.noteDDL(st)
	}
	return res, maxLat, nil
}

// execScatter fans a cross-shard SELECT out to every shard in parallel
// and merges the fragments. Caller holds s.mu. Inside a transaction the
// BEGIN joins happen sequentially first (they are writes on each
// shard), then the reads overlap.
func (s *Session) execScatter(sel *ast.Select, ex shardExec) (*engine.Result, time.Duration, error) {
	n := len(s.subs)
	for shard := 0; shard < n; shard++ {
		if err := s.joinTxn(shard); err != nil {
			return nil, server.BaseLatency, err
		}
	}
	results := make([]*engine.Result, n)
	lats := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for shard := 0; shard < n; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			s.r.metrics.perShard[shard].statements.Add(1)
			results[shard], lats[shard], errs[shard] = ex.run(s, shard)
		}(shard)
	}
	wg.Wait()
	var maxLat time.Duration
	for _, lat := range lats {
		if lat > maxLat {
			maxLat = lat
		}
	}
	for shard, err := range errs {
		if err != nil {
			return nil, maxLat, fmt.Errorf("shard %d: %w", shard, err)
		}
	}
	res, err := mergeScatter(sel, results)
	if err != nil {
		return nil, maxLat, err
	}
	return res, maxLat, nil
}

// firstTouched returns the lowest shard already joined to the open
// transaction, or the session's home shard when none is.
func (s *Session) firstTouched() int {
	best := -1
	for shard := range s.touched {
		if best < 0 || shard < best {
			best = shard
		}
	}
	if best < 0 {
		return s.home
	}
	return best
}

// touchedAscending lists the joined shards in ascending order.
func (s *Session) touchedAscending() []int {
	out := make([]int, 0, len(s.touched))
	for shard := range s.touched {
		out = append(out, shard)
	}
	for i := 1; i < len(out); i++ { // insertion sort; the list is tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// exSQL recovers the statement text of an executor for BEGIN replay.
func exSQL(ex shardExec) string {
	switch x := ex.(type) {
	case inlineExec:
		return string(x)
	case *stmtExec:
		return x.st.p.Text
	}
	return "BEGIN TRANSACTION"
}
