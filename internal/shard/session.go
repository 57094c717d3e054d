package shard

import (
	"fmt"
	"slices"
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
	beginSQL string // the client's BEGIN text, replayed on lazy joins
	touched  []int  // shards the open transaction has reached
	ordered  bool   // the open transaction ran a broadcast: it ends under r.order
}

// OpenSession opens a session on every shard. Implements
// core.SessionExecutor.
func (r *Router) OpenSession() core.Session { return r.NewSession() }

// NewSession opens a session with its concrete type.
func (r *Router) NewSession() *Session {
	s := &Session{r: r}
	for _, b := range r.backends {
		s.subs = append(s.subs, b.OpenSession())
	}
	s.home = int((r.nextHome.Add(1) - 1) % uint64(len(r.backends)))
	return s
}

// Close rolls back the session's open transaction (on the shards it
// reached) and releases every per-shard session.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inTxn && s.ordered {
		s.r.order.Lock()
		defer s.r.order.Unlock()
	}
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
		return s.execTxnControl(p, ex)
	case routeSingle:
		r.metrics.single.Add(1)
		if rt.shared {
			r.order.RLock()
			defer r.order.RUnlock()
		}
		return s.execOn(rt.shard, ex)
	case routeBroadcast:
		return s.execBroadcast(p, ex, rt.sum)
	case routeScatter:
		r.metrics.scatter.Add(1)
		r.order.RLock()
		defer r.order.RUnlock()
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
	if !s.inTxn || slices.Contains(s.touched, shard) {
		return nil
	}
	if _, _, err := s.subs[shard].Exec(s.beginSQL); err != nil {
		return fmt.Errorf("shard %d: propagating %s: %w", shard, s.beginSQL, err)
	}
	s.touched = append(s.touched, shard)
	return nil
}

// execTxnControl handles BEGIN/COMMIT/ROLLBACK.
//
// BEGIN is not sent anywhere: the session only records that a
// transaction is open, and shards join it on first contact (joinTxn).
// The synthesized result matches the engine's (*Result{Kind:
// ResultDDL}, base latency), so lockstep comparisons against an
// unsharded oracle agree. A second BEGIN runs on the home shard (joining
// it) so the engine's own "transaction already in progress" error
// surfaces. COMMIT/ROLLBACK visit exactly the joined shards in
// ascending order.
func (s *Session) execTxnControl(p *stmt.Parsed, ex shardExec) (*engine.Result, time.Duration, error) {
	switch p.AST.(type) {
	case *ast.Begin:
		if s.inTxn {
			return s.execOn(s.home, ex)
		}
		s.inTxn = true
		s.beginSQL = p.Text
		return &engine.Result{Kind: engine.ResultDDL}, server.BaseLatency, nil
	default: // Commit, Rollback
		if !s.inTxn {
			// No transaction: forward for the engine's authentic outcome.
			return ex.run(s, s.home)
		}
		targets := s.touched
		slices.Sort(targets)
		if s.ordered {
			s.r.order.Lock()
			defer s.r.order.Unlock()
		}
		// No shard joins while the transaction ends: targets stays intact.
		s.inTxn, s.ordered, s.touched = false, false, targets[:0]
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
				if _, isCommit := p.AST.(*ast.Commit); isCommit {
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

// execBroadcast runs a statement on every shard in ascending order and
// reports the slowest shard's latency (shards execute back to back, but
// each models an independent replica set — the deployment's wall-clock
// cost is the slowest one's). With sum, each shard wrote its own
// fragment and the affected counts add up; otherwise every shard ran
// the statement on an identical copy and must answer alike, and the
// answer is reported once. Anything but SET TRANSACTION holds r.order.
func (s *Session) execBroadcast(p *stmt.Parsed, ex shardExec, sum bool) (*engine.Result, time.Duration, error) {
	s.r.metrics.broadcast.Add(1)
	if p.Class != stmt.ClassSetTxn {
		s.r.order.Lock()
		defer s.r.order.Unlock()
		if s.inTxn {
			s.ordered = true
		}
	}
	var (
		ref      *engine.Result // the first shard's answer
		refShard int
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
		if rr == nil {
			continue
		}
		if ref == nil {
			ref, refShard = rr, shard
		} else if !sum && !core.Equal(ref, rr, core.CompareOptions{}) {
			// Copies that agree before a statement agree after it; a
			// shard that answers differently has diverged, which is
			// surfaced like an error past shard 0.
			if rr.Kind != engine.ResultRows {
				return nil, maxLat, fmt.Errorf("shard %d: replicated write affected %d rows, shard %d affected %d", shard, rr.Affected, refShard, ref.Affected)
			}
			return nil, maxLat, fmt.Errorf("shard %d: replicated query answered differently from shard %d: %s", shard, refShard, core.Diff(ref, rr, core.CompareOptions{}))
		}
		affected += rr.Affected
	}
	if sum && ref != nil {
		cp := *ref
		cp.Affected = affected
		ref = &cp
	}
	s.r.noteDDL(p)
	return ref, maxLat, nil
}

// execScatter fans a cross-shard SELECT out to every shard in parallel
// and merges the fragments. Caller holds s.mu. Inside a transaction the
// BEGIN joins happen sequentially first (they are writes on each
// shard), then the reads overlap.
func (s *Session) execScatter(sel *ast.Select, ex shardExec) (*engine.Result, time.Duration, error) {
	n := len(s.subs)
	for shard := range n {
		if err := s.joinTxn(shard); err != nil {
			return nil, server.BaseLatency, err
		}
	}
	results := make([]*engine.Result, n)
	lats := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for shard := range n {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			s.r.metrics.perShard[shard].statements.Add(1)
			results[shard], lats[shard], errs[shard] = ex.run(s, shard)
		}(shard)
	}
	wg.Wait()
	maxLat := slices.Max(lats)
	for shard, err := range errs {
		if err != nil {
			return nil, maxLat, fmt.Errorf("shard %d: %w", shard, err)
		}
	}
	res, err := mergeScatter(sel, results)
	return res, maxLat, err
}
