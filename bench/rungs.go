package main

import (
	"fmt"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/obs"
	"divsql/internal/qgen"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
)

// middleware.New takes concrete *server.Servers, so below the backend
// span the benchmark cannot interpose. It uses rungs instead: the
// statement stream captured at router entry is replayed serially on a
// bare server.Session, a bare replica set and a bare router, and the
// traced client span is the top rung. The statements before `from`
// (load, warm-up) rebuild the state untimed; the timed window is the
// first quarter of the round's ops.

// rungs is the ladder for one window of statements, in mean
// microseconds per statement, with the single-layer timings taken over
// the same statements.
type rungs struct {
	stmts       int
	serverUS    float64            // one bare PG server.Session
	diverseUS   float64            // one bare PG+OR+MS replica set
	routerUS    float64            // the bare 2-shard router
	adjudicate  float64            // core.Adjudicate over the three bare servers' results
	parseUS     float64            // parser.Parse + ast.FingerprintOf + ast.Render, per statement of the window
	parsedShare float64            // share of the window's statements that arrive as text
	engine      map[string]float64 // the bare PG server's own counters over its whole replay
}

// replayResult is one replayed statement's outcome.
type replayResult struct {
	res *engine.Result
	err error
}

// replay runs the stream on sessions opened from `open`, one per
// captured session, in the order the router saw the statements. It
// times the statements entering at or after `from` and returns their
// mean and outcomes.
func replay(open func() core.Session, stream []captured, from int64) (float64, []replayResult, error) {
	sessions := make(map[int]core.Session)
	handles := make(map[int]map[string]core.Statement)
	defer func() {
		for _, s := range sessions {
			_ = s.Close()
		}
	}()
	var timed time.Duration
	var out []replayResult
	for _, c := range stream {
		s, ok := sessions[c.sess]
		if !ok {
			s = open()
			sessions[c.sess] = s
			handles[c.sess] = make(map[string]core.Statement)
		}
		var res *engine.Result
		var err error
		t0 := time.Now()
		switch c.kind {
		case kindExec:
			res, _, err = s.Exec(c.text)
		case kindPrepare, kindBind:
			st := handles[c.sess][c.text]
			if st == nil {
				pe, ok := s.(core.PreparedExecutor)
				if !ok {
					return 0, nil, fmt.Errorf("rung: session %T cannot prepare", s)
				}
				if st, err = pe.Prepare(c.text); err != nil {
					return 0, nil, fmt.Errorf("rung: prepare %q: %w", c.text, err)
				}
				handles[c.sess][c.text] = st
			}
			if c.kind == kindBind {
				res, _, err = st.Exec(c.args...)
			}
		}
		if c.at >= from {
			timed += time.Since(t0)
			out = append(out, replayResult{res, err})
		}
	}
	if len(out) == 0 {
		return 0, nil, fmt.Errorf("rung: no statements in window")
	}
	return float64(timed.Microseconds()) / float64(len(out)), out, nil
}

// firstError reports the first replayed statement that failed.
func firstError(rung string, out []replayResult) error {
	for i, o := range out {
		if o.err != nil {
			return fmt.Errorf("rung %s: statement %d: %w", rung, i, o.err)
		}
	}
	return nil
}

// climb replays the stream on each rung. With stack set the stream came
// from the wire deployment: the replica-set and router rungs run too,
// and a statement failing on any rung is an error (none failed live).
// The hunt's generated stream runs on the bare servers only, and its
// statements may fail: it draws level names one dialect rejects.
func climb(stream []captured, from int64, stack bool) (rungs, error) {
	var rg rungs
	perServer := make([][]replayResult, len(replicaNames))
	for i, name := range replicaNames {
		srv, err := server.New(name, nil)
		if err != nil {
			return rg, err
		}
		reg := obs.NewRegistry()
		reg.Register(srv.MetricsCollector())
		us, out, err := replay(srv.OpenSession, stream, from)
		if err != nil {
			return rg, err
		}
		if name == dialect.PG {
			rg.serverUS = us
			rg.engine = engineCounts(delta{after: scrape(reg)})
			if stack {
				if err := firstError("server", out); err != nil {
					return rg, err
				}
			}
		}
		perServer[i] = out
	}
	rg.stmts = len(perServer[0])

	opts := core.DefaultCompareOptions()
	votes := make([]core.ReplicaResult, len(replicaNames))
	t0 := time.Now()
	for i := 0; i < rg.stmts; i++ {
		for j, name := range replicaNames {
			votes[j] = core.ReplicaResult{Name: string(name), Res: perServer[j][i].res, Err: perServer[j][i].err}
		}
		verdictSink = core.Adjudicate(votes, opts)
	}
	rg.adjudicate = float64(time.Since(t0).Microseconds()) / float64(rg.stmts)

	var parsed int
	var parse time.Duration
	for _, c := range stream {
		if c.at < from || c.kind == kindBind {
			continue
		}
		parsed++
		t0 := time.Now()
		st, err := parser.Parse(c.text)
		if err == nil {
			fpSink = ast.FingerprintOf(st)
			textSink = ast.Render(st)
		}
		parse += time.Since(t0)
	}
	rg.parseUS = float64(parse.Microseconds()) / float64(rg.stmts)
	rg.parsedShare = float64(parsed) / float64(rg.stmts)

	if !stack {
		return rg, nil
	}
	set, err := newReplicaSet()
	if err != nil {
		return rg, err
	}
	us, out, err := replay(set.OpenSession, stream, from)
	if err == nil {
		err = firstError("diverse", out)
	}
	if err != nil {
		return rg, err
	}
	rg.diverseUS = us
	router, _, err := newRouter(nil)
	if err != nil {
		return rg, err
	}
	us, out, err = replay(router.OpenSession, stream, from)
	if err == nil {
		err = firstError("router", out)
	}
	rg.routerUS = us
	return rg, err
}

// Sinks keep the timed calls' results alive.
var (
	verdictSink core.Verdict
	fpSink      ast.Fingerprint
	textSink    string
)

// huntStream generates the hunt's statements standalone, as
// difftest's single stream does, and times the generator. The stream
// it returns is what the hunt's rungs replay; the adaptive retargeting
// a live hunt applies between batches is absent, so the texts match a
// live hunt's up to the first retarget only.
func huntStream(seed int64, n int) ([]captured, time.Duration) {
	cfg := huntConfig(seed, n)
	opts := *cfg.Gen
	opts.Seed = seed
	opts.MaxRowsPerTable = cfg.MaxRowsPerTable
	opts.Isolation = true
	opts.IsolationLevels = qgen.AllIsolationLevels
	gen := qgen.New(opts)
	stream := make([]captured, n)
	t0 := time.Now()
	for i := range stream {
		st := gen.Next()
		stream[i] = captured{at: int64(i), kind: kindExec, text: ast.Render(st)}
	}
	return stream, time.Since(t0)
}
