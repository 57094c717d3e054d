package difftest

// The sharded smoke: a fault-free lockstep run of generated streams
// through the shard router (internal/shard) over diverse replica sets,
// adjudicated statement by statement against the pristine oracle. The
// router runs without a band map, so every table is replicated: writes
// broadcast to every shard in ascending order, reads run on the
// session's home shard, and a transaction joins every shard its writes
// reach and commits or rolls back across them. Each stream works in its
// own name prefix, so the shared oracle stays exact under concurrent
// streams. Fault-free,
// the deployment is just a scaled-out implementation of the same SQL
// semantics, so any divergence convicts the router or the middleware —
// the sharded analogue of the fault-free differential gate.

import (
	"fmt"
	"sync"
	"time"

	"divsql/internal/dialect"
	"divsql/internal/middleware"
	"divsql/internal/qgen"
	"divsql/internal/server"
	"divsql/internal/shard"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/study"
)

// ShardedConfig parameterizes one sharded smoke run.
type ShardedConfig struct {
	// Seed drives the per-stream workload generators.
	Seed int64
	// N is the number of statements per stream (0: 1000).
	N int
	// Streams is the number of concurrent client streams, each in its
	// own namespace (0: 4).
	Streams int
	// Shards is the number of diverse replica sets behind the router
	// (0: 2).
	Shards int
}

// ShardedDivergence is one statement whose outcome through the sharded
// deployment differed from the oracle's (study.ClassifyStmt: the
// deployment's outcome is the server's).
type ShardedDivergence struct {
	Stream, Index int
	SQL           string
	Detail        string
}

// ShardedResult is the outcome of one sharded smoke run.
type ShardedResult struct {
	// Statements is the number of statements adjudicated across streams.
	Statements int
	// PerShard is the number of statements each shard's replica set
	// executed, from the router's own counters — evidence the run
	// actually spread across shards.
	PerShard []uint64
	// Routes is the router's route mix: a generator that stops reaching
	// a routing path shows up here.
	Routes shard.RouteCounts
	// Divergences lists every statement that disagreed with the oracle.
	Divergences []ShardedDivergence
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// RunSharded executes one fault-free sharded smoke run.
func RunSharded(cfg ShardedConfig) (*ShardedResult, error) {
	start := time.Now()
	if cfg.N <= 0 {
		cfg.N = 1000
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 4
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}

	mcfg := middleware.DefaultConfig()
	backends := make([]shard.Backend, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		servers := make([]*server.Server, 0, len(dialect.AllServers))
		for _, name := range dialect.AllServers {
			srv, err := server.New(name, nil)
			if err != nil {
				return nil, err
			}
			servers = append(servers, srv)
		}
		d, err := middleware.New(mcfg, servers...)
		if err != nil {
			return nil, err
		}
		backends = append(backends, d)
	}
	r, err := shard.New(shard.Config{}, backends...)
	if err != nil {
		return nil, err
	}
	orc := server.NewOracle()

	tel := SharedTelemetry()
	var (
		mu   sync.Mutex
		divs []ShardedDivergence
	)
	var wg sync.WaitGroup
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			tel.streamStarted()
			defer tel.streamDone()
			opts := qgen.CommonProfile(cfg.Seed)
			opts.Seed = cfg.Seed + int64(stream)*1_000_003
			opts.NamePrefix = fmt.Sprintf("S%d_", stream)
			opts.TableNames = nil // only prefixed names keep the streams' tables disjoint
			gen := qgen.New(opts)
			rSess := r.NewSession()
			defer rSess.Close()
			oSess := orc.NewSession()
			defer oSess.Close()
			for i := 0; i < cfg.N; i++ {
				sql := ast.Render(gen.Next())
				p, _ := stmt.Resolve(sql) // unparseable text has no handle; both sides report the error
				so := study.Outcome{SQL: sql, P: p}
				oo := so
				so.Res, so.Latency, so.Err = rSess.Exec(sql)
				oo.Res, oo.Latency, oo.Err = oSess.Exec(sql)
				tel.statements.Add(1)
				tel.execs.Add(2)
				if cls := study.ClassifyStmt(so, oo); cls.IsFailure() {
					mu.Lock()
					divs = append(divs, ShardedDivergence{Stream: stream, Index: i, SQL: sql, Detail: cls.Detail})
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()

	res := &ShardedResult{
		Statements:  cfg.N * cfg.Streams,
		Routes:      r.Routes(),
		Divergences: divs,
		Elapsed:     time.Since(start),
	}
	for _, st := range r.Status() {
		res.PerShard = append(res.PerShard, st.Statements)
	}
	return res, nil
}

// RenderSharded formats a sharded smoke result for the console.
func (res *ShardedResult) RenderSharded() string {
	out := fmt.Sprintf("sharded smoke: %d statements across %d shard(s) in %v\n",
		res.Statements, len(res.PerShard), res.Elapsed.Round(time.Millisecond))
	for i, n := range res.PerShard {
		out += fmt.Sprintf("  shard%d: %d statement(s)\n", i, n)
	}
	rt := res.Routes
	out += fmt.Sprintf("  routes: %d single, %d broadcast, %d scatter, %d rejected\n",
		rt.Single, rt.Broadcast, rt.Scatter, rt.Rejected)
	if len(res.Divergences) == 0 {
		out += "  no divergences\n"
		return out
	}
	out += fmt.Sprintf("  %d DIVERGENCES:\n", len(res.Divergences))
	for i, d := range res.Divergences {
		if i == 8 {
			out += fmt.Sprintf("  ... %d more\n", len(res.Divergences)-i)
			break
		}
		out += fmt.Sprintf("  stream %d stmt %d: %s\n    %s\n", d.Stream, d.Index, d.SQL, d.Detail)
	}
	return out
}
