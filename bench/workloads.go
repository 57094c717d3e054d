package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"divsql/internal/core"
	"divsql/internal/difftest"
	"divsql/internal/sql/types"
	"divsql/internal/tpcc"
)

// Every round does a fixed amount of work on a freshly built
// deployment, never a fixed duration: TPC-C's tables grow, so a timed
// round would hand a faster build more growth and shrink its own gain.
// A run repeats whole rounds until its time is used up and reports the
// median round; how many rounds fit is the only thing that depends on
// the build's speed.

// sizes fixes a round's work.
type sizes struct {
	tpccTx     int // transactions per terminal and round
	pointOps   int // point reads per client and round
	huntStmts  int // generated statements per hunt
	precheck   int // fault-free statements before each hunt
	tpccTables tpcc.Config
	readTables tpcc.Config // pointread's tables, which never grow
}

// fullSizes are the sizes every reported number is taken at; a round
// takes two to three seconds on two cores.
func fullSizes() sizes {
	return sizes{
		tpccTx:     1500,
		pointOps:   20000,
		huntStmts:  6000,
		precheck:   2000,
		tpccTables: tpcc.Config{Warehouses: 2, DistrictsPerWH: 10, CustomersPerDistrict: 30, Items: 100},
		readTables: tpcc.Config{Warehouses: 4, DistrictsPerWH: 10, CustomersPerDistrict: 100, Items: 1000},
	}
}

// clients is the number of closed-loop client sessions: callers of a
// database each wait for their reply. GOMAXPROCS is left alone.
func clients() int { return min(2, runtime.NumCPU()) }

// warmShare is the share of a round's ops run before the timer starts:
// handles prepared, plan caches filled, lazy indexes built.
const warmShare = 20 // one twentieth: 5 %

// round is what one round measured.
type round struct {
	ops       int // timed ops
	attempted int // timed and warm-up ops
	failed    int // attempted ops that errored or failed their output check
	stmts     int // client statements behind the timed ops (0: not a wire workload)
	elapsed   time.Duration
	setup     time.Duration
	cpu       time.Duration // process user+sys over the timed section
	mallocs   uint64        // heap objects allocated over the timed section
	lat       []time.Duration

	checkErr error // an output check that failed after the timed section

	// Per-layer counts over the timed section (counter deltas).
	layer map[string]float64

	// Traced rounds only.
	t             *tracer
	from, quarter int64      // tracer times: timer start, first client past a quarter of its ops
	times         layerTimes // the spans of [from, quarter) joined
}

// usage is the process's CPU time so far.
func usage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets a timed section.
type meter struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
}

// startMeter collects garbage left by set-up, then starts the clock.
func startMeter() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: usage(), mallocs: ms.Mallocs, start: time.Now()}
}

func (m meter) stop(r *round) {
	r.elapsed = time.Since(m.start)
	r.cpu = usage() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m.mallocs
}

// ---------------------------------------------------------------------------
// Wire workloads: tpcc-prepared, tpcc-inline, pointread.

// opFunc runs one op on a client session and reports whether it failed.
type opFunc func(c *client) (failed bool)

// wireRound builds the deployment, loads tables, warms up and runs
// `ops` ops on each client session in a closed loop. newOps returns
// client k's op function (k is one-based, like tpcc's terminals);
// check, when not nil, verifies the final state through the wire.
func wireRound(tables tpcc.Config, ops int, t *tracer, newOps func(k int) opFunc,
	check func(core.Executor) error) (*round, error) {
	began := time.Now()
	st, err := openStack(t)
	if err != nil {
		return nil, err
	}
	defer st.close()
	load := st.entry.OpenSession()
	if err := tpcc.Setup(load, tables); err != nil {
		return nil, err
	}
	_ = load.Close()
	if err := st.listen(); err != nil {
		return nil, err
	}
	n := clients()
	sessions := make([]*client, n)
	fns := make([]opFunc, n)
	for k := range sessions {
		if sessions[k], err = st.session(); err != nil {
			return nil, err
		}
		// As tpcc.RunConcurrent's terminals do: declare the level the
		// disjoint-writer contract needs.
		if _, _, err := sessions[k].Exec("SET TRANSACTION ISOLATION LEVEL READ COMMITTED"); err != nil {
			return nil, err
		}
		fns[k] = newOps(k + 1)
	}
	r := &round{ops: n * ops, attempted: n * (ops + ops/warmShare), t: t, lat: make([]time.Duration, n*ops)}
	each := func(body func(k int)) {
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				body(k)
			}(k)
		}
		wg.Wait()
	}
	failed := make([]int, n)
	each(func(k int) {
		for i := 0; i < ops/warmShare; i++ {
			if fns[k](sessions[k]) {
				failed[k]++
			}
		}
	})
	r.setup = time.Since(began)

	before := scrape(st.reg)
	for _, c := range sessions {
		c.calls = 0
	}
	quarter := make([]int64, n)
	m := startMeter()
	if t != nil {
		r.from = t.now()
	}
	each(func(k int) {
		c, fn, lat := sessions[k], fns[k], r.lat[k*ops:(k+1)*ops]
		for i := range lat {
			t1 := time.Now()
			if fn(c) {
				failed[k]++
			}
			lat[i] = time.Since(t1)
			if t != nil && i+1 == (ops+3)/4 {
				quarter[k] = t.now()
			}
		}
	})
	m.stop(r)
	if t != nil {
		r.quarter = slices.Min(quarter)
	}
	after := scrape(st.reg)
	for k := range sessions {
		r.failed += failed[k]
		r.stmts += sessions[k].calls
	}
	r.layer = layerCounts(delta{before, after}, r)

	checker, err := st.session()
	if err != nil {
		return nil, err
	}
	if check != nil {
		r.checkErr = check(checker)
	}
	if r.checkErr == nil {
		r.checkErr = checkPrepares(after, sessions)
	}
	checker.close()
	for _, c := range sessions {
		c.close()
	}
	return r, nil
}

// checkPrepares asserts the prepared-handle memo works: by the end of
// the timed section the wire server saw exactly one PREPARE frame per
// distinct template and session.
func checkPrepares(after counters, sessions []*client) error {
	want := 0
	for _, c := range sessions {
		want += len(c.stmts)
	}
	if got := int(after.sum("divsql_wire_requests_total", `frame="PREPARE"`)); got != want {
		return fmt.Errorf("wire server saw %d PREPARE frames, want %d (distinct templates × sessions)", got, want)
	}
	return nil
}

// share is a/b, or 0 when nothing was counted.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts turns counter deltas over the timed section into the
// per-layer count metrics.
func layerCounts(d delta, r *round) map[string]float64 {
	stmts := float64(r.stmts)
	routed := d.of("divsql_shard_statements_total")
	mw := d.of("divsql_middleware_statements_total")
	outvoted := d.of("divsql_middleware_masked_failures_total") + d.of("divsql_middleware_detected_splits_total") +
		d.of("divsql_middleware_replica_errors_total") + d.of("divsql_middleware_crashes_detected_total")
	m := engineCounts(d)
	m["wire_bytes_per_stmt"] = share(d.of("divsql_wire_bytes_in_total")+d.of("divsql_wire_bytes_out_total"), stmts)
	m["wire_frames_per_stmt"] = share(d.of("divsql_wire_requests_total"), stmts)
	m["shard_single_share"] = share(d.of("divsql_shard_single_total"), routed)
	m["shard_scatter_share"] = share(d.of("divsql_shard_scatter_total"), routed)
	m["shard_broadcast_share"] = share(d.of("divsql_shard_broadcast_total"), routed)
	m["middleware_unanimous_share"] = share(d.of("divsql_middleware_unanimous_total"), mw)
	m["middleware_outvoted"] = outvoted
	m["middleware_resyncs"] = d.of("divsql_middleware_resyncs_total")
	return m
}

// engineCounts are the engines' own counters, summed over every replica
// scraped: plan-cache hit rate and the SELECTs' access paths (the
// interpreter's fallback scans whole tables).
func engineCounts(d delta) map[string]float64 {
	hits, misses := d.of("divsql_engine_plan_cache_hits_total"), d.of("divsql_engine_plan_cache_misses_total")
	point := d.of("divsql_engine_compiled_exec_total", `path="point-lookup"`)
	ranged := d.of("divsql_engine_compiled_exec_total", `path="range-scan"`)
	full := d.of("divsql_engine_compiled_exec_total", `path="full-scan"`) + d.of("divsql_engine_interpreted_selects_total")
	selects := point + ranged + full
	return map[string]float64{
		"plan_cache_hit_rate": share(hits, hits+misses),
		"engine_point_share":  share(point, selects),
		"engine_range_share":  share(ranged, selects),
		"engine_full_share":   share(full, selects),
	}
}

// tpccRound is one round of tpcc-prepared or tpcc-inline: the default
// mix, one terminal per client session, each pinned to its own
// warehouse. An op is one transaction.
func tpccRound(seed int64, z sizes, prepared bool, t *tracer) (*round, error) {
	tables := z.tpccTables
	tables.Seed = seed
	newOps := func(k int) opFunc {
		d := tpcc.NewTerminalDriver(tables, tpcc.DefaultMix(), k)
		d.SetPrepared(prepared)
		return func(c *client) bool {
			m, err := d.Run(c, 1)
			return err != nil || m.Errors > 0
		}
	}
	return wireRound(tables, z.tpccTx, t, newOps, tpcc.CheckConsistency)
}

// The point reads, round-robin: a banded table by its full primary key
// (two of them) and the replicated table by its key.
const (
	readCustomer = "SELECT C_NAME FROM CUSTOMER WHERE C_W_ID = ? AND C_D_ID = ? AND C_ID = ?"
	readStock    = "SELECT S_QUANTITY FROM STOCK WHERE S_W_ID = ? AND S_I_ID = ?"
	readItem     = "SELECT I_NAME FROM ITEM WHERE I_ID = ?"
)

// pointGen draws one client's keys, uniformly; the tables never grow.
type pointGen struct {
	rng    *rand.Rand
	tables tpcc.Config
	i      int
}

func newPointGen(seed int64, k int, tables tpcc.Config) *pointGen {
	return &pointGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(k))), tables: tables}
}

// next returns the statement, its arguments and the value tpcc.Setup
// wrote under that key.
func (g *pointGen) next() (string, []types.Value, types.Value) {
	g.i++
	vi := func(n int) types.Value { return types.NewInt(int64(n)) }
	w := 1 + g.rng.Intn(g.tables.Warehouses)
	switch g.i % 3 {
	case 0:
		d, c := 1+g.rng.Intn(g.tables.DistrictsPerWH), 1+g.rng.Intn(g.tables.CustomersPerDistrict)
		return readCustomer, []types.Value{vi(w), vi(d), vi(c)}, types.NewString(fmt.Sprintf("cust_%d_%d_%d", w, d, c))
	case 1:
		return readStock, []types.Value{vi(w), vi(1 + g.rng.Intn(g.tables.Items))}, vi(100)
	default:
		i := 1 + g.rng.Intn(g.tables.Items)
		return readItem, []types.Value{vi(i)}, types.NewString(fmt.Sprintf("item_%d", i))
	}
}

// pointRound is one round of pointread. An op is one statement, and
// every row is compared with the value set-up wrote.
func pointRound(seed int64, z sizes, t *tracer) (*round, error) {
	newOps := func(k int) opFunc {
		g := newPointGen(seed, k, z.readTables)
		return func(c *client) bool {
			q, args, want := g.next()
			st, err := c.Prepare(q)
			if err != nil {
				return true
			}
			res, _, err := st.Exec(args...)
			return err != nil || len(res.Rows) != 1 || len(res.Rows[0]) != 1 || !types.Identical(res.Rows[0][0], want)
		}
	}
	return wireRound(z.readTables, z.pointOps, t, newOps, nil)
}

// ---------------------------------------------------------------------------
// hunt: the research user's workload, in process.

// huntConfig is the armed hunt of one seed. One stream, because one
// stream is exactly reproducible; two vary by a fifth.
func huntConfig(seed int64, n int) difftest.Config {
	cfg := difftest.CalibratedConfig(seed, n)
	cfg.Streams = 1
	cfg.Adaptive = true
	cfg.MaxRowsPerTable = 16
	cfg.Shrink = false
	cfg.Telemetry = &difftest.Telemetry{}
	return cfg
}

// precheckSeed fixes the fault-free pre-check's stream. The pre-check is
// the harness's self-test, and a clean stream's cost varies threefold
// with its seed: the same stream in every run keeps the hunt's setup_s
// comparable between seeds.
const precheckSeed = 1

// huntRound runs the fault-free pre-check (its set-up: it must report
// zero divergences) and then the armed hunt. An op is one generated
// statement adjudicated five ways; the round's divergence count is
// compared across rounds by the caller.
func huntRound(seed int64, z sizes) (*round, error) {
	began := time.Now()
	pre := difftest.DefaultConfig(precheckSeed, z.precheck)
	pre.Telemetry = &difftest.Telemetry{}
	clean, err := difftest.Run(pre)
	if err != nil {
		return nil, err
	}
	r := &round{ops: z.huntStmts, attempted: z.huntStmts, setup: time.Since(began)}
	if clean.Raw != 0 {
		r.checkErr = fmt.Errorf("fault-free pre-check reported %d divergences", clean.Raw)
	}
	m := startMeter()
	res, err := difftest.Run(huntConfig(seed, z.huntStmts))
	m.stop(r)
	if err != nil {
		return nil, err
	}
	r.layer = map[string]float64{"hunt_divergences": float64(res.Raw)}
	return r, nil
}
