package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/middleware"
	"divsql/internal/obs"
	"divsql/internal/server"
	"divsql/internal/shard"
	"divsql/internal/sql/types"
	"divsql/internal/tpcc"
	"divsql/internal/wire"
)

// The deployment under test, the path a client statement really takes:
//
//	wire.Mux client → TCP loopback → wire.Server → shard.Router
//	(2 shards, tpcc.BandColumns) → middleware.DiverseServer (PG+OR+MS,
//	faults off) → server → engine
//
// all in one process.
const shards = 2

var replicaNames = []dialect.ServerName{dialect.PG, dialect.OR, dialect.MS}

// newReplicaSet builds one fault-free PG+OR+MS triple.
func newReplicaSet() (*middleware.DiverseServer, error) {
	servers := make([]*server.Server, 0, len(replicaNames))
	for _, n := range replicaNames {
		srv, err := server.New(n, nil)
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
	}
	return middleware.New(middleware.DefaultConfig(), servers...)
}

// newRouter builds the sharded deployment below the wire. With a tracer
// each replica set is wrapped to record backend spans.
func newRouter(t *tracer) (*shard.Router, []*middleware.DiverseServer, error) {
	sets := make([]*middleware.DiverseServer, shards)
	backends := make([]shard.Backend, shards)
	for i := range sets {
		d, err := newReplicaSet()
		if err != nil {
			return nil, nil, err
		}
		sets[i], backends[i] = d, d
		if t != nil {
			backends[i] = &backendExec{t: t, shard: i, inner: d}
		}
	}
	r, err := shard.New(shard.Config{BandColumns: tpcc.BandColumns()}, backends...)
	return r, sets, err
}

// stack is one running deployment with its client connection.
type stack struct {
	t      *tracer // nil: tracing off
	sets   []*middleware.DiverseServer
	router *shard.Router
	entry  core.SessionExecutor // what the wire server serves
	srv    *wire.Server
	mux    *wire.Mux
	reg    *obs.Registry
}

// openStack builds the deployment below the wire. The caller loads data
// through st.entry, then calls listen.
func openStack(t *tracer) (*stack, error) {
	r, sets, err := newRouter(t)
	if err != nil {
		return nil, err
	}
	st := &stack{t: t, sets: sets, router: r, entry: r}
	if t != nil {
		st.entry = &entryExec{t: t, inner: r}
	}
	return st, nil
}

// listen starts the wire server on a loopback port and dials one
// multiplexed client connection.
func (st *stack) listen() error {
	st.srv = wire.NewServer(st.entry)
	st.reg = obs.NewRegistry()
	st.reg.Register(st.srv.MetricsCollector(), st.router.MetricsCollector())
	for i, d := range st.sets {
		st.reg.Register(d.MetricsCollectorsWith(obs.L("shard", fmt.Sprint(i)))...)
	}
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	st.mux, err = wire.DialMux(addr)
	return err
}

// close shuts the client and the server down and waits for the
// server's goroutines, after which the tracer's slices are quiescent.
func (st *stack) close() {
	if st.mux != nil {
		_ = st.mux.Close()
	}
	if st.srv != nil {
		_ = st.srv.Close()
	}
}

// session opens one client session on the multiplexed connection.
func (st *stack) session() (*client, error) {
	ms, err := st.mux.Session()
	if err != nil {
		return nil, err
	}
	c := &client{sess: ms, stmts: make(map[string]*clientStmt)}
	if st.t != nil {
		c.es = st.t.lastSession()
		c.es.client = []rawSpan{}
	}
	return c, nil
}

// client adapts one wire.MuxSession to the execution contract tpcc's
// driver speaks. Prepared handles are memoised by statement text:
// tpcc.Driver drops its own handle cache on every Run, and the bench
// calls Run once per transaction to time it, so without the memo every
// transaction would re-PREPARE its templates over the wire.
type client struct {
	sess  *wire.MuxSession
	stmts map[string]*clientStmt
	calls int // wire round trips made for statements

	es *entrySession // the router session this client's session opened; nil: tracing off
}

var _ core.PreparedExecutor = (*client)(nil)

func (c *client) span(start int64) {
	if c.es != nil {
		c.es.client = append(c.es.client, rawSpan{start: start, end: c.es.t.now()})
	}
}

func (c *client) begin() int64 {
	c.calls++
	if c.es == nil {
		return 0
	}
	return c.es.t.now()
}

func (c *client) Exec(sql string) (*engine.Result, time.Duration, error) {
	start := c.begin()
	res, err := c.sess.Exec(sql)
	c.span(start)
	return fromWire(res, err)
}

func (c *client) Prepare(sql string) (core.Statement, error) {
	if st, ok := c.stmts[sql]; ok {
		return st, nil
	}
	start := c.begin()
	ms, err := c.sess.Prepare(sql)
	c.span(start)
	if err != nil {
		return nil, err
	}
	st := &clientStmt{c: c, st: ms}
	c.stmts[sql] = st
	return st, nil
}

func (c *client) close() { _ = c.sess.Close() }

// clientStmt is a memoised prepared handle; it lives as long as its
// session, so Close is a no-op.
type clientStmt struct {
	c  *client
	st *wire.MuxStmt
}

func (s *clientStmt) SQL() string    { return s.st.SQL() }
func (s *clientStmt) NumParams() int { return s.st.NumParams() }
func (s *clientStmt) Close() error   { return nil }

func (s *clientStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	start := s.c.begin()
	res, err := s.st.Exec(args...)
	s.c.span(start)
	return fromWire(res, err)
}

// fromWire converts a decoded wire response to the engine's result
// type, which is what tpcc's driver and checks read.
func fromWire(res *wire.Result, err error) (*engine.Result, time.Duration, error) {
	if err != nil {
		return nil, 0, err
	}
	out := &engine.Result{Kind: engine.ResultCount, Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}
	if len(res.Columns) > 0 {
		out.Kind = engine.ResultRows
	}
	return out, res.Latency, nil
}

// ---------------------------------------------------------------------------
// Counters scraped from the deployment's collectors.

// counters is one scrape of the registry: every sample, keyed by
// family name then by its rendered label set.
type counters map[string]map[string]float64

// scrape renders the registry and parses the exposition text back; the
// collectors' samples are not exported any other way.
func scrape(reg *obs.Registry) counters {
	out := make(counters)
	for _, line := range strings.Split(reg.Render(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if out[name] == nil {
			out[name] = make(map[string]float64)
		}
		out[name][labels] = v
	}
	return out
}

// delta reads how far the counters moved between two scrapes.
type delta struct{ before, after counters }

func (d delta) of(family string, having ...string) float64 {
	return d.after.sum(family, having...) - d.before.sum(family, having...)
}

// sum adds up a family's samples whose label set contains every given
// `name="value"` fragment.
func (c counters) sum(family string, having ...string) float64 {
	var total float64
next:
	for labels, v := range c[family] {
		for _, h := range having {
			if !strings.Contains(labels, h) {
				continue next
			}
		}
		total += v
	}
	return total
}
