package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/shard"
	"divsql/internal/sql/types"
)

// This file is the traced run's recorder. Spans are taken only here, in
// the benchmark's own files, around the calls into each layer:
//
//	client   around each wire.Mux call (stack.go)
//	router   in a core.SessionExecutor wrapper handed to wire.NewServer
//	backend  in a shard.Backend wrapper around each DiverseServer
//
// Each layer's session appends to its own slice (a session is one
// client at a time at every layer), so recording takes no lock; the
// slices are joined after the deployment has shut down. The i-th client
// call of a session is the i-th router entry of the session it opened.

// rawSpan is one recorded interval, in nanoseconds since the tracer's
// epoch. op is the index of the router entry it belongs to (backend
// spans only; client and router spans are indexed by position).
type rawSpan struct {
	start, end int64
	op         int
}

// Statement kinds captured at router entry.
const (
	kindExec    = 'E' // Session.Exec(text)
	kindPrepare = 'P' // Session.Prepare(text)
	kindBind    = 'B' // Statement.Exec(args) of a prepared text
)

// captured is one statement as it entered the router: enough to replay
// it on a bare server, a bare replica set or a bare router.
type captured struct {
	at   int64 // entry start, orders the merged stream
	sess int
	kind byte
	text string
	args []types.Value
}

// tracer owns one deployment's spans and captured statements.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex      // guards sessions and opening
	sessions []*entrySession // in OpenSession order
	opening  *entrySession   // the session whose backend sessions are being opened
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// lastSession is the most recently opened router session: the bench
// opens its sessions one at a time, so right after wire.Mux.Session
// returns this is the session that call created.
func (t *tracer) lastSession() *entrySession {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions[len(t.sessions)-1]
}

// ---------------------------------------------------------------------------
// Router entry: the executor the wire server serves.

// entryExec wraps the router as the wire server sees it.
type entryExec struct {
	t     *tracer
	inner *shard.Router
}

var (
	_ core.SessionExecutor  = (*entryExec)(nil)
	_ core.PreparedExecutor = (*entrySession)(nil)
)

// errSessionless answers the sessionless verbs the interfaces demand:
// the bench never sends a statement outside a session, and a router
// default session would open backend sessions no span could be owed to.
var errSessionless = errors.New("bench: traced deployment takes statements only through sessions")

func (e *entryExec) Exec(string) (*engine.Result, time.Duration, error) {
	return nil, 0, errSessionless
}

func (e *entryExec) OpenSession() core.Session {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	es := &entrySession{t: e.t, id: len(e.t.sessions)}
	e.t.sessions = append(e.t.sessions, es)
	e.t.opening = es // backendExec.OpenSession runs inside the next call
	es.inner = e.inner.NewSession()
	e.t.opening = nil
	return es
}

// entrySession is one router session with a span and a captured
// statement per call.
type entrySession struct {
	t     *tracer
	id    int
	inner *shard.Session

	spans    []rawSpan
	stmts    []captured
	backends []*backendSession

	client []rawSpan // the client-side spans of the session, set by stack.go
}

func (s *entrySession) begin(kind byte, text string, args []types.Value) int64 {
	at := s.t.now()
	s.stmts = append(s.stmts, captured{at: at, sess: s.id, kind: kind, text: text, args: args})
	return at
}

func (s *entrySession) end(start int64) {
	s.spans = append(s.spans, rawSpan{start: start, end: s.t.now()})
}

func (s *entrySession) Exec(sql string) (*engine.Result, time.Duration, error) {
	start := s.begin(kindExec, sql, nil)
	res, lat, err := s.inner.Exec(sql)
	s.end(start)
	return res, lat, err
}

func (s *entrySession) Prepare(sql string) (core.Statement, error) {
	start := s.begin(kindPrepare, sql, nil)
	st, err := s.inner.Prepare(sql)
	s.end(start)
	if err != nil {
		return nil, err
	}
	return &entryStmt{Statement: st, s: s}, nil
}

func (s *entrySession) Close() error { return s.inner.Close() }

type entryStmt struct {
	core.Statement
	s *entrySession
}

func (st *entryStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	start := st.s.begin(kindBind, st.SQL(), args)
	res, lat, err := st.Statement.Exec(args...)
	st.s.end(start)
	return res, lat, err
}

// ---------------------------------------------------------------------------
// Backend entry: what the router calls for each shard.

// backendExec wraps one replica set as the router sees it.
type backendExec struct {
	t     *tracer
	shard int
	inner shard.Backend
}

var _ shard.Backend = (*backendExec)(nil)

func (b *backendExec) Exec(string) (*engine.Result, time.Duration, error) {
	return nil, 0, errSessionless
}

func (b *backendExec) Prepare(string) (core.Statement, error) { return nil, errSessionless }

// OpenSession runs inside entryExec.OpenSession (which holds t.mu), so
// t.opening names the router session this backend session belongs to.
func (b *backendExec) OpenSession() core.Session {
	bs := &backendSession{owner: b.t.opening, shard: b.shard, inner: b.inner.OpenSession()}
	bs.owner.backends = append(bs.owner.backends, bs)
	return bs
}

// backendSession is one router session's session on one shard. The
// router calls it only from inside the owner's entry span (directly, or
// from the goroutines a scatter starts there), so the owner's span
// count names the op.
type backendSession struct {
	owner *entrySession
	shard int
	inner core.Session
	spans []rawSpan
}

func (b *backendSession) record(start int64) {
	b.spans = append(b.spans, rawSpan{start: start, end: b.now(), op: len(b.owner.spans)})
}

func (b *backendSession) now() int64 { return b.owner.t.now() }

func (b *backendSession) Exec(sql string) (*engine.Result, time.Duration, error) {
	start := b.now()
	res, lat, err := b.inner.Exec(sql)
	b.record(start)
	return res, lat, err
}

func (b *backendSession) Prepare(sql string) (core.Statement, error) {
	pe, ok := b.inner.(core.PreparedExecutor)
	if !ok {
		return nil, fmt.Errorf("bench: backend session %T cannot prepare", b.inner)
	}
	start := b.now()
	st, err := pe.Prepare(sql)
	b.record(start)
	if err != nil {
		return nil, err
	}
	return &backendStmt{Statement: st, b: b}, nil
}

func (b *backendSession) Close() error { return b.inner.Close() }

type backendStmt struct {
	core.Statement
	b *backendSession
}

func (st *backendStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	start := st.b.now()
	res, lat, err := st.Statement.Exec(args...)
	st.b.record(start)
	return res, lat, err
}

// ---------------------------------------------------------------------------
// Joining the spans.

// layerTimes is the traced run's account of one window of statements:
// mean microseconds per statement spent in each layer's own code.
type layerTimes struct {
	stmts      int
	clientUS   float64 // client span
	wireSelfUS float64 // client span minus router span
	shardSelf  float64 // router span minus the union of its backend spans
	replicaset float64 // union of backend spans
	fanout     float64 // backend calls per statement
	violations int     // spans not nested in their parent
}

// union is the total length of the spans' union. Backend spans of one
// statement follow one another (transaction control visiting shards in
// order) or overlap (a scatter's fan-out); they arrive sorted by start
// only per shard, so sort first.
func union(spans []rawSpan) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, reach int64
	for i, s := range spans {
		if i == 0 || s.start > reach {
			total += s.end - s.start
			reach = s.end
		} else if s.end > reach {
			total += s.end - reach
			reach = s.end
		}
	}
	return total
}

// window is the index range of the session's statements that entered
// the router in [from, to); spans are in start order.
func (s *entrySession) window(from, to int64) (lo, hi int) {
	lo = sort.Search(len(s.spans), func(i int) bool { return s.spans[i].start >= from })
	hi = sort.Search(len(s.spans), func(i int) bool { return s.spans[i].start >= to })
	return lo, hi
}

// backendByOp groups the session's backend spans by the statement that
// caused them.
func (s *entrySession) backendByOp() map[int][]backendSpan {
	byOp := make(map[int][]backendSpan)
	for _, b := range s.backends {
		for _, sp := range b.spans {
			byOp[sp.op] = append(byOp[sp.op], backendSpan{rawSpan: sp, shard: b.shard})
		}
	}
	return byOp
}

type backendSpan struct {
	rawSpan
	shard int
}

// account joins client, router and backend spans of the statements that
// entered the router in [from, to).
func (t *tracer) account(from, to int64) (layerTimes, error) {
	var lt layerTimes
	var client, wire, shardSelf, rs, calls int64
	for _, s := range t.sessions {
		if s.client == nil {
			continue // the load session has no wire client
		}
		if len(s.client) != len(s.spans) {
			return lt, fmt.Errorf("trace: session %d has %d client spans, %d router spans", s.id, len(s.client), len(s.spans))
		}
		byOp := s.backendByOp()
		lo, hi := s.window(from, to)
		for i := lo; i < hi; i++ {
			c, e := s.client[i], s.spans[i]
			if e.start < c.start || e.end > c.end {
				lt.violations++
			}
			below := make([]rawSpan, 0, len(byOp[i]))
			for _, b := range byOp[i] {
				if b.start < e.start || b.end > e.end {
					lt.violations++
				}
				below = append(below, b.rawSpan)
			}
			u := union(below)
			lt.stmts++
			client += c.end - c.start
			wire += (c.end - c.start) - (e.end - e.start)
			shardSelf += (e.end - e.start) - u
			rs += u
			calls += int64(len(below))
		}
	}
	if lt.stmts == 0 {
		return lt, fmt.Errorf("trace: no statements in window")
	}
	n := float64(lt.stmts) * 1e3 // ns → µs per statement
	lt.clientUS = float64(client) / n
	lt.wireSelfUS = float64(wire) / n
	lt.shardSelf = float64(shardSelf) / n
	lt.replicaset = float64(rs) / n
	lt.fanout = float64(calls) / float64(lt.stmts)
	return lt, nil
}

// stream merges the sessions' captured statements that entered before
// `to` into the order the router saw them.
func (t *tracer) stream(to int64) []captured {
	var all []captured
	for _, s := range t.sessions {
		for _, c := range s.stmts {
			if c.at < to {
				all = append(all, c)
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all
}

// ---------------------------------------------------------------------------
// The span file.

// span is the on-disk form: times in nanoseconds since the tracer's
// epoch; Parent is the ID of the span that caused this one (0: none);
// the spans of one statement share Op ("<session>.<index>").
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// writeSpans writes the spans of the statements that entered the router
// in [from, to) as a JSON array, one span per line.
func (t *tracer) writeSpans(path string, from, to int64) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	n := 0
	emit := func(name string, sp rawSpan, parent int, op string) int {
		sep := ","
		if n == 0 {
			sep = "["
		}
		n++
		line, _ := json.Marshal(span{ID: n, Name: name, Start: sp.start, End: sp.end, Parent: parent, Op: op})
		_, _ = w.WriteString(sep)
		_, _ = w.Write(line)
		_ = w.WriteByte('\n')
		return n
	}
	for _, s := range t.sessions {
		if s.client == nil {
			continue
		}
		byOp := s.backendByOp()
		lo, hi := s.window(from, to)
		for i := lo; i < hi && i < len(s.client); i++ {
			op := fmt.Sprintf("%d.%d", s.id, i)
			c := emit("client", s.client[i], 0, op)
			r := emit("router", s.spans[i], c, op)
			for _, b := range byOp[i] {
				emit(fmt.Sprintf("backend%d", b.shard), b.rawSpan, r, op)
			}
		}
	}
	if n == 0 {
		_, _ = w.WriteString("[")
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return n, err
	}
	return n, f.Close()
}
