// Package shard implements the horizontal scale-out layer of the
// diverse-replication middleware: a Router that partitions statements
// across N independent diverse replica sets ("shards"), each with its
// own adjudication loop, quarantine policy, resync machinery and
// metrics families.
//
// One DiverseServer is one adjudication loop: every write takes the
// set's exclusive statement lock, so a single replica set cannot scale
// past the loop's capacity no matter how many clients connect. The
// Router multiplies that unit. It is a core.SessionExecutor like the
// middleware itself, so every existing workload driver (tpcc, difftest,
// the wire server, sqldriver) can front a sharded deployment unchanged.
//
// # Placement
//
// One rule places every table. A table named in Config.BandColumns is
// partitioned: every shard holds the table, and its rows split by the
// value of its band column (tpcc: the *W_ID column), shard = band % N.
// Every other table — every table when the map is empty — is
// replicated: every shard holds all of its rows.
//
// DDL broadcasts to every shard in ascending order. DML with an
// equality predicate or VALUES entry on the band column routes to the
// owning shard; band-free writes to a banded table broadcast (affected
// counts summed over the fragments); band-free SELECTs over a banded
// table scatter-gather: fan out to every shard in parallel, each shard
// adjudicating its fragment across its own replicas, then merge
// (concatenate, re-sort by ORDER BY, recombine COUNT/SUM/MIN/MAX
// aggregates). Writes to a replicated table broadcast and report the
// count once; reads that touch only replicated tables pin to the
// session's home shard. A view is banded when it reads a banded table
// or a banded view, and then scatters on read; any other view routes
// like a replicated table. Sequences are replicated too: a statement
// that advances one (it calls NEXTVAL or reads a view that does)
// broadcasts, a SELECT included, and answers once; over a banded table
// it is rejected, and so is a banded table whose DEFAULT or CHECK would
// advance one.
//
// # Ordering rules (deadlock and determinism)
//
//   - Multi-shard statements (DDL broadcast, band-free writes,
//     transaction control) always visit shards in ascending index
//     order — the cross-shard analogue of the engine's sorted
//     table-latch order, so two sessions can never deadlock across
//     shards.
//   - State-changing broadcasts, and the end (COMMIT, ROLLBACK, Close)
//     of a transaction that ran one, hold the router's order lock: every
//     shard applies replicated writes and their undoing in one global
//     order, so conflicting writes leave the copies alike. Scatters and
//     single-shard reads of a replicated table hold it shared, so they
//     see a broadcast on every shard or on none. It cannot deadlock:
//     every lock below the router is released when its statement ends.
//   - Scatter-gather reads fan out concurrently and merge in ascending
//     shard order, so the merged row order is deterministic for a given
//     per-shard order.
//   - BEGIN propagates lazily: a shard joins a session's transaction
//     the first time a statement inside the transaction routes to it,
//     and COMMIT/ROLLBACK visit exactly the joined shards, in
//     ascending order. An untouched shard never learns the transaction
//     existed, which is what keeps per-shard adjudication loops
//     independent under transactional load.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Backend is what one shard fronts: any endpoint.
// *middleware.DiverseServer is one; so is *server.Server, which tests
// use for single-replica shards.
type Backend = core.SessionExecutor

// Config is the deployment's placement map.
type Config struct {
	// BandColumns maps TABLE name (upper case) to its band column name.
	// Tables absent from the map (every table when it is empty) are
	// replicated to every shard: writes broadcast, reads pin to the
	// session's home shard.
	BandColumns map[string]string
}

// tableInfo is the router's catalog entry for a banded table, or for a
// view that is banded or whose reading advances a sequence.
type tableInfo struct {
	bandIdx  int  // band column position in CREATE TABLE order; -1 unknown
	banded   bool // a banded view: scatters on read
	advances bool // a view whose reading advances a sequence
}

// seqFuncs names the builtins that advance a sequence.
var seqFuncs = func() map[string]bool {
	m := map[string]bool{}
	for name, b := range engine.AllBuiltins() {
		if b.SeqFunc {
			m[name] = true
		}
	}
	return m
}()

// Router routes statements across shards. It implements
// core.SessionExecutor.
type Router struct {
	cfg      Config
	backends []Backend
	names    []string

	mu      sync.RWMutex // guards catalog
	catalog map[string]*tableInfo

	order sync.RWMutex // see "Ordering rules"

	nextHome atomic.Uint64 // round-robin home-shard assignment

	metrics routerMetrics
}

// New builds a router over the given shard backends.
func New(cfg Config, backends ...Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("shard: router needs at least one shard")
	}
	r := &Router{
		cfg:      cfg,
		backends: backends,
		catalog:  make(map[string]*tableInfo),
	}
	for i := range backends {
		r.names = append(r.names, fmt.Sprintf("shard%d", i))
	}
	r.metrics.perShard = make([]shardCounters, len(backends))
	return r, nil
}

// shardOfBand maps a band value onto a shard: integers partition by
// value modulo N (so adjacent bands land on different shards — tpcc's
// warehouse-pinned terminals spread evenly), anything else by hash of
// its rendering.
func (r *Router) shardOfBand(v types.Value) int {
	n := len(r.backends)
	if v.K == types.KindInt {
		return int(((v.I % int64(n)) + int64(n)) % int64(n))
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(v.String()))
	return int(h.Sum32() % uint32(n))
}

// ---------------------------------------------------------------------------
// Route analysis

type routeKind int

const (
	routeSingle    routeKind = iota + 1 // one owning shard
	routeScatter                        // read fan-out + merge
	routeBroadcast                      // write on every shard, ascending
	routeTxn                            // BEGIN/COMMIT/ROLLBACK
)

type route struct {
	kind  routeKind
	shard int // routeSingle only
	// sum marks a broadcast write over a banded table: each shard
	// writes its own fragment, so the affected counts add up. Any other
	// broadcast applies one write to identical copies and reports its
	// count once.
	sum    bool
	shared bool // a single-shard read of a replicated table: holds order shared
}

// analyze classifies one resolved statement. args carries the
// execution's typed arguments when the statement came through the
// prepared path (band predicates over placeholders resolve per
// execution); home is the session's home shard, where a SELECT that
// reads only replicated tables, or no table, runs.
func (r *Router) analyze(p *stmt.Parsed, args []types.Value, home int) (route, error) {
	switch p.Class {
	case stmt.ClassBegin, stmt.ClassEnd:
		return route{kind: routeTxn}, nil
	case stmt.ClassSetTxn: // a session-level default every shard keeps
		return route{kind: routeBroadcast}, nil
	}
	var rt route
	var err error
	st := p.AST
	switch x := st.(type) {
	case *ast.CreateTable:
		if r.bandColumnOf(x.Name) != "" && r.writesAdvanceSequence(x) {
			return route{}, fmt.Errorf("shard: banded table %s with a DEFAULT or CHECK advancing a sequence cannot be routed (every shard holds the sequence)", strings.ToUpper(x.Name))
		}
		return route{kind: routeBroadcast}, nil
	case *ast.CreateView, *ast.CreateIndex, *ast.CreateSequence,
		*ast.DropTable, *ast.DropView, *ast.DropIndex, *ast.DropSequence:
		return route{kind: routeBroadcast}, nil
	case *ast.Insert:
		rt, err = r.analyzeInsert(x, p.Fingerprint.Tables, args)
	case *ast.Update:
		rt, err = r.analyzeWrite(strings.ToUpper(x.Table), x.Where, args)
	case *ast.Delete:
		rt, err = r.analyzeWrite(strings.ToUpper(x.Table), x.Where, args)
	case *ast.Select:
		rt, err = r.analyzeSelect(x, p.Fingerprint.Tables, args, home)
	default:
		return route{}, fmt.Errorf("shard: cannot route %T", st)
	}
	if err != nil {
		return route{}, err
	}
	tables := p.Fingerprint.Tables
	if r.advancesSequence(p) {
		// Every shard holds the sequence: advance each copy alike.
		if i := slices.IndexFunc(tables, r.bandedRef); i >= 0 {
			return route{}, fmt.Errorf("shard: statement advancing a sequence over banded table %s cannot be routed (every shard holds the sequence)", tables[i])
		}
		rt = route{kind: routeBroadcast}
	}
	if rt.kind == routeSingle {
		// Its subqueries run on one shard, which is what the band
		// predicate asked for.
		rt.shared = slices.ContainsFunc(tables, func(t string) bool { return !r.bandedRef(t) })
		return rt, nil
	}
	// The statement is about to run on more than one shard (scatter or
	// broadcast): a subquery over a banded table would evaluate against
	// each shard's local fragment only — shards would filter by
	// different values and the merged outcome would be silently wrong.
	// The co-partitioning assumption covers joins, not global-aggregate
	// subqueries, so reject deterministically.
	if t := subqueryRef(st, r.bandedRef); t != "" {
		return route{}, fmt.Errorf("shard: multi-shard statement with a subquery over banded table %s cannot be routed (add a band predicate)", t)
	}
	return rt, nil
}

// subqueryRef returns the first table or view that a subquery
// expression of the statement reads and pred accepts, or "".
func subqueryRef(st ast.Statement, pred func(name string) bool) string {
	var found string
	check := func(sub *ast.Select) {
		if sub == nil || found != "" {
			return
		}
		for t := range ast.Tables(sub) {
			if pred(t) {
				found = t
				return
			}
		}
	}
	ast.WalkStatementExprs(st, func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.In:
			check(x.Select)
		case *ast.Exists:
			check(x.Select)
		case *ast.Subquery:
			check(x.Select)
		}
	})
	return found
}

// advancesSequence reports whether executing the statement advances a
// sequence: it calls a sequence function or reads a view that does.
func (r *Router) advancesSequence(p *stmt.Parsed) bool {
	for _, fn := range p.Fingerprint.Funcs {
		if seqFuncs[fn] {
			return true
		}
	}
	return slices.ContainsFunc(p.Fingerprint.Tables, r.advancingView)
}

// advancingView reports whether reading the named view (upper case)
// advances a sequence.
func (r *Router) advancingView(name string) bool {
	r.mu.RLock()
	ti := r.catalog[name]
	r.mu.RUnlock()
	return ti != nil && ti.advances
}

// writesAdvanceSequence reports whether a table's DEFAULT or CHECK
// calls a sequence function, or reads a view that does: then every
// write to the table advances a sequence.
func (r *Router) writesAdvanceSequence(ct *ast.CreateTable) bool {
	adv := subqueryRef(ct, r.advancingView) != ""
	ast.WalkStatementExprs(ct, func(e ast.Expr) {
		if f, ok := e.(*ast.FuncCall); ok && seqFuncs[strings.ToUpper(f.Name)] {
			adv = true
		}
	})
	return adv
}

// bandColumnOf reports the band column of a table ("" = replicated).
func (r *Router) bandColumnOf(table string) string {
	return r.cfg.BandColumns[strings.ToUpper(table)]
}

// bandedRef reports whether a referenced name (upper case) is a banded
// table or a banded view: each shard holds a fragment of its rows.
func (r *Router) bandedRef(name string) bool {
	if r.bandColumnOf(name) != "" {
		return true
	}
	r.mu.RLock()
	ti := r.catalog[name]
	r.mu.RUnlock()
	return ti != nil && ti.banded
}

// analyzeInsert routes an INSERT (tables: every table it names) by the
// band value in its VALUES rows.
func (r *Router) analyzeInsert(ins *ast.Insert, tables []string, args []types.Value) (route, error) {
	table := strings.ToUpper(ins.Table)
	band := r.bandColumnOf(table)
	if band == "" {
		// Replicated table: the row must exist on every shard. A source
		// SELECT over a banded table would feed each replica its local
		// fragment only, silently diverging the replicas.
		if i := slices.IndexFunc(tables, r.bandedRef); ins.Select != nil && i >= 0 {
			return route{}, fmt.Errorf("shard: INSERT ... SELECT from banded table %s into replicated table %s cannot be routed", tables[i], table)
		}
		return route{kind: routeBroadcast}, nil
	}
	if ins.Select != nil {
		return route{}, fmt.Errorf("shard: INSERT ... SELECT into banded table %s cannot be routed", table)
	}
	idx := -1
	if len(ins.Columns) > 0 {
		idx = slices.IndexFunc(ins.Columns, func(c string) bool { return strings.EqualFold(c, band) })
	} else {
		r.mu.RLock()
		if ti := r.catalog[table]; ti != nil {
			idx = ti.bandIdx
		}
		r.mu.RUnlock()
	}
	if idx < 0 {
		return route{}, fmt.Errorf("shard: unknown band column position for %s (CREATE TABLE did not pass through the router)", table)
	}
	shard := -1
	for _, row := range ins.Rows {
		if idx >= len(row) {
			return route{}, fmt.Errorf("shard: INSERT into %s omits band column %s", table, band)
		}
		v, ok := resolveValue(row[idx], args)
		if !ok {
			return route{}, fmt.Errorf("shard: band column %s of %s must be a literal or parameter", band, table)
		}
		s := r.shardOfBand(v)
		if shard >= 0 && s != shard {
			return route{}, fmt.Errorf("shard: multi-row INSERT into %s spans shards", table)
		}
		shard = s
	}
	if shard < 0 {
		return route{}, fmt.Errorf("shard: INSERT into %s carries no rows", table)
	}
	return route{kind: routeSingle, shard: shard}, nil
}

// analyzeWrite routes an UPDATE/DELETE by band-equality predicates in
// its WHERE clause. A write without one broadcasts: over a banded
// table's fragments, or to every copy of a replicated table.
func (r *Router) analyzeWrite(table string, where ast.Expr, args []types.Value) (route, error) {
	band := r.bandColumnOf(table)
	if band == "" {
		return route{kind: routeBroadcast}, nil
	}
	if shard, ok := r.bandShardFromWhere(where, band, args); ok {
		return route{kind: routeSingle, shard: shard}, nil
	}
	return route{kind: routeBroadcast, sum: true}, nil
}

// analyzeSelect routes a SELECT.
func (r *Router) analyzeSelect(sel *ast.Select, refs []string, args []types.Value, home int) (route, error) {
	// Collect the band columns of the referenced banded tables; a banded
	// view forces a scatter (its expansion is unknown here, but every
	// shard holds the view over its own fragment).
	bands := map[string]bool{}
	anyView := false
	r.mu.RLock()
	for _, t := range refs {
		if b := r.bandColumnOf(t); b != "" {
			bands[strings.ToUpper(b)] = true
		} else if ti := r.catalog[t]; ti != nil && ti.banded {
			anyView = true
		}
	}
	r.mu.RUnlock()
	if len(bands) == 0 && !anyView {
		// Replicated tables only, or none: every shard has the full data.
		return route{kind: routeSingle, shard: home}, nil
	}
	// A band-equality predicate on any referenced banded table pins the
	// statement (tpcc: every terminal statement carries W_ID = ?). The
	// predicates must agree on one shard; disagreeing bands (a cross-
	// warehouse join) scatter instead.
	shard := -1
	agree := true
	for bandCol := range bands {
		if s, ok := r.bandShardFromWhere(sel.Where, bandCol, args); ok {
			if shard >= 0 && s != shard {
				agree = false
			}
			shard = s
		}
	}
	if shard >= 0 && agree && !anyView {
		return route{kind: routeSingle, shard: shard}, nil
	}
	return route{kind: routeScatter}, nil
}

// bandShardFromWhere finds an equality predicate <bandCol> = <value> in
// the top-level AND chain of a WHERE clause and maps it to a shard. It
// descends only through AND — a band predicate under OR does not pin
// the statement (the other branch may match rows on other shards).
func (r *Router) bandShardFromWhere(where ast.Expr, bandCol string, args []types.Value) (int, bool) {
	shard, found := -1, false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if found {
			return
		}
		b, ok := e.(*ast.Binary)
		if !ok {
			return
		}
		switch b.Op {
		case ast.OpAnd:
			walk(b.L)
			walk(b.R)
		case ast.OpEq:
			col, val := b.L, b.R
			if _, ok := col.(*ast.ColumnRef); !ok {
				col, val = b.R, b.L
			}
			cr, ok := col.(*ast.ColumnRef)
			if !ok || !strings.EqualFold(cr.Column, bandCol) {
				return
			}
			v, ok := resolveValue(val, args)
			if !ok {
				return
			}
			shard, found = r.shardOfBand(v), true
		}
	}
	if where != nil {
		walk(where)
	}
	return shard, found
}

// resolveValue evaluates a routing-relevant expression: a literal, or a
// parameter resolved against this execution's argument vector.
func resolveValue(e ast.Expr, args []types.Value) (types.Value, bool) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, true
	case *ast.Param:
		if x.N >= 1 && x.N <= len(args) {
			return args[x.N-1], true
		}
	}
	return types.Value{}, false
}

// noteDDL updates the catalog after a successful DDL execution.
func (r *Router) noteDDL(p *stmt.Parsed) {
	var name string
	ti := &tableInfo{bandIdx: -1}
	switch x := p.AST.(type) {
	case *ast.CreateTable:
		name = strings.ToUpper(x.Name)
		band := r.bandColumnOf(name)
		if band == "" {
			return
		}
		ti.bandIdx = slices.IndexFunc(x.Columns, func(c ast.ColumnDef) bool { return strings.EqualFold(c.Name, band) })
	case *ast.CreateView:
		// The handle's refs are the view's name and every table and view
		// its definition reads.
		name = strings.ToUpper(x.Name)
		ti.advances = r.advancesSequence(p)
		for _, t := range p.Fingerprint.Tables {
			ti.banded = ti.banded || t != name && r.bandedRef(t)
		}
		if !ti.banded && !ti.advances {
			return
		}
	case *ast.DropTable, *ast.DropView:
		name, ti = p.Fingerprint.Tables[0], nil // the dropped name
	default:
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ti == nil {
		delete(r.catalog, name)
		return
	}
	r.catalog[name] = ti
}
