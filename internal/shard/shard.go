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
// # Partitioning modes
//
// Namespace mode (the default): every table belongs to exactly one
// shard, chosen by hashing the table's namespace (by default the prefix
// up to and including the first '_', e.g. "S3_QT7" -> "S3_"; a name
// without '_' is its own namespace). A statement whose referenced
// tables all live on one shard routes there; a statement spanning
// namespaces on different shards is rejected deterministically —
// namespace partitioning is for workloads with disjoint table
// universes, such as difftest's per-stream namespaces.
//
// PK-band mode (Config.BandColumns non-empty): every table exists on
// every shard and rows partition by the value of the table's band
// column (tpcc: the *W_ID column), shard = band % N. DDL broadcasts to
// every shard in ascending order; DML with an equality predicate or
// VALUES entry on the band column routes to the owning shard;
// band-free writes broadcast (affected counts summed); band-free
// SELECTs scatter-gather: fan out to every shard in parallel, each
// shard adjudicating its fragment across its own replicas, then merge
// (concatenate, re-sort by ORDER BY, recombine COUNT/SUM/MIN/MAX
// aggregates). Tables absent from BandColumns (tpcc's ITEM) are
// replicated: writes broadcast, reads pin to the session's home shard.
//
// # Ordering rules (deadlock and determinism)
//
//   - Multi-shard statements (DDL broadcast, band-free writes,
//     transaction control) always visit shards in ascending index
//     order — the cross-shard analogue of the engine's sorted
//     table-latch order, so two sessions can never deadlock across
//     shards.
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
	"strings"
	"sync"

	"divsql/internal/core"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Backend is what one shard fronts: any endpoint.
// *middleware.DiverseServer is one; so is *server.Server, which tests
// use for single-replica shards.
type Backend = core.SessionExecutor

// Config selects the partitioning mode.
type Config struct {
	// BandColumns maps TABLE name (upper case) to its band column name.
	// Non-empty selects PK-band mode; tables absent from the map are
	// replicated to every shard (writes broadcast, reads pinned).
	// Empty selects namespace mode.
	BandColumns map[string]string
	// NamespaceOf computes a table's namespace in namespace mode. Nil
	// uses PrefixNamespace.
	NamespaceOf func(table string) string
}

// PrefixNamespace is the default namespace function: the prefix up to
// and including the first '_' ("S3_QT7" -> "S3_"); a name without '_'
// is its own namespace.
func PrefixNamespace(table string) string {
	if i := strings.IndexByte(table, '_'); i >= 0 {
		return table[:i+1]
	}
	return table
}

// tableInfo is the router's catalog entry for one table it has seen DDL
// for (PK-band mode only; namespace routing is a pure hash).
type tableInfo struct {
	bandCol string // upper case; "" for replicated tables
	bandIdx int    // band column position in CREATE TABLE order; -1 unknown
	view    bool   // views always scatter on read
}

// Router routes statements across shards. It implements
// core.SessionExecutor.
type Router struct {
	cfg      Config
	backends []Backend
	names    []string

	mu      sync.RWMutex // guards catalog
	catalog map[string]*tableInfo

	nextHome uint64 // round-robin home-shard assignment (under mu)

	metrics routerMetrics
}

// New builds a router over the given shard backends.
func New(cfg Config, backends ...Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("shard: router needs at least one shard")
	}
	if cfg.NamespaceOf == nil {
		cfg.NamespaceOf = PrefixNamespace
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

// banded reports whether the router runs in PK-band mode.
func (r *Router) banded() bool { return len(r.cfg.BandColumns) > 0 }

// shardOfNamespace hashes a table name's namespace onto a shard.
func (r *Router) shardOfNamespace(table string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(r.cfg.NamespaceOf(strings.ToUpper(table))))
	return int(h.Sum32() % uint32(len(r.backends)))
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
	routeSetTxn                         // session-level isolation default
)

type route struct {
	kind  routeKind
	shard int // routeSingle only
}

// analyze classifies one resolved statement. args carries the
// execution's typed arguments when the statement came through the
// prepared path (band predicates over placeholders resolve per
// execution); home is the session's home shard for statements with no
// table references.
func (r *Router) analyze(p *stmt.Parsed, args []types.Value, home int) (route, error) {
	switch p.Class {
	case stmt.ClassBegin, stmt.ClassEnd:
		return route{kind: routeTxn}, nil
	case stmt.ClassSetTxn:
		return route{kind: routeSetTxn}, nil
	}
	if r.banded() {
		return r.analyzeBand(p, args, home)
	}
	return r.analyzeNamespace(p.Refs, home)
}

// analyzeNamespace routes by namespace hash: all referenced names must
// agree on one shard. Statements without table references run on the
// session's home shard.
func (r *Router) analyzeNamespace(names []string, home int) (route, error) {
	if len(names) == 0 {
		return route{kind: routeSingle, shard: home}, nil
	}
	shard, first := -1, ""
	for _, name := range names {
		s := r.shardOfNamespace(name)
		if shard < 0 {
			shard, first = s, name
			continue
		}
		if s != shard {
			return route{}, fmt.Errorf(
				"shard: cross-shard statement under namespace partitioning (%s on shard %d, %s on shard %d)",
				first, shard, name, s)
		}
	}
	return route{kind: routeSingle, shard: shard}, nil
}

// analyzeBand routes in PK-band mode.
func (r *Router) analyzeBand(p *stmt.Parsed, args []types.Value, home int) (route, error) {
	var (
		rt  route
		err error
	)
	st := p.AST
	switch x := st.(type) {
	case *ast.CreateTable, *ast.CreateView, *ast.CreateIndex, *ast.CreateSequence,
		*ast.DropTable, *ast.DropView, *ast.DropIndex, *ast.DropSequence:
		_ = x
		return route{kind: routeBroadcast}, nil
	case *ast.Insert:
		rt, err = r.analyzeInsert(x, args)
	case *ast.Update:
		rt, err = r.analyzeFiltered(strings.ToUpper(x.Table), x.Where, args, false, home)
	case *ast.Delete:
		rt, err = r.analyzeFiltered(strings.ToUpper(x.Table), x.Where, args, false, home)
	case *ast.Select:
		rt, err = r.analyzeSelect(x, p.Refs, args, home)
	default:
		return route{}, fmt.Errorf("shard: cannot route %T", st)
	}
	if err == nil && rt.kind != routeSingle {
		// The statement is about to run on more than one shard (scatter
		// or broadcast): a subquery over a banded table would evaluate
		// against each shard's local fragment only — shards would filter
		// by different values and the merged outcome would be silently
		// wrong. The co-partitioning assumption covers joins, not
		// global-aggregate subqueries, so reject deterministically.
		if serr := r.bandedSubqueryErr(st); serr != nil {
			return route{}, serr
		}
	}
	return rt, err
}

// bandedSubqueryErr reports an error when any subquery expression in the
// statement references a banded table. Pinned (single-shard) statements
// are not checked here: their subqueries run on one shard, which is what
// the band predicate asked for.
func (r *Router) bandedSubqueryErr(st ast.Statement) error {
	var offender string
	check := func(sub *ast.Select) {
		if sub == nil || offender != "" {
			return
		}
		for t := range ast.Tables(sub) {
			if r.bandColumnOf(t) != "" {
				offender = t
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
	if offender != "" {
		return fmt.Errorf("shard: multi-shard statement with a subquery over banded table %s cannot be routed (add a band predicate)", offender)
	}
	return nil
}

// bandColumnOf reports the band column of a table ("" = replicated).
func (r *Router) bandColumnOf(table string) string {
	return r.cfg.BandColumns[strings.ToUpper(table)]
}

// analyzeInsert routes an INSERT by the band value in its VALUES rows.
func (r *Router) analyzeInsert(ins *ast.Insert, args []types.Value) (route, error) {
	table := strings.ToUpper(ins.Table)
	band := r.bandColumnOf(table)
	if band == "" {
		// Replicated table: the row must exist on every shard. A source
		// SELECT over a banded table would feed each replica its local
		// fragment only, silently diverging the replicas.
		if ins.Select != nil {
			for t := range ast.Tables(ins.Select) {
				if r.bandColumnOf(t) != "" {
					return route{}, fmt.Errorf("shard: INSERT ... SELECT from banded table %s into replicated table %s cannot be routed", t, table)
				}
			}
		}
		return route{kind: routeBroadcast}, nil
	}
	if ins.Select != nil {
		return route{}, fmt.Errorf("shard: INSERT ... SELECT into banded table %s cannot be routed", table)
	}
	idx := -1
	if len(ins.Columns) > 0 {
		for i, c := range ins.Columns {
			if strings.EqualFold(c, band) {
				idx = i
				break
			}
		}
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

// analyzeFiltered routes an UPDATE/DELETE (read=false) or a FROM-based
// statement by band-equality predicates in its WHERE clause. A banded
// table without a band predicate broadcasts (writes) or scatters
// (reads); a replicated table broadcasts writes and pins reads to home.
func (r *Router) analyzeFiltered(table string, where ast.Expr, args []types.Value, read bool, home int) (route, error) {
	band := r.bandColumnOf(table)
	if band == "" {
		if read {
			return route{kind: routeSingle, shard: home}, nil
		}
		return route{kind: routeBroadcast}, nil
	}
	if shard, ok := r.bandShardFromWhere(where, band, args); ok {
		return route{kind: routeSingle, shard: shard}, nil
	}
	if read {
		return route{kind: routeScatter}, nil
	}
	return route{kind: routeBroadcast}, nil
}

// analyzeSelect routes a SELECT in band mode.
func (r *Router) analyzeSelect(sel *ast.Select, refs []string, args []types.Value, home int) (route, error) {
	if len(refs) == 0 {
		return route{kind: routeSingle, shard: home}, nil
	}
	// Collect the band columns of the referenced banded tables; a view
	// reference forces a scatter (its expansion is unknown here, but
	// every shard holds the view over its own rows).
	bands := map[string]bool{}
	anyBanded, anyView := false, false
	r.mu.RLock()
	for _, t := range refs {
		if ti := r.catalog[t]; ti != nil && ti.view {
			anyView = true
		}
	}
	r.mu.RUnlock()
	for _, t := range refs {
		if b := r.bandColumnOf(t); b != "" {
			bands[strings.ToUpper(b)] = true
			anyBanded = true
		}
	}
	if !anyBanded && !anyView {
		// Replicated tables only: every shard has the full data.
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
func (r *Router) noteDDL(st ast.Statement) {
	if !r.banded() {
		return
	}
	switch x := st.(type) {
	case *ast.CreateTable:
		table := strings.ToUpper(x.Name)
		ti := &tableInfo{bandCol: r.bandColumnOf(table), bandIdx: -1}
		for i, c := range x.Columns {
			if strings.EqualFold(c.Name, ti.bandCol) {
				ti.bandIdx = i
				break
			}
		}
		r.mu.Lock()
		r.catalog[table] = ti
		r.mu.Unlock()
	case *ast.CreateView:
		r.mu.Lock()
		r.catalog[strings.ToUpper(x.Name)] = &tableInfo{view: true, bandIdx: -1}
		r.mu.Unlock()
	case *ast.DropTable:
		r.mu.Lock()
		delete(r.catalog, strings.ToUpper(x.Name))
		r.mu.Unlock()
	case *ast.DropView:
		r.mu.Lock()
		delete(r.catalog, strings.ToUpper(x.Name))
		r.mu.Unlock()
	}
}
