// Package qgen is a seeded, reproducible generator of schema-aware SQL
// workloads. It tracks the live schema it has built (tables, columns and
// their types, views, indexes, sequences) and emits a weighted stream of
// DDL, DML and queries — joins, subqueries, aggregates, expressions —
// over the dialect subset shared by all four simulated servers.
//
// The generator is the workload half of the differential-testing rig
// (internal/difftest replays its streams through every server and the
// pristine oracle). Its default CommonProfile is calibrated to the
// simulated servers' known quirk regions: constructs on which a healthy
// server legitimately differs from the oracle (float multiplication
// precision, MOD of negative dividends, unaliased aggregates, DISTINCT
// views under LEFT JOIN, vendor row-limit syntax) are never generated,
// and sequences are held behind a feature toggle, so that with fault
// injection disabled a stream produces zero oracle divergences and every
// divergence found under injection is attributable to a fault.
//
// The generator is steerable and deep-run-safe: its statement-class and
// SELECT-shape distributions form an adaptive Weights plane that
// callers (difftest's coverage feedback) retarget mid-stream with
// SetWeights, and Options.MaxRowsPerTable bounds generated-table
// cardinality — INSERT pressure converts into UPDATEs and row-aging
// DELETEs at the cap — so per-statement evaluation cost stays flat on
// arbitrarily long streams.
//
// Determinism contract: the same Options (including Seed) produce a
// byte-identical statement stream, on any platform. Every choice flows
// from the seeded PRNG and ordered slices; no map iteration. SetWeights
// preserves the contract: the stream is a pure function of the seed and
// the (position, value) sequence of SetWeights calls.
package qgen

import (
	"fmt"
	"math/rand"

	"divsql/internal/core"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// Options configure a Generator.
type Options struct {
	// Seed drives every random choice.
	Seed int64

	// --- Feature toggles -------------------------------------------------
	// All default to off in CommonProfile because each one either is not
	// in the four dialects' common subset or falls into a known engine
	// quirk region (and would make even a fault-free server diverge from
	// the oracle).

	// Sequences enables CREATE SEQUENCE / NEXTVAL (not offered by MS).
	Sequences bool
	// Params enables the bound statement mode: a weighted share of the
	// generated DML/queries carries $n placeholders plus a typed
	// argument vector (Generator.LastArgs) instead of inline literals,
	// exercising every server's prepare/bind path. The share is the
	// Weights bind plane (InlineBind/ParamBind), so the coverage
	// feedback loop can retarget it like any other dimension.
	Params bool
	// ParamQuirks additionally shifts some bound argument values into
	// the servers' bind-coercion failure regions (empty strings,
	// trailing spaces, numeric strings, booleans — see engine.BindRules).
	// Off in fault-free gates: safe values pass every server's BindRules
	// unchanged, so the common subset still agrees with the oracle.
	ParamQuirks bool
	// PartitionSympathy biases simple SELECTs toward the metamorphic
	// oracles' applicability region (internal/metamorph): WHERE clauses
	// become near-universal on the simple shape, and a share of simple
	// selects carries an all-COUNT/SUM item list — the additive TLP
	// form, which no other shape produces (aggregates otherwise appear
	// only under GROUP BY or inside scalar subqueries). Off by default:
	// it reshapes the seeded stream, so only runs that arm TLP/NoREC/
	// CERT turn it on.
	PartitionSympathy bool

	// --- Structure -------------------------------------------------------

	// MaxRowsPerTable bounds generated-table cardinality (0: unbounded).
	// The generator tracks a conservative per-table row estimate (an
	// upper bound on the live row count); once a table's estimate reaches
	// the cap, INSERT pressure on it is redirected into UPDATEs and
	// row-aging DELETEs, so table sizes — and with them per-statement
	// evaluation and adjudication cost — stay bounded no matter how long
	// the stream runs. The estimates rewind with ROLLBACK exactly like
	// the rest of the schema tracking, so the bound survives transaction
	// rewinds.
	MaxRowsPerTable int
	// Transactions enables BEGIN/COMMIT/ROLLBACK around runs of work.
	Transactions bool
	// Isolation additionally emits SET TRANSACTION ISOLATION LEVEL
	// statements (outside transactions and as the first statement of
	// some), so the replicas' read views — and their acceptance of each
	// level name — enter the adjudicated stream. Requires Transactions.
	Isolation bool
	// IsolationLevels is the pool of level names Isolation draws from.
	// Empty defaults to the universally accepted subset (READ COMMITTED,
	// SERIALIZABLE) — safe for fault-free gates; calibrated hunts pass
	// the full five names so per-dialect acceptance divergence becomes a
	// fingerprint surface.
	IsolationLevels []string

	// --- Naming ----------------------------------------------------------

	// TableNames seeds the table-name pool: CREATE TABLE prefers these
	// names until exhausted. The differential harness points this at the
	// corpus faults' trigger tables so generated statements fall into the
	// calibrated failure regions.
	TableNames []string
	// NamePrefix namespaces every generated (non-pool) table, view and
	// index name. Concurrent client streams use distinct prefixes so
	// their workloads touch disjoint state and adjudication stays exact.
	NamePrefix string
}

// CommonProfile returns the default options: the common dialect subset,
// quirk regions avoided, transactions on.
func CommonProfile(seed int64) Options {
	return Options{Seed: seed, Transactions: true}
}

// The stream's structure: the statement-class split is the Weights
// plane's (defaultWeights), the rest is fixed.
const (
	// minTables are kept alive (DROP TABLE is suppressed below it);
	// maxTables caps CREATE TABLE, raised to fit every pool table
	// (Options.TableNames) plus minTables.
	minTables, maxTables = 2, 8
	// maxColumns caps columns per table.
	maxColumns = 5
	// maxJoins caps joined tables per SELECT.
	maxJoins = 2
	// maxExprDepth caps expression nesting.
	maxExprDepth = 3
	// maxInsertRows caps rows per INSERT.
	maxInsertRows = 3
)

// column is the generator's record of one column it created.
type column struct {
	name     string
	kind     types.Kind // KindInt, KindFloat or KindString
	typeName ast.TypeName
	notNull  bool
	pk       bool
	nonNeg   bool // CHECK (col >= 0)
}

// relation is a base table or a view the generator created.
type relation struct {
	name   string
	cols   []column
	isView bool
	// base is the underlying table name for views.
	base string
	// refs are all table names the view body reads — the FROM source
	// plus every table referenced from a predicate subquery. A DROP
	// TABLE of any of them breaks the view on the servers, so the
	// generator cascade-forgets views by refs, not just by base.
	refs []string
	// nextPK feeds unique primary-key values (base tables only).
	nextPK int64
	// hasPK reports whether cols contains a primary key.
	hasPK bool
	// rows is a conservative estimate — an upper bound — of the live row
	// count. INSERT adds its row count; an aging DELETE (a PK band known
	// to cover every live key below a threshold) and an unconditional
	// DELETE lower it; a random predicate DELETE does not (it may match
	// nothing, and the bound must never undershoot reality). The
	// cardinality cap (Options.MaxRowsPerTable) is enforced against this
	// estimate.
	rows int
	// agedPK is the exclusive upper bound of primary keys removed by
	// aging: every live PK is >= agedPK. Aging DELETEs advance it.
	agedPK int64
}

func (r *relation) col(i int) *column { return &r.cols[i] }

// pick returns a random column index satisfying want (or -1).
func (r *relation) pick(rnd *rand.Rand, want func(*column) bool) int {
	idx := make([]int, 0, len(r.cols))
	for i := range r.cols {
		if want(&r.cols[i]) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[rnd.Intn(len(idx))]
}

// Generator emits one deterministic statement stream.
type Generator struct {
	opts      Options
	maxTables int
	rnd       *rand.Rand
	w         Weights // adaptive budget plane (see SetWeights)

	tables  []*relation // base tables, creation order
	views   []*relation
	indexes []struct{ name, table string }
	seqs    []string

	pool   []string // unused pool names
	tableN int      // synthetic name counters
	viewN  int
	indexN int
	seqN   int
	inTxn  bool
	snap   *schemaSnapshot // schema state as of BEGIN (rollback target)
	// lastArgs is the argument vector of the most recent Next() when the
	// statement was paramized (nil for inline statements).
	lastArgs []types.Value
}

// schemaSnapshot captures the schema-tracking state at a transaction
// boundary so ROLLBACK can rewind the generator along with the servers.
type schemaSnapshot struct {
	tables  []*relation
	views   []*relation
	indexes []struct{ name, table string }
	seqs    []string
	pool    []string
}

// New returns a generator over the options.
func New(opts Options) *Generator {
	return &Generator{
		opts:      opts,
		maxTables: max(maxTables, len(opts.TableNames)+minTables), // pool tables must all be creatable
		rnd:       rand.New(rand.NewSource(opts.Seed)),
		w:         defaultWeights(opts.Params),
		pool:      append([]string(nil), opts.TableNames...),
	}
}

// Next produces the next statement of the stream. In Params mode the
// statement may carry $n placeholders; LastArgs then holds the typed
// argument vector of this statement (nil otherwise).
func (g *Generator) Next() ast.Statement {
	st := g.nextStmt()
	g.lastArgs = g.maybeParamize(st)
	return st
}

// LastArgs returns the bound-argument vector of the most recent Next()
// (nil for an inline statement).
func (g *Generator) LastArgs() []types.Value { return g.lastArgs }

func (g *Generator) nextStmt() ast.Statement {
	// Bootstrap: nothing is queryable until tables exist and hold rows.
	if len(g.tables) < minTables {
		return g.genCreateTable()
	}
	for {
		switch g.pickClass() {
		case ClassDDL:
			if st := g.genDDL(); st != nil {
				return st
			}
		case ClassInsert:
			if st := g.genInsert(); st != nil {
				return st
			}
		case ClassUpdate:
			if st := g.genUpdate(); st != nil {
				return st
			}
		case ClassDelete:
			if st := g.genDelete(); st != nil {
				return st
			}
		case ClassSelect:
			if st := g.genSelect(); st != nil {
				return st
			}
		case ClassTxn:
			if st := g.genTxn(); st != nil {
				return st
			}
		}
	}
}

// NextSQL renders the next statement. In Params mode a bound statement
// is rendered in its replayable encoded form (core.EncodeBound), which
// the executor paths decode back into prepare/bind/execute.
func (g *Generator) NextSQL() string {
	st := g.Next()
	return core.EncodeBound(ast.Render(st), g.lastArgs)
}

// pickClass draws a statement class from the adaptive Weights plane
// (weight order matches Classes).
func (g *Generator) pickClass() Class {
	w := g.w
	wTxn := w.Txn
	if !g.opts.Transactions {
		wTxn = 0
	}
	i := g.weightedPick([]int{w.DDL, w.Insert, w.Update, w.Delete, w.Select, wTxn})
	if i < 0 {
		// Degenerate plane (e.g. only Txn weighted with Transactions
		// off): queries are the only class that is always generable.
		return ClassSelect
	}
	return Classes[i]
}

// ---------------------------------------------------------------------------
// Naming

func (g *Generator) tableName() string {
	if len(g.pool) > 0 {
		n := g.pool[0]
		g.pool = g.pool[1:]
		return n
	}
	g.tableN++
	return fmt.Sprintf("%sQT%d", g.opts.NamePrefix, g.tableN)
}

func (g *Generator) viewName() string {
	g.viewN++
	return fmt.Sprintf("%sQV%d", g.opts.NamePrefix, g.viewN)
}

func (g *Generator) indexName() string {
	g.indexN++
	return fmt.Sprintf("%sQIX%d", g.opts.NamePrefix, g.indexN)
}

func (g *Generator) seqName() string {
	g.seqN++
	return fmt.Sprintf("%sQSQ%d", g.opts.NamePrefix, g.seqN)
}

// ---------------------------------------------------------------------------
// Relation selection

func (g *Generator) anyTable() *relation {
	if len(g.tables) == 0 {
		return nil
	}
	return g.tables[g.rnd.Intn(len(g.tables))]
}

// anyRelation returns a table or a view.
func (g *Generator) anyRelation() *relation {
	n := len(g.tables) + len(g.views)
	if n == 0 {
		return nil
	}
	i := g.rnd.Intn(n)
	if i < len(g.tables) {
		return g.tables[i]
	}
	return g.views[i-len(g.tables)]
}

func (g *Generator) dropRelation(name string, view bool) {
	if view {
		for i, v := range g.views {
			if v.name == name {
				g.views = append(g.views[:i], g.views[i+1:]...)
				return
			}
		}
		return
	}
	for i, t := range g.tables {
		if t.name == name {
			g.tables = append(g.tables[:i], g.tables[i+1:]...)
			break
		}
	}
	// Views reading a dropped table — as their FROM source or from a
	// predicate subquery — become invalid; forget them so later queries
	// do not reference a broken view. (Selecting a broken view errors
	// identically on every server, but it wastes stream budget.)
	kept := g.views[:0]
	for _, v := range g.views {
		reads := v.base == name
		for _, r := range v.refs {
			if r == name {
				reads = true
				break
			}
		}
		if !reads {
			kept = append(kept, v)
		}
	}
	g.views = kept
	keptIx := g.indexes[:0]
	for _, ix := range g.indexes {
		if ix.table != name {
			keptIx = append(keptIx, ix)
		}
	}
	g.indexes = keptIx
}
