// Package engine implements the in-memory relational engine that underlies
// every simulated SQL server. One engine codebase is shared by the four
// simulated servers; diversity is created above it by the dialect layer
// (what each server accepts) and the quirk/fault layer (how each server
// misbehaves). A pristine engine — default Config, zero Quirks — serves as
// the correctness oracle for the fault-diversity study.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Sentinel errors. SQLError wraps statement-level failures so callers can
// distinguish "the server returned an error message" (self-evident
// failure, in the paper's terms) from internal Go errors.
var (
	// ErrTableNotFound is returned for references to missing tables.
	ErrTableNotFound = errors.New("table or view not found")
	// ErrDuplicateObject is returned when a CREATE collides with an
	// existing object.
	ErrDuplicateObject = errors.New("object already exists")
	// ErrConstraint is returned for constraint violations.
	ErrConstraint = errors.New("constraint violation")
	// ErrType is returned for type errors.
	ErrType = errors.New("type error")
	// ErrNoTransaction is returned for COMMIT/ROLLBACK outside a
	// transaction.
	ErrNoTransaction = errors.New("no transaction in progress")
)

// ResultKind classifies what a Result carries.
type ResultKind int

// Result kinds.
const (
	ResultRows ResultKind = iota + 1
	ResultCount
	ResultDDL
)

// Result is the outcome of one successfully executed statement.
//
// A Result, its rows and its column names belong to the session that
// produced it and stay valid until that session's next Exec,
// ExecSelectVariant or Close: they come from the session's statement
// memory (arena.go), which the next statement reclaims, and the column
// names are the plan's, shared by every execution of it. Read a result
// in place, and Clone what must outlive that or be changed.
type Result struct {
	Kind     ResultKind
	Columns  []string
	Rows     [][]types.Value
	Affected int64
}

// Clone returns a deep copy of the result that outlives its statement:
// the struct, the column names and the rows are the caller's (rows share
// immutable values). An empty list stays empty, not nil, so a clone
// compares equal to its original.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	cp := &Result{Kind: r.Kind, Affected: r.Affected, Columns: slices.Clone(r.Columns)}
	cp.Rows = make([][]types.Value, len(r.Rows))
	for i, row := range r.Rows {
		cp.Rows[i] = slices.Clone(row)
	}
	return cp
}

// Quirks are always-present behavioural deviations of a simulated server's
// engine. Each models one of the shared ("coincident") faults reported in
// the paper; a quirk only becomes a failure when a demand hits its failure
// region, exactly as for the real products.
type Quirks struct {
	// AllowDropTableOnView lets DROP TABLE remove a view (IB bug 223512;
	// shared by PG). Violates SQL-92, which requires DROP VIEW.
	AllowDropTableOnView bool
	// SkipDefaultTypeCheck skips validation of DEFAULT values against the
	// column type at CREATE TABLE time (IB bug 217042(3); shared by MS).
	SkipDefaultTypeCheck bool
	// BlankAggregateAliases makes unaliased AVG/SUM result columns carry
	// empty names (IB bug 222476's manifestation on IB).
	BlankAggregateAliases bool
	// UnaliasedAggregateError makes a SELECT with an unaliased AVG/SUM
	// fail with a spurious error (bug 222476's manifestation on MS).
	UnaliasedAggregateError bool
	// LeftJoinDistinctViewDup skips the DISTINCT of a view expanded as the
	// right side of a LEFT OUTER JOIN, yielding duplicated rows
	// (MS bug 58544; shared by IB).
	LeftJoinDistinctViewDup bool
	// ClusteredIndexError fails any CREATE CLUSTERED INDEX (the PG bug,
	// fixed in 7.0.3, that made five MSSQL bug scripts fail in PG).
	ClusteredIndexError bool
	// ParenUnionSubqueryError fails a [NOT] IN subquery built from
	// parenthesized UNION branches (PG bug 43's manifestation on PG: a
	// parsing error).
	ParenUnionSubqueryError bool
	// ParenUnionSubqueryMisparse makes the same construct return a
	// spurious "column not found" error after building an incorrect parse
	// tree (bug 43's manifestation on MS).
	ParenUnionSubqueryMisparse bool
	// FloatMulPrecisionLoss rounds float multiplication through 32-bit
	// precision (PG bug 77; shared by MS). Identical on both servers.
	FloatMulPrecisionLoss bool
	// ModNegativePlus makes MOD with a negative dividend return
	// result+|divisor| (OR bug 1059835).
	ModNegativePlus bool
	// ModNegativeAbs makes MOD with a negative dividend return the
	// absolute value (the distinct PG manifestation of the same failure
	// region, so the two servers return different incorrect results).
	ModNegativeAbs bool
}

// Builtin implements one scalar or aggregate SQL function.
type Builtin struct {
	Name string
	// MinArgs/MaxArgs bound the argument count (MaxArgs -1 = variadic).
	MinArgs, MaxArgs int
	// Fn evaluates the function. For aggregate functions Fn is nil and
	// Aggregate is set instead.
	Fn func(ctx *FuncContext, args []types.Value) (types.Value, error)
	// Aggregate marks the function as an aggregate (AVG, SUM, ...).
	Aggregate bool
	// SeqFunc marks sequence-advancing functions (NEXTVAL, GEN_ID),
	// whose first argument is a sequence name rather than a value.
	SeqFunc bool
}

// FuncContext gives builtins access to the executing session (and through
// it the engine state, e.g. for sequences).
type FuncContext struct {
	Sess *Session
}

// Config parameterizes an engine instance. The zero Config, completed by
// Defaults, is the pristine oracle configuration.
type Config struct {
	// ResolveType maps a dialect type name to a storage kind. When nil,
	// the permissive resolver (union of all dialects) is used.
	ResolveType func(ast.TypeName) (types.Kind, error)
	// Funcs maps upper-cased function names to implementations. When nil,
	// the full builtin set is available.
	Funcs map[string]Builtin
	// Quirks are the engine-level behavioural deviations.
	Quirks Quirks
	// Bind is the server's bind-time argument coercion rule set (the
	// zero value — the oracle configuration — binds arguments verbatim).
	Bind BindRules
}

// Engine is one in-memory SQL engine shared by any number of sessions.
//
// Locking: the RWMutex guards the catalog maps and the session
// registry. DDL, ROLLBACK and state transfers take it exclusively;
// everything else holds it in read mode. Within the read mode, row data
// is guarded by per-table latches (Table.latch) acquired in sorted name
// order — DML latches every table its statement can touch, so writers
// to disjoint tables run in parallel. Pure queries take no latches at
// all: they execute against committed read views (readview.go), whose
// per-table images are materialized lazily under the table latch and
// immutable afterwards.
//
// The live state is one copy shared by every session; a session's open
// transaction is represented by its undo log. The committed image is
// derived on demand by two routines (readview.go) — committedCatalog
// for the catalog, committedTable per table — which rewind open
// transactions' undo records on copy-on-write clones. Snapshot
// (snapshot.go), read views and own-writes reads are built on them.
type Engine struct {
	mu  sync.RWMutex
	cfg Config
	st  state

	// commitSeq is the commit high-water mark: it advances on every
	// committed state-changing statement or transaction, and is stamped
	// into snapshots (so resync redo can be anchored to the image) and
	// read views (staleness checks). Atomic: autocommit writers bump it
	// under the read lock.
	commitSeq atomic.Uint64

	// commitMu makes a latch-free COMMIT's mark bump and undo-log clear
	// atomic with respect to Snapshot, so a snapshot's stamp always
	// matches its content.
	commitMu sync.Mutex

	// seqMu guards sequence cursors (Sequence.Next): sequences advance
	// from DML expressions and sequence-advancing SELECTs under the
	// read lock, outside any table latch.
	seqMu sync.Mutex

	// committedSchema is the schema-version stamp of the committed
	// catalog: equal to schemaVersion except while a transaction holds
	// uncommitted DDL. Written only under the exclusive lock; read
	// views stamp compiled plans with it.
	committedSchema uint64

	// curView caches the shared committed read view; viewMu
	// single-flights rebuilds; viewGen invalidates views across state
	// transfers (Restore/Reset), which replace state without advancing
	// commitSeq.
	curView atomic.Pointer[readView]
	viewMu  sync.Mutex
	viewGen atomic.Uint64
	// viewStamps and viewDirty are buildView's scratch (guarded by
	// viewMu): the tables' sampled mutation stamps, in the facts' table
	// order, and the tables open transactions hold row records on.
	viewStamps []uint64
	viewDirty  []string

	// curFacts caches the live catalog's facts (facts, setSchemaVersion).
	curFacts atomic.Pointer[schemaFacts]

	// plantedPanic is the test-only defect of PlantPanic (planted.go).
	plantedPanic atomic.Bool

	// Read-view and latch observability counters (obs.go).
	viewBuilds  atomic.Uint64
	viewHits    atomic.Uint64
	viewReuses  atomic.Uint64
	matCleans   atomic.Uint64
	matRewinds  atomic.Uint64
	latchWaits  atomic.Uint64
	latchWaitNs atomic.Uint64

	// schemaEpoch is a monotonic allocator of schema generations and
	// schemaVersion the current stamp. Every DDL (and every state
	// transfer) allocates a fresh epoch; a transaction rollback restores
	// the pre-transaction stamp through the undo log (a fresh one when
	// another session's DDL stamped since) without reusing the epochs
	// minted inside the aborted transaction. Compiled plans are
	// validated by stamp equality, so no stamp names two catalogs, and a
	// plan compiled against a schema generation that was rolled back can
	// never validate again.
	schemaEpoch   uint64
	schemaVersion uint64

	// planMemo is the shared plan memo of pure SELECT statements and
	// dmlMemo that of UPDATE/DELETE statements, each keyed by the
	// statement's shape — see compiled.go. They are bounded apart, so
	// one-off DML shapes never evict a hot SELECT's plan. The
	// three counters are what PlanCacheStats reports of planMemo: hits,
	// misses (compilations), and entries found compiled against a schema
	// generation no longer current.
	planMemo   memo[compiledSelect]
	dmlMemo    memo[dmlPlan]
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64
	memoStale  atomic.Uint64

	// pathExecs counts statement-level SELECT executions by access path
	// (indexed by plan.AccessPath). Atomic so the read-lock SELECT path
	// records without extra synchronization.
	pathExecs [3]atomic.Uint64
	// joinExecs counts executed joins with an ON predicate by the
	// algorithm that ran (indexed by plan.JoinAlgo): a hash join that fell
	// back at run time counts as a nested loop.
	joinExecs [2]atomic.Uint64

	// sessions registers every live session.
	sessions map[*Session]struct{}
}

// state is the catalog + data of one engine: the live plane, or a
// copy-on-write clone of it being rewound into a committed snapshot.
// Undo records (undoRec.apply) apply to either.
type state struct {
	tables map[string]*Table
	views  map[string]*View
	indexs map[string]*Index
	seqs   map[string]*Sequence
}

// Table is a base table.
type Table struct {
	Name    string
	Cols    []Column
	Rows    [][]types.Value
	PKCols  []int
	Uniques [][]int
	Checks  []ast.Expr
	// reads lists, sorted, the tables and views the CHECK and DEFAULT
	// expressions read (from the CREATE TABLE statement's handle).
	reads []string

	// latch serializes row mutations of this table: DML acquires the
	// latches of every table its statement can touch, in sorted name
	// order, while holding the engine read lock. Read-view
	// materialization takes it briefly to capture a stable row image.
	latch sync.Mutex

	// mutSeq counts row mutations (insert/update/delete, including
	// their undos) and versions the lazily built lookup indexes in ic:
	// an index built at mutSeq m is valid exactly while mutSeq == m. It
	// also validates read-view captures (readview.go). Mutated under
	// the table latch or the engine write lock; atomic so view builds
	// can sample it under the read lock alone. ic is non-nil on every
	// engine-resident table (execCreateTable and cloneHeader allocate
	// it).
	mutSeq atomic.Uint64
	ic     *indexCache

	// baseSeq counts the row mutations that invalidate existing row
	// positions (update, delete, and every undo application); pure
	// appends bump mutSeq alone. Lookup indexes are valid per baseSeq
	// and extend incrementally over appended rows, so insert-heavy
	// tables keep O(new rows) index maintenance instead of O(table)
	// rebuilds. Mutated like mutSeq (table latch or engine write lock).
	baseSeq atomic.Uint64

	// rowsShared marks that a header clone (cloneHeader: a read-view
	// capture, a committed image or a snapshot) shares the live Rows
	// array. While set, the first in-place row replacement must install
	// a fresh backing array so the clone stays a stable committed image;
	// mutations that already install a fresh slice (an autocommit delete,
	// insert-undo) just clear it. A delete inside a transaction sets it:
	// its undo record holds the array it left, to tell whether the table
	// was written since. Guarded by the table latch or the exclusive
	// engine lock, like Rows itself.
	rowsShared bool

	// capIC is the index-cache lineage shared by successive clean view
	// captures of this table: while baseSeq is unchanged (appends only),
	// each new capture inherits the previous captures' indexes and
	// extends them over the appended rows. Guarded by the table latch.
	capIC     *indexCache
	capICBase uint64

	// colVer versions each column's stored values: an in-place row
	// replacement (UPDATE and its undo) bumps the versions of exactly the
	// columns it sets, so lookup indexes — which record the versions of
	// their key columns at build time — survive updates to non-key
	// columns. Positions never move on replacement (baseSeq stays), and
	// the executor re-reads current rows for every candidate, so an index
	// is exact while its key columns' versions are unchanged. nil means
	// all-zero (no column updated yet); guarded like Rows (table latch or
	// exclusive engine lock), and captured by value into view captures.
	colVer []uint64

	// img is the image the last Snapshot took of this table, and imgStamp
	// the table's mutSeq and the engine's schema stamp at that moment:
	// while both still match, the table has not changed and a Snapshot
	// hands img out again instead of cloning. A table retains at most one
	// image. Guarded by the table latch.
	img      *Table
	imgStamp [2]uint64
}

// touch invalidates the table's lazily built indexes after a row
// mutation. Called under the table latch (or the engine write lock) at
// every site that changes Rows — including undo application.
func (t *Table) touch() { t.mutSeq.Add(1) }

// touchBase additionally invalidates existing row positions (delete and
// every undo that moves rows): lookup indexes built at an earlier
// baseSeq must be discarded, not extended. Called under the same
// locking as touch.
func (t *Table) touchBase() {
	t.baseSeq.Add(1)
	t.mutSeq.Add(1)
}

// colVerOf returns the stored-value version of one column (zero until
// its first in-place replacement).
func (t *Table) colVerOf(ci int) uint64 {
	if ci < len(t.colVer) {
		return t.colVer[ci]
	}
	return 0
}

// bumpCols records an in-place replacement of the given columns'
// values: indexes keyed on any of them are invalidated, indexes over
// untouched columns stay valid (positions don't move). Called under the
// same locking as touch.
func (t *Table) bumpCols(cols []int) {
	for _, ci := range cols {
		if ci >= len(t.colVer) {
			nv := make([]uint64, len(t.Cols))
			copy(nv, t.colVer)
			t.colVer = nv
		}
		if ci < len(t.colVer) {
			t.colVer[ci]++
		}
	}
	t.mutSeq.Add(1)
}

// Column is one column of a base table.
type Column struct {
	Name    string
	Kind    types.Kind
	NotNull bool
	// Default is the declared default expression (nil when absent).
	Default ast.Expr
	// RawDefault marks a default stored without type validation (the
	// SkipDefaultTypeCheck quirk), so it is applied verbatim on insert.
	RawDefault bool
}

// View is a named stored query.
type View struct {
	Name    string
	Columns []string
	Select  *ast.Select
	// reads and funcs list, sorted, what the definition reads and calls
	// (from the CREATE VIEW statement's handle).
	reads, funcs []string
}

// Index is secondary-index metadata; UNIQUE indexes are enforced.
type Index struct {
	Name      string
	Table     string
	Cols      []int
	Unique    bool
	Clustered bool
}

// Sequence is a monotonic generator.
type Sequence struct {
	Name string
	Next int64
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.ResolveType == nil {
		cfg.ResolveType = ResolveTypePermissive
	}
	if cfg.Funcs == nil {
		cfg.Funcs = AllBuiltins()
	}
	return &Engine{
		cfg:      cfg,
		st:       newState(),
		sessions: make(map[*Session]struct{}),
	}
}

func newState() state {
	return state{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
		indexs: make(map[string]*Index),
		seqs:   make(map[string]*Sequence),
	}
}

// NewOracle returns a pristine engine: permissive dialect, no quirks.
func NewOracle() *Engine { return New(Config{}) }

// Quirks exposes the engine's quirk set (used by tests).
func (e *Engine) Quirks() Quirks { return e.cfg.Quirks }

// ResolveTypePermissive understands the union of all dialect type names.
func ResolveTypePermissive(tn ast.TypeName) (types.Kind, error) {
	switch tn.Name {
	case "INT", "INTEGER", "SMALLINT", "BIGINT", "INT4", "INT8", "NUMBER":
		return types.KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DOUBLE PRECISION", "NUMERIC", "DECIMAL", "MONEY":
		return types.KindFloat, nil
	case "VARCHAR", "CHAR", "CHARACTER", "TEXT", "NVARCHAR", "VARCHAR2", "CLOB":
		return types.KindString, nil
	case "DATE", "DATETIME", "TIMESTAMP":
		return types.KindDate, nil
	case "BOOLEAN", "BOOL", "BIT":
		return types.KindBool, nil
	default:
		return 0, fmt.Errorf("%w: unknown type %s", ErrType, tn.Name)
	}
}

// exec dispatches one statement. The caller (Session.Exec) holds the
// engine lock in the appropriate mode.
func (e *Session) exec(p *stmt.Parsed) (*Result, error) {
	switch x := p.AST.(type) {
	case *ast.CreateTable:
		return e.execCreateTable(x, readsOf(p, x.Name))
	case *ast.CreateView:
		return e.execCreateView(x, readsOf(p, x.Name), p.Fingerprint.Funcs)
	case *ast.CreateIndex:
		return e.execCreateIndex(x)
	case *ast.CreateSequence:
		return e.execCreateSequence(x)
	case *ast.DropTable:
		return e.execDropTable(x)
	case *ast.DropView:
		return e.execDropView(x)
	case *ast.DropIndex:
		return e.execDropIndex(x)
	case *ast.DropSequence:
		return e.execDropSequence(x)
	case *ast.Insert:
		return e.execInsert(x)
	case *ast.Update:
		return e.execUpdate(x, p.Shape)
	case *ast.Delete:
		return e.execDelete(x, p.Shape)
	case *ast.Begin:
		return e.execBegin()
	case *ast.Commit:
		return e.execCommit()
	case *ast.Rollback:
		return e.execRollback()
	case *ast.SetTxn:
		return e.execSetTxn(x)
	case *ast.Select:
		cs, rows, err := e.runUnowned(x)
		if err != nil {
			return nil, err
		}
		return e.rowsResult(cs, rows), nil
	default:
		return nil, fmt.Errorf("unsupported statement %T", p.AST)
	}
}

// readsOf lists what a CREATE TABLE's DEFAULT and CHECK expressions or a
// CREATE VIEW's definition read: the handle's tables but the created one
// (which every INSERT and UPDATE of a table latches anyway, and which a
// view definition, validated before the view exists, cannot read).
func readsOf(p *stmt.Parsed, name string) []string {
	name = up(name)
	return slices.DeleteFunc(slices.Clone(p.Fingerprint.Tables), func(n string) bool { return n == name })
}

func up(s string) string { return strings.ToUpper(s) }

func (e *Session) objectExists(name string) bool {
	n := up(name)
	if _, ok := e.eng.st.tables[n]; ok {
		return true
	}
	if _, ok := e.eng.st.views[n]; ok {
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// DDL

// bumpSchema stamps a fresh schema generation after a successful DDL
// statement, invalidating every compiled plan. Inside a transaction the
// undo restores the previous stamp while the stamp is still the one
// this DDL minted (a rolled-back multi-DDL transaction lands on its
// starting stamp); once another session's DDL has stamped since, the
// catalog the undo leaves was never stamped, so it gets a fresh epoch.
// The epochs minted inside a rolled-back transaction are never reused,
// so a plan compiled there never validates again. Snapshot rewinds
// (toSnap) run on a copy-on-write clone and must not write engine
// fields.
func (e *Session) bumpSchema() {
	eng := e.eng
	old := eng.schemaVersion
	eng.schemaEpoch++
	minted := eng.schemaEpoch
	eng.setSchemaVersion(minted)
	if e.inTxn {
		e.didDDL = true
	}
	e.logUndoCatalog(func(_ *state, toSnap bool) {
		switch {
		case toSnap:
		case eng.schemaVersion == minted:
			eng.setSchemaVersion(old)
		default:
			eng.schemaEpoch++
			eng.setSchemaVersion(eng.schemaEpoch)
		}
	})
}

// bumpSchemaLocked is bumpSchema for engine-level mutators (a
// catalog-changing restore, Reset) that hold the write lock but run
// outside any session; there is no transaction to undo into.
func (e *Engine) bumpSchemaLocked() {
	e.schemaEpoch++
	e.setSchemaVersion(e.schemaEpoch)
	// Outside any transaction the new generation is committed at once;
	// every cached read view is void (the state may have been replaced).
	e.publishSchema()
	e.viewGen.Add(1)
}

// setSchemaVersion is every write of the stamp (under the exclusive
// lock), and every catalog change writes it: it drops the schema facts
// derived from the catalog the old stamp named.
func (e *Engine) setSchemaVersion(v uint64) {
	e.schemaVersion = v
	e.curFacts.Store(nil)
}

// SchemaVersion returns the current schema generation stamp.
func (e *Engine) SchemaVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.schemaVersion
}

func (e *Session) execCreateTable(ct *ast.CreateTable, reads []string) (*Result, error) {
	name := up(ct.Name)
	if e.objectExists(name) {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateObject, name)
	}
	if len(ct.Columns) == 0 {
		return nil, fmt.Errorf("table %s has no columns", name)
	}
	t := &Table{Name: name, reads: reads}
	seen := make(map[string]bool, len(ct.Columns))
	for _, cd := range ct.Columns {
		cn := up(cd.Name)
		if seen[cn] {
			return nil, fmt.Errorf("duplicate column %s", cn)
		}
		seen[cn] = true
		kind, err := e.eng.cfg.ResolveType(cd.Type)
		if err != nil {
			return nil, err
		}
		col := Column{Name: cn, Kind: kind, NotNull: cd.NotNull || cd.PrimaryKey, Default: cd.Default}
		if cd.Default != nil {
			x, err := e.lowerAlone(cd.Default, nil)
			if err != nil {
				return nil, fmt.Errorf("invalid DEFAULT for %s: %w", cn, err)
			}
			dv, err := e.eval(x, nil)
			if err != nil {
				return nil, fmt.Errorf("invalid DEFAULT for %s: %w", cn, err)
			}
			if !dv.IsNull() {
				if _, cerr := coerce(dv, kind); cerr != nil {
					if e.eng.cfg.Quirks.SkipDefaultTypeCheck {
						// Quirk: accept the invalid default and store it
						// verbatim (IB bug 217042(3), shared by MS).
						col.RawDefault = true
					} else {
						return nil, fmt.Errorf("DEFAULT value for column %s: %w", cn, cerr)
					}
				}
			}
		}
		t.Cols = append(t.Cols, col)
		if cd.PrimaryKey {
			t.PKCols = append(t.PKCols, len(t.Cols)-1)
		}
		if cd.Unique {
			t.Uniques = append(t.Uniques, []int{len(t.Cols) - 1})
		}
		if cd.Check != nil {
			t.Checks = append(t.Checks, cd.Check)
		}
	}
	for _, tc := range ct.Constraints {
		switch {
		case len(tc.PrimaryKey) > 0:
			if len(t.PKCols) > 0 {
				return nil, fmt.Errorf("%w: multiple primary keys on %s", ErrConstraint, name)
			}
			idxs, err := t.columnIndexes(tc.PrimaryKey)
			if err != nil {
				return nil, err
			}
			t.PKCols = idxs
			for _, i := range idxs {
				t.Cols[i].NotNull = true
			}
		case len(tc.Unique) > 0:
			idxs, err := t.columnIndexes(tc.Unique)
			if err != nil {
				return nil, err
			}
			t.Uniques = append(t.Uniques, idxs)
		case tc.Check != nil:
			t.Checks = append(t.Checks, tc.Check)
		}
	}
	if _, err := e.lowerChecks(t); err != nil {
		return nil, err
	}
	t.ic = &indexCache{}
	e.eng.st.tables[name] = t
	e.logUndoCatalog(func(dst *state, _ bool) { delete(dst.tables, name) })
	e.bumpSchema()
	return e.mem.result(Result{Kind: ResultDDL}), nil
}

func (t *Table) columnIndexes(names []string) ([]int, error) {
	idxs := make([]int, 0, len(names))
	for _, n := range names {
		i := t.colIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("unknown column %s in table %s", n, t.Name)
		}
		idxs = append(idxs, i)
	}
	return idxs, nil
}

func (t *Table) colIndex(name string) int {
	n := up(name)
	for i, c := range t.Cols {
		if c.Name == n {
			return i
		}
	}
	return -1
}

func (e *Session) execCreateView(cv *ast.CreateView, reads, funcs []string) (*Result, error) {
	name := up(cv.Name)
	if e.objectExists(name) {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateObject, name)
	}
	// Validate the definition by executing it once against current state.
	cs, _, err := e.runUnowned(cv.Select)
	if err != nil {
		return nil, fmt.Errorf("invalid view definition: %w", err)
	}
	cols := make([]string, len(cv.Columns))
	for i, c := range cv.Columns {
		cols[i] = up(c)
	}
	if len(cols) > 0 && len(cols) != len(cs.outCols()) {
		return nil, fmt.Errorf("view %s column list does not match definition", name)
	}
	e.eng.st.views[name] = &View{Name: name, Columns: cols, Select: cv.Select, reads: reads, funcs: funcs}
	e.logUndoCatalog(func(dst *state, _ bool) { delete(dst.views, name) })
	e.bumpSchema()
	return e.mem.result(Result{Kind: ResultDDL}), nil
}

func (e *Session) execCreateIndex(ci *ast.CreateIndex) (*Result, error) {
	name := up(ci.Name)
	if _, ok := e.eng.st.indexs[name]; ok {
		return nil, fmt.Errorf("%w: index %s", ErrDuplicateObject, name)
	}
	if ci.Clustered && e.eng.cfg.Quirks.ClusteredIndexError {
		// Quirk: the PG 7.0.0 clustered-index defect that made five MSSQL
		// bug scripts fail at the start when run on PostgreSQL.
		return nil, fmt.Errorf("internal error: cannot create clustered index %s", name)
	}
	t, ok := e.eng.st.tables[up(ci.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, ci.Table)
	}
	cols, err := t.columnIndexes(ci.Columns)
	if err != nil {
		return nil, err
	}
	if ci.Unique {
		if dup := t.findDuplicate(cols); dup >= 0 {
			return nil, fmt.Errorf("%w: duplicate key creating unique index %s", ErrConstraint, name)
		}
		t.Uniques = append(t.Uniques, cols)
		// Undo by identity, not position: another session may have
		// appended its own keyset before this rollback runs, and a
		// positional truncation would drop it (or resurrect stale ones).
		// Snapshot clones share the inner keyset slices, so the identity
		// match resolves on a clone too.
		added, tname := cols, t.Name
		e.logUndoTable(tname, func(dst *state, _ bool) {
			t, ok := dst.tables[tname]
			if !ok {
				return
			}
			for i, u := range t.Uniques {
				if len(u) > 0 && len(added) > 0 && &u[0] == &added[0] {
					t.Uniques = append(t.Uniques[:i], t.Uniques[i+1:]...)
					break
				}
			}
		})
	}
	e.eng.st.indexs[name] = &Index{Name: name, Table: t.Name, Cols: cols, Unique: ci.Unique, Clustered: ci.Clustered}
	e.logUndoCatalog(func(dst *state, _ bool) { delete(dst.indexs, name) })
	e.bumpSchema()
	return e.mem.result(Result{Kind: ResultDDL}), nil
}

func (e *Session) execCreateSequence(cs *ast.CreateSequence) (*Result, error) {
	name := up(cs.Name)
	if _, ok := e.eng.st.seqs[name]; ok {
		return nil, fmt.Errorf("%w: sequence %s", ErrDuplicateObject, name)
	}
	start := cs.Start
	if start == 0 {
		start = 1
	}
	e.eng.st.seqs[name] = &Sequence{Name: name, Next: start}
	e.logUndoCatalog(func(dst *state, _ bool) { delete(dst.seqs, name) })
	e.bumpSchema()
	return e.mem.result(Result{Kind: ResultDDL}), nil
}

func (e *Session) execDropTable(dt *ast.DropTable) (*Result, error) {
	name := up(dt.Name)
	if t, ok := e.eng.st.tables[name]; ok {
		delete(e.eng.st.tables, name)
		// On a snapshot clone the table header is copied: a later live
		// rollback re-adds (and then mutates) the original, which must
		// not reach through into a published immutable image. The clones
		// share its Rows array, so the original copies before its first
		// in-place write.
		t.rowsShared = true
		e.logUndoCatalog(func(dst *state, toSnap bool) {
			if toSnap {
				dst.tables[name] = t.cloneHeader()
			} else {
				dst.tables[name] = t
			}
		})
		e.bumpSchema()
		return e.mem.result(Result{Kind: ResultDDL}), nil
	}
	if v, ok := e.eng.st.views[name]; ok && e.eng.cfg.Quirks.AllowDropTableOnView {
		// Quirk: DROP TABLE silently removes a view (IB bug 223512,
		// shared by PG). SQL-92 requires DROP VIEW here.
		delete(e.eng.st.views, name)
		e.logUndoCatalog(func(dst *state, _ bool) { dst.views[name] = v })
		e.bumpSchema()
		return e.mem.result(Result{Kind: ResultDDL}), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
}

func (e *Session) execDropView(dv *ast.DropView) (*Result, error) {
	name := up(dv.Name)
	v, ok := e.eng.st.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: view %s", ErrTableNotFound, name)
	}
	delete(e.eng.st.views, name)
	e.logUndoCatalog(func(dst *state, _ bool) { dst.views[name] = v })
	e.bumpSchema()
	return e.mem.result(Result{Kind: ResultDDL}), nil
}

func (e *Session) execDropIndex(di *ast.DropIndex) (*Result, error) {
	name := up(di.Name)
	ix, ok := e.eng.st.indexs[name]
	if !ok {
		return nil, fmt.Errorf("%w: index %s", ErrTableNotFound, name)
	}
	delete(e.eng.st.indexs, name)
	e.logUndoCatalog(func(dst *state, _ bool) { dst.indexs[name] = ix })
	e.bumpSchema()
	return e.mem.result(Result{Kind: ResultDDL}), nil
}

func (e *Session) execDropSequence(ds *ast.DropSequence) (*Result, error) {
	name := up(ds.Name)
	s, ok := e.eng.st.seqs[name]
	if !ok {
		return nil, fmt.Errorf("%w: sequence %s", ErrTableNotFound, name)
	}
	delete(e.eng.st.seqs, name)
	// Sequences mutate in place (Next), so a snapshot clone gets its own
	// copy rather than sharing the live struct.
	e.logUndoCatalog(func(dst *state, toSnap bool) {
		if toSnap {
			cp := *s
			dst.seqs[name] = &cp
		} else {
			dst.seqs[name] = s
		}
	})
	e.bumpSchema()
	return e.mem.result(Result{Kind: ResultDDL}), nil
}

// TableNames lists the base tables, sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.Clone(e.facts().tables)
}

// HasTable reports whether a base table with the given name exists.
func (e *Engine) HasTable(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.st.tables[up(name)]
	return ok
}

// TableRowCount returns the number of rows in a base table.
func (e *Engine) TableRowCount(name string) (int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.st.tables[up(name)]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	e.lockLatch(t)
	n := len(t.Rows)
	t.latch.Unlock()
	return n, nil
}
