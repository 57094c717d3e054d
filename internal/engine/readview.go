package engine

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"time"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

// This file implements MVCC read views: per-statement (READ COMMITTED)
// and per-transaction (REPEATABLE READ) images of the committed state
// that pure SELECTs execute against without blocking on — or being
// blocked by — concurrent writers.
//
// Two routines compute every committed image in the engine — read
// views here, Snapshot (snapshot.go) and the own-writes reads of
// lookupTable:
//
//   - committedCatalog copies the CATALOG maps and rewinds open
//     transactions' catalog/sequence undo records on the copies. A
//     readView is built without touching table data — from the live
//     catalog itself while no open transaction holds a catalog record,
//     else from committedCatalog; each table is wrapped in a viewTable
//     that materializes its committed row image lazily, on first access
//     through the view.
//   - committedTable takes one table's image: the table itself when no
//     other open transaction has a record on it, else a copy-on-write
//     header clone (cloneHeader) with those records rewound — the same
//     records (undoRec.apply) that implement ROLLBACK.
//
// Materialization is O(1) in the common case: rows are immutable once
// written and every row mutation installs a fresh outer Rows slice (or
// appends beyond the captured length), so when the table has not
// changed since the view was built and no open transaction holds
// uncommitted changes to it, capturing the live Rows slice header under
// the table latch yields a stable committed image without copying a
// single row. That check runs before committedTable.
//
// Write serialization is narrowed from the engine-wide lock to
// per-table latches: DML runs under the engine READ lock plus the
// latches of every table the statement can touch (target, subqueries,
// CHECK and DEFAULT expressions, views — see latchSet), acquired in
// sorted name order so concurrent writers can never deadlock. DDL,
// ROLLBACK and state transfers still take the exclusive lock: they
// mutate the catalog maps that every other path reads locklessly.
//
// Consistency contract (documented in ISOLATION.md): under READ
// COMMITTED each statement sees a committed image per table; under
// concurrent load two tables first read by the same statement may be
// materialized a few commits apart. Under REPEATABLE READ the view is
// pinned at the transaction's first query and each table's image is
// frozen at its first materialization, which prevents non-repeatable
// reads and phantoms per table. Statements that read tables the
// transaction itself has written (or that follow in-transaction DDL)
// fall back to a latched read of the live plane with the OTHER
// sessions' uncommitted changes rewound, so a transaction always sees
// its own writes — and, on those tables, every commit that landed since
// its view was pinned.

// IsoLevel is the engine's isolation-level lattice. The engine
// implements two behaviours; the four SQL level names collapse onto
// them (READ UNCOMMITTED requests are served at READ COMMITTED — the
// engine no longer exposes dirty reads — and SERIALIZABLE/SNAPSHOT are
// served with REPEATABLE READ snapshot semantics).
type IsoLevel int

// Isolation levels.
const (
	LevelReadCommitted IsoLevel = iota
	LevelRepeatableRead
)

// ParseIsoLevel maps a SQL isolation-level name (canonical upper-case,
// as produced by the parser) to the engine behaviour implementing it.
func ParseIsoLevel(name string) (IsoLevel, bool) {
	switch name {
	case "READ UNCOMMITTED", "READ COMMITTED":
		return LevelReadCommitted, true
	case "REPEATABLE READ", "SERIALIZABLE", "SNAPSHOT":
		return LevelRepeatableRead, true
	}
	return 0, false
}

// errSetTxnMidTxn is the deterministic error for SET TRANSACTION after
// the first statement of an open transaction.
var errSetTxnMidTxn = errors.New("SET TRANSACTION must be the first statement of a transaction")

// readView is one committed-state image: catalog maps rewound to the
// committed state at build time, and per-table lazily materialized row
// images. A view is immutable after build except for the lazy mat
// fields inside each viewTable (guarded by the viewTable's own mutex).
type readView struct {
	eng *Engine
	// seq/gen stamp the view for staleness checks: a view is current
	// while both match the engine's commitSeq and viewGen.
	seq uint64
	gen uint64
	// schema is the committed schema-version stamp, used as the plan
	// cache version for statements executed through this view. Two
	// views with equal stamps have identical catalogs, so compiled
	// plans are shared safely across views and with the live plane.
	schema uint64

	// views and indexs are the committed catalog's; a view whose stamp
	// equals its predecessor's shares them (buildView).
	tables map[string]*viewTable
	views  map[string]*View
	indexs map[string]*Index
}

// viewTable wraps one base table in a read view. All fields except mat
// are immutable after the view is built.
type viewTable struct {
	// live is the engine-resident table the image derives from (still
	// valid after a DROP: the view pins it).
	live *Table
	// mutSeqAtBuild is the table's mutation stamp when the view was
	// built; dirty records whether any open transaction held
	// uncommitted changes to the table at that time.
	mutSeqAtBuild uint64
	dirty         bool

	mu sync.Mutex
	// mat is the lazily materialized committed image (nil until first
	// access).
	mat *Table
}

// premat wraps a table that was fully materialized during the view
// build itself (a table re-installed by rewinding an uncommitted DROP).
func premat(t *Table) *viewTable { return &viewTable{mat: t} }

// table returns the viewTable for name, or nil when the committed
// catalog has no such base table.
func (v *readView) table(name string) *viewTable { return v.tables[name] }

// materialize returns the committed row image of the table, building it
// on first access. Caller holds the engine read lock.
func (vt *viewTable) materialize(e *Engine) *Table {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if vt.mat != nil {
		return vt.mat
	}
	t := vt.live
	e.lockLatch(t)
	defer t.latch.Unlock()
	if vt.dirty || t.mutSeq.Load() != vt.mutSeqAtBuild {
		// The table moved on (or carried uncommitted changes at build
		// time): its committed image as of now. Per-statement staleness
		// checks make the slightly newer image harmless (READ COMMITTED
		// semantics; see ISOLATION.md).
		if img := e.committedTable(t, nil); img != t {
			vt.mat = img
			e.matRewinds.Add(1)
			return img
		}
	}
	// No uncommitted changes: capture the live slice headers. Writers
	// never mutate Rows below the captured length in place (see dml.go's
	// copy-on-write contract), so the capture is a stable committed image.
	mat := t.cloneHeader()
	t.rowsShared = true
	// Captures of one table share an index-cache lineage while its
	// baseSeq is unchanged (appends only): each new capture inherits the
	// previous captures' lookup indexes and extends them over the
	// appended rows instead of rebuilding (see index.go). The capture
	// carries the column versions those indexes are validated against.
	mat.colVer = append([]uint64(nil), t.colVer...)
	mat.baseSeq.Store(t.baseSeq.Load())
	if t.capIC != nil && t.capICBase == t.baseSeq.Load() {
		mat.ic = t.capIC
	} else {
		t.capIC, t.capICBase = mat.ic, t.baseSeq.Load()
	}
	vt.mat = mat
	e.matCleans.Add(1)
	return mat
}

// committedTable returns the image of the live table t that holds its
// committed rows plus, when except is a session, that session's own
// uncommitted changes. When no other open transaction has a record on
// t, the image is t itself. Otherwise it is a copy-on-write clone
// (cloneHeader) with those records rewound, and the live table is
// marked rowsShared. The undo logs are scanned once. Caller holds the
// engine read lock and the table's latch.
func (e *Engine) committedTable(t *Table, except *Session) *Table {
	var dst *state
	for s := range e.sessions {
		if s == except {
			continue
		}
		s.txMu.Lock()
		if s.inTxn {
			for i := len(s.undo) - 1; i >= 0; i-- {
				r := &s.undo[i]
				if r.kind != kindTable || r.table != t.Name {
					continue
				}
				if dst == nil {
					dst = &state{tables: map[string]*Table{t.Name: t.cloneHeader()}}
					t.rowsShared = true
				}
				r.apply(dst, true)
			}
		}
		s.txMu.Unlock()
	}
	if dst == nil {
		return t
	}
	return dst.tables[t.Name]
}

// currentView returns the engine's shared committed read view, building
// a fresh one when the cached view is stale. Caller holds the engine
// read lock. Builds are single-flighted under viewMu.
func (e *Engine) currentView() *readView {
	seq, gen := e.commitSeq.Load(), e.viewGen.Load()
	if v := e.curView.Load(); v != nil && v.seq == seq && v.gen == gen {
		e.viewHits.Add(1)
		return v
	}
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	seq, gen = e.commitSeq.Load(), e.viewGen.Load()
	if v := e.curView.Load(); v != nil && v.seq == seq && v.gen == gen {
		e.viewHits.Add(1)
		return v
	}
	v := e.buildView(seq, gen)
	e.curView.Store(v)
	e.viewBuilds.Add(1)
	return v
}

// buildView constructs a committed read view: tables a catalog rewind
// re-installed are already private images, every other table gets a
// lazily materialized viewTable. Caller holds the engine read lock and
// viewMu.
//
// The catalog is copied only when it must be. With no catalog record in
// any open transaction the live catalog is the committed one: the view
// walks the live table map (stable under the read lock) and shares the
// previous view's views and indexes while the committed schema stamp is
// unchanged — equal stamps name identical catalogs, and Reset and a
// Restore or RestoreScoped that changes the catalog move it. Otherwise committedCatalog rewinds
// copies. Sequence records never matter: a view carries no sequences
// (a SELECT that advances one runs on the live plane).
//
// Each table's mutation stamp is sampled before the undo logs are
// scanned, and writers log a row record before their statement's last
// stamp move: so a table whose record the scan missed has moved past its
// sampled stamp, and materialize images it (committedTable) instead of
// capturing its live rows.
func (e *Engine) buildView(seq, gen uint64) *readView {
	names := e.facts().tables
	stamps := e.viewStamps[:0]
	for _, n := range names {
		stamps = append(stamps, e.st.tables[n].mutSeq.Load())
	}
	e.viewStamps = stamps
	dirty, catalog := e.openRecords(e.viewDirty[:0])
	e.viewDirty = dirty

	prev := e.curView.Load()
	v := &readView{eng: e, seq: seq, gen: gen, schema: e.committedSchema}
	tables := e.st.tables
	switch {
	case catalog:
		var cat *state
		cat, dirty = e.committedCatalog(false)
		tables, v.views, v.indexs = cat.tables, cat.views, cat.indexs
	case prev != nil && prev.schema == v.schema:
		v.views, v.indexs = prev.views, prev.indexs
	default:
		v.views, v.indexs = maps.Clone(e.st.views), maps.Clone(e.st.indexs)
	}
	v.tables = make(map[string]*viewTable, len(tables))
	for n, t := range tables {
		if t != e.st.tables[n] {
			v.tables[n] = premat(t)
			continue
		}
		i, _ := slices.BinarySearch(names, n)
		ms, isDirty := stamps[i], slices.Contains(dirty, n)
		if prev != nil && !isDirty {
			// Reuse the previous view's wrapper (and its materialized
			// image and lazy indexes) while the table is unchanged.
			if pv := prev.tables[n]; pv != nil && pv.live == t && !pv.dirty && pv.mutSeqAtBuild == ms {
				v.tables[n] = pv
				e.viewReuses.Add(1)
				continue
			}
		}
		v.tables[n] = &viewTable{live: t, mutSeqAtBuild: ms, dirty: isDirty}
	}
	return v
}

// openRecords appends to dirty the tables open transactions hold row
// records on (each once), and reports whether any holds a catalog
// record. Caller holds the engine read lock.
func (e *Engine) openRecords(dirty []string) (_ []string, catalog bool) {
	for s := range e.sessions {
		s.txMu.Lock()
		if s.inTxn {
			for i := range s.undo {
				switch r := &s.undo[i]; r.kind {
				case kindCatalog:
					catalog = true
				case kindTable:
					if !slices.Contains(dirty, r.table) {
						dirty = append(dirty, r.table)
					}
				}
			}
		}
		s.txMu.Unlock()
	}
	return dirty, catalog
}

// committedCatalog rewinds the catalog to its committed state: it copies
// the catalog maps (and, with seqs, the sequences by value — they advance
// in place), rewinds every open transaction's catalog (and sequence)
// records on the copies, then rewinds the row records of tables a
// catalog record re-installed (those are private clones already). Every
// other table in the result is the live instance; dirty names, once
// each, the ones an open transaction holds uncommitted row changes to,
// for the caller to image (committedTable). Catalog rewinds land before
// any row rewind targets them, so the result does not depend on session
// iteration order. Caller holds the engine read lock.
func (e *Engine) committedCatalog(seqs bool) (cat *state, dirty []string) {
	cat = &state{
		tables: maps.Clone(e.st.tables),
		views:  maps.Clone(e.st.views),
		indexs: maps.Clone(e.st.indexs),
		seqs:   map[string]*Sequence{},
	}
	if seqs {
		e.seqMu.Lock()
		for n, sq := range e.st.seqs {
			cp := *sq
			cat.seqs[n] = &cp
		}
		e.seqMu.Unlock()
	}

	var tableRecs []undoRec // copies: the owner may clear its log once txMu is released
	for s := range e.sessions {
		s.txMu.Lock()
		if s.inTxn {
			for i := len(s.undo) - 1; i >= 0; i-- {
				r := &s.undo[i]
				switch {
				case r.kind == kindCatalog, r.kind == kindSeq && seqs:
					r.apply(cat, true)
				case r.kind == kindTable:
					tableRecs = append(tableRecs, *r)
				}
			}
		}
		s.txMu.Unlock()
	}
	for i := range tableRecs {
		r := &tableRecs[i]
		if cur, ok := cat.tables[r.table]; ok && cur == e.st.tables[r.table] {
			// Still the live table instance: the caller images it.
			if !slices.Contains(dirty, r.table) {
				dirty = append(dirty, r.table)
			}
			continue
		}
		// The table was re-installed (or replaced) by a catalog rewind:
		// it is already a private clone, rewind the rows now.
		r.apply(cat, true)
	}
	return cat, dirty
}

// ---------------------------------------------------------------------------
// Per-table write latches

// lockLatch acquires a table latch, counting contended acquisitions and
// the time spent waiting (the latch-wait observability surface).
func (e *Engine) lockLatch(t *Table) {
	if t.latch.TryLock() {
		return
	}
	start := time.Now()
	t.latch.Lock()
	e.latchWaits.Add(1)
	e.latchWaitNs.Add(uint64(time.Since(start)))
}

// latchTables acquires the latches of the named tables in sorted name
// order (names must be sorted and deduplicated; names of no table are
// skipped — views, and what the statement will fail resolving).
// unlatchTables(names) releases them. Caller holds the engine read lock
// throughout, which keeps the table map and the *Table instances stable
// between the two calls.
func (e *Engine) latchTables(names []string) {
	for _, n := range names {
		if t, ok := e.st.tables[n]; ok {
			e.lockLatch(t)
		}
	}
}

// unlatchTables releases the latches latchTables(names) acquired.
func (e *Engine) unlatchTables(names []string) {
	for i := len(names) - 1; i >= 0; i-- {
		if t, ok := e.st.tables[names[i]]; ok {
			t.latch.Unlock()
		}
	}
}

// latchSet returns, sorted, every name whose table the statement can
// touch: the tables and views it names (in any subquery), everything the
// views among them read, transitively, and for an INSERT or UPDATE what
// the target's CHECK and DEFAULT expressions read (constraint checking
// and default filling evaluate them). Usually that is the handle's own
// table list, returned as is. Caller holds the engine lock in at least
// read mode.
func (e *Engine) latchSet(p *stmt.Parsed) []string {
	f := e.facts()
	var set []string // starts nil, so it never aliases the facts' slices
	switch x := p.AST.(type) {
	case *ast.Insert:
		set = append(set, f.reads[up(x.Table)]...)
	case *ast.Update:
		set = append(set, f.reads[up(x.Table)]...)
	}
	for _, n := range p.Fingerprint.Tables {
		set = append(set, f.views[n].reads...)
	}
	if len(set) == 0 {
		return p.Fingerprint.Tables
	}
	set = append(set, p.Fingerprint.Tables...)
	slices.Sort(set)
	return slices.Compact(set)
}

// schemaFacts is what latching, Snapshot and sequence classification
// need to know of the live catalog, derived once per catalog change
// (facts) so that no statement walks a tree or builds a set to learn it.
type schemaFacts struct {
	tables []string             // every base table, sorted: the latch order
	views  map[string]viewFacts // every view
	reads  map[string][]string  // table -> what its CHECK and DEFAULT expressions read, views closed over, sorted
}

// viewFacts is what one view reads and whether reading it advances a
// sequence.
type viewFacts struct {
	reads    []string // every name the view reads, through nested views too, sorted
	advances bool     // it calls a SeqFunc builtin, or a view it reads does
}

// facts returns the live catalog's facts, deriving them after a change
// (DDL, its undo, a catalog-changing restore, Reset: setSchemaVersion
// drops them). Caller holds the engine lock in at least read mode, which
// keeps the catalog still; two readers deriving at once derive the same facts.
func (e *Engine) facts() *schemaFacts {
	if f := e.curFacts.Load(); f != nil {
		return f
	}
	f := &schemaFacts{
		tables: slices.Sorted(maps.Keys(e.st.tables)),
		views:  make(map[string]viewFacts, len(e.st.views)),
		reads:  make(map[string][]string),
	}
	for n, v := range e.st.views {
		reads, advances := e.closeOverViews(v.reads)
		f.views[n] = viewFacts{reads: reads, advances: advances || e.callsSeqFunc(v.funcs)}
	}
	for n, t := range e.st.tables {
		if len(t.reads) > 0 {
			f.reads[n], _ = e.closeOverViews(t.reads)
		}
	}
	e.curFacts.Store(f)
	return f
}

// closeOverViews returns, sorted, names plus everything the views among
// them read, transitively, and whether any of those views calls a
// SeqFunc builtin.
func (e *Engine) closeOverViews(names []string) (closed []string, advances bool) {
	seen := make(map[string]bool, len(names))
	work := slices.Clone(names)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if v, ok := e.st.views[n]; ok {
			advances = advances || e.callsSeqFunc(v.funcs)
			work = append(work, v.reads...)
		}
	}
	return slices.Sorted(maps.Keys(seen)), advances
}

// callsSeqFunc reports whether any of the named functions (upper case)
// is one of this engine's sequence-advancing builtins.
func (e *Engine) callsSeqFunc(funcs []string) bool {
	for _, fn := range funcs {
		if e.cfg.Funcs[fn].SeqFunc {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Read-plane resolution

// lookupTable resolves a base table on the session's active read plane:
// the active read view's materialized image, or the live state. While a
// statement reads its own writes (readOwnWrites: a latched write
// statement, or a pure SELECT over tables its transaction wrote), every
// table resolves to its committed+own-writes image (committedTable),
// built on first touch and cached in ownTabs for the rest of the
// statement, so the statement never observes other sessions'
// uncommitted rows. The statement holds the latch of every table it can
// read (latchSet), which is the precondition committedTable
// requires. Caller holds the engine lock in at least read mode.
func (s *Session) lookupTable(name string) (*Table, bool) {
	if s.curRead != nil {
		vt := s.curRead.table(name)
		if vt == nil {
			return nil, false
		}
		return vt.materialize(s.eng), true
	}
	t, ok := s.eng.st.tables[name]
	if !ok || !s.readOwnWrites {
		return t, ok
	}
	// The image is cacheable for the statement's duration either way: a
	// clean table cannot become dirty while this statement holds its
	// latch (logging an undo record for it requires the latch), and a
	// dirty image frozen at first read is the per-statement committed
	// image the contract promises.
	if img, ok := s.ownTabs[name]; ok {
		return img, true
	}
	img := s.eng.committedTable(t, s)
	if s.ownTabs == nil {
		s.ownTabs = make(map[string]*Table, 1)
	}
	s.ownTabs[name] = img
	return img, true
}

// lookupView resolves a view on the session's active read plane.
func (s *Session) lookupView(name string) (*View, bool) {
	if s.curRead != nil {
		v, ok := s.curRead.views[name]
		return v, ok
	}
	v, ok := s.eng.st.views[name]
	return v, ok
}

// catalogIndexes returns the index catalog of the session's active read
// plane (the own-writes path reads the live catalog: the transaction
// must see its own DDL).
func (s *Session) catalogIndexes() map[string]*Index {
	if s.curRead != nil {
		return s.curRead.indexs
	}
	return s.eng.st.indexs
}

// planVersion is the schema stamp compiled plans are validated against
// on the session's active read plane.
func (s *Session) planVersion() uint64 {
	if s.curRead != nil {
		return s.curRead.schema
	}
	return s.eng.schemaVersion
}

// ---------------------------------------------------------------------------
// SET TRANSACTION

// execSetTxn applies a SET TRANSACTION ISOLATION LEVEL statement.
// Outside a transaction it sets the session default (and the level of
// the next transaction); as the first statement of a transaction it
// sets that transaction's level; later in a transaction it fails
// deterministically. Level names the engine does not implement are
// rejected at the dialect layer (checkDialect) before reaching here.
func (s *Session) execSetTxn(st *ast.SetTxn) (*Result, error) {
	lvl, ok := ParseIsoLevel(st.Level)
	if !ok {
		return nil, errors.New("unknown isolation level " + st.Level)
	}
	if s.inTxn {
		if s.txnStmts > 0 {
			return nil, errSetTxnMidTxn
		}
		s.level = lvl
	} else {
		s.defLevel = lvl
		s.level = lvl
	}
	return s.mem.result(Result{Kind: ResultDDL}), nil
}

// IsolationLevel reports the session's current isolation level (the
// open transaction's level, or the session default).
func (s *Session) IsolationLevel() IsoLevel {
	s.eng.mu.RLock()
	defer s.eng.mu.RUnlock()
	return s.level
}
