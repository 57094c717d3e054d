package engine

import (
	"errors"
	"sync"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// Session is one client session of an Engine: the unit of transaction
// scope. Any number of sessions share one engine; each carries its own
// open-transaction flag and undo log, so BEGIN on one session never
// affects another.
//
// Concurrency model: a session is owned by one client (one goroutine at
// a time), like a database connection; the engine arbitrates between
// sessions. Pure queries execute against committed read views under the
// engine read lock (see readview.go) — lock-free with respect to
// writers. DML runs under the read lock plus per-table latches acquired
// in sorted name order; DDL, ROLLBACK and state transfers take the
// exclusive lock. Transactions use an undo log over the shared state:
// typed records (undoRec), row writes held as data, that target rows by
// identity, so a rollback removes or restores exactly the transaction's
// own rows even when other sessions' statements interleaved — a DELETE
// that rolls back keeps another session's committed changes to the rows
// it kept, because the array it left stays copy-on-write. Concurrent
// transactions are isolated as long as they touch disjoint rows
// (write-write races on the same row remain the application's concern),
// which is the contract the workload layers (warehouse-pinned TPC-C
// terminals, wire clients on their own tables) follow. The log and the
// write path's scratch are kept across statements and transactions, so
// a write allocates little beyond the rows it stores.
type Session struct {
	eng    *Engine
	closed bool

	// txMu guards inTxn and undo against cross-session readers: the
	// read-view builder and per-table rewinds iterate other sessions'
	// undo logs while those sessions keep executing. The owning session
	// reads its own fields without txMu (it is the only writer) but
	// takes it for every mutation.
	txMu  sync.Mutex
	inTxn bool
	undo  []undoRec

	// touched names the tables this transaction has latched for
	// writing; a pure SELECT over any of them reads through the
	// own-writes images instead of the committed view. didDDL marks a
	// transaction that executed DDL: its later queries read the live
	// plane (schema changes are not versioned into read views) and its
	// COMMIT takes the exclusive lock to publish the schema. Owner-only
	// fields.
	touched map[string]struct{}
	didDDL  bool

	// level is the isolation level of the current transaction (or the
	// next one); defLevel the session default restored at transaction
	// end. txnStmts counts statements executed inside the open
	// transaction, gating SET TRANSACTION to the first position.
	// pinned is the REPEATABLE READ view, captured at the
	// transaction's first query. Owner-only fields, except pinned and
	// level resets from discardAllTxnsLocked (exclusive lock).
	level    IsoLevel
	defLevel IsoLevel
	txnStmts int
	pinned   *readView

	// curRead is the read view the currently executing statement
	// resolves tables against (nil = live plane). readOwnWrites marks a
	// statement that holds the latches of every table it can read and
	// reads committed state plus its own transaction's writes: a latched
	// write statement (INSERT ... SELECT sources, WHERE/SET subqueries,
	// sequence-advancing SELECTs) or a pure SELECT over tables its
	// transaction wrote. lookupTable then resolves each table to its
	// committed+own-writes image, cached in ownTabs for the statement —
	// never another session's uncommitted rows. Set and cleared around
	// each statement by the owning goroutine.
	curRead       *readView
	ownTabs       map[string]*Table
	readOwnWrites bool

	// bind is the argument vector of the currently executing statement
	// (Exec); Param nodes resolve against it. lits are its handle's
	// lifted literals (stmt.Parsed.Lits): a literal among them lowers to
	// a slot of the vector, and the slot reads it. A session executes one
	// statement at a time (one client), so plain fields suffice.
	bind []types.Value
	lits []*ast.Literal
	// variant is the plan variant the executing pure SELECT runs as
	// (ExecSelectVariant; ForceAuto otherwise).
	variant plan.Force

	// mem is the statement memory (arena.go), reclaimed when the next
	// statement starts; once holds, per execution of a pure SELECT, what
	// each uncorrelated nested select produced (onceOn: the rule
	// applies), its rows and IN sets in onceMem, which no rewind of mem
	// reaches. An undo record copies what it keeps of either arena.
	mem     arena
	once    []onceResult
	onceMem arena
	onceOn  bool
	// insCols holds an INSERT's column list resolved and insVals its
	// VALUES lowered, reused by every INSERT of the session (no write
	// statement runs inside another).
	insCols []int
	insVals []rexpr
	// keyBuf encodes one key at a time for grouping and DISTINCT
	// aggregates; fctx is what every builtin call is handed.
	keyBuf []byte
	fctx   FuncContext

	// frames are the selects being compiled, innermost last, for the
	// correlated bit (lower.go); onceN numbers the uncorrelated nested
	// selects of the statement-level select being compiled.
	frames []compileFrame
	onceN  int32

	// lastPlan records how the most recent SELECT, UPDATE or DELETE
	// reached its rows — see Session.LastPlan.
	lastPlan plan.Info
}

// recKind classifies an undo record by the state plane it rewinds, so
// the read-view machinery can apply catalog and sequence records at
// view build time while deferring row records to lazy per-table
// materialization.
type recKind uint8

const (
	// kindTable marks a record that mutates one table's rows (or its
	// Uniques keysets); table names it.
	kindTable recKind = iota
	// kindCatalog marks a record that mutates the catalog maps (or the
	// schema-version stamp).
	kindCatalog
	// kindSeq marks a record that restores a sequence cursor.
	kindSeq
)

// rowOp says which row write a kindTable record inverts; opFn marks a
// record whose body is its fn.
type rowOp uint8

const (
	opFn     rowOp = iota
	opInsert       // remove the added rows: row, or rows
	opUpdate       // swap each replacement back: old <- row, or rows' (old, new) pairs; cols are the SET ordinals
	opDelete       // put back rows, removed from pre to leave post
)

// undoRec is one typed undo record: the inverse of one mutation. Row
// writes (INSERT, UPDATE, DELETE) are data — a one-row record holds its
// row inline, so logging it allocates nothing once the session's log
// has grown — and apply interprets them. DDL and sequence records carry
// their body as a closure (fn).
type undoRec struct {
	kind  recKind
	op    rowOp
	table string // kindTable only: the table the record targets

	row, old  []types.Value   // a one-row INSERT's row; a one-row UPDATE's replacement and original
	rows      [][]types.Value // a multi-row INSERT's rows; a multi-row UPDATE's (old, new) pairs, flattened; a DELETE's removed rows
	pre, post [][]types.Value // DELETE: the table's Rows before and after it
	cols      []int           // UPDATE: the SET ordinals (the plan's, shared and immutable)

	fn undoFn
}

// undoFn is a DDL or sequence record's body: the inverse of one
// mutation, applicable to an arbitrary state plane. dst is the live
// state during ROLLBACK and a copy-on-write clone during a
// committed-image rewind (committedCatalog, committedTable); toSnap
// distinguishes the two so records that re-install dropped objects can
// copy mutable structures instead of sharing them with the live plane.
type undoFn func(dst *state, toSnap bool)

// apply rewinds the record on dst, with dst and toSnap as for undoFn.
// Records resolve tables and sequences by name within dst and rows by
// slice identity (identities are preserved by the header clone), so the
// same record is correct on any plane.
func (r *undoRec) apply(dst *state, toSnap bool) {
	if r.op == opFn {
		r.fn(dst, toSnap)
		return
	}
	t, ok := dst.tables[r.table]
	if !ok {
		return
	}
	switch r.op {
	case opInsert:
		rows := r.rows
		if rows == nil {
			one := [1][]types.Value{r.row}
			rows = one[:]
		}
		t.removeRowsByIdentity(rows)
	case opUpdate:
		pairs := r.rows
		if pairs == nil {
			one := [2][]types.Value{r.old, r.row}
			pairs = one[:]
		}
		t.unreplaceRows(pairs, r.cols)
	case opDelete:
		t.undelete(r.rows, r.pre, r.post, toSnap)
	}
}

// NewSession opens a session on the engine.
func (e *Engine) NewSession() *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Session{eng: e}
	s.fctx.Sess = s
	e.sessions[s] = struct{}{}
	return s
}

// Close rolls back any open transaction and unregisters the session. A
// closed session rejects further statements.
func (s *Session) Close() error {
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.closed {
		return nil
	}
	s.abortLocked()
	s.closed = true
	delete(e.sessions, s)
	return nil
}

// ErrSessionClosed is returned by statements on a closed session.
var ErrSessionClosed = errors.New("session is closed")

// Exec executes one statement handle in this session, with args bound
// to its placeholders (nil: nothing bound) once the engine's BindRules
// have normalized them; a placeholder with no value bound fails when it
// is evaluated, and checking the count up front is the caller's
// (stmt.Parsed.CheckArgs). Pure queries run against a committed read
// view under the engine's read lock (parallel with writers); DML runs
// under the read lock plus per-table latches; DDL, ROLLBACK and
// DDL-publishing COMMITs take the write lock.
//
// The result is valid until the session's next Exec, ExecSelectVariant
// or Close (Result).
func (s *Session) Exec(p *stmt.Parsed, args []types.Value) (*Result, error) {
	e := s.eng
	s.startStatement()
	bind := e.cfg.Bind.Apply(args)
	switch x := p.AST.(type) {
	case *ast.Select:
		e.mu.RLock()
		defer e.mu.RUnlock()
		if s.closed {
			return nil, ErrSessionClosed
		}
		if !e.selectAdvancesSequences(p) {
			return s.execSelectRead(p, bind)
		}
		// A sequence-advancing SELECT mutates state: it takes the
		// latched write path (it compiles per execution and never
		// publishes to the memo).
		s.lastPlan = plan.Info{}
		return s.execLatched(p, bind)

	case *ast.Insert, *ast.Update, *ast.Delete:
		e.mu.RLock()
		defer e.mu.RUnlock()
		if s.closed {
			return nil, ErrSessionClosed
		}
		return s.execLatched(p, bind)

	case *ast.Begin:
		e.mu.RLock()
		defer e.mu.RUnlock()
		if s.closed {
			return nil, ErrSessionClosed
		}
		return s.execBegin()

	case *ast.Commit:
		e.mu.RLock()
		if s.closed {
			e.mu.RUnlock()
			return nil, ErrSessionClosed
		}
		if !s.didDDL {
			defer e.mu.RUnlock()
			return s.execCommit()
		}
		e.mu.RUnlock()
		// A DDL-bearing transaction publishes its schema at COMMIT
		// under the exclusive lock (readers stamp plans against the
		// committed schema version).

	case *ast.SetTxn:
		e.mu.RLock()
		defer e.mu.RUnlock()
		if s.closed {
			return nil, ErrSessionClosed
		}
		return s.execSetTxn(x)
	}

	// DDL, ROLLBACK, DDL-bearing COMMIT, unknown statements: exclusive.
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.inTxn {
		s.txnStmts++
	}
	s.bind, s.lits = bind, p.Lits
	res, err := s.exec(p)
	s.bind, s.lits = nil, nil
	if !s.inTxn {
		// Autocommit: outside an explicit transaction every statement
		// commits on completion, so the undo entries are discarded and
		// the commit high-water mark advances past the statement.
		if err == nil {
			switch p.AST.(type) {
			case *ast.Begin, *ast.Commit, *ast.Rollback, *ast.SetTxn:
				// BEGIN opens a transaction; COMMIT advanced the mark in
				// execCommit; ROLLBACK and SET TRANSACTION commit nothing.
			default:
				e.commitSeq.Add(1)
			}
		}
		s.clearTxnState()
		// Publish the committed schema stamp: after an autocommit DDL,
		// a committed DDL transaction, or a rollback (which restored
		// the previous stamp) the live schema version is the committed
		// one.
		e.publishSchema()
	}
	return res, err
}

// startStatement reclaims what the session's previous statement held:
// its arena (its result too), its uncorrelated selects' outputs, and the
// compile frames of a statement a panic cut short.
func (s *Session) startStatement() {
	s.mem.reset()
	s.onceMem.reset()
	clear(s.once)
	s.frames = s.frames[:0]
}

// execLatched runs a state-changing non-DDL statement under the engine
// read lock plus the sorted per-table latches of every table the
// statement can touch. Caller holds the read lock.
func (s *Session) execLatched(p *stmt.Parsed, bind []types.Value) (*Result, error) {
	e := s.eng
	refs := e.latchSet(p)
	e.latchTables(refs)
	defer e.unlatchTables(refs)
	e.checkPlantedPanic()
	if s.inTxn {
		s.txnStmts++
		if s.touched == nil {
			s.touched = make(map[string]struct{}, len(refs))
		}
		for _, n := range refs {
			s.touched[n] = struct{}{}
		}
	}
	// Reads performed by the statement itself (INSERT ... SELECT,
	// subqueries in WHERE/SET/CHECK, sequence-advancing SELECTs) must
	// not see other sessions' uncommitted rows: see readOwnWrites.
	s.readOwnWrites, s.bind, s.lits = true, bind, p.Lits
	res, err := s.exec(p)
	s.endOwnWrites()
	if !s.inTxn {
		if err == nil {
			// Advance the commit mark while the latches are held, so a
			// reader that observes the new rows also observes the new
			// sequence number. (Outside a transaction no undo records
			// were logged; failed statements self-clean their partial
			// effects — see dml.go.)
			e.commitSeq.Add(1)
		}
		s.clearTxnState()
	}
	return res, err
}

// execSelectRead runs a pure SELECT, normally or as a plan variant, on
// the appropriate read plane. Caller holds the engine read lock.
func (s *Session) execSelectRead(p *stmt.Parsed, bind []types.Value) (*Result, error) {
	e := s.eng
	e.checkPlantedPanic()
	if s.inTxn {
		s.txnStmts++
		if s.didDDL || s.touchesRefs(p) {
			return s.execSelectOwn(p, bind)
		}
		if s.level == LevelRepeatableRead {
			if s.pinned == nil {
				s.pinned = e.currentView()
			}
			s.curRead = s.pinned
		} else {
			s.curRead = e.currentView()
		}
	} else {
		s.curRead = e.currentView()
	}
	s.bind, s.lits = bind, p.Lits
	res, err := s.execSelectRLocked(p)
	s.bind, s.lits = nil, nil
	s.curRead = nil
	return res, err
}

// touchesRefs reports whether the query reads any table this
// transaction has written.
func (s *Session) touchesRefs(p *stmt.Parsed) bool {
	if len(s.touched) == 0 {
		return false
	}
	for _, n := range s.eng.latchSet(p) {
		if _, ok := s.touched[n]; ok {
			return true
		}
	}
	return false
}

// execSelectOwn runs an in-transaction SELECT over tables the
// transaction itself has written (or after in-transaction DDL): it
// latches the referenced tables and reads them with readOwnWrites set,
// so the session sees exactly the committed state plus its own writes.
// Caller holds the engine read lock.
func (s *Session) execSelectOwn(p *stmt.Parsed, bind []types.Value) (*Result, error) {
	refs := s.eng.latchSet(p)
	s.eng.latchTables(refs)
	defer s.eng.unlatchTables(refs)
	s.readOwnWrites, s.bind, s.lits = true, bind, p.Lits
	res, err := s.execSelectRLocked(p)
	s.endOwnWrites()
	return res, err
}

// endOwnWrites ends a statement that ran with readOwnWrites set: it
// drops the bind and literal vectors and the statement's cached table
// images.
func (s *Session) endOwnWrites() {
	s.readOwnWrites, s.bind, s.lits = false, nil, nil
	clear(s.ownTabs)
}

// SelectAdvancesSequences reports whether evaluating the query would
// mutate engine state: it calls a sequence-advancing function directly,
// or reads a view whose definition (transitively) does. Such a SELECT
// must be treated as a write by every layer (the engine's lock mode,
// the middleware's cross-session ordering and read policies).
func (e *Engine) SelectAdvancesSequences(p *stmt.Parsed) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.selectAdvancesSequences(p)
}

// selectAdvancesSequences is SelectAdvancesSequences with the engine
// lock held (at least read mode). Views are asked of the live catalog's
// facts, not at CREATE VIEW: they can be dropped and recreated.
func (e *Engine) selectAdvancesSequences(p *stmt.Parsed) bool {
	if e.callsSeqFunc(p.Fingerprint.Funcs) {
		return true
	}
	f := e.facts()
	for _, n := range p.Fingerprint.Tables {
		if f.views[n].advances {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Transactions
//
// A session implements transactions with an undo log: every mutation
// registers its inverse; ROLLBACK applies the inverses in reverse order.
// Outside a transaction statements auto-commit and log nothing; at
// transaction end the log is emptied for the next one.

func (s *Session) execBegin() (*Result, error) {
	if s.inTxn {
		return nil, errors.New("transaction already in progress")
	}
	s.txMu.Lock()
	s.inTxn = true
	s.undo = reuse(s.undo, undoKeep)
	s.txMu.Unlock()
	s.clearTouched()
	s.didDDL = false
	s.txnStmts = 0
	s.pinned = nil
	s.level = s.defLevel
	return s.mem.result(Result{Kind: ResultDDL}), nil
}

// execCommit commits the session's transaction: under the engine read
// lock for a transaction that performed no DDL, under the exclusive lock
// for one that did (there commitMu is uncontended: Snapshot takes it
// only while holding the read lock). The commit-mark bump and the
// undo-log clear happen atomically with respect to Snapshot (commitMu),
// so a snapshot's stamp always matches its content.
//
// View builds do NOT take commitMu, so the order of the two steps
// matters: the undo log is cleared BEFORE the commit mark advances. A
// view build samples commitSeq first and iterates undo logs after;
// bumping first would open a window where the build rewinds the
// just-committed changes yet stamps the view with the new sequence —
// a stale view served as current until the next commit. With
// clear-before-bump the worst a racing build can do is stamp
// already-committed content with the previous sequence; that view is
// stale the moment the mark advances and is rebuilt on the next read
// (benign under READ COMMITTED, and a pinned view built in the window
// is still one consistent committed image).
func (s *Session) execCommit() (*Result, error) {
	if !s.inTxn {
		return nil, ErrNoTransaction
	}
	e := s.eng
	e.commitMu.Lock()
	bump := len(s.undo) > 0
	s.clearTxnState()
	if bump {
		e.commitSeq.Add(1)
	}
	e.commitMu.Unlock()
	return s.mem.result(Result{Kind: ResultDDL}), nil
}

func (s *Session) execRollback() (*Result, error) {
	if !s.inTxn {
		return nil, ErrNoTransaction
	}
	s.rollbackLocked()
	return s.mem.result(Result{Kind: ResultDDL}), nil
}

// rollbackLocked applies the undo log in reverse. Caller holds the
// exclusive engine lock (undo application mutates tables, catalog maps
// and the schema stamp in place).
func (s *Session) rollbackLocked() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.undo[i].apply(&s.eng.st, false)
	}
	s.clearTxnState()
}

// clearTxnState resets the session's transaction bookkeeping (under
// txMu, so concurrent view builds never observe a half-cleared log).
// The undo log and the touched set keep their storage for the next
// transaction.
func (s *Session) clearTxnState() {
	s.txMu.Lock()
	s.inTxn = false
	s.undo = reuse(s.undo, undoKeep)
	s.txMu.Unlock()
	s.clearTouched()
	s.didDDL = false
	s.txnStmts = 0
	s.pinned = nil
	s.level = s.defLevel
}

// Past these sizes a transaction's undo log or touched set is dropped
// at its end rather than kept for the next: one bulk transaction must
// not pin its high-water mark to the session. (Row memory follows the
// arena's rule, arena.go.)
const (
	undoKeep    = 128 // undo records
	touchedKeep = 64  // touched tables
)

// reuse returns buf emptied for the next use: its elements zeroed, so
// it retains nothing they referenced, or nil once it has grown past
// keep elements.
func reuse[T any](buf []T, keep int) []T {
	if cap(buf) > keep {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// clearTouched empties the touched set, keeping it unless it grew past
// touchedKeep.
func (s *Session) clearTouched() {
	if len(s.touched) > touchedKeep {
		s.touched = nil
	} else {
		clear(s.touched)
	}
}

// logUndo appends a closure-bodied undo record when a transaction is
// open.
func (s *Session) logUndo(kind recKind, table string, fn undoFn) {
	s.logUndoRec(undoRec{kind: kind, table: table, fn: fn})
}

// logUndoRec appends an undo record when a transaction is open. Appends
// happen under txMu: the read-view builder and per-table rewinds
// iterate this log from other goroutines.
func (s *Session) logUndoRec(r undoRec) {
	if s.inTxn {
		s.txMu.Lock()
		s.undo = append(s.undo, r)
		s.txMu.Unlock()
	}
}

// logUndoTable logs a closure-bodied row-plane record for one table
// (the CREATE INDEX keyset record; row writes log typed records).
func (s *Session) logUndoTable(table string, fn undoFn) { s.logUndo(kindTable, table, fn) }

// logUndoCatalog logs a catalog-plane undo record.
func (s *Session) logUndoCatalog(fn undoFn) { s.logUndo(kindCatalog, "", fn) }

// logUndoSeq logs a sequence-cursor undo record.
func (s *Session) logUndoSeq(fn undoFn) { s.logUndo(kindSeq, "", fn) }

// InTxn reports whether the session has an explicit transaction open.
func (s *Session) InTxn() bool {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	return s.inTxn
}

// Abort rolls back the session's open transaction, if any (used when the
// session's connection drops).
func (s *Session) Abort() {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	s.abortLocked()
}

func (s *Session) abortLocked() {
	if s.inTxn {
		s.rollbackLocked()
	}
}

// ---------------------------------------------------------------------------
// Engine-wide session operations

// AbortAll rolls back every session's open transaction (an engine crash:
// committed state survives, in-flight transactions do not).
func (e *Engine) AbortAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for s := range e.sessions {
		s.abortLocked()
	}
}

// SessionCount reports the number of live sessions (for tests and
// introspection).
func (e *Engine) SessionCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.sessions)
}

// discardAllTxnsLocked clears every session's transaction state without
// applying undo entries (the state they refer to has been replaced).
func (e *Engine) discardAllTxnsLocked() {
	for s := range e.sessions {
		s.clearTxnState()
	}
}
