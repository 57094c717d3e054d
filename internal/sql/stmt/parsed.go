// Package stmt holds the statement handle: one statement text resolved
// once, with everything derived from its tree alone, shared by every
// layer from the wire down to the engines that execute it.
package stmt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"divsql/internal/obs"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
)

// ErrBind wraps bind-time failures of the prepare/bind/execute path:
// argument-count mismatches, references to unbound parameter ordinals,
// and parameters in statements that cannot carry them (DDL).
var ErrBind = errors.New("bind error")

// Class is what the layers above the engine need to know about a
// statement's kind without looking at its tree: whether it can be a
// query, and how it moves a session's transaction state.
type Class uint8

// Statement classes.
const (
	ClassOther  Class = iota // DML and DDL
	ClassSelect              // Parsed.Select is set
	ClassBegin
	ClassEnd    // COMMIT or ROLLBACK
	ClassSetTxn // SET TRANSACTION ISOLATION LEVEL
)

// Parsed is one statement text resolved once: its tree and everything
// derived from the tree alone. It is immutable — one Parsed (and its
// AST, which CREATE VIEW also retains in every replica's catalog) is
// shared by every session, shard, replica and engine that executes the
// text, concurrently — so nothing may write to it; a layer that rewrites
// a statement (middleware.Rephrase, the metamorphic oracles) copies the
// nodes it changes and derives the rewrite's handle with Rewritten.
//
// What depends on a schema is not here: an engine combines the sorted
// table and function lists (Fingerprint.Tables, Fingerprint.Funcs) with
// facts it derives once per schema generation into the tables a
// statement latches and whether a SELECT advances a sequence.
type Parsed struct {
	Text        string
	AST         ast.Statement
	Select      *ast.Select // AST when the statement is a SELECT, else nil
	Class       Class
	Fingerprint ast.Fingerprint
	NumParams   int
	// BindErr is why the statement cannot be prepared, if it cannot:
	// placeholders outside DML and queries (a view definition or DEFAULT
	// expression holding a parameter would dangle once the binding is
	// gone).
	BindErr error
	// Shape is, for a SELECT, UPDATE or DELETE, the tree of the first
	// text that differs from this one only in the values of lifted
	// literals (shape.go) — the key of every engine's plan memo — and Lits
	// are this text's lifted literals, in the order the shape numbers
	// them: a plan compiled for the shape reads each from the executing
	// handle's Lits, never from the tree it was compiled from. Nil for
	// every other statement.
	Shape ast.Statement
	Lits  []*ast.Literal
	// ShapeHash hashes the shape's encoding: what an engine's plan memo
	// records of a shape it has not filed (its doorkeeper). An opaque
	// tree, its own shape, hashes what the encoding knows of it, so
	// distinct ones may collide.
	ShapeHash uint64
}

// Rewritten derives the handle of a rewrite of p's statement with the
// rewrite's own fingerprint, shape and lifted literals: fault matching
// sees the rewrite, and executed, it runs its own plan, never p's. A
// rewrite may share nodes with p's tree, and may hold one literal node
// in two lifted positions; a plan finds a lifted literal's slot by its
// node, so such a tree is its own shape and lifts nothing.
func (p *Parsed) Rewritten(st ast.Statement) *Parsed {
	q := *p
	q.AST = st
	q.Select, _ = st.(*ast.Select)
	q.Fingerprint = ast.FingerprintOf(st)
	q.Shape, q.Lits, q.ShapeHash = shapeOf(st, true)
	return &q
}

// CheckArgs reports, as a bind error, an argument vector of the wrong
// length for the statement's placeholders.
func (p *Parsed) CheckArgs(n int) error {
	if n == p.NumParams {
		return nil
	}
	return fmt.Errorf("%w: statement wants %d parameters, %d bound", ErrBind, p.NumParams, n)
}

// maxInterned bounds one generation of the intern table. The table keeps
// two: at the bound the young generation becomes the old one and the old
// one is dropped wholesale, and a text found in the old generation moves
// back to the young. A text executed again before two generations of
// other texts have passed thus keeps its handle — and with it every
// engine's compiled plan — however many one-off literal texts flow
// through; those are gone after two. The shape table is bounded the same
// way.
const maxInterned = 16384

// table is a map from text to T kept in two generations of at most
// maxInterned entries each.
type table[T any] struct {
	sync.RWMutex
	young, old map[string]T
}

func newTable[T any]() *table[T] {
	return &table[T]{young: make(map[string]T)}
}

// lookup returns k's entry (the zero T when there is none) and whether it
// is in the young generation.
func (t *table[T]) lookup(k string) (v T, young bool) {
	t.RLock()
	defer t.RUnlock()
	if v, young = t.young[k]; young {
		return v, true
	}
	return t.old[k], false
}

// keep files v under k in the young generation, unless another caller
// filed an entry there first, and returns the entry filed.
func (t *table[T]) keep(k string, v T) T {
	t.Lock()
	defer t.Unlock()
	if q, ok := t.young[k]; ok {
		return q
	}
	if len(t.young) >= maxInterned {
		t.old, t.young = t.young, make(map[string]T, maxInterned)
	}
	t.young[k] = v
	return v
}

// interned is the intern table: text → handle.
var interned = newTable[*Parsed]()

// resolves counts Resolve calls, parses the ones that had to parse.
var resolves, parses atomic.Uint64

// Resolve returns the handle of a statement text, parsing it only if the
// text is not interned: while it is, every caller gets the same *Parsed,
// so a tree's address identifies its text. Text that does not parse is
// reported as the syntax error every endpoint reports, and is not
// remembered. A text two goroutines see first at the same moment may be
// parsed by both; one tree is kept and returned to both.
func Resolve(sql string) (*Parsed, error) {
	resolves.Add(1)
	p, young := interned.lookup(sql)
	if young {
		return p, nil
	}
	if p == nil {
		parses.Add(1)
		st, err := parser.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("syntax error: %w", err)
		}
		p = newParsed(sql, st)
	}
	return interned.keep(sql, p), nil
}

func newParsed(sql string, st ast.Statement) *Parsed {
	p := &Parsed{Text: sql, AST: st, Fingerprint: ast.FingerprintOf(st), NumParams: ast.NumParams(st)}
	p.Shape, p.Lits, p.ShapeHash = shapeOf(st, false)
	switch x := st.(type) {
	case *ast.Select:
		p.Class, p.Select = ClassSelect, x
	case *ast.Begin:
		p.Class = ClassBegin
	case *ast.Commit, *ast.Rollback:
		p.Class = ClassEnd
	case *ast.SetTxn:
		p.Class = ClassSetTxn
	}
	if p.NumParams > 0 {
		switch st.(type) {
		case *ast.Insert, *ast.Update, *ast.Delete, *ast.Select:
		default:
			p.BindErr = fmt.Errorf("%w: parameters are not allowed in this statement", ErrBind)
		}
	}
	return p
}

// ResolverCollector exports the resolver's counters. Resolves over parses
// is the parse cost of a deployment: a statement text crossing any number
// of layers, shards and replicas is parsed once, and not at all while it
// stays interned. Parses over shapes is how many texts share each plan.
func ResolverCollector() obs.Collector {
	return obs.NewCollector("resolver", func(f *obs.Feed) {
		f.Count("divsql_sql_resolves_total",
			"Statement texts resolved to a shared handle (stmt.Resolve calls).", resolves.Load())
		f.Count("divsql_sql_parses_total",
			"Resolves that had to parse: the text was not interned.", parses.Load())
		f.Count("divsql_sql_shapes_total",
			"Statement shapes created: texts that differ only in lifted literal values share one, and one plan per engine.", shapesMade.Load())
	})
}
