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
// a statement (middleware.Rephrase) parses a private copy.
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
// through; those are gone after two.
const maxInterned = 16384

var interned = struct {
	sync.RWMutex
	young, old map[string]*Parsed
}{young: make(map[string]*Parsed)}

// resolves counts Resolve calls, parses the ones that had to parse.
var resolves, parses atomic.Uint64

// Resolve returns the handle of a statement text, parsing it only if the
// text is not interned: while it is, every caller gets the same *Parsed,
// so a tree's address identifies its text to the caches below (the
// engine's plan memo). Text that does not parse is reported as the
// syntax error every endpoint reports, and is not remembered. A text two
// goroutines see first at the same moment may be parsed by both; one
// tree is kept and returned to both.
func Resolve(sql string) (*Parsed, error) {
	resolves.Add(1)
	interned.RLock()
	p, isYoung := interned.young[sql]
	if !isYoung {
		p = interned.old[sql]
	}
	interned.RUnlock()
	if isYoung {
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
	interned.Lock()
	defer interned.Unlock()
	if q := interned.young[sql]; q != nil {
		return q, nil
	}
	if len(interned.young) >= maxInterned {
		interned.old, interned.young = interned.young, make(map[string]*Parsed, maxInterned)
	}
	interned.young[sql] = p
	return p, nil
}

func newParsed(sql string, st ast.Statement) *Parsed {
	p := &Parsed{Text: sql, AST: st, Fingerprint: ast.FingerprintOf(st), NumParams: ast.NumParams(st)}
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

// ResolverCollector exports the resolver's two counters. Their ratio is
// the parse cost of a deployment: a statement text crossing any number
// of layers, shards and replicas is parsed once, and not at all while it
// stays interned.
func ResolverCollector() obs.Collector {
	return obs.NewCollector("resolver", func(f *obs.Feed) {
		f.Count("divsql_sql_resolves_total",
			"Statement texts resolved to a shared handle (stmt.Resolve calls).", resolves.Load())
		f.Count("divsql_sql_parses_total",
			"Resolves that had to parse: the text was not interned.", parses.Load())
	})
}
