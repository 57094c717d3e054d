package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"divsql/internal/engine"
	"divsql/internal/obs"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
)

// StmtClass is what the layers above the engine need to know about a
// statement's kind without looking at its tree: whether it can be a
// query, and how it moves a session's transaction state.
type StmtClass uint8

// Statement classes.
const (
	StmtOther  StmtClass = iota // DML and DDL
	StmtSelect                  // Parsed.Select is set
	StmtBegin
	StmtEnd    // COMMIT or ROLLBACK
	StmtSetTxn // SET TRANSACTION ISOLATION LEVEL
)

// Parsed is one statement text resolved once: its tree and everything
// the layers derive from the tree alone. It is immutable — one Parsed
// (and its AST, which CREATE VIEW also retains in every replica's
// catalog) is shared by every session, shard and replica that executes
// the text, concurrently — so nothing below may write to it; a layer
// that rewrites a statement (middleware.Rephrase) parses a private copy.
// What depends on a schema is not here: whether a SELECT advances a
// sequence is asked of an engine (SelectAdvancesSequences), per
// execution.
type Parsed struct {
	Text        string
	AST         ast.Statement
	Select      *ast.Select // AST when the statement is a SELECT, else nil
	Class       StmtClass
	Fingerprint ast.Fingerprint
	NumParams   int
	// Refs lists, sorted, every table, view, sequence and index name the
	// statement references, creates or drops (upper case). It is
	// Fingerprint.Tables itself unless the statement names a sequence or
	// an index.
	Refs []string
	// BindErr is why the statement cannot be prepared, if it cannot:
	// placeholders outside DML and queries.
	BindErr error
}

// CheckArgs reports, as a bind error, an argument vector of the wrong
// length for the statement's placeholders.
func (p *Parsed) CheckArgs(n int) error {
	if n == p.NumParams {
		return nil
	}
	return fmt.Errorf("%w: statement wants %d parameters, %d bound", engine.ErrBind, p.NumParams, n)
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
		p.Class, p.Select = StmtSelect, x
	case *ast.Begin:
		p.Class = StmtBegin
	case *ast.Commit, *ast.Rollback:
		p.Class = StmtEnd
	case *ast.SetTxn:
		p.Class = StmtSetTxn
	}
	if p.NumParams > 0 {
		p.BindErr = engine.CheckBindable(st, p.NumParams)
	}
	// Names ast.Tables does not cover. An index name routes like a table
	// name: qgen namespaces them identically, so the index lands with its
	// table.
	var extra string
	switch x := st.(type) {
	case *ast.CreateSequence:
		extra = x.Name
	case *ast.DropSequence:
		extra = x.Name
	case *ast.CreateIndex:
		extra = x.Name
	case *ast.DropIndex:
		extra = x.Name
	}
	p.Refs = p.Fingerprint.Tables
	if extra = strings.ToUpper(extra); extra != "" && !p.Fingerprint.UsesTable(extra) {
		p.Refs = append(slices.Clone(p.Refs), extra)
		sort.Strings(p.Refs)
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
			"Statement texts resolved to a shared handle (core.Resolve calls).", resolves.Load())
		f.Count("divsql_sql_parses_total",
			"Resolves that had to parse: the text was not interned.", parses.Load())
	})
}
