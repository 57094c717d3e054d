package parser_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"divsql/internal/corpus"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/stmt"
)

// FuzzParseRenderFixpoint: whatever text the parser accepts renders to
// text it accepts again, that second tree renders to the same text, and
// the statement's fingerprint — the fault-trigger key — survives the
// trip. qgen ships generated trees as rendered text, so a render the
// parser reads differently would change a statement between the layer
// that built it and the servers. And the
// shared handle every layer executes by (stmt.Resolve) says of a text
// what a fresh parse of it says. Seeded from the regress/ corpus and
// every statement of the bug corpus.
func FuzzParseRenderFixpoint(f *testing.F) {
	files, err := filepath.Glob("../../../regress/cases/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no regress cases: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var c struct {
			Stream []string `json:"stream"`
		}
		if err := json.Unmarshal(data, &c); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, entry := range c.Stream {
			f.Add(entry)
		}
	}
	for _, bug := range corpus.All() {
		stmts, err := parser.SplitScript(bug.Script)
		if err != nil {
			f.Fatalf("%s: split: %v", bug.ID, err)
		}
		for _, sql := range stmts {
			f.Add(sql)
		}
	}
	f.Add("-- note\nBEGIN TRANSACTION")
	f.Add("/* c */ SELECT A FROM T WHERE A = $1 AND B IN (SELECT 1 UNION SELECT ?)")

	f.Fuzz(func(t *testing.T, sql string) {
		st1, err := parser.Parse(sql)
		if err != nil {
			if p, rerr := stmt.Resolve(sql); rerr == nil {
				t.Fatalf("Resolve accepts %q (as %q), Parse rejects it: %v", sql, p.Text, err)
			}
			return
		}
		r1 := ast.Render(st1)
		st2, err := parser.Parse(r1)
		if err != nil {
			t.Fatalf("render does not parse:\n  src:    %q\n  render: %q\n  error:  %v", sql, r1, err)
		}
		if r2 := ast.Render(st2); r2 != r1 {
			t.Fatalf("render is not a fixed point:\n  src: %q\n  r1:  %q\n  r2:  %q", sql, r1, r2)
		}
		fp1 := ast.FingerprintOf(st1).String()
		if fp2 := ast.FingerprintOf(st2).String(); fp2 != fp1 {
			t.Fatalf("fingerprint changed across render:\n  src: %q\n  fp1: %s\n  fp2: %s", sql, fp1, fp2)
		}

		p, err := stmt.Resolve(sql)
		if err != nil {
			t.Fatalf("Parse accepts %q, Resolve rejects it: %v", sql, err)
		}
		_, isSelect := st1.(*ast.Select)
		if p.Text != sql || p.Fingerprint.String() != fp1 || p.NumParams != ast.NumParams(st1) ||
			(p.Class == stmt.ClassSelect) != isSelect || (p.Select != nil) != isSelect || ast.Render(p.AST) != r1 {
			t.Fatalf("Resolve(%q) = %+v, a fresh parse renders %q with fingerprint %s", sql, p, r1, fp1)
		}
	})
}
