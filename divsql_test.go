package divsql

import (
	"errors"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"divsql/internal/engine"
	"divsql/internal/middleware"
	"divsql/internal/replication"
	"divsql/internal/server"
	"divsql/internal/shard"
)

// TestNoSessionlessExec: an endpoint opens sessions and nothing else. A
// statement verb on an endpoint type means a default session has crept
// back in behind it.
func TestNoSessionlessExec(t *testing.T) {
	for _, ep := range []any{
		(*engine.Engine)(nil), (*server.Server)(nil), (*middleware.DiverseServer)(nil),
		(*shard.Router)(nil), (*replication.Group)(nil),
	} {
		typ := reflect.TypeOf(ep)
		for _, verb := range []string{"Exec", "Prepare"} {
			if _, has := typ.MethodByName(verb); has {
				t.Errorf("%v has a sessionless %s", typ, verb)
			}
		}
	}
}

// TestNoPrivateParses: statement text is parsed in one place, stmt.Resolve,
// and every layer shares the handle it returns. The only other caller of
// the SQL parser is dialect translation, which builds new text from a
// private tree; a layer that wants a tree reads its handle's, and one
// that rewrites it (the middleware's rephrasing) derives the rewrite's
// handle from it.
func TestNoPrivateParses(t *testing.T) {
	const sqlParser = "divsql/internal/sql/parser"
	allowed := map[string]bool{
		"internal/sql/stmt/parsed.go":     true,
		"internal/translate/translate.go": true,
	}
	fset := token.NewFileSet()
	for _, path := range nonTestSources(t, "internal/sql/parser") {
		if allowed[path] {
			continue
		}
		for _, call := range callsInto(t, fset, path, sqlParser, "Parse", "ParseScript") {
			t.Errorf("%s: private parse %s; resolve the text with stmt.Resolve and read its handle", fset.Position(call.Pos()), call.Sel.Name)
		}
	}
}

// TestValuesBuiltByConstructors: a cell's payload word means what its
// kind says (the INT, the FLOAT's bits, the BOOL's 0/1) because every
// types.Value is built by a types constructor. A composite literal that
// sets a Value's fields outside the types package could pair a kind with
// a payload of another.
func TestValuesBuiltByConstructors(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range nonTestSources(t, "internal/sql/types") {
		f, err := goparser.ParseFile(fset, path, nil, goparser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := importName(f, "divsql/internal/sql/types")
		if local == "" {
			continue
		}
		isValue := func(x ast.Expr) bool {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && pkg.Name == local && sel.Sel.Name == "Value"
		}
		// check visits a literal whose type, when elided, is typ.
		var check func(lit *ast.CompositeLit, typ ast.Expr)
		visit := func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				check(lit, nil)
				return false
			}
			return true
		}
		check = func(lit *ast.CompositeLit, typ ast.Expr) {
			if lit.Type != nil {
				typ = lit.Type
			}
			if isValue(typ) && len(lit.Elts) > 0 {
				t.Errorf("%s: a types.Value literal sets its fields; build it with a types constructor", fset.Position(lit.Pos()))
			}
			var elem ast.Expr
			switch x := typ.(type) {
			case *ast.ArrayType:
				elem = x.Elt
			case *ast.MapType:
				elem = x.Value
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if c, ok := e.(*ast.CompositeLit); ok {
					check(c, elem)
				} else {
					ast.Inspect(e, visit)
				}
			}
		}
		ast.Inspect(f, visit)
	}
}

// nonTestSources lists the module's non-test Go files (slash-separated,
// relative to the root) outside bench/ (a module of its own), hidden and
// testdata directories and the skipped directories.
func nonTestSources(t *testing.T, skip ...string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "bench" || slices.Contains(skip, path) {
				return filepath.SkipDir
			}
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestEngineReadsTablesFromTheHandle: the engine learns which tables a
// statement reads from its handle's sorted list (and the schema facts),
// never by walking the tree again per execution.
func TestEngineReadsTablesFromTheHandle(t *testing.T) {
	files, err := filepath.Glob("internal/engine/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, call := range callsInto(t, fset, path, "divsql/internal/sql/ast", "Tables") {
			t.Errorf("%s: ast.Tables in the engine; read the handle's Fingerprint.Tables", fset.Position(call.Pos()))
		}
	}
}

// TestPlanVocabularyImportsNoSQL: package plan is the vocabulary the
// layers above the engine read; the rules that choose a plan are the
// engine's and read its lowered predicates, so plan resolves no names
// and imports no SQL package.
func TestPlanVocabularyImportsNoSQL(t *testing.T) {
	files, err := filepath.Glob("internal/engine/plan/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, path, nil, goparser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "divsql/internal/sql" || strings.HasPrefix(p, "divsql/internal/sql/") {
				t.Errorf("%s: package plan imports %s", fset.Position(imp.Pos()), p)
			}
		}
	}
}

// callsInto returns the calls a Go file makes to the named functions of
// the package at importPath.
func callsInto(t *testing.T, fset *token.FileSet, path, importPath string, funcs ...string) []*ast.SelectorExpr {
	t.Helper()
	f, err := goparser.ParseFile(fset, path, nil, goparser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	local := importName(f, importPath)
	if local == "" {
		return nil
	}
	var calls []*ast.SelectorExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && slices.Contains(funcs, sel.Sel.Name) {
			calls = append(calls, sel)
		}
		return true
	})
	return calls
}

// importName is the name a file refers to the package at importPath by,
// or "" when the file does not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return p[strings.LastIndex(p, "/")+1:]
		}
	}
	return ""
}

func TestOpenSingle(t *testing.T) {
	for _, name := range AllServers() {
		db, err := Open(name)
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		if _, err := db.Exec("CREATE TABLE T (A INT)"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := db.Exec("INSERT INTO T VALUES (1)"); err != nil {
			t.Fatal(err)
		}
		res, err := db.Exec("SELECT A FROM T")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "1" {
			t.Errorf("%s select: %+v %v", name, res, err)
		}
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	}
}

func TestOpenDiverseMasksInjectedFault(t *testing.T) {
	// The full calibrated fault corpus is injected; querying inside a
	// known failure region (bug PG-77's arithmetic) must still give the
	// right answer through a masking triple.
	db, err := OpenDiverse(PG, OR, IB)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE R (N FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO R VALUES (1.00000007)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT N * 16777216.0 AS P FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] == "1.6777218e+07" {
		t.Error("client received PG's wrong value; majority should mask it")
	}
	m, ok := Metrics(db)
	if !ok || m.MaskedFailures == 0 {
		t.Errorf("metrics: %+v ok=%v", m, ok)
	}
}

func TestOpenDiversePairDetects(t *testing.T) {
	db, err := OpenDiverse(PG, OR)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE R (N FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO R VALUES (1.00000007)"); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec("SELECT N * 16777216.0 AS P FROM R")
	if err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Errorf("pair must detect: %v", err)
	}
}

func TestOpenReplicatedReturnsWrongDataSilently(t *testing.T) {
	db, err := OpenReplicated(PG, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE R (N FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO R VALUES (1.00000007)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT N * 16777216.0 AS P FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "1.6777218e+07" {
		t.Errorf("baseline should silently return the wrong value, got %v", res.Rows[0][0])
	}
}

func TestWithFaultsDisabled(t *testing.T) {
	db, err := Open(PG, WithFaults(false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Engine quirks remain (they are the server's nature), but no
	// corpus faults are injected; a plain query works.
	if _, err := db.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT A FROM T")
	if err != nil || res.Rows[0][0] != "2" {
		t.Errorf("%+v %v", res, err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := OpenDiverse(); err == nil {
		t.Error("OpenDiverse() must require names")
	}
	if _, err := OpenReplicated(PG, 0); err == nil {
		t.Error("OpenReplicated n=0 must fail")
	}
	if _, err := Open("NOPE"); err == nil {
		t.Error("unknown server must fail")
	}
}

func TestExecutorExposed(t *testing.T) {
	db, err := Open(OR)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Executor(db); !ok {
		t.Error("single server must expose an executor")
	}
	var fake DB = fakeDB{}
	if _, ok := Executor(fake); ok {
		t.Error("foreign DB must not expose an executor")
	}
}

type fakeDB struct{}

func (fakeDB) Exec(string) (*Result, error) { return nil, errors.New("no") }
func (fakeDB) Prepare(string) (Stmt, error) { return nil, errors.New("no") }
func (fakeDB) Session() (Session, error)    { return nil, errors.New("no") }
func (fakeDB) Close() error                 { return nil }

func TestRunStudyReproducesHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in short mode")
	}
	rep, err := RunStudy()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxCoincident != 2 || rep.CoincidentBugs != 12 || rep.NonDetectable != 4 {
		t.Errorf("headline: %+v", rep)
	}
	if rep.IncorrectResultPct < 64.4 || rep.IncorrectResultPct > 64.6 {
		t.Errorf("incorrect-result pct %.2f", rep.IncorrectResultPct)
	}
	if rep.CrashPct < 17.0 || rep.CrashPct > 17.2 {
		t.Errorf("crash pct %.2f", rep.CrashPct)
	}
	for name, tbl := range map[string]string{
		"Table1": rep.Table1, "Table2": rep.Table2,
		"Table3": rep.Table3, "Table4": rep.Table4,
		"Headline": rep.Headline, "Gains": rep.Gains,
	} {
		if len(tbl) < 80 {
			t.Errorf("%s too short", name)
		}
	}
}

func TestAffectedCount(t *testing.T) {
	db, err := Open(IB)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("UPDATE T SET A = A + 1")
	if err != nil || res.Affected != 3 {
		t.Errorf("affected: %+v %v", res, err)
	}
}
