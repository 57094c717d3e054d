package study

import (
	"errors"
	"fmt"
	"testing"

	"divsql/internal/core"
	"divsql/internal/corpus"
	"divsql/internal/engine"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

func intRows(vals ...int64) *engine.Result {
	res := &engine.Result{Kind: engine.ResultRows, Columns: []string{"A"}}
	for _, v := range vals {
		res.Rows = append(res.Rows, []types.Value{types.NewInt(v)})
	}
	return res
}

func affected(n int64) *engine.Result { return &engine.Result{Affected: n} }

// outcomeOf completes an outcome with the statement's text and handle, as
// RunSource and the hunt record it.
func outcomeOf(t *testing.T, sql string, o Outcome) Outcome {
	t.Helper()
	p, err := stmt.Resolve(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	o.SQL, o.P = sql, p
	return o
}

// oracleErr is the pristine oracle's own error for sql on an empty
// catalog.
func oracleErr(t *testing.T, sql string) error {
	t.Helper()
	sess := server.NewOracle().NewSession()
	defer sess.Close()
	_, _, err := sess.Exec(sql)
	if err == nil {
		t.Fatalf("the oracle must reject %q", sql)
	}
	return err
}

// TestClassifyStmt covers every branch of the per-statement verdict. The
// ORDER BY and comment rows are where reading the statement's handle and
// not its text matters: a literal that says ORDER BY does not order the
// rows, and a comment in front of a SELECT does not make it a non-query.
func TestClassifyStmt(t *testing.T) {
	const (
		query   = "SELECT A FROM T"
		ordered = "SELECT A FROM T ORDER BY A"
		quoted  = "SELECT A FROM T WHERE C = 'ORDER BY'"
		noted   = "-- note\nSELECT A FROM T"
		write   = "INSERT INTO T VALUES (1)"
		drop    = "DROP TABLE MISSING"
	)
	dropErr := oracleErr(t, drop)
	unknown := errors.New("unknown column A")
	none := core.FailureNone
	for _, c := range []struct {
		name        string
		sql         string
		so, oo      Outcome
		want        core.FailureType
		selfEvident bool
	}{
		{"crash", write, Outcome{Err: server.ErrCrashed, Crashed: true}, Outcome{Res: affected(1)}, core.EngineCrash, true},
		{"error where the oracle succeeds", query, Outcome{Err: errors.New("spurious internal failure")}, Outcome{Res: intRows(1)}, core.IncorrectResult, true},
		{"connection abort", write, Outcome{Err: fmt.Errorf("%w", server.ErrConnAborted)}, Outcome{Res: affected(1)}, core.OtherFailure, true},
		{"query answered where the oracle errs", query, Outcome{Res: intRows(1)}, Outcome{Err: unknown}, core.IncorrectResult, false},
		{"statement accepted where the oracle errs", write, Outcome{Res: affected(1)}, Outcome{Err: unknown}, core.OtherFailure, false},
		{"error class swap", drop, Outcome{Err: errors.New("spurious internal failure")}, Outcome{Err: dropErr}, core.IncorrectResult, false},
		{"same-class rewording", drop, Outcome{Err: errors.New("relation MISSING does not exist")}, Outcome{Err: dropErr}, none, false},
		{"ordered rows permuted", ordered, Outcome{Res: intRows(2, 1)}, Outcome{Res: intRows(1, 2)}, core.IncorrectResult, false},
		{"unordered rows permuted", query, Outcome{Res: intRows(2, 1)}, Outcome{Res: intRows(1, 2)}, none, false},
		{"wrong rows", query, Outcome{Res: intRows(1, 3)}, Outcome{Res: intRows(1, 2)}, core.IncorrectResult, false},
		{"ORDER BY inside a literal", quoted, Outcome{Res: intRows(2, 1)}, Outcome{Res: intRows(1, 2)}, none, false},
		{"comment before a query, wrong rows", noted, Outcome{Res: intRows(3)}, Outcome{Res: intRows(1)}, core.IncorrectResult, false},
		{"comment before a query, answered where the oracle errs", noted, Outcome{Res: intRows(1)}, Outcome{Err: unknown}, core.IncorrectResult, false},
		{"slow", query, Outcome{Res: intRows(1), Latency: core.PerfThreshold}, Outcome{Res: intRows(1)}, core.Performance, true},
		{"slower, within the threshold", query, Outcome{Res: intRows(1), Latency: core.PerfThreshold - 1}, Outcome{Res: intRows(1)}, none, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cls := ClassifyStmt(outcomeOf(t, c.sql, c.so), outcomeOf(t, c.sql, c.oo))
			if c.want == none {
				if cls.IsFailure() {
					t.Errorf("flagged %s: %s", cls.Type, cls.Detail)
				}
				return
			}
			if !cls.IsFailure() || cls.Type != c.want || cls.SelfEvident != c.selfEvident {
				t.Errorf("got %v %s (self-evident %v: %s), want %s (self-evident %v)",
					cls.Status, cls.Type, cls.SelfEvident, cls.Detail, c.want, c.selfEvident)
			}
		})
	}
}

// TestClassifyFoldPriority: a self-evident error ends a run's judgement
// where it happens; before it, the first wrong output outranks the first
// silently accepted statement, which outranks the first slow one.
func TestClassifyFoldPriority(t *testing.T) {
	const query, write = "SELECT A FROM T", "INSERT INTO T VALUES (1)"
	unknown := errors.New("unknown column A")
	sOut := []Outcome{
		outcomeOf(t, query, Outcome{Res: intRows(1), Latency: core.PerfThreshold}),
		outcomeOf(t, write, Outcome{Res: affected(1)}),
		outcomeOf(t, query, Outcome{Res: intRows(2)}),
		outcomeOf(t, query, Outcome{Err: unknown}),
	}
	oOut := []Outcome{
		outcomeOf(t, query, Outcome{Res: intRows(1)}),
		outcomeOf(t, write, Outcome{Err: unknown}),
		outcomeOf(t, query, Outcome{Res: intRows(1)}),
		outcomeOf(t, query, Outcome{Res: intRows(1)}),
	}
	for n, want := range []struct {
		typ core.FailureType
		at  int
	}{{core.FailureNone, -1}, {core.Performance, 0}, {core.OtherFailure, 1}, {core.IncorrectResult, 2}, {core.IncorrectResult, 3}} {
		cls, at := Classify(sOut[:n], oOut[:n])
		if cls.Type != want.typ || at != want.at || cls.IsFailure() != (at >= 0) {
			t.Errorf("first %d statements: %s at %d, want %s at %d", n, cls.Type, at, want.typ, want.at)
		}
	}
	// A crash is judged even past the oracle's outcomes.
	crashed := outcomeOf(t, write, Outcome{Err: server.ErrCrashed, Crashed: true})
	if cls, at := Classify(append(sOut[:1:1], crashed), oOut[:1]); cls.Type != core.EngineCrash || at != 1 {
		t.Errorf("crash past the oracle's outcomes: %s at %d", cls.Type, at)
	}
}

// TestErrorClassCorpusDriven: for every injected error-message fault in
// the corpus, the verdict flags it against a legitimate oracle error
// exactly when the normalized classes differ — and identical errors
// never diverge.
func TestErrorClassCorpusDriven(t *testing.T) {
	const sql = "DROP TABLE MISSING"
	oerr := oracleErr(t, sql)
	oo := outcomeOf(t, sql, Outcome{Err: oerr})
	total, swaps := 0, 0
	for _, f := range corpus.AllFaults() {
		if f.Effect.Kind != fault.EffectError {
			continue
		}
		total++
		serr := errors.New(f.Effect.Message)
		so := outcomeOf(t, sql, Outcome{Err: serr})
		mismatch := core.ErrorClass(serr) != core.ErrorClass(oerr)
		if got := ClassifyStmt(so, oo).IsFailure(); got != mismatch {
			t.Errorf("fault %s (%q): flagged=%v, class mismatch=%v", f.BugID, f.Effect.Message, got, mismatch)
		}
		if mismatch {
			swaps++
		}
		// The same error on both sides always agrees.
		same := outcomeOf(t, sql, Outcome{Err: errors.New(f.Effect.Message)})
		if ClassifyStmt(so, same).IsFailure() {
			t.Errorf("identical errors diverged for fault %s", f.BugID)
		}
	}
	if total == 0 {
		t.Fatal("corpus has no error-message faults")
	}
	if swaps == 0 {
		t.Error("corpus error faults never swap classes; the comparison is untested")
	}
}
