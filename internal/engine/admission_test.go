package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/types"
)

// A plan memo files a shape's plan at its second miss: the first run
// compiles into the session's plan memory and files nothing, the second
// misses and files the plan, the third hits. So for a prepared
// statement, filed at its second execution; and a DDL still voids what
// was filed.
func TestPlanAdmission(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedIndexed(t, s)
	filed := func(sql string) bool {
		p := resolve(t, sql)
		if p.Select != nil {
			_, ok := e.planMemo.m.Load(p.Shape)
			return ok
		}
		_, ok := e.dmlMemo.m.Load(p.Shape)
		return ok
	}
	for _, tc := range []struct {
		sql  string
		args []types.Value
	}{
		{"SELECT S FROM KV WHERE ID = 3", nil},
		{"UPDATE KV SET A = 21 WHERE ID = 2", nil},
		{"DELETE FROM KV WHERE ID = 99", nil},
		{"SELECT S FROM KV WHERE A = $1", []types.Value{types.NewInt(20)}},
	} {
		p := resolve(t, tc.sql)
		for run, want := range []struct{ hit, filed bool }{{false, false}, {false, true}, {true, true}} {
			if _, err := s.Exec(p, tc.args); err != nil {
				t.Fatalf("%q: %v", tc.sql, err)
			}
			if got := s.LastPlan().CacheHit; got != want.hit {
				t.Errorf("%q run %d: cache hit %v, want %v", tc.sql, run+1, got, want.hit)
			}
			if got := filed(tc.sql); got != want.filed {
				t.Errorf("%q run %d: filed %v, want %v", tc.sql, run+1, got, want.filed)
			}
		}
	}
	sessExec(t, s, "CREATE INDEX KVS ON KV (S)")
	if filed("SELECT S FROM KV WHERE ID = 3") {
		t.Error("a DDL left a filed plan in the memo")
	}
	res := sessExec(t, s, "SELECT S FROM KV WHERE ID = 3")
	if s.LastPlan().CacheHit {
		t.Error("the run after a DDL hit a plan filed before it")
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"c"}) {
		t.Errorf("the run after a DDL answered %q", got)
	}
}

// A memo that has served more hits than it compiled misses runs a
// workload that repeats: it files a shape at its first miss, so a shape
// met late compiles once. Each memo counts its own.
func TestRepeatingMemoFilesAtFirstMiss(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedIndexed(t, s)
	for range 6 {
		sessExec(t, s, "SELECT S FROM KV WHERE ID = 3")
	}
	p := resolve(t, "SELECT A FROM KV WHERE ID = 2")
	sessExec(t, s, "SELECT A FROM KV WHERE ID = 2")
	if _, ok := e.planMemo.m.Load(p.Shape); !ok || s.LastPlan().CacheHit {
		t.Errorf("a memo of 4 hits and 2 misses: the first miss filed %v, hit %v; want filed, no hit", ok, s.LastPlan().CacheHit)
	}
	u := resolve(t, "UPDATE KV SET A = 21 WHERE ID = 2")
	sessExec(t, s, "UPDATE KV SET A = 21 WHERE ID = 2")
	if _, ok := e.dmlMemo.m.Load(u.Shape); ok {
		t.Error("the DML memo, which served no hit, filed a shape at its first miss")
	}
}

// A plan no memo files lives and dies with its statement: its output
// names are the result's, and read past the session's next statement
// they read the poison sentinel. What outlives the statement keeps its
// values: a view's columns, defined by an unfiled plan, and a LastPlan
// copy.
func TestUnfiledPlanDiesWithItsStatement(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	seedIndexed(t, s)
	res := sessExec(t, s, "SELECT S AS UNFILED, ID FROM KV WHERE ID = 3")
	cols, last := res.Columns, s.LastPlan()
	if !reflect.DeepEqual(cols, []string{"UNFILED", "ID"}) {
		t.Fatalf("columns %q", cols)
	}
	wantPlan := plan.Info{Table: "KV", Path: plan.PointLookup, Cores: []plan.Core{{Table: "KV", Path: plan.PointLookup}}}
	sessExec(t, s, "CREATE VIEW VUNFILED AS SELECT ID AS VID, S FROM KV WHERE A = 20")
	for _, c := range cols {
		if !strings.HasPrefix(c, poisonText) {
			t.Errorf("an unfiled plan's column name read %q after the next statement, want the sentinel", c)
		}
	}
	if got := s.LastPlan(); !reflect.DeepEqual(got, wantPlan) {
		t.Errorf("LastPlan after a statement that records none: %+v, want %+v", got, wantPlan)
	}
	for range 3 {
		res = sessExec(t, s, "SELECT VID, S FROM VUNFILED ORDER BY VID")
	}
	if !reflect.DeepEqual(res.Columns, []string{"VID", "S"}) || !reflect.DeepEqual(rowStrings(res), []string{"2|b", "3|c"}) {
		t.Errorf("the view answered %q %q", res.Columns, rowStrings(res))
	}
	if !reflect.DeepEqual(last, wantPlan) {
		t.Errorf("a LastPlan copy changed to %+v, want %+v", last, wantPlan)
	}
}

// Two sessions run one fresh shape at once, shape after shape, through
// the engine's shared doorkeeper: each compiles into its own plan memory
// or runs the plan the other filed, and both answer correctly every
// time. Run it under -race.
func TestFreshShapeConcurrently(t *testing.T) {
	e := NewOracle()
	seedIndexed(t, e.NewSession())
	var wg sync.WaitGroup
	for g := range 2 {
		s := e.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				// The select-list literal is part of the shape: each i is a
				// fresh one, each session's ID a lifted literal.
				id := 2 + g
				p := resolve(t, fmt.Sprintf("SELECT S, %d AS N FROM KV WHERE ID = %d", i, id))
				res, err := s.Exec(p, nil)
				if err != nil {
					t.Errorf("session %d: %v", g, err)
					return
				}
				want := []string{fmt.Sprintf("%c|%d", 'a'+id-1, i)}
				if got := rowStrings(res); !reflect.DeepEqual(got, want) || res.Columns[1] != "N" {
					t.Errorf("session %d, shape %d: got %q %q, want %q", g, i, res.Columns, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
