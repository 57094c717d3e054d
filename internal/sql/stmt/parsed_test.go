package stmt

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestResolveDerivesTheHandle(t *testing.T) {
	for _, tc := range []struct {
		sql    string
		class  Class
		params int
		tables []string
		bind   bool // BindErr expected
	}{
		{"SELECT a FROM t1, t2 WHERE a IN (SELECT b FROM t3 WHERE c = $2) AND d = $1", ClassSelect, 2, []string{"T1", "T2", "T3"}, false},
		{"-- note\nBEGIN TRANSACTION", ClassBegin, 0, nil, false},
		{"/* c */ COMMIT", ClassEnd, 0, nil, false},
		{"ROLLBACK", ClassEnd, 0, nil, false},
		{"SET TRANSACTION ISOLATION LEVEL SERIALIZABLE", ClassSetTxn, 0, nil, false},
		{"INSERT INTO t VALUES (?, ?)", ClassOther, 2, []string{"T"}, false},
		{"CREATE INDEX ix ON t (a)", ClassOther, 0, []string{"T"}, false},
		{"DROP SEQUENCE sq", ClassOther, 0, nil, false},
		{"CREATE TABLE p (a INT DEFAULT $1)", ClassOther, 1, []string{"P"}, true},
	} {
		p, err := Resolve(tc.sql)
		if err != nil {
			t.Fatalf("%q: %v", tc.sql, err)
		}
		if p.Text != tc.sql || p.Class != tc.class || p.NumParams != tc.params || !slices.Equal(p.Fingerprint.Tables, tc.tables) {
			t.Errorf("%q resolved to class %d, %d params, tables %v", tc.sql, p.Class, p.NumParams, p.Fingerprint.Tables)
		}
		if (p.Select != nil) != (tc.class == ClassSelect) || (p.Select != nil && p.Select != p.AST) {
			t.Errorf("%q: Select %v", tc.sql, p.Select)
		}
		if (p.BindErr != nil) != tc.bind || (tc.bind && !errors.Is(p.BindErr, ErrBind)) {
			t.Errorf("%q: BindErr %v", tc.sql, p.BindErr)
		}
		if again, _ := Resolve(tc.sql); again != p {
			t.Errorf("%q resolved to a second handle", tc.sql)
		}
	}
}

func TestResolveDoesNotRememberErrors(t *testing.T) {
	const bad = "SELEC nonsense FROM"
	before := parses.Load()
	for i := 0; i < 2; i++ {
		if _, err := Resolve(bad); err == nil || !strings.HasPrefix(err.Error(), "syntax error:") {
			t.Fatalf("Resolve(%q) = %v", bad, err)
		}
	}
	if got := parses.Load() - before; got != 2 {
		t.Errorf("a text that does not parse was parsed %d times in 2 resolves", got)
	}
}

// A text in use keeps its handle across any number of one-off texts; one
// not used for two generations is parsed again.
func TestResolveGenerations(t *testing.T) {
	hot, err := Resolve("SELECT 'hot' AS generations_test")
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := Resolve("SELECT 'cold' AS generations_test")
	for i := 0; i < 3*maxInterned; i++ {
		if _, err := Resolve(fmt.Sprintf("SELECT %d AS generations_test", i)); err != nil {
			t.Fatal(err)
		}
		if i%(maxInterned/2) == 0 {
			if p, _ := Resolve(hot.Text); p != hot {
				t.Fatalf("after %d other texts the text in use lost its handle", i)
			}
		}
	}
	if p, _ := Resolve(cold.Text); p == cold {
		t.Error("a text unused for three generations is still interned: the table is not bounded")
	}
	interned.RLock()
	n := len(interned.young) + len(interned.old)
	interned.RUnlock()
	if n > 2*maxInterned {
		t.Errorf("%d texts interned, bound is %d", n, 2*maxInterned)
	}
}

func TestResolveConcurrentFirstSight(t *testing.T) {
	for round := 0; round < 50; round++ {
		sql := fmt.Sprintf("SELECT %d AS first_sight_test", round)
		got := make([]*Parsed, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p, err := Resolve(sql)
				if err != nil {
					t.Error(err)
				}
				got[g] = p
			}(g)
		}
		wg.Wait()
		for _, p := range got {
			if p != got[0] {
				t.Fatalf("round %d: concurrent resolves of one text returned different handles", round)
			}
		}
	}
	// Texts of one new shape, resolved at once, share one shape.
	for round := 0; round < 50; round++ {
		got := make([]*Parsed, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p, err := Resolve(fmt.Sprintf("SELECT A FROM FIRST_SIGHT_%d WHERE B = %d", round, g))
				if err != nil {
					t.Error(err)
				}
				got[g] = p
			}(g)
		}
		wg.Wait()
		for _, p := range got {
			if p.Shape != got[0].Shape {
				t.Fatalf("round %d: concurrent first sights of one shape made two", round)
			}
		}
	}
}
