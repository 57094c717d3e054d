package engine

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"divsql/internal/sql/types"
)

// likeRec is the recursive matcher likeMatch replaced, kept as the
// reference semantics: it branches at every %, so its cost grows
// exponentially with their number.
func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeRec(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeRec(s[1:], p[1:])
	}
}

// LIKE answers what the recursive matcher answers for every string and
// every pattern up to six bytes over {a, b, %, _} — a string may hold
// the wildcard bytes too, which then match only themselves or a
// wildcard.
func TestLikeMatchesReference(t *testing.T) {
	words := []string{""}
	for n, from := 0, 0; n < 6; n++ {
		to := len(words)
		for _, w := range words[from:to] {
			for _, c := range "ab%_" {
				words = append(words, w+string(c))
			}
		}
		from = to
	}
	mismatches := 0
	for _, p := range words {
		for _, s := range words {
			if got, want := likeMatch(s, p), likeRec(s, p); got != want && mismatches < 10 {
				mismatches++
				t.Errorf("%q LIKE %q = %v, want %v", s, p, got, want)
			}
		}
	}
}

// LIKE is linear in the pattern's wildcards: twenty `%a` groups against
// a 40-byte string that never matches used to branch at every %, about
// ×6 per group (190 ms at seven), and would not finish.
func TestLikeIsLinear(t *testing.T) {
	s := strings.Repeat("a", 40)
	p := strings.Repeat("%a", 20) + "%ab"
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if likeMatch(s, p) {
			t.Fatalf("%q LIKE %q matched", s, p)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("1000 matches of a 20-group pattern took %v", d)
	}
}

// A FLOAT converts to INTEGER only inside [-2^63, 2^63): outside it (NaN
// included) the conversion is a type error, not whatever int64(f) yields
// on the platform. Each value goes through INSERT into an INT column and
// through CAST, both as a FLOAT and as numeric text (the string path),
// and, when finite, as a literal.
func TestFloatToIntegerRange(t *testing.T) {
	const two63 = 1 << 63
	cases := []struct {
		f    float64
		want int64
		ok   bool
	}{
		{1e300, 0, false},
		{-1e300, 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
		{math.NaN(), 0, false},
		{two63, 0, false},
		{two63 - 1024, math.MaxInt64 - 1023, true},
		{-two63, math.MinInt64, true},
		{-2.75, -2, true},
	}
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT)")
	s := sessionOf(e)
	for _, tc := range cases {
		text := strconv.FormatFloat(tc.f, 'g', -1, 64)
		args := []types.Value{types.NewFloat(tc.f), types.NewString(text)}
		type path struct {
			name, sql string
			args      []types.Value
		}
		paths := []path{
			{"INSERT float", "INSERT INTO T VALUES ($1)", args[:1]},
			{"INSERT string", "INSERT INTO T VALUES ($1)", args[1:]},
			{"CAST float", "SELECT CAST($1 AS INTEGER) AS C", args[:1]},
			{"CAST string", "SELECT CAST($1 AS INTEGER) AS C", args[1:]},
		}
		if !math.IsInf(tc.f, 0) && !math.IsNaN(tc.f) {
			lit := strconv.FormatFloat(tc.f, 'e', -1, 64)
			paths = append(paths,
				path{"INSERT literal", "INSERT INTO T VALUES (" + lit + ")", nil},
				path{"INSERT string literal", "INSERT INTO T VALUES ('" + lit + "')", nil},
				path{"CAST literal", "SELECT CAST(" + lit + " AS INTEGER) AS C", nil})
		}
		for _, p := range paths {
			mustExec(t, e, "DELETE FROM T")
			res, err := s.Exec(resolve(t, p.sql), p.args)
			if !tc.ok {
				if !errors.Is(err, ErrType) || !strings.Contains(err.Error(), "out of range for INTEGER") {
					t.Errorf("%s %s: got %v, want an out-of-range type error", p.name, text, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s %s: %v", p.name, text, err)
				continue
			}
			if strings.HasPrefix(p.sql, "INSERT") {
				res = mustExec(t, e, "SELECT A FROM T")
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != types.NewInt(tc.want) {
				t.Errorf("%s %s: got %v, want %d", p.name, text, res.Rows, tc.want)
			}
		}
	}
}

// A builtin's integer argument given as a FLOAT truncates toward zero
// inside int64's range and raises ErrType outside it, as CAST and INSERT
// do: SUBSTR's start and length, ROUND's digits, NEXTVAL's increment.
func TestIntegerArgumentsKeepTheRangeRule(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE SEQUENCE SQ START WITH 10")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT SUBSTR('abcd', 2, 2.9) AS S", "bc"},
		{"SELECT SUBSTR('abcd', 2.5) AS S", "bcd"},
		{"SELECT SUBSTR('abcd', -1e18) AS S", "abcd"},
		{"SELECT ROUND(2.25, 1.9) AS R", "2.3"},
		// Digits or a value past float64's range: nothing to round.
		{"SELECT ROUND(2.5, 400) AS R", "2.5"},
		{"SELECT ROUND(2.5, -400) AS R", "0"},
		{"SELECT ROUND(1e300, 10) AS R", "1e+300"},
		{"SELECT NEXTVAL(SQ, 2.9) AS N", "10"},
		{"SELECT NEXTVAL(SQ) AS N", "12"},
	} {
		if got := rowStrings(mustExec(t, e, tc.sql)); len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: got %q, want %s", tc.sql, got, tc.want)
		}
	}
	for _, sql := range []string{
		"SELECT SUBSTR('abc', 2, 1e300) AS S",
		"SELECT SUBSTR('abc', 1e300) AS S",
		"SELECT SUBSTR('abc', -1e300, 1) AS S",
		"SELECT ROUND(2.5, 1e300) AS R",
		"SELECT NEXTVAL(SQ, 1e300) AS N",
	} {
		if _, err := execSQL(e, sql); !errors.Is(err, ErrType) || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: got %v, want an out-of-range type error", sql, err)
		}
	}
}
