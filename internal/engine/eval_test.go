package engine

import (
	"strings"
	"testing"
	"time"
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
