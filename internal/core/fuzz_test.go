package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divsql/internal/sql/types"
)

// regressStreams returns every statement of every regress/ case: real
// shrunk streams, bound entries included.
func regressStreams(f *testing.F) []string {
	f.Helper()
	files, err := filepath.Glob("../../regress/cases/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no regress cases: %v", err)
	}
	var out []string
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
		out = append(out, c.Stream...)
	}
	return out
}

// FuzzDecodeBound: an entry is a statement plus, after the last marker,
// an argument vector — or it is plain SQL. Arbitrary text never panics
// the decoder and is returned untouched unless its marker suffix decodes
// completely; any statement text with any argument vector round-trips.
func FuzzDecodeBound(f *testing.F) {
	for _, entry := range regressStreams(f) {
		sql, args, _ := DecodeBound(entry)
		f.Add(sql, strings.TrimPrefix(EncodeBound("", args), bindMarker))
	}
	f.Add("INSERT INTO T (A, B) VALUES ($1, $2)", "I:1,S:x")
	f.Add("SELECT 1 -- a comment --BIND not an argument vector", "")
	f.Add("SELECT ' --BIND I:1' --BIND", "S:a\\sb\\cc,N,F:-0,B:1,D:2026-01-02")
	f.Add("SELECT $1", "S:trailing\u00a0,S:\v")
	f.Fuzz(func(t *testing.T, sql, vector string) {
		// Arbitrary text.
		entry := sql + bindMarker + vector
		gotSQL, gotArgs, bound := DecodeBound(entry)
		switch {
		case !bound && (gotSQL != entry || gotArgs != nil):
			t.Fatalf("plain entry %q came back as %q %v", entry, gotSQL, gotArgs)
		case bound && (len(gotArgs) == 0 || !strings.HasPrefix(entry, gotSQL+bindMarker)):
			t.Fatalf("bound entry %q came back as %q %v", entry, gotSQL, gotArgs)
		}
		// A real argument vector: the tokens of vector that decode.
		var args []types.Value
		for _, tok := range strings.Split(vector, ",") {
			if v, err := types.DecodeValue(tok); err == nil {
				args = append(args, v)
			}
		}
		gotSQL, gotArgs, bound = DecodeBound(EncodeBound(sql, args))
		if len(args) == 0 {
			return // EncodeBound returned sql verbatim: the arbitrary-text case again
		}
		if !bound || gotSQL != sql || len(gotArgs) != len(args) {
			t.Fatalf("EncodeBound(%q, %v) decodes to %q %v bound=%v", sql, args, gotSQL, gotArgs, bound)
		}
		for i := range args {
			if a, b := args[i], gotArgs[i]; a != b && !(a.K == types.KindFloat && math.IsNaN(a.F()) && math.IsNaN(b.F())) {
				t.Fatalf("argument %d of %q: %+v decodes to %+v", i, sql, a, b)
			}
		}
	})
}
