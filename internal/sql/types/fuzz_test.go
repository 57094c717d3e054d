package types

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// bindSeeds returns the encoded arguments of every BIND request in the
// wire package's golden transcripts: the values that really cross a text
// boundary.
func bindSeeds(f *testing.F) []string {
	f.Helper()
	files, err := filepath.Glob("../../wire/testdata/*.golden")
	if err != nil || len(files) == 0 {
		f.Fatalf("no golden transcripts: %v", err)
	}
	var out []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			q, ok := strings.CutPrefix(line, "C ")
			if !ok {
				continue
			}
			req, err := strconv.Unquote(q)
			if err != nil {
				f.Fatalf("%s: %v", file, err)
			}
			if i := strings.Index(req, "BIND "); i >= 0 {
				_, args, _ := strings.Cut(strings.TrimRight(req[i+len("BIND "):], "\n"), " ")
				out = append(out, strings.Split(args, "\t")...)
			}
		}
	}
	return out
}

// sameValue reports whether two values are the same cell: == compares a
// FLOAT's bits (so -0 and +0 differ and a NaN equals itself), and any two
// NaNs count as the same, whatever their payload bits.
func sameValue(a, b Value) bool {
	return a == b || a.K == KindFloat && b.K == KindFloat && math.IsNaN(a.F()) && math.IsNaN(b.F())
}

// FuzzDecodeValue: arbitrary text never panics the decoder, a decoded
// FLOAT is rebuilt by NewFloat from its F(), and whatever the decoder
// accepts survives another trip through the encoder unchanged.
func FuzzDecodeValue(f *testing.F) {
	for _, s := range bindSeeds(f) {
		f.Add(s)
	}
	for _, v := range []Value{
		Null(), NewInt(math.MinInt64), NewFloat(math.Inf(-1)), NewFloat(math.NaN()), NewFloat(5e-324),
		NewBool(true), NewDate("2026-01-02"), NewString(""), NewString(" a,b\tc\nd\re\\f "), NewString("N"), NewString("é\u00a0"),
		NewBool(false), NewFloat(2.5), NewInt(math.MaxInt64), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)),
		NewString(`\N`), NewDate("9999-12-31"),
	} {
		f.Add(v.Encode())
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := DecodeValue(s)
		if err != nil {
			return
		}
		if v.K == KindFloat && NewFloat(v.F()) != v {
			t.Fatalf("DecodeValue(%q) = %#v, which NewFloat(F()) does not rebuild", s, v)
		}
		enc := v.Encode()
		if strings.ContainsAny(enc, " \t\n\r,") {
			t.Fatalf("Encode(%+v) = %q carries a separator", v, enc)
		}
		back, err := DecodeValue(enc)
		if err != nil || !sameValue(back, v) {
			t.Fatalf("DecodeValue(%q) = %+v, re-encoded %q decodes to %+v (%v)", s, v, enc, back, err)
		}
	})
}
