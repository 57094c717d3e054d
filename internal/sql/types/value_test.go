package types

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueLayout pins the cell at 32 bytes (string header, one payload
// word, kind) and holds the payload word to its kinds: a FLOAT
// round-trips bit for bit through its IEEE-754 bits, a BOOL through 0/1.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
	if v := (Value{}); !v.IsNull() || v != Null() {
		t.Fatalf("zero Value %#v is not NULL", v)
	}
	for _, f := range []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		v := NewFloat(f)
		if v.K != KindFloat || math.Float64bits(v.F()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).F() = %v (bits %#x), want bits %#x", f, v.F(), math.Float64bits(v.F()), math.Float64bits(f))
		}
	}
	for _, b := range []bool{false, true} {
		if v := NewBool(b); v.K != KindBool || v.B() != b {
			t.Errorf("NewBool(%v).B() = %v", b, v.B())
		}
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "NULL"},
		{NewInt(42), KindInt, "42"},
		{NewInt(-7), KindInt, "-7"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("abc"), KindString, "abc"},
		{NewBool(true), KindBool, "TRUE"},
		{NewBool(false), KindBool, "FALSE"},
		{NewDate("2001-02-03"), KindDate, "2001-02-03"},
	}
	for _, tc := range cases {
		if tc.v.K != tc.kind {
			t.Errorf("%v: kind %v want %v", tc.v, tc.v.K, tc.kind)
		}
		if got := tc.v.String(); got != tc.str {
			t.Errorf("String() = %q want %q", got, tc.str)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewString("a'b"), "'a''b'"},
		{NewInt(5), "5"},
		{Null(), "NULL"},
		{NewDate("2001-01-01"), "'2001-01-01'"},
	}
	for _, tc := range cases {
		if got := tc.v.SQLLiteral(); got != tc.want {
			t.Errorf("SQLLiteral(%v) = %q want %q", tc.v, got, tc.want)
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, err := Compare(NewInt(3), NewFloat(3.0))
	if err != nil || c != 0 {
		t.Errorf("3 vs 3.0: c=%d err=%v", c, err)
	}
	c, err = Compare(NewInt(2), NewFloat(2.5))
	if err != nil || c >= 0 {
		t.Errorf("2 vs 2.5: c=%d err=%v", c, err)
	}
}

// Two INTs compare as int64: float64 has 53 bits of mantissa, so through
// it 2^53 and 2^53+1 — and every pair of neighbours beyond — were equal.
func TestCompareIntsExactly(t *testing.T) {
	const big = int64(1) << 53
	for _, tc := range []struct {
		a, b int64
		want int
	}{
		{big, big + 1, -1},
		{big + 1, big, 1},
		{big + 1, big + 1, 0},
		{-big - 1, -big, -1},
		{math.MaxInt64, math.MaxInt64 - 1, 1},
		{math.MinInt64, math.MaxInt64, -1},
		{3, 3, 0},
	} {
		if c, err := Compare(NewInt(tc.a), NewInt(tc.b)); err != nil || c != tc.want {
			t.Errorf("Compare(%d, %d) = %d, %v; want %d", tc.a, tc.b, c, err, tc.want)
		}
	}
	if Equal(NewInt(big), NewInt(big+1)) || !Identical(NewInt(big+1), NewInt(big+1)) {
		t.Error("Equal/Identical disagree with Compare beyond 2^53")
	}
}

func TestCompareStringNumberCoercion(t *testing.T) {
	c, err := Compare(NewFloat(9), NewString("9.00"))
	if err != nil || c != 0 {
		t.Errorf("9 vs '9.00': c=%d err=%v", c, err)
	}
	c, err = Compare(NewString("10"), NewInt(2))
	if err != nil || c <= 0 {
		t.Errorf("'10' vs 2: c=%d err=%v", c, err)
	}
}

func TestCompareNullErrors(t *testing.T) {
	if _, err := Compare(Null(), NewInt(1)); err == nil {
		t.Error("NULL comparison should error")
	}
	var ce *CompareError
	_, err := Compare(NewBool(true), NewString("x"))
	if err == nil {
		t.Fatal("bool vs non-numeric string should error")
	}
	if !asCompareError(err, &ce) {
		t.Errorf("want *CompareError, got %T", err)
	}
}

func asCompareError(err error, target **CompareError) bool {
	ce, ok := err.(*CompareError)
	if ok {
		*target = ce
	}
	return ok
}

func TestEqualAndIdentical(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL must not Equal NULL")
	}
	if !Identical(Null(), Null()) {
		t.Error("NULL must be Identical to NULL")
	}
	if !Equal(NewInt(1), NewFloat(1)) {
		t.Error("1 and 1.0 must be Equal")
	}
}

func TestParseDate(t *testing.T) {
	good := map[string]string{
		"2000-9-6":   "2000-09-06",
		"2000-09-06": "2000-09-06",
		" 1999-1-1":  "1999-01-01",
	}
	for in, want := range good {
		v, err := ParseDate(in)
		if err != nil {
			t.Errorf("ParseDate(%q): %v", in, err)
			continue
		}
		if v.S != want {
			t.Errorf("ParseDate(%q) = %q want %q", in, v.S, want)
		}
	}
	for _, bad := range []string{"2000-13-01", "2000-01-40", "abc", "2000/01/01", "2000-01"} {
		if _, err := ParseDate(bad); err == nil {
			t.Errorf("ParseDate(%q) should fail", bad)
		}
	}
}

func TestThreeValuedLogicTables(t *testing.T) {
	vals := []Truth{True, False, Unknown}
	for _, a := range vals {
		for _, b := range vals {
			and := a.And(b)
			or := a.Or(b)
			// Kleene logic identities.
			if and != b.And(a) {
				t.Errorf("AND not commutative for %v,%v", a, b)
			}
			if or != b.Or(a) {
				t.Errorf("OR not commutative for %v,%v", a, b)
			}
			// De Morgan.
			if and.Not() != a.Not().Or(b.Not()) {
				t.Errorf("De Morgan AND failed for %v,%v", a, b)
			}
			if or.Not() != a.Not().And(b.Not()) {
				t.Errorf("De Morgan OR failed for %v,%v", a, b)
			}
		}
	}
	if False.And(Unknown) != False {
		t.Error("FALSE AND UNKNOWN must be FALSE")
	}
	if True.Or(Unknown) != True {
		t.Error("TRUE OR UNKNOWN must be TRUE")
	}
	if Unknown.Not() != Unknown {
		t.Error("NOT UNKNOWN must be UNKNOWN")
	}
}

func TestTruthOf(t *testing.T) {
	cases := []struct {
		v    Value
		want Truth
	}{
		{Null(), Unknown},
		{NewBool(true), True},
		{NewBool(false), False},
		{NewInt(0), False},
		{NewInt(5), True},
		{NewFloat(0), False},
		{NewFloat(0.1), True},
		{NewString("x"), False},
	}
	for _, tc := range cases {
		if got := TruthOf(tc.v); got != tc.want {
			t.Errorf("TruthOf(%v) = %v want %v", tc.v, got, tc.want)
		}
	}
}

// Property: Compare is antisymmetric and reflexive over ints.
func TestCompareProperties(t *testing.T) {
	antisym := func(a, b int64) bool {
		c1, err1 := Compare(NewInt(a), NewInt(b))
		c2, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && sign(c1) == -sign(c2)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	refl := func(a int64) bool {
		c, err := Compare(NewInt(a), NewInt(a))
		return err == nil && c == 0
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	strRefl := func(s string) bool {
		return Identical(NewString(s), NewString(s))
	}
	if err := quick.Check(strRefl, nil); err != nil {
		t.Error(err)
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// Property: Truth.Val round-trips through TruthOf.
func TestTruthValRoundTrip(t *testing.T) {
	for _, tr := range []Truth{True, False, Unknown} {
		if got := TruthOf(tr.Val()); got != tr {
			t.Errorf("TruthOf(%v.Val()) = %v", tr, got)
		}
	}
}

// refEncode and refString are Encode and String as they were before the
// append forms existed: the bytes journals, divergence reports and BIND
// frames already hold must not change.
var refEscaper = strings.NewReplacer(
	`\`, `\\`, "\t", `\t`, "\n", `\n`, "\r", `\r`, ",", `\c`, " ", `\s`,
)

func refEncode(v Value) string {
	switch v.K {
	case KindNull:
		return "N"
	case KindInt:
		return "I:" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		return "F:" + strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindBool:
		if v.B() {
			return "B:1"
		}
		return "B:0"
	case KindDate:
		return "D:" + refEscaper.Replace(v.S)
	default:
		return "S:" + refEscaper.Replace(v.S)
	}
}

func refString(v Value) string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString, KindDate:
		return v.S
	case KindBool:
		if v.B() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

func TestAppendFormsMatchStringForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []Value{
		Null(), NewInt(0), NewInt(99), NewInt(100), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
		NewFloat(1e21), NewFloat(1e-7), NewFloat(math.MaxFloat64), NewFloat(math.SmallestNonzeroFloat64),
		NewBool(true), NewBool(false), NewDate("2026-01-02"), NewDate("not a,date"),
		NewString(""), NewString(`\`), NewString("a b\tc\nd\re,f\\g"), NewString(strings.Repeat("long, ", 40)),
		{K: Kind(99), S: "x y"},
	}
	for i := 0; i < 5000; i++ {
		switch rng.Intn(4) {
		case 0:
			values = append(values, NewInt(rng.Int63()-rng.Int63()))
		case 1:
			values = append(values, NewFloat(math.Float64frombits(rng.Uint64())))
		default:
			const alphabet = "ab \t\n\r\\,:'"
			b := make([]byte, rng.Intn(80))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			values = append(values, NewString(string(b)))
		}
	}
	prefix := []byte("kept:")
	for _, v := range values {
		if got, want := v.Encode(), refEncode(v); got != want {
			t.Fatalf("Encode(%#v) = %q, want %q", v, got, want)
		}
		if got := string(v.AppendEncode(prefix[:len(prefix):len(prefix)])); got != "kept:"+refEncode(v) {
			t.Fatalf("AppendEncode(%#v) = %q", v, got)
		}
		if got, want := v.String(), refString(v); got != want {
			t.Fatalf("String(%#v) = %q, want %q", v, got, want)
		}
		if got := string(v.AppendText(prefix[:len(prefix):len(prefix)])); got != "kept:"+refString(v) {
			t.Fatalf("AppendText(%#v) = %q", v, got)
		}
		if v.K > KindDate {
			continue
		}
		back, err := DecodeValue(v.Encode())
		same := back == v || (v.K == KindFloat && math.IsNaN(v.F()) && math.IsNaN(back.F()))
		if err != nil || !same {
			t.Fatalf("DecodeValue(Encode(%#v)) = %#v, %v", v, back, err)
		}
	}
}
