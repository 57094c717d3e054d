// Package types defines the SQL value model shared by the parser, the
// relational engine, the result comparator and the replication middleware.
//
// Values are small immutable structs; NULL is represented explicitly so
// that three-valued logic can be implemented faithfully in the engine.
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// Value kinds. KindNull is deliberately the zero value so that the zero
// Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single SQL scalar. The zero value is NULL.
//
// A Value is 32 bytes: a string header, one payload word and the kind.
// The payload word I holds an INT itself, a FLOAT's IEEE-754 bits (read
// them with F) and a BOOL as 0 or 1 (read it with B); it is 0 for the
// other kinds. Build values only through the constructors below, so the
// word always matches the kind. S holds VARCHAR text and normalized
// DATEs (YYYY-MM-DD).
type Value struct {
	S string
	I int64
	K Kind
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a floating point value.
func NewFloat(f float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(f))} }

// NewString returns a string value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// NewDate returns a date value; the payload must already be normalized
// (YYYY-MM-DD). Use ParseDate to normalize user input.
func NewDate(s string) Value { return Value{K: KindDate, S: s} }

// F returns a FLOAT's payload. It is meaningful only when K is KindFloat.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// B returns a BOOL's payload. It is meaningful only when K is KindBool.
func (v Value) B() bool { return v.I != 0 }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsNumeric reports whether the value is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// AsFloat converts a numeric value to float64. Non-numeric values yield 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F()
	default:
		return 0
	}
}

// AsInt returns an INT's value, and 0 for any other kind. A FLOAT is not
// truncated here: Go's int64(f) is implementation-defined outside
// int64's range, and the engine converts one under a range rule of its
// own (engine.IntArg).
func (v Value) AsInt() int64 {
	if v.K == KindInt {
		return v.I
	}
	return 0
}

// String renders the value the way the simulated servers print result
// cells. NULL renders as the literal "NULL". It is AppendText as a
// string; kinds whose text already exists as a string return it without
// a copy.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10) // AppendInt's digits; small values are interned
	case KindString, KindDate:
		return v.S
	case KindBool:
		if v.B() {
			return "TRUE"
		}
		return "FALSE"
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the String form to dst.
func (v Value) AppendText(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F(), 'g', -1, 64)
	case KindString, KindDate:
		return append(dst, v.S...)
	case KindBool:
		if v.B() {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	default:
		return append(dst, '?')
	}
}

// SQLLiteral renders the value as a SQL literal suitable for re-parsing.
func (v Value) SQLLiteral() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindDate:
		return "'" + v.S + "'"
	default:
		return v.String()
	}
}

// Encode renders the value in the kind-tagged text form used wherever a
// typed value must cross a text boundary losslessly: the wire protocol's
// BIND frames and the replayable bound-statement encoding of journals and
// divergence reports. The form is a single token with no whitespace,
// tabs, commas or newlines: "N" for NULL, otherwise "<kind>:<payload>"
// with backslash escapes for the payload's separator and whitespace
// characters. Spaces are escaped too (\s): encoded values survive any
// whitespace trimming a transport or artifact file may apply, which
// matters precisely for the trailing-space values the PG bind rule
// distinguishes.
func (v Value) Encode() string {
	var buf [64]byte
	return string(v.AppendEncode(buf[:0]))
}

// AppendEncode appends the Encode form to dst.
func (v Value) AppendEncode(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, 'N')
	case KindInt:
		return strconv.AppendInt(append(dst, "I:"...), v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(append(dst, "F:"...), v.F(), 'g', -1, 64)
	case KindBool:
		if v.B() {
			return append(dst, "B:1"...)
		}
		return append(dst, "B:0"...)
	case KindDate:
		return appendEscaped(append(dst, "D:"...), v.S)
	default:
		return appendEscaped(append(dst, "S:"...), v.S)
	}
}

// DecodeValue parses the Encode form back into a Value.
func DecodeValue(s string) (Value, error) {
	if s == "N" {
		return Null(), nil
	}
	kind, payload, ok := strings.Cut(s, ":")
	if !ok {
		return Value{}, fmt.Errorf("malformed encoded value %q", s)
	}
	switch kind {
	case "I":
		i, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("malformed encoded int %q", s)
		}
		return NewInt(i), nil
	case "F":
		f, err := strconv.ParseFloat(payload, 64)
		if err != nil {
			return Value{}, fmt.Errorf("malformed encoded float %q", s)
		}
		return NewFloat(f), nil
	case "B":
		return NewBool(payload == "1"), nil
	case "D":
		return NewDate(unescapePayload(payload)), nil
	case "S":
		return NewString(unescapePayload(payload)), nil
	default:
		return Value{}, fmt.Errorf("unknown encoded value kind %q", s)
	}
}

// appendEscaped appends s with the payload's separator and whitespace
// bytes backslash-escaped; unescapePayload is its inverse.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case ',':
			dst = append(dst, '\\', 'c')
		case ' ':
			dst = append(dst, '\\', 's')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func unescapePayload(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 'c':
			b.WriteByte(',')
		case 's':
			b.WriteByte(' ')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// CompareError describes an attempt to compare incomparable values.
type CompareError struct {
	Left, Right Kind
}

func (e *CompareError) Error() string {
	return fmt.Sprintf("cannot compare %s with %s", e.Left, e.Right)
}

// Compare orders two non-NULL values. It returns a negative, zero or
// positive integer in the usual way. Two INTs compare exactly, as int64
// (through float64, INTs beyond 2^53 would collapse — and disagree with
// the int64-keyed indexes and hash join); otherwise numeric values
// compare numerically across INT/FLOAT; strings and dates compare
// lexically (dates are stored normalized so lexical order is
// chronological). Comparing NULL or incompatible kinds returns a
// *CompareError.
func Compare(a, b Value) (int, error) {
	if a.K == KindInt && b.K == KindInt {
		return cmp.Compare(a.I, b.I), nil
	}
	if a.IsNull() || b.IsNull() {
		return 0, &CompareError{Left: a.K, Right: b.K}
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if (a.K == KindString || a.K == KindDate) && (b.K == KindString || b.K == KindDate) {
		return strings.Compare(a.S, b.S), nil
	}
	if a.K == KindBool && b.K == KindBool {
		switch {
		case a.B() == b.B():
			return 0, nil
		case !a.B():
			return -1, nil
		default:
			return 1, nil
		}
	}
	// Numeric vs string: attempt numeric coercion of the string, the way
	// the simulated servers' loose comparison works.
	if a.IsNumeric() && (b.K == KindString || b.K == KindDate) {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.S), 64); err == nil {
			return Compare(a, NewFloat(f))
		}
	}
	if (a.K == KindString || a.K == KindDate) && b.IsNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.S), 64); err == nil {
			return Compare(NewFloat(f), b)
		}
	}
	return 0, &CompareError{Left: a.K, Right: b.K}
}

// Equal reports whether two values are equal under Compare semantics.
// NULL is not equal to anything, including NULL.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Identical reports whether two values are indistinguishable, treating
// NULL as identical to NULL. Used for grouping, DISTINCT and ORDER BY
// where SQL treats NULLs as a single class.
func Identical(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// ParseDate normalizes a date literal. It accepts YYYY-MM-DD with 1- or
// 2-digit month/day components and zero-pads them.
func ParseDate(s string) (Value, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 3 {
		return Value{}, fmt.Errorf("invalid date literal %q", s)
	}
	nums := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return Value{}, fmt.Errorf("invalid date literal %q", s)
		}
		nums[i] = n
	}
	if nums[1] < 1 || nums[1] > 12 || nums[2] < 1 || nums[2] > 31 {
		return Value{}, fmt.Errorf("date out of range %q", s)
	}
	return NewDate(fmt.Sprintf("%04d-%02d-%02d", nums[0], nums[1], nums[2])), nil
}

// Truth is a three-valued logic truth value.
type Truth int

// Three-valued logic constants.
const (
	False Truth = iota
	True
	Unknown
)

// TruthOf converts a Value to a Truth: NULL is Unknown, booleans map
// directly, numbers are true when non-zero.
func TruthOf(v Value) Truth {
	switch v.K {
	case KindNull:
		return Unknown
	case KindBool:
		if v.B() {
			return True
		}
		return False
	case KindInt:
		if v.I != 0 {
			return True
		}
		return False
	case KindFloat:
		if v.F() != 0 {
			return True
		}
		return False
	default:
		return False
	}
}

// And returns the three-valued conjunction.
func (t Truth) And(o Truth) Truth {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or returns the three-valued disjunction.
func (t Truth) Or(o Truth) Truth {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not returns the three-valued negation.
func (t Truth) Not() Truth {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Val converts a Truth back into a Value (Unknown becomes NULL).
func (t Truth) Val() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null()
	}
}
