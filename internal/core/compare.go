package core

import (
	"sort"
	"strconv"
	"strings"

	"divsql/internal/engine"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// CompareOptions configures the result comparator. The defaults implement
// the paper's requirement (Section 4.3) that "the comparison algorithm
// must be written to allow for possible differences in the representation
// of correct results, e.g. different numbers of digits in the
// representation of floating point numbers, padding of characters in
// character strings".
type CompareOptions struct {
	// OrderSensitive compares rows in order (CompareFor sets it when the
	// query had an ORDER BY); otherwise rows are compared as multisets.
	OrderSensitive bool
	// FloatSigDigits is the number of significant digits at which
	// floating-point cells are considered equal (0 means exact).
	FloatSigDigits int
	// TrimStrings ignores leading/trailing whitespace (CHAR padding).
	TrimStrings bool
	// CompareColumnNames also compares result column names.
	CompareColumnNames bool
}

// DefaultCompareOptions returns the tolerant defaults used by the study
// and the middleware.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{
		FloatSigDigits:     9,
		TrimStrings:        true,
		CompareColumnNames: true,
	}
}

// CompareFor returns the options one statement's results are compared
// under: the defaults, order-sensitive exactly when the statement is a
// SELECT with an ORDER BY. p may be nil (text that does not parse).
func CompareFor(p *stmt.Parsed) CompareOptions {
	opts := DefaultCompareOptions()
	opts.OrderSensitive = p != nil && p.Select != nil && len(p.Select.OrderBy) > 0
	return opts
}

// StrictCompareOptions disables every normalization (used by the
// comparator ablation experiment).
func StrictCompareOptions() CompareOptions {
	return CompareOptions{OrderSensitive: true, CompareColumnNames: true}
}

// NormalizeCell canonicalizes one value under the options.
func NormalizeCell(v types.Value, opts CompareOptions) string {
	switch v.K {
	case types.KindNull:
		return "\x00NULL"
	case types.KindFloat, types.KindInt:
		var buf [40]byte
		return string(appendNumber(append(buf[:0], "n:"...), v, opts))
	case types.KindString, types.KindDate:
		return "s:" + cellText(v, opts)
	case types.KindBool:
		if v.B() {
			return "b:1"
		}
		return "b:0"
	default:
		return "?" + v.String()
	}
}

// appendNumber appends the canonical text of an INT or FLOAT cell. With
// FloatSigDigits set, integers and integral floats share one form (3 vs
// 3.0), and floats agree when they agree to that many digits.
func appendNumber(dst []byte, v types.Value, opts CompareOptions) []byte {
	if opts.FloatSigDigits > 0 {
		return strconv.AppendFloat(dst, v.AsFloat(), 'e', opts.FloatSigDigits-1, 64)
	}
	if v.K == types.KindInt {
		return strconv.AppendInt(dst, v.I, 10)
	}
	return strconv.AppendFloat(dst, v.F(), 'g', -1, 64)
}

// cellText is the compared text of a string or date cell.
func cellText(v types.Value, opts CompareOptions) string {
	if opts.TrimStrings {
		return strings.TrimRight(v.S, " ")
	}
	return v.S
}

// sameCell reports whether two cells have the same normal form, without
// building it: the allocation-free counterpart of comparing NormalizeCell
// strings.
func sameCell(a, b types.Value, opts CompareOptions) bool {
	switch a.K {
	case types.KindNull:
		return b.K == types.KindNull
	case types.KindInt, types.KindFloat:
		if !b.IsNumeric() {
			return false
		}
		if a.K == b.K && a.I == b.I { // I holds the INT, or the FLOAT's bits
			return true
		}
		var bufA, bufB [40]byte
		return string(appendNumber(bufA[:0], a, opts)) == string(appendNumber(bufB[:0], b, opts))
	case types.KindString, types.KindDate:
		return (b.K == types.KindString || b.K == types.KindDate) && cellText(a, opts) == cellText(b, opts)
	case types.KindBool:
		return b.K == types.KindBool && a.B() == b.B()
	default:
		return NormalizeCell(a, opts) == NormalizeCell(b, opts)
	}
}

// sameColumnName is the digest's column-name rule (upper-cased names
// compare equal); identical names, the usual case, are not re-cased.
func sameColumnName(a, b string) bool {
	return a == b || strings.ToUpper(a) == strings.ToUpper(b)
}

// sameResult reports whether two results are equal under the options by
// comparing normalized cells in place, rows in the order given. It is
// sound but not complete: true implies equal digests, while false only
// means "not shown equal" (the rows of an order-insensitive comparison
// may be permuted) and the caller decides by Digest.
func sameResult(a, b *engine.Result, opts CompareOptions) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != engine.ResultRows || b.Kind != engine.ResultRows {
		return a.Kind != engine.ResultRows && b.Kind != engine.ResultRows && a.Affected == b.Affected
	}
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	if opts.CompareColumnNames {
		for i, c := range a.Columns {
			if !sameColumnName(c, b.Columns[i]) {
				return false
			}
		}
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for j, v := range ra {
			if !sameCell(v, rb[j], opts) {
				return false
			}
		}
	}
	return true
}

// Digest produces a canonical signature of a result set under the
// options. Two results with equal digests are considered equivalent
// representations of the same output.
func Digest(res *engine.Result, opts CompareOptions) string {
	if res == nil {
		return "<nil>"
	}
	var b strings.Builder
	if res.Kind != engine.ResultRows {
		b.WriteString("affected:")
		b.WriteString(strconv.FormatInt(res.Affected, 10))
		return b.String()
	}
	if opts.CompareColumnNames {
		for _, c := range res.Columns {
			b.WriteString(strings.ToUpper(c))
			b.WriteByte('\x1f')
		}
	} else {
		b.WriteString(strconv.Itoa(len(res.Columns)))
	}
	b.WriteByte('\n')
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var rb strings.Builder
		for _, v := range row {
			rb.WriteString(NormalizeCell(v, opts))
			rb.WriteByte('\x1f')
		}
		rows[i] = rb.String()
	}
	if !opts.OrderSensitive {
		sort.Strings(rows)
	}
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// Equal reports whether two results are equivalent under the options.
func Equal(a, b *engine.Result, opts CompareOptions) bool {
	return sameResult(a, b, opts) || Digest(a, opts) == Digest(b, opts)
}

// Diff returns a short human-readable description of the first
// difference between two results, or "" when equal.
func Diff(a, b *engine.Result, opts CompareOptions) string {
	if Equal(a, b, opts) {
		return ""
	}
	if a == nil || b == nil {
		return "one result missing"
	}
	if a.Kind != b.Kind {
		return "result kinds differ"
	}
	if a.Kind != engine.ResultRows {
		return "affected row counts differ"
	}
	if len(a.Columns) != len(b.Columns) {
		return "column counts differ"
	}
	if opts.CompareColumnNames {
		for i := range a.Columns {
			if !strings.EqualFold(a.Columns[i], b.Columns[i]) {
				return "column names differ: " + a.Columns[i] + " vs " + b.Columns[i]
			}
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return "row counts differ"
	}
	return "row contents differ"
}
